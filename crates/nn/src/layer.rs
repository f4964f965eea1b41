//! The [`Layer`] and [`Model`] traits: the contract between the training substrate and
//! the distributed runtimes.

use crate::workspace::LayerScratch;
use dssp_tensor::Tensor;

/// A differentiable layer.
///
/// Layers own their parameters and accumulated gradients. The forward pass caches
/// whatever intermediate state the backward pass needs, so a layer instance must be used
/// in strict `forward` → `backward` order for a given mini-batch (which is how both the
/// simulator and the networked runtime drive it).
///
/// Parameters and gradients are exposed as flat `f32` slices via offset-based reads and
/// writes. That flat view is exactly what a worker pushes to the parameter server and
/// pulls back from it, mirroring the key-value tensor slices MXNet's KVStore exchanges
/// in the paper's implementation.
pub trait Layer: Send {
    /// Human-readable layer name used in diagnostics.
    fn name(&self) -> &str;

    /// Runs the forward pass. `train` selects training-time behaviour where relevant.
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor;

    /// Runs the backward pass given the gradient with respect to this layer's output,
    /// accumulating parameter gradients internally, and returns the gradient with
    /// respect to the layer input.
    fn backward(&mut self, grad_output: &Tensor) -> Tensor;

    /// Workspace-backed forward pass: writes the output into `out` and keeps any
    /// intermediate state in `scratch`, so a warmed workspace runs without heap
    /// allocations.
    ///
    /// The default implementation falls back to the allocating [`Layer::forward`];
    /// hot-path layers override it. Like `forward`/`backward`, the workspace pair must
    /// be called in strict `forward_ws` → `backward_ws` order with the same scratch.
    fn forward_ws(
        &mut self,
        input: &Tensor,
        out: &mut Tensor,
        train: bool,
        scratch: &mut LayerScratch,
    ) {
        let _ = scratch;
        *out = self.forward(input, train);
    }

    /// Workspace-backed backward pass: writes the input gradient into `grad_input`,
    /// reusing `scratch` buffers from the matching [`Layer::forward_ws`] call.
    ///
    /// The default implementation falls back to the allocating [`Layer::backward`].
    fn backward_ws(
        &mut self,
        grad_output: &Tensor,
        grad_input: &mut Tensor,
        scratch: &mut LayerScratch,
    ) {
        let _ = scratch;
        *grad_input = self.backward(grad_output);
    }

    /// Number of learnable parameters in this layer.
    fn param_len(&self) -> usize {
        0
    }

    /// Copies this layer's parameters into `out` (length must be `param_len()`).
    fn read_params(&self, _out: &mut [f32]) {}

    /// Overwrites this layer's parameters from `src` (length must be `param_len()`).
    fn write_params(&mut self, _src: &[f32]) {}

    /// Copies this layer's accumulated gradients into `out`.
    fn read_grads(&self, _out: &mut [f32]) {}

    /// Resets the accumulated gradients to zero.
    fn zero_grads(&mut self) {}

    /// Floating-point operations needed for one example's forward + backward pass.
    ///
    /// Used by the cluster time model to derive per-iteration compute time.
    fn flops_per_example(&self) -> u64;
}

/// A trainable model: the object a data-parallel worker replicates.
///
/// [`crate::Sequential`] is the only implementation in this crate, but the trait keeps
/// the distributed runtimes decoupled from the concrete architecture.
pub trait Model: Send {
    /// Runs the forward pass over a mini-batch.
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor;

    /// Runs the backward pass, accumulating parameter gradients.
    fn backward(&mut self, grad_output: &Tensor) -> Tensor;

    /// Total number of learnable parameters.
    fn param_len(&self) -> usize;

    /// Returns all parameters as one flat vector (layer order, row-major within layers).
    fn params_flat(&self) -> Vec<f32>;

    /// Overwrites all parameters from a flat vector.
    ///
    /// # Panics
    ///
    /// Implementations panic if `src.len() != param_len()`.
    fn set_params_flat(&mut self, src: &[f32]);

    /// Returns all accumulated gradients as one flat vector.
    fn grads_flat(&self) -> Vec<f32>;

    /// Resets accumulated gradients to zero.
    fn zero_grads(&mut self);

    /// Floating-point operations for one example (forward + backward).
    fn flops_per_example(&self) -> u64;

    /// Human-readable architecture name (e.g. `"downsized-alexnet"`).
    fn arch_name(&self) -> &str;
}
