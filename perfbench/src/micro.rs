//! Per-layer microbenchmarks: direct calls into the public functions of the tensor,
//! nn, data and wire layers, at the shapes and frame sizes the workload configs
//! produce (never at fixed probe sizes).
//!
//! Each timer repeats its call until a time budget or a repetition cap is reached
//! and reports the median call.

use crate::workloads::{Substrate, Workload};
use dssp_coord::{GroupLayout, ShardServerState};
use dssp_core::driver::JobConfig;
use dssp_data::BatchIter;
use dssp_net::transport::PullView;
use dssp_net::wire;
use dssp_nn::models::ModelSpec;
use dssp_nn::{Model, Sequential, SoftmaxCrossEntropy, Workspace};
use dssp_ps::ShardedStore;
use dssp_tensor::{col2im_t_into, im2col_t_into, uniform_init, Conv2dSpec, Tensor};
use std::time::{Duration, Instant};

/// Median nanoseconds per call of `f`, over at least 5 calls and at most `max_reps`,
/// stopping early once `budget` has been spent. Two untimed calls warm it up.
pub fn median_ns(budget: Duration, max_reps: usize, mut f: impl FnMut()) -> f64 {
    median_of(budget, max_reps, || {
        let t = Instant::now();
        f();
        t.elapsed().as_nanos() as f64
    })
}

/// Like [`median_ns`], but `f` times the part of its work that counts and returns
/// those nanoseconds.
pub fn median_of(budget: Duration, max_reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    f();
    f();
    let start = Instant::now();
    let mut samples = Vec::with_capacity(max_reps.min(1 << 16));
    while samples.len() < max_reps && (samples.len() < 5 || start.elapsed() < budget) {
        samples.push(f());
    }
    crate::stats::median(&samples)
}

/// One parameterized layer of a model, as the tensor kernels see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A 3×3, stride-1, padding-1 convolution on `side × side` inputs.
    Conv {
        /// Input channels.
        cin: usize,
        /// Output channels.
        cout: usize,
        /// Input (and output) side length.
        side: usize,
    },
    /// A fully connected layer.
    Dense {
        /// Input features.
        din: usize,
        /// Output features.
        dout: usize,
    },
}

impl Op {
    fn params(self) -> usize {
        match self {
            Op::Conv { cin, cout, .. } => cout * cin * 9 + cout,
            Op::Dense { din, dout } => din * dout + dout,
        }
    }
}

fn conv_spec(cin: usize, cout: usize) -> Conv2dSpec {
    Conv2dSpec {
        in_channels: cin,
        out_channels: cout,
        kernel: 3,
        stride: 1,
        padding: 1,
    }
}

/// The parameterized layers of `spec`, in order, as `dssp_nn::models` builds them.
///
/// # Panics
///
/// Panics if the enumerated parameter count differs from the built model's, i.e. if
/// the model zoo changed shape and this list needs updating.
pub fn model_ops(spec: &ModelSpec) -> Vec<Op> {
    let ops = match *spec {
        ModelSpec::Mlp {
            input_dim,
            ref hidden,
            classes,
        } => {
            let mut dims = vec![input_dim];
            dims.extend(hidden);
            dims.push(classes);
            dims.windows(2)
                .map(|d| Op::Dense {
                    din: d[0],
                    dout: d[1],
                })
                .collect()
        }
        ModelSpec::LogisticRegression { input_dim, classes } => vec![Op::Dense {
            din: input_dim,
            dout: classes,
        }],
        ModelSpec::DownsizedAlexNet {
            image_side: s,
            classes,
        } => vec![
            Op::Conv {
                cin: 3,
                cout: 8,
                side: s,
            },
            Op::Conv {
                cin: 8,
                cout: 16,
                side: s / 2,
            },
            Op::Conv {
                cin: 16,
                cout: 16,
                side: s / 4,
            },
            Op::Dense {
                din: 16 * (s / 8) * (s / 8),
                dout: 384,
            },
            Op::Dense {
                din: 384,
                dout: classes,
            },
        ],
        ModelSpec::ResNetCifar {
            image_side: s,
            blocks,
            classes,
        } => {
            let mut ops = vec![Op::Conv {
                cin: 3,
                cout: 8,
                side: s,
            }];
            ops.extend((0..2 * blocks).map(|_| Op::Conv {
                cin: 8,
                cout: 8,
                side: s / 2,
            }));
            ops.push(Op::Dense {
                din: 8 * (s / 4) * (s / 4),
                dout: classes,
            });
            ops
        }
    };
    let counted: usize = ops.iter().map(|op| op.params()).sum();
    assert_eq!(
        counted,
        spec.build(0).param_len(),
        "the layer list of {spec:?} is out of date"
    );
    ops
}

/// Microseconds per training step spent in each kernel family when one worker step
/// of `job`'s model runs every GEMM, `im2col_t` and `col2im_t` call it makes, at
/// the exact shapes it makes them.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelCosts {
    /// `matmul_into` + `matmul_nt_into` + `matmul_tn_into`.
    pub gemm_us: f64,
    /// `im2col_t_into`.
    pub im2col_t_us: f64,
    /// `col2im_t_into`.
    pub col2im_t_us: f64,
}

/// Times the tensor kernels of one training step of `job`'s model.
pub fn kernels(job: &JobConfig, budget: Duration) -> KernelCosts {
    let n = job.batch_size;
    let mut ops = model_ops(&job.model);
    // Identical layers (the ResNet blocks) are timed once and counted per use.
    let mut counted: Vec<(Op, usize)> = Vec::new();
    for op in ops.drain(..) {
        match counted.iter_mut().find(|(o, _)| *o == op) {
            Some((_, count)) => *count += 1,
            None => counted.push((op, 1)),
        }
    }
    let per = budget / (counted.len() as u32 * 5).max(1);
    let mut costs = KernelCosts::default();
    let mut out = Tensor::default();
    for (op, count) in counted {
        let uses = count as f64;
        match op {
            Op::Dense { din, dout } => {
                let x = uniform_init(&[n, din], 1.0, 1);
                let w = uniform_init(&[din, dout], 0.1, 2);
                let g = uniform_init(&[n, dout], 0.1, 3);
                let fwd = median_ns(per, 10_000, || x.matmul_into(&w, &mut out));
                let dw = median_ns(per, 10_000, || x.matmul_tn_into(&g, &mut out));
                let dx = median_ns(per, 10_000, || g.matmul_nt_into(&w, &mut out));
                costs.gemm_us += uses * (fwd + dw + dx) / 1e3;
            }
            Op::Conv { cin, cout, side } => {
                let spec = conv_spec(cin, cout);
                let npos = n * side * side;
                let input = uniform_init(&[n, cin, side, side], 1.0, 4);
                let w = uniform_init(&[cout, cin * 9], 0.1, 5);
                let w_t = uniform_init(&[cin * 9, cout], 0.1, 6);
                let g_t = uniform_init(&[cout, npos], 0.1, 7);
                let mut cols = Tensor::default();
                im2col_t_into(&input, side, side, &spec, &mut cols);
                let grad_cols = uniform_init(&[cin * 9, npos], 0.1, 8);
                let im2col = median_ns(per, 10_000, || {
                    im2col_t_into(&input, side, side, &spec, &mut out)
                });
                let col2im = median_ns(per, 10_000, || {
                    col2im_t_into(&grad_cols, n, side, side, &spec, &mut out)
                });
                let fwd = median_ns(per, 10_000, || w.matmul_into(&cols, &mut out));
                let dw = median_ns(per, 10_000, || g_t.matmul_nt_into(&cols, &mut out));
                let dx = median_ns(per, 10_000, || w_t.matmul_into(&g_t, &mut out));
                costs.gemm_us += uses * (fwd + dw + dx) / 1e3;
                costs.im2col_t_us += uses * im2col / 1e3;
                costs.col2im_t_us += uses * col2im / 1e3;
            }
        }
    }
    costs
}

/// Milliseconds of one `forward_ws` and one `backward_ws` of `job`'s model on one
/// of its training batches.
pub fn forward_backward(job: &JobConfig, budget: Duration) -> (f64, f64) {
    let dataset = job.data.generate(job.seed);
    let shard = dataset.shard_train(job.num_workers).swap_remove(0);
    let (x, labels) = BatchIter::new(shard, job.batch_size, job.seed).next_batch();
    let mut model: Sequential = job.model.build(job.seed);
    let mut ws = Workspace::new();
    let loss = SoftmaxCrossEntropy::new();
    let mut grad = Tensor::default();
    let forward = median_ns(budget / 2, 2_000, || {
        model.forward_ws(&x, true, &mut ws);
    });
    let logits = model.forward_ws(&x, true, &mut ws).clone();
    loss.loss_and_grad_into(&logits, &labels, &mut grad);
    let backward = median_of(budget / 2, 2_000, || {
        // Forward first so backward sees this batch's activations, as in training.
        model.forward_ws(&x, true, &mut ws);
        model.zero_grads();
        let t = Instant::now();
        model.backward_ws(&grad, &mut ws);
        t.elapsed().as_nanos() as f64
    });
    (forward / 1e6, backward / 1e6)
}

/// Set-up and data-path costs of `job`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupCosts {
    /// `ModelSpec::build`, milliseconds.
    pub build_ms: f64,
    /// `DataSpec::generate`, milliseconds.
    pub generate_ms: f64,
    /// `BatchIter::next_batch`, microseconds.
    pub next_batch_us: f64,
    /// The server's evaluation forward pass over `eval_max_examples` test examples,
    /// milliseconds.
    pub eval_ms: f64,
}

/// Times model build, dataset generation, batch drawing and evaluation for `job`.
pub fn setup_costs(job: &JobConfig, budget: Duration) -> SetupCosts {
    let per = budget / 4;
    let build = median_ns(per, 200, || {
        std::hint::black_box(job.model.build(job.seed));
    });
    let generate = median_ns(per, 50, || {
        std::hint::black_box(job.data.generate(job.seed));
    });
    let dataset = job.data.generate(job.seed);
    let shard = dataset.shard_train(job.num_workers).swap_remove(0);
    let mut batches = BatchIter::new(shard, job.batch_size, job.seed);
    let next_batch = median_ns(per, 20_000, || {
        std::hint::black_box(batches.next_batch());
    });
    let (x, labels) = dataset.test_batch(job.eval_max_examples);
    let mut model = job.model.build(job.seed);
    let mut ws = Workspace::new();
    let eval = median_ns(per, 500, || {
        let logits = model.forward_ws(&x, false, &mut ws);
        std::hint::black_box(dssp_nn::accuracy(logits, &labels));
    });
    SetupCosts {
        build_ms: build / 1e6,
        generate_ms: generate / 1e6,
        next_batch_us: next_batch / 1e3,
        eval_ms: eval / 1e6,
    }
}

/// Microseconds per call of the wire codec on the frames `workload` exchanges, and
/// the frame sizes in bytes.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireCosts {
    /// Encoding one push (a push slice on a group).
    pub encode_push_us: f64,
    /// Decoding it into a reused gradient buffer.
    pub decode_push_us: f64,
    /// Encoding one steady-state pull reply (every shard stale, as per-push updates
    /// leave it).
    pub encode_pull_reply_us: f64,
    /// Applying it to a worker's weight and version caches.
    pub decode_pull_reply_us: f64,
    /// Push payload bytes.
    pub push_bytes: usize,
    /// Pull-reply payload bytes.
    pub pull_reply_bytes: usize,
}

/// Times the wire codec at `job`'s frame sizes on `workload`'s substrate.
pub fn wire_costs(workload: Workload, job: &JobConfig, budget: Duration) -> WireCosts {
    let per = budget / 4;
    let params = job.model.build(job.seed).params_flat();
    let grads: Vec<f32> = (0..params.len()).map(|i| (i as f32 * 0.37).sin()).collect();
    let mut buf = Vec::with_capacity(8 * params.len() + 1024);
    let mut decoded: Vec<f32> = Vec::with_capacity(params.len());
    let group = workload.substrate() == Substrate::TcpGroup;
    let (encode_push, decode_push, push_bytes) = if group {
        let layout = GroupLayout::new(params.len(), job.shards, job.servers);
        let (start, end) = layout.key_range(0);
        let slice = &grads[start..end];
        let encode = median_ns(per, 50_000, || {
            buf.clear();
            wire::encode_push_slice(&mut buf, 7, 0, 1, slice);
        });
        let payload = buf.clone();
        let decode = median_ns(per, 50_000, || {
            wire::decode_push_slice_into(&payload, &mut decoded).expect("valid push slice");
        });
        (encode, decode, payload.len())
    } else {
        let encode = median_ns(per, 50_000, || {
            buf.clear();
            wire::encode_push(&mut buf, 7, 1, &grads);
        });
        let payload = buf.clone();
        let decode = median_ns(per, 50_000, || {
            wire::decode_push_into(&payload, &mut decoded).expect("valid push");
        });
        (encode, decode, payload.len())
    };

    let (encode_reply, reply) = if group {
        let mut state = ShardServerState::from_job(job, 0);
        let slice_len = state.slice_len();
        state.apply_slice(&grads[..slice_len]);
        let known = vec![0u64; state.owned_shards()];
        let encode = median_ns(per, 50_000, || {
            buf.clear();
            state
                .encode_pull(&known, false, &mut buf)
                .expect("valid pull");
        });
        (encode, buf.clone())
    } else {
        let mut store = ShardedStore::new(params.clone(), job.shards);
        for shard in 0..job.shards {
            let (a, b) = store.key_range(shard);
            store.apply_shard(shard, &grads[a..b], 1e-3);
        }
        let known = vec![0u64; job.shards];
        let view = PullView {
            clock: 1,
            versions: store.versions(),
            offsets: store.offsets(),
            weights: store.as_flat(),
            known: Some(&known),
        };
        let encode = median_ns(per, 50_000, || {
            buf.clear();
            view.encode(&mut buf);
        });
        (encode, buf.clone())
    };
    let mut weights = params.clone();
    let mut versions = vec![0u64; job.shards];
    let decode_reply = median_ns(per, 50_000, || {
        versions.iter_mut().for_each(|v| *v = 0);
        wire::apply_pull_reply(&reply, &mut weights, &mut versions).expect("valid pull reply");
    });
    WireCosts {
        encode_push_us: encode_push / 1e3,
        decode_push_us: decode_push / 1e3,
        encode_pull_reply_us: encode_reply / 1e3,
        decode_pull_reply_us: decode_reply / 1e3,
        push_bytes,
        pull_reply_bytes: reply.len(),
    }
}

/// Runs every microbenchmark `rounds` times within `budget` for `workload`'s job
/// and returns each metric's value per round, plus a note on the frame sizes the
/// wire codec was timed at.
pub fn suite(
    workload: Workload,
    job: &JobConfig,
    budget: Duration,
    rounds: u32,
) -> (Vec<(&'static str, Vec<f64>)>, String) {
    let alexnet = Workload::HeteroDsspAlexnet.job(job.seed);
    let resnet = Workload::HomoBspResnet.job(job.seed);
    let per_round = budget / rounds.max(1);
    let slice = |share: f64| per_round.mul_f64(share);
    let mut out: Vec<(&'static str, Vec<f64>)> = Vec::new();
    let mut add = |name: &'static str, v: f64| match out.iter_mut().find(|(k, _)| *k == name) {
        Some((_, vs)) => vs.push(v),
        None => out.push((name, vec![v])),
    };
    let mut wire = WireCosts::default();
    for _ in 0..rounds {
        let k = kernels(job, slice(0.25));
        add("tensor.gemm_us", k.gemm_us);
        add("tensor.im2col_t_us", k.im2col_t_us);
        add("tensor.col2im_t_us", k.col2im_t_us);
        let (f, b) = forward_backward(&resnet, slice(0.15));
        add("nn.resnet.forward_ms", f);
        add("nn.resnet.backward_ms", b);
        let (f, b) = forward_backward(&alexnet, slice(0.1));
        add("nn.alexnet.forward_ms", f);
        add("nn.alexnet.backward_ms", b);
        let s = setup_costs(job, slice(0.3));
        add("nn.eval_ms", s.eval_ms);
        add("nn.build_ms", s.build_ms);
        add("data.generate_ms", s.generate_ms);
        add("data.next_batch_us", s.next_batch_us);
        wire = wire_costs(workload, job, slice(0.2));
        add("wire.encode_push_us", wire.encode_push_us);
        add("wire.decode_push_us", wire.decode_push_us);
        add("wire.encode_pull_reply_us", wire.encode_pull_reply_us);
        add("wire.decode_pull_reply_us", wire.decode_pull_reply_us);
    }
    let frames = format!(
        "push payload {} bytes, pull-reply payload {} bytes ({})",
        wire.push_bytes,
        wire.pull_reply_bytes,
        if workload.substrate() == Substrate::TcpGroup {
            "one shard server's slice"
        } else {
            "whole model"
        }
    );
    (out, frames)
}
