//! The repository benchmark: three named DSSP training workloads, each measured end
//! to end from outside the program and, in a separate traced run, broken into the
//! per-layer costs of a training round.
//!
//! Every measurement wraps public API only: the transport traits that `serve`,
//! `run_worker`, `coordinate`, `serve_shard` and `run_group_worker` take as
//! `&mut dyn` ([`probe`]), and direct calls into the public functions of the tensor,
//! nn, data, ps and wire layers ([`micro`]).

pub mod child;
pub mod harness;
pub mod job;
pub mod metrics;
pub mod micro;
pub mod probe;
pub mod record;
pub mod stats;
pub mod workloads;
