//! `dssp-net` — the networked DSSP parameter server.
//!
//! The simulator (`dssp-sim`) exercises the paper's server and synchronization
//! controller in virtual time inside one process. This crate adds the boundary that
//! defines production parameter-server systems (Li et al.'s Parameter Server, MXNet's
//! KVStore): a wire protocol, a transport, and per-worker
//! connection state, so the *same* decision logic gates workers across OS processes —
//! the single-machine analogue of the paper's 4-node testbed.
//!
//! Layers, bottom to top:
//!
//! | module | provides |
//! |---|---|
//! | [`wire`] | versioned, length-prefixed little-endian codec for the protocol messages (v3: 20 kinds incl. the multi-server group set), bulk LE fast paths |
//! | [`transport`] | [`ServerTransport`]/[`WorkerTransport`] traits + in-process [`transport::loopback`] |
//! | [`tcp`] | the real-socket transport (`std::net`, blocking reader thread per connection, read-timeout peer attribution) |
//! | [`server`] | [`serve`]: the single-threaded, lock-free server command loop |
//! | [`worker`] | [`run_worker`]: the client step-loop |
//! | [`runtime`] | [`run_loopback`]: server + one thread per worker over loopback |
//! | [`launch`] | [`launch::launch`]: server in-process + one child process per worker |
//! | [`cli`] | flag parsing shared by the `repro` subcommands and the launchers |
//! | [`metrics`] | atomic counter registry + hand-rolled Prometheus `GET /metrics` endpoint (`--metrics-addr`) |
//! | [`obs`] | the per-process observability bundle: event log + metrics + endpoint behind one set of hot-path hooks |
//!
//! The multi-server group deployment — N storage-only shard servers plus a
//! clock-only coordinator speaking this crate's protocol — lives one layer up in
//! `dssp-coord`.
//!
//! Every substrate sits on `dssp_core::driver`, so a deterministic [`run_loopback`]
//! run is the in-process reference: the workspace-level `net_equivalence` test holds
//! TCP runs and multi-server group runs bitwise-equal to it, since the TCP transport
//! ships IEEE-754 bit patterns verbatim.
//!
//! Since protocol v2 the steady-state frame path is **delta-pulling and
//! allocation-free**: workers cache per-shard versions and request only the shards
//! that advanced (`PullDelta`/`PullReplyDelta`, with a full-pull fallback on first
//! contact or version mismatch), and the TCP transport reuses pooled encode/decode
//! buffers, recycles bulk vectors between the command loop and each connection's
//! reader, and writes frames with one vectored syscall — zero heap allocations per
//! message on both ends once warm (enforced by a counting-allocator test).
//!
//! # Example (in-process loopback)
//!
//! ```
//! use dssp_core::driver::JobConfig;
//! use dssp_net::run_loopback;
//! use dssp_ps::PolicyKind;
//!
//! let mut job = JobConfig::small(PolicyKind::Bsp);
//! job.epochs = 1;
//! let (result, reports) = run_loopback(&job);
//! let trace = result.unwrap();
//! assert!(trace.total_pushes > 0);
//! assert_eq!(reports.len(), job.num_workers);
//! ```

#![deny(missing_docs)]

pub mod cli;
pub mod elastic;
mod error;
pub mod launch;
pub mod metrics;
pub mod obs;
pub mod runtime;
pub mod server;
pub mod tcp;
pub mod transport;
pub mod wire;
pub mod worker;

pub use elastic::{fault_due, CheckpointSink, FaultClock};
pub use error::{NetError, FAULT_EXIT_CODE};
pub use metrics::{Metrics, MetricsServer};
pub use obs::Obs;
pub use runtime::run_loopback;
pub use server::{require_helloed, serve, validate_hello};
pub use tcp::{TcpServerTransport, TcpWorkerTransport, TransportStats};
pub use transport::{apply_pull_message, PullOutcome, PullView, ServerTransport, WorkerTransport};
pub use wire::{Message, PullApplied, ShardUpdate, PROTOCOL_VERSION};
pub use worker::{run_worker, WorkerReport};
