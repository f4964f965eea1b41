//! Cross-substrate equivalence: under deterministic scheduling, every substrate must
//! be **bitwise-equal** to the in-process reference run (`dssp_net::run_loopback`) of
//! the same job — same weights evolution, same accuracies, same synchronization
//! statistics (wall-clock fields excepted, see `RunTrace::with_times_zeroed`). The
//! substrates compared are full vs. delta pulls, a single server over real TCP
//! sockets, and a **multi-server group**: one coordinator plus N shard servers over
//! real TCP sockets, with the model spread across server processes.
//!
//! This is the end-to-end proof that `dssp-net` and `dssp-coord` really are
//! substrates of one driver: the only code that differs between the runs is the
//! message plumbing and the storage topology, and neither perturbs a single bit.

use dssp::coord::run_group_threads;
use dssp::core::driver::JobConfig;
use dssp::net::{run_worker, serve, TcpServerTransport, TcpWorkerTransport};
use dssp::{PolicyKind, RunTrace};
use std::thread;

/// A classic single-server run over real TCP sockets (server + workers on threads).
fn run_tcp_single(job: &JobConfig) -> RunTrace {
    let mut server = TcpServerTransport::bind("127.0.0.1:0", job.num_workers).expect("bind");
    let addr = server.local_addr().to_string();
    let handles: Vec<_> = (0..job.num_workers)
        .map(|rank| {
            let job = job.clone();
            let addr = addr.clone();
            thread::spawn(move || {
                let mut t = TcpWorkerTransport::connect(&addr).expect("connect");
                run_worker(&job, rank, &mut t).expect("worker runs")
            })
        })
        .collect();
    let trace = serve(job, &mut server).expect("tcp run completes");
    for handle in handles {
        handle.join().expect("worker thread");
    }
    trace
}

/// A multi-server group run (coordinator + `job.servers` shard servers + workers,
/// all over real TCP).
fn run_group(job: &JobConfig) -> RunTrace {
    run_group_threads(job).expect("group run completes").trace
}

/// The in-process reference run: `serve` plus one `run_worker` thread per rank over
/// the loopback transport.
fn run_reference(job: &JobConfig) -> RunTrace {
    dssp::net::run_loopback(job)
        .0
        .expect("loopback run completes")
}

#[test]
fn repeated_deterministic_networked_runs_are_bitwise_stable() {
    let mut job = JobConfig::small_alexnet(PolicyKind::Dssp { s_l: 1, r_max: 4 });
    job.deterministic = true;
    let a = run_reference(&job);
    let b = run_reference(&job);
    assert_eq!(a.with_times_zeroed(), b.with_times_zeroed());
}

#[test]
fn delta_pulls_do_not_perturb_a_single_bit() {
    // The same deterministic job with incremental pulls on and off: the workers
    // reconstruct identical weights from shard deltas, so traces are bitwise-equal
    // (delta_pulls is excluded from nothing else — only the wire traffic differs).
    // Sharded storage makes the deltas non-trivial.
    let mut job = JobConfig::small_alexnet(PolicyKind::Dssp { s_l: 1, r_max: 4 });
    job.deterministic = true;
    job.shards = 4;
    job.delta_pulls = true;
    let with_deltas = run_reference(&job);
    job.delta_pulls = false;
    let without_deltas = run_reference(&job);
    assert!(with_deltas.total_pushes > 0);
    assert_eq!(
        with_deltas.with_times_zeroed(),
        without_deltas.with_times_zeroed(),
        "delta and full pulls must reconstruct identical training"
    );
}

#[test]
fn group_runs_are_bitwise_equal_across_topologies() {
    // The acceptance matrix of the group subsystem: on the AlexNet analogue under
    // deterministic DSSP, the loopback reference run, a classic 1-server TCP run, and
    // a 2-server group run (delta pulls on AND off) must all be bitwise identical —
    // the model is physically spread over two server sockets with per-server
    // optimizer slices, and not a bit of the training run moves.
    let mut job = JobConfig::small_alexnet(PolicyKind::Dssp { s_l: 1, r_max: 4 });
    job.deterministic = true;
    job.shards = 4;

    let reference = run_reference(&job).with_times_zeroed();
    let tcp_single = run_tcp_single(&job).with_times_zeroed();
    assert!(reference.total_pushes > 0);
    assert_eq!(
        reference, tcp_single,
        "loopback and 1-server TCP runs diverged"
    );

    job.servers = 2;
    let group_delta = run_group(&job).with_times_zeroed();
    assert_eq!(
        reference, group_delta,
        "2-server group (delta pulls) diverged from the single server"
    );

    job.delta_pulls = false;
    let group_full = run_group(&job).with_times_zeroed();
    assert_eq!(
        reference, group_full,
        "2-server group (full pulls) diverged from the single server"
    );
}

#[test]
fn four_server_group_matches_two_server_group_bitwise() {
    let mut job = JobConfig::small_alexnet(PolicyKind::Bsp);
    job.deterministic = true;
    job.shards = 8;
    job.servers = 2;
    let two = run_group(&job).with_times_zeroed();
    job.servers = 4;
    let four = run_group(&job).with_times_zeroed();
    assert!(two.total_pushes > 0);
    assert_eq!(two, four, "server count must not perturb a single bit");
}
