//! Run the same DSSP parameter-server logic on real threads with wall-clock time: the
//! server on the main thread, one thread per worker, talking the wire protocol over
//! the in-process loopback transport.
//!
//! Worker 1 is given an artificial per-iteration delay, playing the role of the slower
//! GPU in the paper's heterogeneous experiment.
//!
//! ```text
//! cargo run --release --example threaded_runtime
//! ```

use dssp_core::driver::JobConfig;
use dssp_core::report;
use dssp_net::run_loopback;
use dssp_ps::PolicyKind;

fn main() {
    println!("Threaded parameter-server runtime: DSSP vs SSP with a real straggler thread\n");

    for policy in [
        PolicyKind::Ssp { s: 3 },
        PolicyKind::Dssp { s_l: 3, r_max: 12 },
    ] {
        let mut job = JobConfig::small(policy);
        job.epochs = 3;
        // Worker 1 computes each iteration 4 ms slower than worker 0.
        job.extra_compute_delay_ms = vec![0, 4];
        let trace = run_loopback(&job).0.expect("loopback run completes");
        println!("{}", report::trace_summary_line(&trace));
        for w in &trace.worker_summaries {
            println!(
                "    worker {}: {} iterations, {:.3}s spent waiting for OK",
                w.worker, w.iterations, w.waiting_time_s
            );
        }
        println!(
            "    max staleness observed: {}\n",
            trace.server_stats.staleness_max
        );
    }
}
