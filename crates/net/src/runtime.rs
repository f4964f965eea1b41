//! The in-process runtime: [`run_loopback`] runs the server on the calling thread and
//! one worker thread per rank over the in-process [`loopback`] transport. It speaks the
//! same protocol as the TCP deployments without sockets or serialization, and it is
//! the in-process reference run the equivalence tests compare every other substrate
//! against.

use crate::server::serve;
use crate::transport::loopback;
use crate::worker::{run_worker, WorkerReport};
use crate::NetError;
use dssp_core::driver::JobConfig;
use dssp_sim::RunTrace;
use std::panic::resume_unwind;
use std::thread;

/// Runs `job` in-process over the [`loopback`] transport: [`serve`] on the calling
/// thread and one [`run_worker`] thread per rank. Every worker thread is joined before
/// this returns; the reports come back in rank order.
///
/// Returns the server's outcome next to the workers' reports, so a caller can check
/// both sides of a run that ended early (a chaos abort, a refused handshake).
///
/// # Panics
///
/// Panics if the configuration is inconsistent ([`JobConfig::validate`]), or, once
/// every worker has been joined, if a worker thread returned an error or panicked.
pub fn run_loopback(job: &JobConfig) -> (Result<RunTrace, NetError>, Vec<WorkerReport>) {
    job.validate();
    let (mut server, workers) = loopback(job.num_workers);
    let handles: Vec<_> = workers
        .into_iter()
        .enumerate()
        .map(|(rank, mut transport)| {
            let job = job.clone();
            thread::spawn(move || run_worker(&job, rank, &mut transport))
        })
        .collect();
    // The server end stays open until every worker has joined: a worker that pushes
    // after the run ended must still be able to read the shutdown broadcast.
    let result = serve(job, &mut server);
    let outcomes: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
    let reports = outcomes
        .into_iter()
        .enumerate()
        .map(|(rank, outcome)| match outcome {
            Ok(Ok(report)) => report,
            Ok(Err(e)) => panic!("loopback worker {rank} failed: {e}"),
            Err(panic) => resume_unwind(panic),
        })
        .collect();
    (result, reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dssp_ps::PolicyKind;
    use std::time::{Duration, Instant};

    fn run(job: &JobConfig) -> RunTrace {
        run_loopback(job).0.expect("run completes")
    }

    #[test]
    fn threaded_bsp_run_completes_and_learns() {
        let trace = run(&JobConfig::small(PolicyKind::Bsp));
        assert_eq!(trace.workers, 2);
        assert!(trace.total_pushes > 0);
        assert!(
            trace.final_accuracy() > 0.3,
            "accuracy {}",
            trace.final_accuracy()
        );
        // Every worker completed all of its iterations.
        let per_worker: u64 = trace.worker_summaries.iter().map(|w| w.iterations).sum();
        assert_eq!(per_worker, trace.total_pushes);
    }

    #[test]
    fn threaded_strict_dssp_respects_staleness_bound() {
        // The strict-range variant is the one that promises a hard staleness cap; the
        // literal Algorithm-1 policy may run further ahead on repeated controller grants.
        let mut job = JobConfig::small(PolicyKind::DsspStrict { s_l: 2, r_max: 4 });
        // Make worker 1 an artificial straggler so staleness actually arises.
        job.extra_compute_delay_ms = vec![0, 3];
        let trace = run(&job);
        assert!(
            trace.server_stats.staleness_max <= 2 + 4 + 1,
            "staleness {} above s_L + r_max + 1",
            trace.server_stats.staleness_max
        );
        assert!(trace.total_pushes > 0);
    }

    #[test]
    fn threaded_literal_dssp_completes_all_work_under_a_straggler() {
        let mut job = JobConfig::small(PolicyKind::Dssp { s_l: 2, r_max: 4 });
        job.extra_compute_delay_ms = vec![0, 3];
        let trace = run(&job);
        assert!(trace.total_pushes > 0);
        let per_worker: u64 = trace.worker_summaries.iter().map(|w| w.iterations).sum();
        assert_eq!(per_worker, trace.total_pushes);
        // Every push the gate held was released again: nothing is stranded at the end.
        assert_eq!(
            trace.server_stats.blocked_pushes,
            trace.server_stats.releases
        );
    }

    #[test]
    fn threaded_asp_never_blocks() {
        let mut job = JobConfig::small(PolicyKind::Asp);
        job.extra_compute_delay_ms = vec![0, 2];
        assert_eq!(run(&job).server_stats.blocked_pushes, 0);
    }

    #[test]
    #[should_panic(expected = "one entry per worker")]
    fn wrong_delay_vector_length_panics() {
        let mut job = JobConfig::small(PolicyKind::Asp);
        job.extra_compute_delay_ms = vec![1];
        job.num_workers = 3;
        let _ = run_loopback(&job);
    }

    #[test]
    fn chaos_abort_shuts_workers_down_instead_of_leaking_them() {
        let mut job = JobConfig::small(PolicyKind::Asp);
        job.fail_after_pushes = Some(3);
        let started = Instant::now();
        let (result, reports) = run_loopback(&job);
        assert!(
            matches!(result, Err(NetError::Aborted { pushes }) if pushes >= 3),
            "unexpected outcome: {result:?}"
        );
        assert_eq!(reports.len(), job.num_workers);
        // run_loopback joins every worker before returning; if Shutdown were not
        // propagated the blocked workers would keep the join (and this test) hanging
        // until their full epoch budget elapsed.
        assert!(started.elapsed() < Duration::from_secs(20));
    }

    #[test]
    fn deterministic_mode_is_bitwise_reproducible_across_runs() {
        let mut job = JobConfig::small(PolicyKind::Dssp { s_l: 1, r_max: 4 });
        job.deterministic = true;
        job.epochs = 1;
        let a = run(&job);
        let b = run(&job);
        assert_eq!(
            a.with_times_zeroed(),
            b.with_times_zeroed(),
            "two deterministic runs must match bitwise (wall-clock fields aside)"
        );
    }
}
