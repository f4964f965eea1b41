//! One measured training job: run it, check its outputs, and reduce what the
//! wrappers saw to the job's metrics.

use crate::harness::{run_job, JobRun, Probe};
use crate::probe::{Layer, ServerLog, Span};
use crate::stats::{median, quantile, sorted, tail_percentile};
use crate::workloads::{Substrate, Workload};
use dssp_core::driver::{JobConfig, ServerLoop};
use dssp_nn::{Model, Sgd};
use dssp_ps::{
    ClockTable, IntervalTracker, ParameterServer, PolicyKind, ServerConfig, SyncController,
};
use std::fmt::Write as _;
use std::time::Instant;

/// The round tail uses the highest percentile with at least this many rounds beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The end-to-end measurements of one job.
#[derive(Debug, Clone, Default)]
pub struct JobMetrics {
    /// Job start to the first push sent by any worker, seconds.
    pub setup_s: f64,
    /// Training examples per second from the first push to the job's end.
    pub samples_per_s: f64,
    /// Median across workers of each worker's median round, milliseconds.
    pub round_p50_ms: f64,
    /// The round at [`JobMetrics::tail_pct`], milliseconds.
    pub round_tail_ms: f64,
    /// The percentile `round_tail_ms` reports.
    pub tail_pct: f64,
    /// Rounds beyond that percentile.
    pub tail_beyond: usize,
    /// Rounds measured (the first round of every worker excluded).
    pub rounds: usize,
    /// Test accuracy of the final global weights.
    pub final_accuracy: f64,
    /// Correctness checks this job failed (empty when it passed all of them).
    pub failed_checks: Vec<String>,
    /// Per-layer values of a traced job, by metric name.
    pub layers: Vec<(String, f64)>,
}

/// Runs `job` for `workload` and measures it. A run error is returned as a failed
/// check, never dropped.
pub fn measure(workload: Workload, job: &JobConfig, traced: bool) -> (JobMetrics, Option<JobRun>) {
    let probe = if traced {
        Probe::Traced
    } else {
        Probe::Untraced
    };
    match run_job(job, workload.substrate(), probe) {
        Ok(run) => {
            let mut m = end_to_end(job, &run);
            m.failed_checks = check(workload, job, &run);
            if traced {
                m.layers = layers(workload, job, &run);
            }
            (m, Some(run))
        }
        Err(e) => (
            JobMetrics {
                failed_checks: vec![format!("run error: {e}")],
                ..JobMetrics::default()
            },
            None,
        ),
    }
}

fn first_push(run: &JobRun) -> u64 {
    run.workers
        .iter()
        .filter_map(|w| w.pushes.first().copied())
        .min()
        .unwrap_or(run.end_ns)
}

/// Each worker's rounds, first round excluded, ascending, in nanoseconds.
fn rounds_ns(run: &JobRun) -> Vec<Vec<f64>> {
    run.workers
        .iter()
        .map(|w| {
            sorted(
                w.pushes
                    .windows(2)
                    .skip(1)
                    .map(|p| (p[1] - p[0]) as f64)
                    .collect(),
            )
        })
        .collect()
}

fn end_to_end(job: &JobConfig, run: &JobRun) -> JobMetrics {
    let first = first_push(run);
    let per_worker = rounds_ns(run);
    // The median is taken per worker, then across workers: a straggler's rounds form
    // their own mode, and the median of the pooled rounds would sit in the gap
    // between the modes, where a small shift in either moves it far.
    let medians: Vec<f64> = per_worker.iter().map(|r| quantile(r, 0.5)).collect();
    let pooled = sorted(per_worker.concat());
    let (tail_pct, tail_beyond) = tail_percentile(pooled.len(), TAIL_MIN_BEYOND);
    let training_s = (run.end_ns.saturating_sub(first)) as f64 / 1e9;
    JobMetrics {
        setup_s: (first.saturating_sub(run.start_ns)) as f64 / 1e9,
        samples_per_s: (run.trace.total_pushes * job.batch_size as u64) as f64 / training_s,
        round_p50_ms: median(&medians) / 1e6,
        round_tail_ms: quantile(&pooled, tail_pct / 100.0) / 1e6,
        tail_pct,
        tail_beyond,
        rounds: pooled.len(),
        final_accuracy: run.trace.final_accuracy(),
        ..JobMetrics::default()
    }
}

/// The output checks every job must pass.
fn check(workload: Workload, job: &JobConfig, run: &JobRun) -> Vec<String> {
    let mut failed = Vec::new();
    let targets: u64 = ServerLoop::new(job).targets().iter().sum();
    if run.trace.total_pushes != targets {
        failed.push(format!(
            "total_pushes {} != sum of worker targets {targets}",
            run.trace.total_pushes
        ));
    }
    for r in &run.reports {
        if r.shutdown_early {
            failed.push(format!("worker {} reported shutdown_early", r.rank));
        }
    }
    let stats = &run.trace.server_stats;
    if workload.expects_credits() && stats.credits_granted == 0 {
        failed.push("DSSP granted no credits (credits_granted = 0)".to_string());
    }
    // The gate counts a pusher's lead after its own clock increment, so a gradient
    // computed at most s_U iterations ahead shows as a lead of at most s_U + 1.
    if let Some(s_u) = staleness_bound(job.policy) {
        if stats.staleness_max > s_u + 1 {
            failed.push(format!(
                "staleness_max {} exceeds s_U = {s_u} (lead bound {})",
                stats.staleness_max,
                s_u + 1
            ));
        }
    }
    // Literal DSSP promises no bound on the cumulative lead, only on each grant: the
    // controller's r* is at most r_max, and the grants the gate sent out are the
    // credits it counted.
    if let (PolicyKind::Dssp { r_max, .. }, Some(gate)) = (job.policy, run.servers.first()) {
        if gate.grant_max > r_max {
            failed.push(format!(
                "a single grant of {} extra iterations exceeds r_max = {r_max}",
                gate.grant_max
            ));
        }
        if gate.grant_sum != stats.credits_granted {
            failed.push(format!(
                "grants sent to workers sum to {}, but credits_granted = {}",
                gate.grant_sum, stats.credits_granted
            ));
        }
    }
    let chance = 1.0 / job.model.classes() as f64;
    if run.trace.final_accuracy() <= chance {
        failed.push(format!(
            "final_accuracy {} is not above chance {chance}",
            run.trace.final_accuracy()
        ));
    }
    failed
}

/// The bound on every push's staleness that a policy promises (Theorem 2's
/// precondition `s <= s_U`), or `None` when it promises none: ASP never gates, and
/// literal DSSP lets a worker that keeps being granted credits lead without limit.
fn staleness_bound(policy: PolicyKind) -> Option<u64> {
    match policy {
        PolicyKind::Bsp => Some(0),
        PolicyKind::Ssp { s } => Some(s),
        PolicyKind::DsspStrict { s_l, r_max } => Some(s_l + r_max),
        PolicyKind::Dssp { .. } | PolicyKind::Asp => None,
    }
}

fn spans_of<'a>(spans: impl Iterator<Item = &'a Span>, layer: Layer) -> Vec<f64> {
    // Round 0 (setup) and round 1 (the excluded first round) are not steady state.
    spans
        .filter(|s| s.layer == layer && s.iter >= 2)
        .map(|s| s.ns() as f64)
        .collect()
}

fn worker_spans(run: &JobRun, layer: Layer) -> Vec<f64> {
    spans_of(run.workers.iter().flat_map(|w| w.spans.iter()), layer)
}

fn server_spans(logs: &[ServerLog], layer: Layer) -> Vec<f64> {
    spans_of(logs.iter().flat_map(|l| l.spans.iter()), layer)
}

/// Median in the given unit (`scale` nanoseconds per unit); 0 when the layer is not
/// on this workload's path.
fn med(values: &[f64], scale: f64) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values) / scale
    }
}

fn layers(workload: Workload, job: &JobConfig, run: &JobRun) -> Vec<(String, f64)> {
    const US: f64 = 1e3;
    const MS: f64 = 1e6;
    let group = workload.substrate() == Substrate::TcpGroup;
    let push_send = worker_spans(run, Layer::PushSend);
    let reply_wait = worker_spans(run, Layer::ReplyWait);
    let pull = worker_spans(run, Layer::Pull);
    let compute = worker_spans(run, Layer::Compute);
    let grant = worker_spans(run, Layer::GrantRtt);
    let round = worker_spans(run, Layer::Round);
    let gating: &[ServerLog] = &run.servers[..run.servers.len().min(1)];
    let shards: &[ServerLog] = if group { &run.servers[1..] } else { &[] };

    let pushes = run.trace.total_pushes.max(1) as f64;
    let bytes: u64 = run
        .stats
        .iter()
        .map(|s| s.bytes_sent + s.bytes_received)
        .sum();
    let frames: u64 = run
        .stats
        .iter()
        .map(|s| s.frames_sent + s.frames_received)
        .sum();
    let full: u64 = run.reports.iter().map(|r| r.full_pulls).sum();
    let delta: u64 = run.reports.iter().map(|r| r.delta_pulls).sum();
    let waiting: f64 = run.reports.iter().map(|r| r.waiting_time_s).sum();
    let training_s = (run.end_ns.saturating_sub(first_push(run))) as f64 / 1e9;
    let stats = &run.trace.server_stats;
    let busy_share = if group {
        0.0
    } else {
        gating
            .first()
            .and_then(|l| {
                let span = l.last_call.checked_sub(l.first_ret?)?;
                (span > 0).then(|| l.busy_ns as f64 / span as f64)
            })
            .unwrap_or(0.0)
    };
    let residual = closure_residual(run);
    let (handle_push_us, decide_us) = replay(job, gating);

    let mut out = vec![
        ("worker.compute_ms", med(&compute, MS)),
        (
            "worker.compute_share",
            compute.iter().sum::<f64>() / round.iter().sum::<f64>().max(1.0),
        ),
        ("net.push_send_us", med(&push_send, US)),
        ("net.pull_us", med(&pull, US)),
        ("net.reply_wait_us", med(&reply_wait, US)),
        ("net.bytes_per_round", bytes as f64 / pushes),
        ("net.frames_per_round", frames as f64 / pushes),
        (
            "net.delta_pull_share",
            delta as f64 / (full + delta).max(1) as f64,
        ),
        (
            "ps.gate_hold_ms",
            med(&server_spans(gating, Layer::GateHold), MS),
        ),
        ("ps.handle_push_us", handle_push_us),
        ("ps.decide_us", decide_us),
        ("ps.blocked_share", stats.blocked_fraction()),
        ("ps.credits_per_push", stats.credits_granted as f64 / pushes),
        ("ps.staleness_mean", stats.mean_staleness()),
        ("ps.staleness_max", stats.staleness_max as f64),
        (
            "ps.wait_share",
            waiting / (job.num_workers as f64 * training_s).max(1e-9),
        ),
        ("server.busy_share", busy_share),
        (
            "server.self_us_per_push",
            med(&server_spans(gating, Layer::ServerPush), US),
        ),
        ("coord.grant_rtt_us", med(&grant, US)),
        (
            "coord.self_us_per_push",
            med(&server_spans(gating, Layer::CoordPush), US),
        ),
        (
            "shard.self_us_per_slice",
            med(&server_spans(shards, Layer::ShardSlice), US),
        ),
        (
            "shard.self_us_per_pull",
            med(&server_spans(shards, Layer::ShardPull), US),
        ),
        ("closure.residual_share", residual),
    ];
    out.retain(|(_, v)| v.is_finite());
    out.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

/// One minus the share of the median round that the medians of the worker-side
/// layers on the round's critical path (push send, reply wait, grant round trip,
/// pull, compute) explain, summed over ranks so a straggler's rounds are compared
/// with its own layers.
fn closure_residual(run: &JobRun) -> f64 {
    let path = [
        Layer::PushSend,
        Layer::ReplyWait,
        Layer::GrantRtt,
        Layer::Pull,
        Layer::Compute,
    ];
    let mut explained = 0.0;
    let mut rounds = 0.0;
    for w in &run.workers {
        let round = spans_of(w.spans.iter(), Layer::Round);
        if round.is_empty() {
            continue;
        }
        rounds += median(&round);
        explained += path
            .iter()
            .map(|&layer| med(&spans_of(w.spans.iter(), layer), 1.0))
            .sum::<f64>();
    }
    if rounds > 0.0 {
        1.0 - explained / rounds
    } else {
        0.0
    }
}

/// Replays the push order the gating role recorded through a fresh
/// `ParameterServer::handle_push_into` and `SyncController::decide`, timing each call.
/// Returns the median microseconds per call of each.
fn replay(job: &JobConfig, gating: &[ServerLog]) -> (f64, f64) {
    let Some(order) = gating.first().map(|l| &l.push_order) else {
        return (0.0, 0.0);
    };
    if order.is_empty() {
        return (0.0, 0.0);
    }
    let n = job.num_workers;
    let params = job.model.build(job.seed).params_flat();
    let grads: Vec<f32> = (0..params.len())
        .map(|i| ((i % 17) as f32 - 8.0) * 1e-4)
        .collect();
    let mut ps = ParameterServer::new(
        params.clone(),
        Sgd::new(job.sgd.clone(), params.len()),
        ServerConfig::new(n, job.policy).with_shards(job.shards),
    );
    let r_max = match job.policy {
        PolicyKind::Dssp { r_max, .. } | PolicyKind::DsspStrict { r_max, .. } => r_max,
        _ => 12,
    };
    let mut controller = SyncController::new(n, r_max);
    let mut clocks = ClockTable::new(n);
    let mut intervals = IntervalTracker::new(n);
    let mut released = Vec::with_capacity(n);
    let t0 = order[0].1;
    let mut push_ns = Vec::with_capacity(order.len());
    let mut decide_ns = Vec::with_capacity(order.len());
    for &(rank, t) in order {
        let worker = rank as usize % n;
        let now = (t - t0) as f64 / 1e9;
        released.clear();
        let start = Instant::now();
        std::hint::black_box(ps.handle_push_into(worker, &grads, now, &mut released));
        push_ns.push(start.elapsed().as_nanos() as f64);
        clocks.increment(worker);
        intervals.record_push(worker, now);
        let slowest = clocks.slowest_worker();
        let start = Instant::now();
        std::hint::black_box(controller.decide(worker, slowest, &intervals));
        decide_ns.push(start.elapsed().as_nanos() as f64);
    }
    (median(&push_ns) / 1e3, median(&decide_ns) / 1e3)
}

/// Writes a traced job's spans as tab-separated lines (`name parent rank iter
/// start_ns end_ns`, times relative to the job's start).
pub fn spans_tsv(run: &JobRun) -> String {
    let mut out = String::from("name\tparent\trank\titer\tstart_ns\tend_ns\n");
    let all = run
        .workers
        .iter()
        .flat_map(|w| w.spans.iter())
        .chain(run.servers.iter().flat_map(|l| l.spans.iter()));
    for s in all {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.layer.name(),
            s.parent.map_or("-", Layer::name),
            s.rank,
            s.iter,
            s.start.saturating_sub(run.start_ns),
            s.end.saturating_sub(run.start_ns)
        );
    }
    out
}
