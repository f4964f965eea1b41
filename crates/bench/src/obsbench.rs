//! Instrumentation-overhead record (`repro -- bench-obs`, `BENCH_<id>.json`).
//!
//! Measures what the v6 causal tracing + fleet-health instrumentation costs on the
//! group substrate: the same coordinator + shard-server + worker training job runs
//! with observability off (no `--event-log`; hooks reduce to an `Option` check) and
//! on (every role records trace-stamped events, workers bracket operations with
//! spans, the coordinator runs the per-push straggler sweep). The wire cost of the
//! v6 trace fields themselves rides both runs — it is part of the protocol — so the
//! comparison isolates exactly what *enabling* tracing adds.
//!
//! Timings use min-of-N paired windows: the off and on runs alternate inside each
//! window and the best round throughput per mode is kept, which cancels most
//! interference from other load on the host. The
//! claim checked in review: enabling tracing costs < 2% round throughput.

use dssp_coord::run_group_threads;
use dssp_core::driver::JobConfig;
use dssp_ps::PolicyKind;
use std::fmt::Write as _;
use std::time::Instant;

/// One observability mode's best window.
#[derive(Debug, Clone, Copy, Default)]
pub struct ObsModeRecord {
    /// Wall seconds of the best (fastest) window.
    pub wall_s: f64,
    /// Gated pushes the run completed (identical across modes — same job).
    pub pushes: u64,
    /// Push rounds per second implied by the best window.
    pub rounds_per_s: f64,
    /// Events recorded across the fleet in the last window (0 when tracing is off).
    pub events: u64,
}

/// The full tracing-overhead record.
#[derive(Debug, Clone)]
pub struct ObsBenchRecord {
    /// Record id (`BENCH_<id>.json`).
    pub id: String,
    /// Paired windows run.
    pub windows: u32,
    /// Group shape: shard servers.
    pub servers: usize,
    /// Group shape: workers.
    pub workers: usize,
    /// Tracing disabled (no event log).
    pub off: ObsModeRecord,
    /// Tracing enabled (event log + spans + straggler sweep live).
    pub on: ObsModeRecord,
}

/// The group job both modes run: the small MLP on DSSP over 2 shard servers, the
/// same substrate the group end-to-end tests exercise.
fn obs_job(event_log: Option<std::path::PathBuf>) -> JobConfig {
    let mut job = JobConfig::small(PolicyKind::Dssp { s_l: 1, r_max: 4 });
    job.shards = 4;
    job.servers = 2;
    job.epochs = 2;
    job.event_log = event_log;
    job
}

/// One timed run; returns (wall seconds, pushes, events recorded).
fn run_once(job: &JobConfig) -> (f64, u64, u64) {
    let start = Instant::now();
    let outcome = run_group_threads(job).expect("group run completes");
    let wall = start.elapsed().as_secs_f64();
    let events = match &job.event_log {
        Some(dir) => count_events(dir),
        None => 0,
    };
    (wall, outcome.trace.total_pushes, events)
}

/// Counts NDJSON lines across a flushed event directory.
fn count_events(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("ndjson"))
        .filter_map(|e| std::fs::read_to_string(e.path()).ok())
        .map(|text| text.lines().filter(|l| !l.trim().is_empty()).count() as u64)
        .sum()
}

/// Runs the paired-window comparison and assembles the record.
pub fn collect(id: &str, windows: u32) -> ObsBenchRecord {
    let scratch = std::env::temp_dir().join(format!("dssp-obsbench-{}", std::process::id()));
    let job_off = obs_job(None);
    let job_on = obs_job(Some(scratch.clone()));
    let mut off = ObsModeRecord {
        wall_s: f64::INFINITY,
        ..Default::default()
    };
    let mut on = ObsModeRecord {
        wall_s: f64::INFINITY,
        ..Default::default()
    };
    for _ in 0..windows.max(1) {
        let (wall, pushes, _) = run_once(&job_off);
        if wall < off.wall_s {
            off.wall_s = wall;
            off.pushes = pushes;
        }
        let _ = std::fs::remove_dir_all(&scratch);
        let (wall, pushes, events) = run_once(&job_on);
        if wall < on.wall_s {
            on.wall_s = wall;
            on.pushes = pushes;
        }
        on.events = events; // deterministic event count from the last window
    }
    let _ = std::fs::remove_dir_all(&scratch);
    off.rounds_per_s = off.pushes as f64 / off.wall_s;
    on.rounds_per_s = on.pushes as f64 / on.wall_s;
    ObsBenchRecord {
        id: id.to_string(),
        windows,
        servers: job_on.servers,
        workers: job_on.num_workers,
        off,
        on,
    }
}

impl ObsBenchRecord {
    /// Round-throughput cost of enabling tracing, in percent (negative = noise in
    /// tracing's favor).
    pub fn overhead_pct(&self) -> f64 {
        if self.off.rounds_per_s <= 0.0 {
            return 0.0;
        }
        100.0 * (1.0 - self.on.rounds_per_s / self.off.rounds_per_s)
    }

    /// Renders the record as pretty-printed JSON (hand-rolled, like the other
    /// `BENCH_*.json` records).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"id\": \"{}\",", self.id);
        let _ = writeln!(
            s,
            "  \"methodology\": \"min-of-{} paired windows (tracing off/on alternating), group substrate (coordinator + {} shard servers + {} workers over localhost TCP), 1-core reference container\",",
            self.windows, self.servers, self.workers
        );
        let _ = writeln!(
            s,
            "  \"tracing_off\": {{\"wall_s\": {:.4}, \"pushes\": {}, \"rounds_per_s\": {:.1}}},",
            self.off.wall_s, self.off.pushes, self.off.rounds_per_s
        );
        let _ = writeln!(
            s,
            "  \"tracing_on\": {{\"wall_s\": {:.4}, \"pushes\": {}, \"rounds_per_s\": {:.1}, \"events_recorded\": {}}},",
            self.on.wall_s, self.on.pushes, self.on.rounds_per_s, self.on.events
        );
        let _ = writeln!(
            s,
            "  \"round_throughput_overhead_pct\": {:.2}",
            self.overhead_pct()
        );
        let _ = writeln!(s, "}}");
        s
    }

    /// One-screen summary for the console.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "tracing off: {:.1} rounds/s ({} pushes in {:.3}s best window)",
            self.off.rounds_per_s, self.off.pushes, self.off.wall_s
        );
        let _ = writeln!(
            s,
            "tracing on:  {:.1} rounds/s ({} pushes, {} events recorded)",
            self.on.rounds_per_s, self.on.pushes, self.on.events
        );
        let _ = writeln!(
            s,
            "round-throughput overhead: {:.2}% (target < 2%)",
            self.overhead_pct()
        );
        s
    }
}
