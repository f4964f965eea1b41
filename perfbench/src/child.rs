//! One job per child process: the parent re-runs this binary with `--child` for
//! every job, so peak memory never carries over from an earlier job and a job that
//! hangs or crashes is contained. The child prints its measurements as one JSON
//! line, which the parent reads back.

use crate::job::{measure, spans_tsv, JobMetrics};
use crate::workloads::Workload;
use dssp_core::json::{self, Value};
use std::io::Read as _;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// A child job still running after this long is killed and counted as failed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(60);

/// A finite number as JSON, anything else as `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Peak resident memory of this process so far, in MiB (`getrusage`).
pub fn peak_rss_mb() -> f64 {
    // `struct rusage` on 64-bit Linux: two `timeval`s (2 × 2 longs), then
    // `ru_maxrss` (KiB) and 13 more longs.
    extern "C" {
        fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = [0i64; 18];
    // SAFETY: `usage` is as large as `struct rusage` and outlives the call.
    let ok = unsafe { getrusage(RUSAGE_SELF, &mut usage) } == 0;
    if ok {
        usage[4] as f64 / 1024.0
    } else {
        f64::NAN
    }
}

/// The child side: runs one job of `workload` with training seed `seed`, writes
/// its spans to `spans` when traced, and prints its measurements as one JSON line.
pub fn child_main(workload: Workload, seed: u64, traced: bool, spans: Option<&str>) {
    let job = workload.job(seed);
    let (m, run) = measure(workload, &job, traced);
    if let (Some(path), Some(run)) = (spans, &run) {
        if let Err(e) = std::fs::write(path, spans_tsv(run)) {
            eprintln!("dssp-perfbench: cannot write {path}: {e}");
        }
    }
    drop(run);
    let checks: Vec<String> = m.failed_checks.iter().map(|c| json::escape(c)).collect();
    let layers: Vec<String> = m
        .layers
        .iter()
        .map(|(k, v)| format!("{}:{}", json::escape(k), num(*v)))
        .collect();
    println!(
        "{{\"setup_s\":{},\"samples_per_s\":{},\"round_p50_ms\":{},\"round_tail_ms\":{},\
         \"tail_pct\":{},\"tail_beyond\":{},\"rounds\":{},\"final_accuracy\":{},\
         \"peak_rss_mb\":{},\"failed_checks\":[{}],\"layers\":{{{}}}}}",
        num(m.setup_s),
        num(m.samples_per_s),
        num(m.round_p50_ms),
        num(m.round_tail_ms),
        num(m.tail_pct),
        m.tail_beyond,
        m.rounds,
        num(m.final_accuracy),
        num(peak_rss_mb()),
        checks.join(","),
        layers.join(",")
    );
}

/// What one child job reported.
#[derive(Debug)]
pub struct Outcome {
    /// The workload the job belonged to.
    pub workload: Workload,
    /// Whether the job ran traced.
    pub traced: bool,
    /// Its measurements; `failed_checks` also holds a crash, hang or bad output.
    pub metrics: JobMetrics,
    /// Its peak resident memory, MiB.
    pub peak_rss_mb: f64,
}

impl Outcome {
    /// Whether the job ran and passed every check.
    pub fn ok(&self) -> bool {
        self.metrics.failed_checks.is_empty()
    }
}

fn parse_line(line: &str) -> Result<(JobMetrics, f64), String> {
    let v = json::parse(line).map_err(|e| format!("unreadable job output: {e}"))?;
    let f = |k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
    let failed_checks = v
        .get("failed_checks")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|c| c.as_str().map(str::to_string))
        .collect();
    let layers = match v.get("layers") {
        Some(Value::Object(pairs)) => pairs
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
            .collect(),
        _ => Vec::new(),
    };
    let metrics = JobMetrics {
        setup_s: f("setup_s"),
        samples_per_s: f("samples_per_s"),
        round_p50_ms: f("round_p50_ms"),
        round_tail_ms: f("round_tail_ms"),
        tail_pct: f("tail_pct"),
        tail_beyond: f("tail_beyond") as usize,
        rounds: f("rounds") as usize,
        final_accuracy: f("final_accuracy"),
        failed_checks,
        layers,
    };
    Ok((metrics, f("peak_rss_mb")))
}

/// The parent side: runs one job in a child process, killing it after a minute. A
/// child that fails to start, crashes, hangs or prints garbage is a failed job.
pub fn run_child(workload: Workload, seed: u64, traced: bool, spans: Option<&Path>) -> Outcome {
    let failed = |why: String| Outcome {
        workload,
        traced,
        metrics: JobMetrics {
            failed_checks: vec![why],
            ..JobMetrics::default()
        },
        peak_rss_mb: f64::NAN,
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return failed(format!("cannot locate the benchmark binary: {e}")),
    };
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", workload.name()])
        .args(["--job-seed", &seed.to_string()])
        .args(["--traced", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if let Some(path) = spans {
        cmd.arg("--spans").arg(path);
    }
    let mut proc = match cmd.spawn() {
        Ok(p) => p,
        Err(e) => return failed(format!("cannot start a job: {e}")),
    };
    let mut stdout = proc.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = stdout.read_to_string(&mut s);
        s
    });
    let started = Instant::now();
    let status = loop {
        match proc.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if started.elapsed() <= CHILD_TIMEOUT => {
                std::thread::sleep(Duration::from_millis(2))
            }
            other => {
                let _ = proc.kill();
                let _ = proc.wait();
                break Err(match other {
                    Err(e) => format!("cannot wait for job seed {seed}: {e}"),
                    _ => format!("job seed {seed} timed out after {CHILD_TIMEOUT:?}"),
                });
            }
        }
    };
    let output = reader.join().unwrap_or_default();
    match status {
        Err(why) => failed(why),
        Ok(status) if !status.success() => failed(format!("job seed {seed} exited with {status}")),
        Ok(_) => match output.lines().last().map(parse_line) {
            Some(Ok((metrics, peak_rss_mb))) => Outcome {
                workload,
                traced,
                metrics,
                peak_rss_mb,
            },
            Some(Err(e)) => failed(e),
            None => failed(format!("job seed {seed} printed nothing")),
        },
    }
}
