//! The record a run leaves behind: every reported metric with its sample count,
//! median and quartiles, stamped with the host, toolchain, commit and seed.

use crate::child::num;
use crate::metrics::unit;
use crate::stats::Summary;
use crate::workloads::{Substrate, Workload, SIDE_LAYERS};
use dssp_core::driver::JobConfig;
use dssp_core::json::escape;
use dssp_nn::Model;
use std::fmt::Write as _;

/// One reported metric: the median of its samples, and the samples' summary.
#[derive(Debug, Clone)]
pub struct Reported {
    /// Metric name.
    pub name: &'static str,
    /// The reported value (0 when no sample was taken).
    pub value: f64,
    /// Count, median and quartiles of the finite samples.
    pub summary: Summary,
}

impl Reported {
    /// Reports the median of `samples`, ignoring non-finite ones.
    pub fn median_of(name: &'static str, samples: &[f64]) -> Self {
        let finite: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
        let summary = Summary::of(&finite);
        Self {
            name,
            value: if finite.is_empty() {
                0.0
            } else {
                summary.median
            },
            summary,
        }
    }
}

/// What one benchmark invocation produced.
#[derive(Debug)]
pub struct RunRecord<'a> {
    /// The workload measured.
    pub workload: Workload,
    /// The benchmark seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// `--seconds`.
    pub seconds: u64,
    /// The job configuration (at the benchmark seed).
    pub job: &'a JobConfig,
    /// Jobs run.
    pub attempted: usize,
    /// Jobs that errored or failed a check.
    pub failed: usize,
    /// Every failed check, in job order.
    pub failures: &'a [String],
    /// The reported metrics.
    pub reported: &'a [Reported],
    /// Free-form notes: how a metric was derived, frame sizes, side probes.
    pub notes: &'a [(String, String)],
}

/// The commit measured: `git rev-parse HEAD` in the working directory, or
/// "unknown" in a checkout without git metadata of its own (git is kept from
/// searching the working directory's parents).
fn commit() -> String {
    let mut git = std::process::Command::new("git");
    if let Ok(dir) = std::env::current_dir() {
        if let Some(parent) = dir.parent() {
            git.env("GIT_CEILING_DIRECTORIES", parent);
        }
    }
    git.args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What `WorkerReport::waiting_time_s` contains on a substrate.
pub fn waiting_time_note(substrate: Substrate) -> &'static str {
    match substrate {
        Substrate::TcpSingle | Substrate::Loopback => {
            "time in recv() for each push's PushReply: the server's gate hold plus its \
             handling of the push and the transport both ways"
        }
        Substrate::TcpGroup => {
            "time from each ClockPush send to its ClockGrant: the coordinator's grant \
             round trip, paid even under ASP where the gate never blocks, so ps.wait_share \
             is not gate time here; ps.gate_hold_ms is"
        }
    }
}

/// Per-layer metrics that read 0 because the layer is not on the workload's path.
pub fn off_path(workload: Workload) -> Vec<&'static str> {
    match workload.substrate() {
        // The single-server workload's side probe covers the group layers.
        Substrate::TcpSingle => Vec::new(),
        Substrate::Loopback => {
            let mut off = vec!["net.bytes_per_round", "net.frames_per_round"];
            off.extend(SIDE_LAYERS);
            off
        }
        Substrate::TcpGroup => vec![
            "server.busy_share",
            "server.self_us_per_push",
            "tensor.im2col_t_us",
            "tensor.col2im_t_us",
        ],
    }
}

impl RunRecord<'_> {
    /// The record as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let q = escape;
        let job = self.job;
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": \"dssp-perfbench/1\",");
        let _ = writeln!(out, "  \"workload\": {},", q(self.workload.name()));
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"trace\": {},", u8::from(self.trace));
        let _ = writeln!(out, "  \"seconds\": {},", self.seconds);
        let _ = writeln!(
            out,
            "  \"host\": {{\"cores\": {}, \"os\": {}, \"arch\": {}, \"rustc\": {}, \"commit\": {}}},",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            q(std::env::consts::OS),
            q(std::env::consts::ARCH),
            q(env!("PERFBENCH_RUSTC")),
            q(&commit())
        );
        let _ = writeln!(
            out,
            "  \"job\": {{\"substrate\": {}, \"policy\": {}, \"model\": {}, \"params\": {}, \
             \"workers\": {}, \"servers\": {}, \"shards\": {}, \"batch_size\": {}, \
             \"epochs\": {}, \"delta_pulls\": {}, \"extra_compute_delay_ms\": {}}},",
            q(&format!("{:?}", self.workload.substrate())),
            q(&job.policy.label()),
            q(&job.model.display_name()),
            job.model.build(0).param_len(),
            job.num_workers,
            job.servers,
            job.shards,
            job.batch_size,
            job.epochs,
            job.delta_pulls,
            q(&format!("{:?}", job.extra_compute_delay_ms)),
        );
        let failures: Vec<String> = self.failures.iter().map(|f| q(f)).collect();
        let _ = writeln!(
            out,
            "  \"jobs\": {{\"attempted\": {}, \"failed\": {}, \"failures\": [{}]}},",
            self.attempted,
            self.failed,
            failures.join(", ")
        );
        let rows: Vec<String> = self
            .reported
            .iter()
            .map(|r| {
                format!(
                    "    {}: {{\"unit\": {}, \"value\": {}, \"n\": {}, \"median\": {}, \
                     \"q1\": {}, \"q3\": {}}}",
                    q(r.name),
                    q(unit(r.name).unwrap_or("?")),
                    num(r.value),
                    r.summary.n,
                    num(r.summary.median),
                    num(r.summary.q1),
                    num(r.summary.q3)
                )
            })
            .collect();
        let _ = writeln!(out, "  \"metrics\": {{\n{}\n  }},", rows.join(",\n"));
        let off: Vec<String> = if self.trace {
            off_path(self.workload).into_iter().map(q).collect()
        } else {
            Vec::new()
        };
        let _ = writeln!(out, "  \"off_path\": [{}],", off.join(", "));
        let waiting = (
            "waiting_time_s".to_string(),
            waiting_time_note(self.workload.substrate()).to_string(),
        );
        let notes: Vec<String> = self
            .notes
            .iter()
            .chain(std::iter::once(&waiting))
            .map(|(k, v)| format!("    {}: {}", q(k), q(v)))
            .collect();
        let _ = writeln!(out, "  \"notes\": {{\n{}\n  }}", notes.join(",\n"));
        out.push_str("}\n");
        out
    }
}
