//! The timing wrappers must not change the program they measure: on each of the
//! three substrates, a deterministic-mode job run through the wrappers is
//! bitwise-equal to the same job run on the raw transports — same run trace
//! (wall-clock fields zeroed), same worker reports, same byte and frame counters.

use dssp_core::driver::JobConfig;
use dssp_net::WorkerReport;
use dssp_perfbench::harness::{run_job, JobRun, Probe};
use dssp_perfbench::metrics::{END_TO_END, PER_LAYER};
use dssp_perfbench::probe::Layer;
use dssp_perfbench::workloads::Substrate;
use dssp_ps::PolicyKind;

fn deterministic(mut job: JobConfig) -> JobConfig {
    job.deterministic = true;
    job.epochs = 3;
    job
}

/// A worker report without its wall-clock field.
fn timeless(r: &WorkerReport) -> WorkerReport {
    WorkerReport {
        waiting_time_s: 0.0,
        ..r.clone()
    }
}

fn assert_unperturbed(job: &JobConfig, substrate: Substrate) {
    let raw = run_job(job, substrate, Probe::Off).expect("raw job runs");
    for probe in [Probe::Untraced, Probe::Traced] {
        let wrapped: JobRun = run_job(job, substrate, probe).expect("wrapped job runs");
        assert!(raw.trace.total_pushes > 0);
        assert_eq!(
            raw.trace.with_times_zeroed(),
            wrapped.trace.with_times_zeroed(),
            "{substrate:?} {probe:?}: the wrappers changed the run"
        );
        assert_eq!(
            raw.trace.group_servers, wrapped.trace.group_servers,
            "{substrate:?} {probe:?}: shard-server counters differ"
        );
        assert_eq!(
            raw.stats, wrapped.stats,
            "{substrate:?} {probe:?}: transport byte/frame counters differ"
        );
        let a: Vec<_> = raw.reports.iter().map(timeless).collect();
        let b: Vec<_> = wrapped.reports.iter().map(timeless).collect();
        assert_eq!(a, b, "{substrate:?} {probe:?}: worker reports differ");
        // The wrappers saw every push, and every credit the gate granted.
        let pushes: usize = wrapped.workers.iter().map(|w| w.pushes.len()).sum();
        assert_eq!(pushes as u64, wrapped.trace.total_pushes);
        assert_eq!(
            wrapped.servers[0].grant_sum, wrapped.trace.server_stats.credits_granted,
            "{substrate:?} {probe:?}: grants seen on the wire differ from credits_granted"
        );
    }
}

#[test]
fn wrappers_do_not_perturb_a_tcp_single_server_job() {
    let job = deterministic(JobConfig::small_alexnet(PolicyKind::Dssp {
        s_l: 1,
        r_max: 4,
    }));
    assert_unperturbed(&job, Substrate::TcpSingle);
}

#[test]
fn wrappers_do_not_perturb_a_loopback_job() {
    let mut job = deterministic(JobConfig::small_alexnet(PolicyKind::Bsp));
    job.shards = 4;
    assert_unperturbed(&job, Substrate::Loopback);
}

#[test]
fn wrappers_do_not_perturb_a_tcp_group_job() {
    let mut job = deterministic(JobConfig::small(PolicyKind::Dssp { s_l: 1, r_max: 4 }));
    job.shards = 4;
    job.servers = 2;
    assert_unperturbed(&job, Substrate::TcpGroup);
}

#[test]
fn a_traced_group_job_records_every_layer_of_its_round() {
    let mut job = JobConfig::small(PolicyKind::Asp);
    job.shards = 4;
    job.servers = 2;
    let run = run_job(&job, Substrate::TcpGroup, Probe::Traced).expect("job runs");
    for layer in [
        Layer::Round,
        Layer::PushSend,
        Layer::ReplyWait,
        Layer::GrantRtt,
        Layer::Pull,
        Layer::Compute,
    ] {
        assert!(
            run.workers
                .iter()
                .all(|w| w.spans.iter().any(|s| s.layer == layer)),
            "no worker span for {layer:?}"
        );
    }
    for layer in [Layer::GateHold, Layer::CoordPush] {
        assert!(run.servers[0].spans.iter().any(|s| s.layer == layer));
    }
    for shard in &run.servers[1..] {
        assert!(shard.spans.iter().any(|s| s.layer == Layer::ShardSlice));
        assert!(shard.spans.iter().any(|s| s.layer == Layer::ShardPull));
    }
}

/// `BENCHMARK.json` at the repository root lists exactly the metrics this benchmark
/// prints, with the same units.
#[test]
fn benchmark_json_lists_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = dssp_core::json::parse(&text).expect("BENCHMARK.json parses");
    for (key, expected) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed: Vec<(String, String)> = doc
            .get(key)
            .and_then(|v| v.as_array())
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect();
        let expected: Vec<(String, String)> = expected
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed, expected, "{key} in BENCHMARK.json");
    }
}
