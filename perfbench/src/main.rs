//! The benchmark command.
//!
//! ```text
//! dssp-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs training jobs of the named workload for `--seconds`, each in a fresh child
//! process of this binary, checks every job's outputs, and prints as the last line
//! of standard output one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`. With `--trace 0` the metrics are the end-to-end ones, measured with
//! tracing off. With `--trace 1` the jobs alternate between untraced and traced, the
//! per-layer microbenchmarks run after them, and the metrics are the per-layer ones.
//! A fuller record (host, commit, sample counts and quartiles per metric) goes to
//! `.perfbench/` in the working directory, and traced jobs' spans to
//! `.perfbench/spans/`.

use dssp_perfbench::child::{child_main, num, run_child, Outcome};
use dssp_perfbench::metrics::{unit, END_TO_END, PER_LAYER};
use dssp_perfbench::micro;
use dssp_perfbench::record::{Reported, RunRecord};
use dssp_perfbench::stats::median;
use dssp_perfbench::workloads::{job_seed, Workload, SIDE_LAYERS};
use std::path::Path;
use std::time::{Duration, Instant};

/// Where records and span files go, relative to the working directory.
const OUT_DIR: &str = ".perfbench";
/// Jobs of each kind a run makes even when `--seconds` is spent sooner.
const MIN_JOBS: u64 = 3;
/// Share of a traced run's time spent on the workload's own jobs.
const TRACED_JOB_SHARE: f64 = 0.5;
/// Share of a traced run's time spent on side-probe jobs, when the workload has
/// one. The rest runs the microbenchmarks.
const SIDE_JOB_SHARE: f64 = 0.15;
/// Times the microbenchmark suite repeats in a traced run.
const MICRO_ROUNDS: u32 = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--child") {
        let workload = flag(&args, "--workload").and_then(Workload::parse);
        let seed = flag(&args, "--job-seed").and_then(|s| s.parse().ok());
        let (Some(workload), Some(seed)) = (workload, seed) else {
            eprintln!("dssp-perfbench --child: needs --workload and --job-seed");
            std::process::exit(2);
        };
        let traced = flag(&args, "--traced") == Some("1");
        child_main(workload, seed, traced, flag(&args, "--spans"));
        return;
    }
    match parse_args(&args) {
        Ok(args) => run(&args),
        Err(e) => {
            eprintln!("dssp-perfbench: {e}");
            eprintln!(
                "usage: dssp-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let need = |name: &str| flag(args, name).ok_or_else(|| format!("missing {name}"));
    let number = |name: &str| -> Result<u64, String> {
        need(name)?
            .parse()
            .map_err(|_| format!("{name} needs a whole number"))
    };
    let workload = need("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace: match need("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

/// Runs the workload's jobs until the job share of `--seconds` is spent: untraced
/// only, or (traced run) alternating untraced and traced so both see the same
/// machine state, followed by the side probe's traced jobs.
fn run_jobs(args: &Args, start: Instant, spans_dir: &Path) -> Vec<Outcome> {
    let budget = Duration::from_secs(args.seconds);
    let mut outcomes = Vec::new();
    let mut index = 0u64;
    let (min_jobs, job_budget) = if args.trace {
        (2 * MIN_JOBS, budget.mul_f64(TRACED_JOB_SHARE))
    } else {
        (MIN_JOBS, budget)
    };
    while index < min_jobs || start.elapsed() < job_budget {
        let traced = args.trace && index % 2 == 1;
        let spans = spans_dir.join(format!("{}-job{}.tsv", args.workload.name(), index / 2));
        let seed = job_seed(args.seed, index);
        outcomes.push(run_child(
            args.workload,
            seed,
            traced,
            traced.then_some(&*spans),
        ));
        index += 1;
    }
    if let Some(side) = args.workload.side_probe().filter(|_| args.trace) {
        let side_budget = budget.mul_f64(TRACED_JOB_SHARE + SIDE_JOB_SHARE);
        let mut k = 0u64;
        while k < MIN_JOBS || start.elapsed() < side_budget {
            let spans = spans_dir.join(format!("{}-job{k}.tsv", side.name()));
            let seed = job_seed(args.seed, index + k);
            outcomes.push(run_child(side, seed, true, Some(&spans)));
            k += 1;
        }
    }
    outcomes
}

/// The end-to-end metrics: medians over the untraced jobs that passed their checks.
fn end_to_end(
    outcomes: &[Outcome],
    ok_share: f64,
    notes: &mut Vec<(String, String)>,
) -> Vec<Reported> {
    let of = |f: fn(&Outcome) -> f64| -> Vec<f64> {
        outcomes.iter().filter(|o| o.ok()).map(f).collect()
    };
    notes.push((
        "round_tail_ms".into(),
        format!(
            "median over jobs of each job's p{} round ({} rounds per job, {} beyond it)",
            median(&of(|o| o.metrics.tail_pct)),
            median(&of(|o| o.metrics.rounds as f64)),
            median(&of(|o| o.metrics.tail_beyond as f64)),
        ),
    ));
    vec![
        Reported::median_of("samples_per_s", &of(|o| o.metrics.samples_per_s)),
        Reported::median_of("round_p50_ms", &of(|o| o.metrics.round_p50_ms)),
        Reported::median_of("round_tail_ms", &of(|o| o.metrics.round_tail_ms)),
        Reported::median_of("final_accuracy", &of(|o| o.metrics.final_accuracy)),
        Reported::median_of("setup_s", &of(|o| o.metrics.setup_s)),
        Reported::median_of("peak_rss_mb", &of(|o| o.peak_rss_mb)),
        Reported::median_of("ok_share", &[ok_share]),
    ]
}

/// The per-layer metrics: medians over the traced jobs (the side probe's for the
/// layers the workload's substrate lacks), the microbenchmarks, and the tracing
/// overhead between paired untraced and traced jobs.
fn per_layer(
    args: &Args,
    outcomes: &[Outcome],
    micro_budget: Duration,
    notes: &mut Vec<(String, String)>,
) -> Vec<Reported> {
    let side = args.workload.side_probe();
    let layer = |name: &str| -> Vec<f64> {
        let from = match side {
            Some(side) if SIDE_LAYERS.contains(&name) => side,
            _ => args.workload,
        };
        outcomes
            .iter()
            .filter(|o| o.ok() && o.traced && o.workload == from)
            .filter_map(|o| o.metrics.layers.iter().find(|(k, _)| k == name))
            .map(|(_, v)| *v)
            .collect()
    };
    let job = args.workload.job(args.seed);
    let (micro, frames) = micro::suite(args.workload, &job, micro_budget, MICRO_ROUNDS);
    notes.push(("wire".into(), frames));
    // The workload's jobs alternate untraced, traced: pair each traced job with the
    // untraced one just before it.
    let overhead: Vec<f64> = outcomes
        .chunks_exact(2)
        .filter(|pair| pair.iter().all(|o| o.ok() && o.workload == args.workload))
        .map(|pair| 1.0 - pair[1].metrics.samples_per_s / pair[0].metrics.samples_per_s)
        .collect();
    notes.push((
        "trace.overhead_share".into(),
        format!(
            "median over {} pairs of consecutive untraced and traced jobs of \
             1 - traced samples_per_s / untraced samples_per_s",
            overhead.len()
        ),
    ));
    if let Some(side) = side {
        notes.push((
            "side_probe".into(),
            format!(
                "{} come from {} traced jobs of the {} configuration; this workload's \
                 single-server substrate has no coordinator or shard servers",
                SIDE_LAYERS.join(", "),
                layer(SIDE_LAYERS[0]).len(),
                side.name()
            ),
        ));
    }
    PER_LAYER
        .iter()
        .map(|&(name, _)| match micro.iter().find(|(k, _)| *k == name) {
            Some((_, samples)) => Reported::median_of(name, samples),
            None if name == "trace.overhead_share" => Reported::median_of(name, &overhead),
            None => Reported::median_of(name, &layer(name)),
        })
        .collect()
}

fn run(args: &Args) {
    let start = Instant::now();
    let spans_dir = Path::new(OUT_DIR).join("spans");
    if args.trace {
        if let Err(e) = std::fs::create_dir_all(&spans_dir) {
            eprintln!("dssp-perfbench: cannot create {}: {e}", spans_dir.display());
        }
    }
    let outcomes = run_jobs(args, start, &spans_dir);
    let attempted = outcomes.len();
    let failed = outcomes.iter().filter(|o| !o.ok()).count();
    let failures: Vec<String> = outcomes
        .iter()
        .flat_map(|o| o.metrics.failed_checks.iter().cloned())
        .collect();
    for f in &failures {
        eprintln!("dssp-perfbench: failed check: {f}");
    }

    let mut notes = Vec::new();
    let reported = if args.trace {
        let micro_budget = Duration::from_secs(args.seconds)
            .saturating_sub(start.elapsed())
            .max(Duration::from_secs(2));
        per_layer(args, &outcomes, micro_budget, &mut notes)
    } else {
        let ok_share = (attempted - failed) as f64 / attempted.max(1) as f64;
        end_to_end(&outcomes, ok_share, &mut notes)
    };
    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    debug_assert!(reported
        .iter()
        .map(|r| r.name)
        .eq(expected.iter().map(|m| m.0)));

    let job = args.workload.job(args.seed);
    let record = RunRecord {
        workload: args.workload,
        seed: args.seed,
        trace: args.trace,
        seconds: args.seconds,
        job: &job,
        attempted,
        failed,
        failures: &failures,
        reported: &reported,
        notes: &notes,
    };
    let path = Path::new(OUT_DIR).join(format!(
        "{}-trace{}-seed{}.json",
        args.workload.name(),
        u8::from(args.trace),
        args.seed
    ));
    if let Err(e) =
        std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, record.to_json()))
    {
        eprintln!("dssp-perfbench: cannot write {}: {e}", path.display());
    }
    for r in &reported {
        eprintln!(
            "{:<28} {:>14.6} {:<9} (n={}, q1={:.6}, q3={:.6})",
            r.name,
            r.value,
            unit(r.name).unwrap_or("?"),
            r.summary.n,
            r.summary.q1,
            r.summary.q3
        );
    }
    let metrics: Vec<String> = reported
        .iter()
        .map(|r| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                r.name,
                num(r.value),
                unit(r.name).unwrap_or("?")
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        metrics.join(",")
    );
}
