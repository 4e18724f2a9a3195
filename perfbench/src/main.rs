//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_sweep|ring1000_bootstrap|storm_traced \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` it repeats the workload for `--seconds` (at least
//! twice) with only the phase markers timed, and reports the end-to-end
//! metrics as medians over the repetitions. With `--trace 1` it runs the
//! workload once with the detailed sink, then detailed and untraced in
//! turn for `--seconds` (at least one pair), times each layer's entry
//! points on a rebuilt post-bootstrap state, writes the last traced
//! run's spans to `.perfbench_out/<workload>.spans.tsv`, and reports the
//! per-layer metrics.
//!
//! Every job's outputs are checked (see [`workloads::Checker`]). The last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Exit codes: 0 correct, 1 an
//! output was wrong or the run could not start, 2 usage error.

mod cli;
mod host;
mod layers;
mod spans;
mod stats;
mod workloads;

use cli::Args;
use host::Host;
use spans::SpanClass;
use stats::{median, percentile};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use toto_fleet::Json;
use workloads::{run_rep, Checker, Rep, Workload};

/// Repetitions an untraced run makes at least, whatever `--seconds` says:
/// two runs of each job are what the output check compares at seeds
/// without a pinned reference.
const MIN_REPS: usize = 2;

/// Traced repetitions a traced run makes at least; their per-layer
/// counts must agree exactly.
const TRACED_REPS: usize = 2;

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Checks every job of `rep`, prints each problem with its job label,
/// and drops the trace bytes once digested. Returns (attempted, failed).
fn check_rep(rep: &mut Rep, checker: &mut Checker) -> (u64, u64) {
    let mut failed = 0;
    for job in &mut rep.jobs {
        let problems = match job.outcome.as_mut() {
            Ok(data) => {
                let problems = checker.check(&job.label, data);
                data.trace = None;
                problems
            }
            Err(e) => vec![e.clone()],
        };
        for p in &problems {
            println!("MISMATCH job {}: {p}", job.label);
        }
        failed += u64::from(!problems.is_empty());
    }
    (rep.jobs.len() as u64, failed)
}

/// `peak_rss_mb` is read after the first repetition: the peak of a fresh
/// process that has run the workload once. Later repetitions inherit the
/// allocator's state and would measure its history, not the workload.
fn end_to_end(reps: &[Rep], peak_rss_mb: f64) -> Vec<Metric> {
    let med = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    vec![
        metric("wall_s", med(&|r| r.wall_s), "s"),
        metric("setup_s", med(&|r| r.setup_s()), "s"),
        metric("sim_hours_per_s", med(&|r| r.sim_hours_per_s()), "sim-h/s"),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
    ]
}

/// Per-layer counts of each job in `reps[0]` must repeat in every other
/// traced rep. Prints each difference; returns the labels that differ.
fn counts_differ(reps: &[Rep]) -> Vec<String> {
    let mut differ = Vec::new();
    for (i, job) in reps[0].jobs.iter().enumerate() {
        let Ok(first) = &job.outcome else { continue };
        for rep in &reps[1..] {
            if let Ok(other) = &rep.jobs[i].outcome {
                if other.profile.counts != first.profile.counts {
                    println!(
                        "MISMATCH job {}: per-layer counts differ between traced runs: {:?} vs {:?}",
                        job.label, first.profile.counts, other.profile.counts
                    );
                    differ.push(job.label.clone());
                }
            }
        }
    }
    differ
}

fn per_layer(
    untraced: &[Rep],
    traced: &[Rep],
    layers: &layers::LayerTimes,
    failed_ratio: f64,
) -> Vec<Metric> {
    let med = |f: &dyn Fn(&Rep) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let med_untraced =
        |f: &dyn Fn(&Rep) -> f64| median(&untraced.iter().map(f).collect::<Vec<_>>());
    let busy = |class: SpanClass| med(&|r| r.sum(|d| d.profile.class_busy_s[class as usize]));
    let ticks: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.jobs.iter())
        .filter_map(|j| j.outcome.as_ref().ok())
        .flat_map(|d| d.profile.report_tick_s.iter().copied())
        .collect();
    let mut counts = spans::Counts::default();
    for job in traced[0]
        .jobs
        .iter()
        .filter_map(|j| j.outcome.as_ref().ok())
    {
        counts.add(&job.profile.counts);
    }
    let count = |v: u64| v as f64;
    let ratio = |num: u64, den: u64| {
        if den > 0 {
            num as f64 / den as f64
        } else {
            0.0
        }
    };
    let run_s = med(&|r| r.sum(|d| d.profile.run_s));
    let unattributed_s = med(&|r| r.sum(|d| d.profile.unattributed_s()));
    let oracle_checks = untraced[0].sum(|d| d.oracle_checks as f64);
    let trace_bytes = traced[0].sum(|d| d.trace_bytes as f64);
    vec![
        metric("core.report_tick.busy_s", busy(SpanClass::ReportTick), "s"),
        metric(
            "core.report_tick.p50_ms",
            percentile(&ticks, 50.0) * 1e3,
            "ms",
        ),
        metric(
            "core.report_tick.p99_ms",
            percentile(&ticks, 99.0) * 1e3,
            "ms",
        ),
        metric("core.churn.busy_s", busy(SpanClass::Churn), "s"),
        metric("core.plb_tick.busy_s", busy(SpanClass::PlbTick), "s"),
        metric("core.other_tick.busy_s", busy(SpanClass::OtherTick), "s"),
        metric(
            "core.bootstrap_s",
            med(&|r| r.sum(|d| d.profile.bootstrap_s)),
            "s",
        ),
        metric("core.unattributed_s", unattributed_s, "s"),
        metric(
            "core.unattributed_share",
            if run_s > 0.0 {
                unattributed_s / run_s
            } else {
                0.0
            },
            "ratio",
        ),
        metric("simcore.dispatches", count(counts.dispatches), "count"),
        metric("rgmanager.reports", count(counts.reports), "count"),
        metric(
            "rgmanager.refreshes",
            count(counts.model_refreshes),
            "count",
        ),
        metric(
            "rgmanager.compute_report_ns",
            layers.compute_report_ns,
            "ns",
        ),
        metric(
            "rgmanager.refresh_models_ns",
            layers.refresh_models_ns,
            "ns",
        ),
        metric("models.next_value_ns", layers.next_value_ns, "ns"),
        metric("naming.writes", count(counts.naming_writes), "count"),
        metric("naming.deletes", count(counts.naming_deletes), "count"),
        metric("naming.write_ns", layers.naming_write_ns, "ns"),
        metric("cluster.report_load_ns", layers.report_load_ns, "ns"),
        metric("cluster.violations_ns", layers.violations_ns, "ns"),
        metric("plb.placements", count(counts.placements), "count"),
        metric(
            "plb.anneal_iterations",
            count(counts.anneal_iterations),
            "count",
        ),
        metric(
            "plb.anneal_accepted",
            count(counts.anneal_accepted),
            "count",
        ),
        metric(
            "plb.anneal_accept_ratio",
            ratio(counts.anneal_accepted, counts.anneal_iterations),
            "ratio",
        ),
        metric("plb.place_ns", layers.place_ns, "ns"),
        metric("plb.failovers", count(counts.failovers), "count"),
        metric(
            "plb.violations_unresolved",
            count(counts.violations_unresolved),
            "count",
        ),
        metric("plb.fix_violations_ns", layers.fix_violations_ns, "ns"),
        metric("plb.balance_ns", layers.balance_ns, "ns"),
        metric(
            "plb.placement_rejections",
            count(counts.placement_rejections),
            "count",
        ),
        metric("controlplane.admitted", count(counts.admitted), "count"),
        metric("controlplane.redirected", count(counts.redirected), "count"),
        metric(
            "controlplane.admit_ratio",
            ratio(counts.admitted, counts.admitted + counts.redirected),
            "ratio",
        ),
        metric("chaos.oracle_checks", oracle_checks, "count"),
        metric(
            "chaos.oracle_violations",
            untraced[0].sum(|d| d.oracle_violations as f64),
            "count",
        ),
        metric("chaos.oracle_check_ns", layers.oracle_check_ns, "ns"),
        metric(
            "chaos.oracle_busy_s",
            oracle_checks * layers.oracle_check_ns * 1e-9,
            "s",
        ),
        metric("trace.events", count(counts.events), "count"),
        metric("trace.bytes", trace_bytes, "B"),
        metric(
            "trace.bytes_per_event",
            if counts.events > 0 {
                trace_bytes / counts.events as f64
            } else {
                0.0
            },
            "B/event",
        ),
        metric(
            "trace.overhead_ratio",
            median(&traced[1..].iter().map(|r| r.wall_s).collect::<Vec<_>>())
                / med_untraced(&|r| r.wall_s),
            "ratio",
        ),
        metric(
            "telemetry.node_snapshots",
            untraced[0].sum(|d| d.node_snapshots as f64),
            "count",
        ),
        metric(
            "telemetry.score_s",
            med_untraced(&|r| r.sum(|d| d.profile.score_s)),
            "s",
        ),
        metric(
            "fleet.worker_busy_ratio",
            med_untraced(&|r| {
                r.jobs.iter().map(|j| j.wall_s).sum::<f64>() / (r.workers as f64 * r.fleet_wall_s)
            }),
            "ratio",
        ),
        metric(
            "fleet.record_write_s",
            med_untraced(&|r| r.record_write_s),
            "s",
        ),
        metric("failed_ratio", failed_ratio, "ratio"),
    ]
}

/// The spans of one traced rep: `job span parent name start end`.
fn write_spans(workload: Workload, rep: &Rep) -> std::io::Result<std::path::PathBuf> {
    let mut out = String::from("job\tspan\tparent\tname\tstart_s\tend_s\n");
    for job in &rep.jobs {
        let Ok(data) = &job.outcome else { continue };
        for (i, s) in data.profile.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}\t{i}\t{parent}\t{}\t{:.9}\t{:.9}",
                job.label, s.name, s.start, s.end
            );
        }
    }
    let dir = workloads::out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}.spans.tsv", workload.name()));
    std::fs::write(&path, out)?;
    Ok(path)
}

/// One-line JSON.
fn compact(json: &Json) -> String {
    json.render().lines().map(str::trim).collect()
}

fn run(args: &Args) -> Result<bool, String> {
    let host = Host::detect();
    let w = args.workload;
    println!(
        "{}",
        compact(&Json::obj(vec![
            ("workload", Json::Str(w.name().to_string())),
            ("seed", Json::Uint(args.seed)),
            ("seconds", Json::Uint(args.seconds)),
            ("trace", Json::Bool(args.trace)),
            ("workers", Json::Uint(w.workers() as u64)),
            (
                "host",
                Json::obj(vec![
                    ("cpu_model", Json::Str(host.cpu_model.clone())),
                    ("logical_cores", Json::Uint(host.logical_cores as u64)),
                    ("rustc", Json::Str(host.rustc.to_string())),
                    ("profile", Json::Str(host.profile.to_string())),
                ]),
            ),
        ]))
    );
    let jobs = w.jobs(args.seed)?;
    let mut checker = Checker::new(w, args.seed);
    let (mut attempted, mut failed) = (0, 0);
    let mut tally = |rep: &mut Rep, checker: &mut Checker| {
        let (a, f) = check_rep(rep, checker);
        attempted += a;
        failed += f;
    };

    let metrics = if !args.trace {
        let started = Instant::now();
        let mut reps = Vec::new();
        let mut peak_rss_mb = None;
        loop {
            let mut rep = run_rep(w, &jobs, false);
            tally(&mut rep, &mut checker);
            reps.push(rep);
            if peak_rss_mb.is_none() {
                peak_rss_mb = Some(host::peak_rss_mb()?);
            }
            let elapsed = started.elapsed().as_secs_f64();
            let per_rep = elapsed / reps.len() as f64;
            if reps.len() >= MIN_REPS && elapsed + per_rep > args.seconds as f64 {
                break;
            }
        }
        let walls: Vec<String> = reps.iter().map(|r| format!("{:.4}", r.wall_s)).collect();
        println!("repetitions: {} (wall_s {})", reps.len(), walls.join(" "));
        end_to_end(&reps, peak_rss_mb.unwrap_or_default())
    } else {
        // A cold traced run, then traced and untraced runs in turn for
        // `--seconds` (at least one pair). The overhead compares the
        // warm traced runs with the untraced ones.
        let started = Instant::now();
        let mut traced = Vec::new();
        let mut untraced = Vec::new();
        loop {
            let mut rep = run_rep(w, &jobs, true);
            tally(&mut rep, &mut checker);
            traced.push(rep);
            if traced.len() >= TRACED_REPS {
                let mut rep = run_rep(w, &jobs, false);
                tally(&mut rep, &mut checker);
                untraced.push(rep);
            }
            let elapsed = started.elapsed().as_secs_f64();
            let per_pair = 2.0 * elapsed / (traced.len() + untraced.len()) as f64;
            if !untraced.is_empty() && elapsed + per_pair > args.seconds as f64 {
                break;
            }
        }
        let differ = counts_differ(&traced);
        failed += differ.len() as u64;
        let layer_job = jobs.last().ok_or("workload has no jobs")?;
        let layers = layers::measure(&layer_job.scenario, &layer_job.overrides)?;
        let last = traced.last().ok_or("no traced run")?;
        let path = write_spans(w, last).map_err(|e| format!("writing spans: {e}"))?;
        println!("spans: {}", path.display());
        per_layer(
            &untraced,
            &traced,
            &layers,
            failed as f64 / attempted as f64,
        )
    };
    for (label, d) in checker.digests() {
        println!("digest {label} {d}");
    }
    for m in &metrics {
        println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let correct = failed == 0;
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Uint(attempted)),
        ("failed", Json::Uint(failed)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.to_string(),
                            Json::obj(vec![
                                ("value", Json::Num(m.value)),
                                ("unit", Json::Str(m.unit.to_string())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", compact(&result));
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(cli::UsageError::Help) => {
            println!("{}", cli::usage());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
