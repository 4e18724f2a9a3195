//! `fleet_runner` — run a fleet of density experiments, or a whole
//! multi-ring region, in parallel and persist run artifacts.
//!
//! ```text
//! fleet_runner [--jobs N] [--threads T] [--hours H] [--seed S] [--out DIR] [--trace]
//!              [--chaos PLAN[@RING]] [--region SPEC]
//! ```
//!
//! Without `--region`, jobs cycle through the paper's density levels
//! (100, 110, 120, 140 %; §5.2). Each job gets a seed derived from
//! `--seed` via the workspace SplitMix64 scheme, so the artifact set is
//! a pure function of the arguments — re-running with the same arguments
//! reproduces every run record byte-for-byte, regardless of `--threads`.
//!
//! `--region SPEC` runs a region instead: SPEC is a built-in name
//! (`mixed4`, `ci2`, `lifecycle3`) or a path to a `<region>` XML file.
//! Each ring becomes one fleet job replaying the region plan's directed
//! schedule; artifacts land under `runs/region-<name>/` with per-ring
//! run records plus the `region.json` record and `region.trace`
//! control-plane trace.
//!
//! `--chaos PLAN` runs every job under a named fault-injection plan
//! (`toto-chaos`). With `--region`, `--chaos PLAN@RING` restricts the
//! plan to one named ring — and a decommission fault promotes to a
//! ring-lifecycle decommission: the region drains the ring's tenants
//! cross-ring at the fault hour. Chaos fleets write to their own
//! directory (`runs/<fleet>-chaos-<plan>/`) so plain-run artifacts are
//! never touched.

use toto_chaos::ChaosPlan;
use toto_fleet::{FleetExecutor, RunStore, StderrProgress};
use toto_region::{save_region_run, RegionRunner, RegionSpec};

/// The §5.2 density ladder the job list cycles through.
const DENSITIES: [u32; 4] = [100, 110, 120, 140];

const USAGE: &str = "usage: fleet_runner [--jobs N] [--threads T] [--hours H] [--seed S] \
                     [--out DIR] [--trace] [--chaos PLAN[@RING]] [--region SPEC]";

struct Args {
    jobs: usize,
    threads: usize,
    hours: Option<u64>,
    seed: Option<u64>,
    out: String,
    trace: bool,
    /// Name of the `--chaos` plan, which also names the chaos fleet.
    chaos: Option<String>,
    /// The resolved `--chaos` plan (empty without the flag).
    chaos_plan: ChaosPlan,
    chaos_ring: Option<String>,
    region: Option<String>,
}

/// Why the command line was rejected. `main` prints it with the usage
/// line and exits with code 2.
#[derive(Debug, PartialEq, Eq)]
enum UsageError {
    /// `--help` was asked for; not an error, but nothing runs.
    Help,
    MissingValue(&'static str),
    NotAnInteger {
        flag: &'static str,
        value: String,
    },
    UnknownFlag(String),
    UnknownChaosPlan(String),
    /// `--chaos PLAN@RING` without `--region`.
    RingWithoutRegion,
    /// `--region SPEC` names no built-in and no readable, valid file.
    BadRegion(String),
}

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UsageError::Help => write!(
                f,
                "{USAGE}\nnamed chaos plans: {}\nnamed regions: {}",
                ChaosPlan::NAMED.join(", "),
                RegionSpec::NAMED.join(", ")
            ),
            UsageError::MissingValue(flag) => write!(f, "{flag} requires a value\n{USAGE}"),
            UsageError::NotAnInteger { flag, value } => {
                write!(f, "{flag}: not an integer: {value:?}\n{USAGE}")
            }
            UsageError::UnknownFlag(flag) => write!(f, "unknown flag {flag:?}\n{USAGE}"),
            UsageError::UnknownChaosPlan(name) => write!(
                f,
                "unknown chaos plan {name:?}; named plans: {}",
                ChaosPlan::NAMED.join(", ")
            ),
            UsageError::RingWithoutRegion => {
                write!(f, "--chaos PLAN@RING targets a ring; it requires --region")
            }
            UsageError::BadRegion(message) => write!(f, "--region {message}"),
        }
    }
}

/// Parse the arguments after the program name.
fn parse_args<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, UsageError> {
    let mut args = Args {
        jobs: DENSITIES.len(),
        threads: std::thread::available_parallelism().map_or(4, usize::from),
        hours: None,
        seed: None,
        out: "results".to_string(),
        trace: false,
        chaos: None,
        chaos_plan: ChaosPlan::default(),
        chaos_ring: None,
        region: None,
    };
    let mut argv = argv.into_iter();
    while let Some(flag) = argv.next() {
        let mut value = |name: &'static str| argv.next().ok_or(UsageError::MissingValue(name));
        let int = |name: &'static str, value: String| {
            value
                .parse::<u64>()
                .map_err(|_| UsageError::NotAnInteger { flag: name, value })
        };
        match flag.as_str() {
            "--jobs" => args.jobs = int("--jobs", value("--jobs")?)? as usize,
            "--threads" => args.threads = int("--threads", value("--threads")?)? as usize,
            "--hours" => args.hours = Some(int("--hours", value("--hours")?)?),
            "--seed" => args.seed = Some(int("--seed", value("--seed")?)?),
            "--out" => args.out = value("--out")?,
            "--trace" => args.trace = true,
            "--chaos" => {
                let spec = value("--chaos")?;
                let (plan, ring) = match spec.split_once('@') {
                    Some((plan, ring)) => (plan.to_string(), Some(ring.to_string())),
                    None => (spec, None),
                };
                args.chaos_plan = ChaosPlan::named(&plan)
                    .ok_or_else(|| UsageError::UnknownChaosPlan(plan.clone()))?;
                args.chaos = Some(plan);
                args.chaos_ring = ring;
            }
            "--region" => args.region = Some(value("--region")?),
            "--help" | "-h" => return Err(UsageError::Help),
            _ => return Err(UsageError::UnknownFlag(flag)),
        }
    }
    if args.chaos_ring.is_some() && args.region.is_none() {
        return Err(UsageError::RingWithoutRegion);
    }
    Ok(args)
}

/// A named region, or a `<region>` XML file; a `--chaos PLAN@RING`
/// target must name one of its rings.
fn resolve_region(spec: &str, chaos_ring: Option<&str>) -> Result<RegionSpec, UsageError> {
    let region = match RegionSpec::named(spec) {
        Some(named) => named,
        None => {
            let xml = std::fs::read_to_string(spec).map_err(|e| {
                UsageError::BadRegion(format!(
                    "{spec:?} is neither a named region ({}) nor a readable XML file: {e}",
                    RegionSpec::NAMED.join(", ")
                ))
            })?;
            RegionSpec::parse(&xml)
                .map_err(|e| UsageError::BadRegion(format!("{spec}: {}", e.message)))?
        }
    };
    if let Some(ring) = chaos_ring {
        if !region.rings.iter().any(|r| r.name == ring) {
            return Err(UsageError::BadRegion(format!(
                "{spec}: --chaos targets unknown ring {ring:?}"
            )));
        }
    }
    Ok(region)
}

/// Report a failed artifact write and exit 1.
fn write_failed(what: &str, e: std::io::Error) -> ! {
    eprintln!("fleet_runner: cannot write {what}: {e}");
    std::process::exit(1);
}

fn run_region(args: &Args, mut spec: RegionSpec) {
    if let Some(seed) = args.seed {
        spec.seed = seed;
    }
    if let Some(hours) = args.hours {
        spec.duration_hours = hours;
    }
    let fleet_name = match &args.chaos {
        Some(plan) => format!("region-{}-chaos-{plan}", spec.name),
        None => format!("region-{}", spec.name),
    };
    let runner = RegionRunner {
        threads: args.threads,
        trace: args.trace,
        chaos: args.chaos_plan.clone(),
        chaos_ring: args.chaos_ring.clone(),
    };
    eprintln!(
        "[fleet_runner] region {} ({} rings) on {} threads, {}h, seed {}",
        spec.name,
        spec.rings.len(),
        args.threads,
        spec.duration_hours,
        spec.seed
    );
    let output = runner.run_observed(&spec, &fleet_name, &StderrProgress);
    let store = RunStore::new(&args.out);
    let dir =
        save_region_run(&store, &output).unwrap_or_else(|e| write_failed("region artifacts", e));

    println!(
        "{:<12} {:>7} {:>6} {:>9} {:>8} {:>8} {:>8} {:>14}",
        "ring", "density", "nodes", "creates", "drops", "red_out", "red_in", "adj_revenue_$"
    );
    for ring in &output.record.rings {
        println!(
            "{:<12} {:>7} {:>6} {:>9} {:>8} {:>8} {:>8} {:>14.2}",
            ring.name,
            ring.density_percent,
            ring.node_count,
            ring.directed_creates,
            ring.directed_drops,
            ring.stats.redirects_out,
            ring.stats.redirects_in,
            ring.revenue.adjusted()
        );
    }
    println!(
        "\nregion {}: adjusted revenue {:.2} $, {} cross-ring redirects, {} out-of-region -> {}",
        output.record.region,
        output.record.region_revenue.adjusted(),
        output.record.cross_ring_redirects,
        output.record.out_of_region,
        dir.display()
    );
    if args.chaos.is_some() {
        println!("chaos oracle violations: {}", output.oracle_violations);
        if output.oracle_violations > 0 {
            std::process::exit(1);
        }
    }
    if !output.all_completed {
        std::process::exit(1);
    }
}

fn main() {
    let parsed = parse_args(std::env::args().skip(1)).and_then(|args| {
        let region = match &args.region {
            Some(spec) => Some(resolve_region(spec, args.chaos_ring.as_deref())?),
            None => None,
        };
        Ok((args, region))
    });
    let (args, region) = match parsed {
        Ok(parsed) => parsed,
        Err(UsageError::Help) => {
            eprintln!("{}", UsageError::Help);
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("fleet_runner: {e}");
            std::process::exit(2);
        }
    };
    if let Some(spec) = region {
        run_region(&args, spec);
        return;
    }
    let hours = args.hours.unwrap_or(144);
    let seed = args.seed.unwrap_or(42);
    // Chaos fleets get their own directory so the pinned plain-run
    // artifacts under runs/fleet_runner/ stay byte-identical forever.
    let fleet_name = match &args.chaos {
        Some(name) => format!("fleet_runner-chaos-{name}"),
        None => "fleet_runner".to_string(),
    };
    let overrides = || toto::experiment::ExperimentOverrides {
        chaos: args.chaos_plan.clone(),
        ..toto::experiment::ExperimentOverrides::default()
    };
    let densities: Vec<u32> = (0..args.jobs)
        .map(|i| DENSITIES[i % DENSITIES.len()])
        .collect();

    // Duplicate densities get distinct labels (and thus distinct seeds)
    // from their position in the ladder. Labels (hence seeds) do not
    // depend on the chaos plan: a chaos run perturbs the same baseline
    // run its plain twin executes.
    let mut plan = toto_fleet::FleetPlan::new(seed);
    if args.jobs == DENSITIES.len() {
        for &density in &densities {
            let mut scenario = toto_spec::ScenarioSpec::gen5_stage_cluster(density);
            scenario.duration_hours = hours;
            plan.add(format!("density-{density}"), scenario, overrides());
        }
    } else {
        for (i, &density) in densities.iter().enumerate() {
            let mut scenario = toto_spec::ScenarioSpec::gen5_stage_cluster(density);
            scenario.duration_hours = hours;
            plan.add(
                format!("job{i:03}-density-{density}"),
                scenario,
                overrides(),
            );
        }
    }

    if args.trace {
        plan.trace_all();
    }

    eprintln!(
        "[fleet_runner] {} jobs on {} threads, {}h each, root seed {}",
        plan.jobs().len(),
        args.threads,
        hours,
        seed
    );

    let executor = FleetExecutor::new(args.threads);
    let report = executor.run(plan.jobs(), &StderrProgress);

    let store = RunStore::new(&args.out);
    let (dir, _) = store
        .save_report(&fleet_name, seed, &report)
        .unwrap_or_else(|e| write_failed("run artifacts", e));
    store
        .append_bench_record(&toto_fleet::BenchRecord::new(
            toto_fleet::current_commit(),
            vec![toto_fleet::BenchEntry {
                name: format!("{fleet_name}/jobs_per_sec"),
                unit: "jobs/s".to_string(),
                value: report.jobs_per_sec(),
            }],
        ))
        .unwrap_or_else(|e| write_failed("benchdata.json", e));

    println!(
        "{:<24} {:>10} {:>14} {:>10} {:>10}",
        "job", "failovers", "adj_revenue_$", "redirects", "status"
    );
    for job in &report.jobs {
        match job.outcome.output() {
            Some(out) => println!(
                "{:<24} {:>10} {:>14.2} {:>10} {:>10}",
                job.label,
                out.result.telemetry.failover_count(None),
                out.result.revenue.adjusted(),
                out.result.redirect_count,
                job.outcome.status()
            ),
            None => println!(
                "{:<24} {:>10} {:>14} {:>10} {:>10}",
                job.label,
                "-",
                "-",
                "-",
                job.outcome.status()
            ),
        }
    }
    println!(
        "\n{} jobs in {:.1}s on {} threads ({:.2} jobs/s) -> {}",
        report.jobs.len(),
        report.wall_secs,
        report.threads,
        report.jobs_per_sec(),
        dir.display()
    );
    if args.chaos.is_some() {
        let violations: u64 = report
            .completed()
            .filter_map(|(_, out)| out.result.chaos.as_ref())
            .map(|c| c.oracle_violations)
            .sum();
        println!("chaos oracle violations: {violations}");
        if violations > 0 {
            std::process::exit(1);
        }
    }
    if !report.all_completed() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, UsageError> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn flags_parse_into_args() {
        let args = parse(
            "--jobs 8 --threads 2 --hours 6 --seed 7 --out dir --trace \
             --chaos storm@east --region ci2",
        )
        .unwrap();
        assert_eq!((args.jobs, args.threads), (8, 2));
        assert_eq!((args.hours, args.seed), (Some(6), Some(7)));
        assert_eq!(args.out, "dir");
        assert!(args.trace);
        assert_eq!(args.chaos.as_deref(), Some("storm"));
        assert_eq!(args.chaos_plan, ChaosPlan::named("storm").unwrap());
        assert_eq!(args.chaos_ring.as_deref(), Some("east"));
        assert_eq!(args.region.as_deref(), Some("ci2"));
    }

    #[test]
    fn bad_values_are_typed_usage_errors() {
        let not_an_integer = UsageError::NotAnInteger {
            flag: "--jobs",
            value: "x".to_string(),
        };
        assert_eq!(parse("--jobs x").err(), Some(not_an_integer));
        assert_eq!(
            parse("--seed").err(),
            Some(UsageError::MissingValue("--seed"))
        );
        let err = parse("--frobnicate").err().unwrap();
        assert_eq!(err, UsageError::UnknownFlag("--frobnicate".to_string()));
        assert!(err.to_string().contains("usage: fleet_runner"));
        let meteor = UsageError::UnknownChaosPlan("meteor".to_string());
        assert_eq!(parse("--chaos meteor").err(), Some(meteor));
        let no_region = parse("--chaos storm@east").err();
        assert_eq!(no_region, Some(UsageError::RingWithoutRegion));
        assert_eq!(parse("-h").err(), Some(UsageError::Help));
    }

    #[test]
    fn region_must_be_named_or_a_readable_file_with_the_target_ring() {
        assert!(resolve_region("ci2", Some("east")).is_ok());
        assert!(matches!(
            resolve_region("ci2", Some("nowhere")),
            Err(UsageError::BadRegion(_))
        ));
        assert!(matches!(
            resolve_region("/nonexistent/region.xml", None),
            Err(UsageError::BadRegion(_))
        ));
    }
}
