//! The scenario command line: the one way a scenario name becomes a run.
//!
//! The `scenario_runner` bin is a thin shell over this module. A
//! scenario argument is a built-in name (embedded text) or a file path.
//! A file whose content is a `<Scenario>` XML spec — the paper's §1
//! declarative benchmark submission, `--emit` writes a template — is
//! detected from its content and compiled to a single pinned fleet job
//! ([`xml_spec_plan`]); it then runs through the same executor and
//! [`RunStore::save_report`] path as a scenario DSL fleet.

use crate::builtin::{builtin, NAMED_SCENARIOS};
use crate::doc::ScenarioDoc;
use crate::error::ScenarioError;
use crate::runner::{io_err, run, RunOptions, RunSummary};
use toto::experiment::{ExperimentOverrides, ExperimentResult};
use toto_fleet::{FleetExecutor, FleetObserver, FleetPlan, RunStore};
use toto_spec::{EditionKind, ScenarioSpec};

/// A resolved scenario: its source text plus where it came from.
#[derive(Clone, Debug)]
pub struct ResolvedScenario {
    /// The scenario source text (TOML).
    pub source: String,
    /// The validated document.
    pub doc: ScenarioDoc,
}

/// The text of a scenario argument: a built-in name
/// ([`NAMED_SCENARIOS`]) or a path to a scenario file.
fn read_source(name_or_path: &str) -> Result<String, ScenarioError> {
    match builtin(name_or_path) {
        Some(text) => Ok(text.to_string()),
        None => std::fs::read_to_string(name_or_path).map_err(|e| ScenarioError::Io {
            path: name_or_path.to_string(),
            message: format!(
                "{e} (not a built-in scenario either; built-ins: {})",
                NAMED_SCENARIOS.join(", ")
            ),
        }),
    }
}

/// Resolve a scenario argument: a built-in name ([`NAMED_SCENARIOS`]) or
/// a path to a `.toml` scenario file.
pub fn resolve(name_or_path: &str) -> Result<ResolvedScenario, ScenarioError> {
    let source = read_source(name_or_path)?;
    let doc = ScenarioDoc::parse(&source)?;
    Ok(ResolvedScenario { source, doc })
}

/// Parsed command line shared by the scenario front-ends.
#[derive(Clone, Debug)]
pub struct CliArgs {
    /// Scenario name or path (`--scenario`).
    pub scenario: String,
    /// Seed replicas (`--seeds`, default 1).
    pub seeds: u64,
    /// Worker threads (`--threads`).
    pub threads: usize,
    /// Run-length override, hours (`--hours`).
    pub hours: Option<u64>,
    /// Artifact store root (`--out`, default `results`).
    pub out: String,
    /// Record per-job trace sidecars (`--trace`).
    pub trace: bool,
}

impl Default for CliArgs {
    fn default() -> Self {
        CliArgs {
            scenario: String::new(),
            seeds: 1,
            threads: std::thread::available_parallelism().map_or(4, usize::from),
            hours: None,
            out: "results".to_string(),
            trace: false,
        }
    }
}

impl CliArgs {
    /// Parse an argument list (without the program name). Unknown flags
    /// and malformed values are typed errors so front-ends can print
    /// usage and exit non-zero.
    pub fn parse(argv: &[String]) -> Result<CliArgs, ScenarioError> {
        let mut args = CliArgs::default();
        let mut it = argv.iter();
        let missing = |flag: &str| ScenarioError::invalid(format!("{flag} requires a value"));
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--scenario" => {
                    args.scenario = it.next().ok_or_else(|| missing("--scenario"))?.clone();
                }
                "--seeds" => {
                    let v = it.next().ok_or_else(|| missing("--seeds"))?;
                    args.seeds = v.parse().map_err(|_| {
                        ScenarioError::invalid(format!("--seeds: not an integer: {v:?}"))
                    })?;
                    if args.seeds == 0 {
                        return Err(ScenarioError::invalid("--seeds must be at least 1"));
                    }
                }
                "--threads" => {
                    let v = it.next().ok_or_else(|| missing("--threads"))?;
                    args.threads = v.parse().map_err(|_| {
                        ScenarioError::invalid(format!("--threads: not an integer: {v:?}"))
                    })?;
                }
                "--hours" => {
                    let v = it.next().ok_or_else(|| missing("--hours"))?;
                    args.hours = Some(v.parse().map_err(|_| {
                        ScenarioError::invalid(format!("--hours: not an integer: {v:?}"))
                    })?);
                }
                "--out" => {
                    args.out = it.next().ok_or_else(|| missing("--out"))?.clone();
                }
                "--trace" => args.trace = true,
                other => {
                    return Err(ScenarioError::invalid(format!(
                        "unknown flag {other:?}; usage: --scenario NAME|FILE [--seeds N] \
                         [--threads T] [--hours H] [--out DIR] [--trace]"
                    )));
                }
            }
        }
        if args.scenario.is_empty() {
            return Err(ScenarioError::invalid(format!(
                "--scenario is required; built-ins: {}",
                NAMED_SCENARIOS.join(", ")
            )));
        }
        Ok(args)
    }
}

/// Resolve and run a scenario per the parsed arguments. A source whose
/// first non-blank character is `<` is a `<Scenario>` XML spec.
pub fn run_cli(args: &CliArgs, observer: &dyn FleetObserver) -> Result<RunSummary, ScenarioError> {
    if args.hours == Some(0) {
        return Err(ScenarioError::invalid("--hours must be positive"));
    }
    let options = RunOptions {
        threads: args.threads.max(1),
        seeds: args.seeds,
        out: args.out.clone(),
    };
    let source = read_source(&args.scenario)?;
    if source.trim_start().starts_with('<') {
        return run_xml(&source, args, &options, observer);
    }
    let mut doc = ScenarioDoc::parse(&source)?;
    if args.hours.is_some() {
        doc.hours = args.hours;
    }
    if args.trace {
        doc.trace = true;
    }
    run(&doc, &source, &options, observer)
}

/// Compile a `<Scenario>` XML spec into a single pinned fleet job, so an
/// XML submission flows through the same executor-and-store pipeline as
/// everything else. The spec's own component seeds are kept (that is
/// what an XML spec *is*).
pub fn xml_spec_plan(spec: ScenarioSpec, root_seed: u64) -> FleetPlan {
    let mut plan = FleetPlan::new(root_seed);
    plan.add_pinned(spec.name.clone(), spec, ExperimentOverrides::default());
    plan
}

/// Run a `<Scenario>` XML spec as one pinned job; its artifacts land
/// under `<out>/runs/<spec name>/`.
fn run_xml(
    xml: &str,
    args: &CliArgs,
    options: &RunOptions,
    observer: &dyn FleetObserver,
) -> Result<RunSummary, ScenarioError> {
    if args.seeds > 1 {
        return Err(ScenarioError::invalid(
            "--seeds sweeps apply to scenario DSL files, not XML specs",
        ));
    }
    let mut spec = ScenarioSpec::from_xml_str(xml)
        .map_err(|e| ScenarioError::invalid(format!("invalid scenario XML: {e}")))?;
    if let Some(hours) = args.hours {
        spec.duration_hours = hours;
    }
    let fleet_name = spec.name.clone();
    let mut plan = xml_spec_plan(spec, 0);
    if args.trace {
        plan.trace_all();
    }
    let report = FleetExecutor::new(options.threads).run(plan.jobs(), observer);
    let (dir, records) = RunStore::new(&options.out)
        .save_report(&fleet_name, plan.root_seed(), &report)
        .map_err(io_err(options.out.clone()))?;
    Ok(RunSummary {
        dir,
        fleet_name,
        completed: records.len(),
        failed: report.failed_count(),
        chaos_violations: 0,
        oracle_families: 0,
        report_lines: report
            .completed()
            .flat_map(|(_, out)| kpi_lines(&out.result))
            .collect(),
    })
}

/// The KPI digest an XML spec run prints.
fn kpi_lines(r: &ExperimentResult) -> Vec<String> {
    vec![
        format!(
            "bootstrap: {} databases, {:.0} free cores, {:.1}% disk",
            r.bootstrap.services.len(),
            r.bootstrap.free_cores,
            r.bootstrap.disk_utilization * 100.0
        ),
        format!(
            "final:     {:.0} reserved cores, {:.1} TB disk",
            r.final_reserved_cores,
            r.final_disk_gb / 1024.0
        ),
        format!(
            "redirects: {} (first at hour {:?})",
            r.redirect_count, r.first_redirect_hour
        ),
        format!(
            "failovers: {} ({:.0} cores, {:.0} BC cores)",
            r.telemetry.failover_count(None),
            r.telemetry.failed_over_cores(None),
            r.telemetry.failed_over_cores(Some(EditionKind::PremiumBc))
        ),
        format!(
            "revenue:   ${:.0} adjusted (${:.2} penalty)",
            r.revenue.adjusted(),
            r.revenue.penalty
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_full_flag_set() {
        let args = CliArgs::parse(&argv(&[
            "--scenario",
            "density_sweep",
            "--seeds",
            "3",
            "--threads",
            "2",
            "--hours",
            "24",
            "--out",
            "/tmp/x",
            "--trace",
        ]))
        .expect("parses");
        assert_eq!(args.scenario, "density_sweep");
        assert_eq!(args.seeds, 3);
        assert_eq!(args.threads, 2);
        assert_eq!(args.hours, Some(24));
        assert_eq!(args.out, "/tmp/x");
        assert!(args.trace);
    }

    #[test]
    fn unknown_flag_and_missing_scenario_are_typed_errors() {
        assert!(matches!(
            CliArgs::parse(&argv(&["--bogus"])),
            Err(ScenarioError::Invalid { .. })
        ));
        assert!(matches!(
            CliArgs::parse(&argv(&[])),
            Err(ScenarioError::Invalid { .. })
        ));
        assert!(matches!(
            CliArgs::parse(&argv(&["--scenario", "x", "--seeds", "0"])),
            Err(ScenarioError::Invalid { .. })
        ));
    }

    #[test]
    fn resolve_prefers_builtins_and_reports_unknowns() {
        let resolved = resolve("density_sweep").expect("builtin resolves");
        assert_eq!(resolved.doc.name, "density-sweep");
        let err = resolve("no_such_scenario_anywhere").unwrap_err();
        match err {
            ScenarioError::Io { message, .. } => {
                assert!(message.contains("built-ins"), "{message}")
            }
            other => panic!("expected Io, got {other:?}"),
        }
    }

    #[test]
    fn xml_specs_are_detected_from_content_and_run_as_one_job() {
        let dir = std::env::temp_dir().join(format!("toto-cli-xml-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join("spec.txt");
        let xml = ScenarioSpec::gen5_stage_cluster(120).to_xml_string();
        std::fs::write(&spec_path, format!("\n  {xml}")).unwrap();
        let out = dir.join("out").display().to_string();
        let args = CliArgs {
            scenario: spec_path.display().to_string(),
            threads: 1,
            hours: Some(1),
            out: out.clone(),
            ..CliArgs::default()
        };
        let summary = run_cli(&args, &toto_fleet::NullObserver).expect("XML spec runs");
        assert_eq!(summary.fleet_name, "gen5-stage-density-120");
        assert_eq!((summary.completed, summary.failed), (1, 0));
        assert_eq!(summary.report_lines.len(), 5);
        let store = RunStore::new(&out);
        let record = store
            .load_record("gen5-stage-density-120", "gen5-stage-density-120")
            .expect("record written");
        assert!(record.scenario_xml.contains("gen5-stage-density-120"));
        assert_eq!(
            store.load_manifest("gen5-stage-density-120").unwrap().jobs[0].status,
            "completed"
        );

        let mut sweep = args.clone();
        sweep.seeds = 2;
        assert!(matches!(
            run_cli(&sweep, &toto_fleet::NullObserver),
            Err(ScenarioError::Invalid { .. })
        ));
        std::fs::write(&spec_path, "<Scenario").unwrap();
        assert!(matches!(
            run_cli(&args, &toto_fleet::NullObserver),
            Err(ScenarioError::Invalid { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn xml_spec_plan_pins_the_spec_seeds() {
        let mut spec = ScenarioSpec::gen5_stage_cluster(110);
        spec.plb_seed = 777;
        let plan = xml_spec_plan(spec, 42);
        assert_eq!(plan.jobs().len(), 1);
        assert_eq!(plan.jobs()[0].scenario.plb_seed, 777);
        assert_eq!(plan.jobs()[0].label, "gen5-stage-density-110");
    }
}
