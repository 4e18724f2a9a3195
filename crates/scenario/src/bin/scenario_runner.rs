//! `scenario_runner` — execute a data-driven scenario or an XML spec.
//!
//! ```text
//! scenario_runner --scenario NAME|FILE [--seeds N] [--threads T]
//!                 [--hours H] [--out DIR] [--trace]
//! scenario_runner --emit [DENSITY]
//! ```
//!
//! NAME is a built-in scenario (`density_sweep`, `chaos_storm`,
//! `region_mixed4`, `pool_packing`, `cohort_mix`) or a path to a
//! scenario TOML file. Every run is gated by the K-S validation oracle:
//! a scenario whose synthesized workload does not fit its trained
//! models aborts with the failing family's verdict before any
//! simulation output is written. Artifacts (run records, manifest, the
//! scenario source, `oracle.json`, and `sweep.json` — single-sample
//! verdict at `--seeds 1`, dispersion statistics for `N > 1`)
//! land under `<out>/runs/<name>/`, byte-identical at any `--threads`.
//!
//! FILE may also be a `<Scenario>` XML spec (detected from its content):
//! it runs as one pinned job, prints its KPI digest, and writes its run
//! record and manifest under `<out>/runs/<spec name>/`. `--emit` prints
//! the default gen5 spec at DENSITY % (default 100) as a template:
//!
//! ```text
//! scenario_runner --emit 120 > my.xml
//! scenario_runner --scenario my.xml
//! ```

use toto_scenario::cli::{run_cli, CliArgs};
use toto_scenario::NAMED_SCENARIOS;
use toto_spec::ScenarioSpec;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: scenario_runner --scenario NAME|FILE [--seeds N] [--threads T] \
             [--hours H] [--out DIR] [--trace]\n       scenario_runner --emit [DENSITY]\n\
             FILE is a scenario TOML file or a <Scenario> XML spec\nbuilt-in scenarios: {}",
            NAMED_SCENARIOS.join(", ")
        );
        return;
    }
    if argv.first().map(String::as_str) == Some("--emit") {
        let density: u32 = argv.get(1).and_then(|d| d.parse().ok()).unwrap_or(100);
        print!(
            "{}",
            ScenarioSpec::gen5_stage_cluster(density).to_xml_string()
        );
        return;
    }
    let args = match CliArgs::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("scenario_runner: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "[scenario_runner] {} on {} threads ({} seed{})",
        args.scenario,
        args.threads,
        args.seeds,
        if args.seeds == 1 { "" } else { "s" }
    );
    match run_cli(&args, &toto_fleet::StderrProgress) {
        Ok(summary) => {
            for line in &summary.report_lines {
                println!("{line}");
            }
            println!(
                "scenario {}: {} completed, {} failed, {} oracle families fitted -> {}",
                summary.fleet_name,
                summary.completed,
                summary.failed,
                summary.oracle_families,
                summary.dir.display()
            );
            if summary.chaos_violations > 0 {
                println!("chaos oracle violations: {}", summary.chaos_violations);
                std::process::exit(1);
            }
            if summary.failed > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("scenario_runner: {e}");
            std::process::exit(1);
        }
    }
}
