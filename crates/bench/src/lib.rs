//! Experiment drivers for the Toto reproduction.
//!
//! [`report`] renders every table and figure of the paper from one
//! shared set of runs (the `paper_report` binary); [`track`] is the
//! `bench_track` suite; criterion micro-benches live in `benches/`. This
//! library also holds what they share: the four-density study plan and
//! aligned text tables.

use toto::experiment::ExperimentOverrides;
use toto_fleet::FleetPlan;
use toto_spec::ScenarioSpec;

pub mod fixtures;
pub mod report;
pub mod track;

/// The paper's four density levels (§5.2).
pub const DENSITIES: [u32; 4] = [100, 110, 120, 140];

/// The §5 density study as a fleet plan: one job per density level on
/// the gen5 stage ring. Scenario seeds are the paper's fixed defaults
/// (pinned, not derived) so results are identical to the historical
/// serial driver run by run.
pub fn density_study_plan(duration_hours: Option<u64>) -> FleetPlan {
    let mut plan = FleetPlan::new(0);
    for &density in &DENSITIES {
        let mut scenario = ScenarioSpec::gen5_stage_cluster(density);
        if let Some(h) = duration_hours {
            scenario.duration_hours = h;
        }
        plan.add_pinned(
            format!("density-{density}"),
            scenario,
            ExperimentOverrides::default(),
        );
    }
    plan
}

/// Render rows as a fixed-width text table with a header rule.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    for (i, h) in headers.iter().enumerate() {
        out.push_str(&format!("{:<w$}  ", h, w = widths[i]));
    }
    out.push('\n');
    for (i, _) in headers.iter().enumerate() {
        out.push_str(&"-".repeat(widths[i]));
        out.push_str("  ");
    }
    out.push('\n');
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", cell, w = widths[i]));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_aligns_columns() {
        let t = render_table(
            &["a", "long-header"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("long-header"));
        assert!(lines[2].starts_with("1  "));
    }

    #[test]
    fn densities_match_paper() {
        assert_eq!(DENSITIES, [100, 110, 120, 140]);
    }

    #[test]
    fn density_plan_keeps_paper_seeds() {
        let plan = density_study_plan(Some(6));
        let defaults = ScenarioSpec::gen5_stage_cluster(120);
        let job = &plan.jobs()[2];
        assert_eq!(job.scenario.density_percent, 120);
        assert_eq!(job.scenario.population_seed, defaults.population_seed);
        assert_eq!(job.scenario.model_seed, defaults.model_seed);
        assert_eq!(job.scenario.plb_seed, defaults.plb_seed);
        assert_eq!(job.scenario.duration_hours, 6);
    }
}
