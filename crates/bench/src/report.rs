//! The paper report: every committed `results/*.txt` artifact, rendered
//! from one shared set of runs.
//!
//! [`report_plan`] lists each distinct simulation job once. Artifacts
//! that need the same run (the same scenario and overrides) read the
//! same result: the pinned four-density study feeds Figures 2, 10, 11,
//! 12 and 14 and Tables 2 and 3, and its 120 % and 140 % jobs are also
//! the default rows of the two ablations. [`ARTIFACTS`] maps each
//! artifact name to the function that renders its text from a finished
//! [`Study`]; the `paper_report` binary writes one `results/<name>.txt`
//! per entry.

mod density;
mod studies;
mod workload;

use std::collections::BTreeMap;
use std::fmt;

use toto::experiment::ExperimentResult;
use toto_fleet::{FleetExecutor, FleetPlan, FleetReport, JobOutcome, StderrProgress};

use crate::{density_study_plan, render_table, DENSITIES};

/// Renders one artifact's text from the shared results.
pub type Render = fn(&Study, &mut String) -> fmt::Result;

/// Every artifact, keyed by the file stem it is written under.
pub const ARTIFACTS: [(&str, Render); 19] = [
    ("tab01_features", workload::tab01),
    ("tab02_population", density::tab02),
    ("tab03_parameters", density::tab03),
    ("fig02_density_summary", density::fig02),
    ("fig03_population", workload::fig03),
    ("fig06_create_dispersion", workload::fig06),
    ("fig07_ks_validation", workload::fig07),
    ("fig08_createdrop_sim", workload::fig08),
    ("fig09_disk_model", workload::fig09),
    ("fig10_redirects", density::fig10),
    ("fig11_cores_disk", density::fig11),
    ("fig12_utilization_failovers", density::fig12),
    ("fig13_nondeterminism", studies::fig13),
    ("fig14_revenue", density::fig14),
    ("study_density_throttling", studies::density_throttling),
    ("study_governance", studies::governance),
    ("study_pools", studies::pools),
    ("ablation_plb", studies::ablation_plb),
    ("ablation_persistence", studies::ablation_persistence),
];

/// The simulation jobs behind the report, each distinct input once:
/// the pinned density study first, then the extra studies' jobs.
fn report_plan() -> FleetPlan {
    let mut plan = density_study_plan(None);
    studies::plan(&mut plan);
    plan
}

/// The results every artifact renders from.
pub struct Study {
    runs: BTreeMap<String, ExperimentResult>,
    fig08: workload::Fig08,
}

impl Study {
    /// Run [`report_plan`] on `executor`, then Figure 8's model
    /// executions on the same pool. Fails if any task did not complete.
    pub fn run(executor: FleetExecutor) -> Result<Study, String> {
        let plan = report_plan();
        let runs = completed(executor.run(plan.jobs(), &StderrProgress))?
            .into_iter()
            .map(|(label, out)| (label, out.result))
            .collect();
        let fig08 = workload::Fig08::run(executor)?;
        Ok(Study { runs, fig08 })
    }

    /// The result of the plan job labelled `label`.
    fn run_of(&self, label: &str) -> &ExperimentResult {
        &self.runs[label]
    }

    /// The pinned density study's results, in [`DENSITIES`] order.
    fn density_runs(&self) -> Vec<&ExperimentResult> {
        DENSITIES
            .iter()
            .map(|d| self.run_of(&format!("density-{d}")))
            .collect()
    }
}

/// Append a [`render_table`] table and the blank line that follows every
/// table in the artifacts.
fn push_table(out: &mut String, headers: &[&str], rows: &[Vec<String>]) {
    out.push_str(&render_table(headers, rows));
    out.push('\n');
}

/// Each task's label and output in task order, or an error naming every
/// task that did not complete.
fn completed<O>(report: FleetReport<O>) -> Result<Vec<(String, O)>, String> {
    let mut done = Vec::new();
    let mut failed = Vec::new();
    for job in report.jobs {
        match job.outcome {
            JobOutcome::Completed(out) => done.push((job.label, out)),
            other => failed.push(format!("{} {}", job.label, other.status())),
        }
    }
    if failed.is_empty() {
        Ok(done)
    } else {
        Err(format!("jobs did not complete: {}", failed.join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn the_plan_holds_each_distinct_job_once() {
        let plan = report_plan();
        assert_eq!(plan.jobs().len(), 20);
        let labels: BTreeSet<&str> = plan.jobs().iter().map(|j| j.label.as_str()).collect();
        assert_eq!(labels.len(), plan.jobs().len(), "labels must be unique");
        let inputs: BTreeSet<String> = plan
            .jobs()
            .iter()
            .map(|j| format!("{:?}", (&j.scenario, &j.overrides)))
            .collect();
        assert_eq!(inputs.len(), plan.jobs().len(), "a job is planned twice");
    }
}
