//! The workloads, how one repetition of each runs, and the output checks.

use crate::spans::{BenchSink, JobProfile};
use crate::stats::digest;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use toto::experiment::ExperimentResult;
use toto_fleet::{
    density_fleet, FleetExecutor, FleetJob, FleetManifest, FleetTask, JobOutcome, ManifestJob,
    NullObserver, RunRecord, RunStore, RUN_SCHEMA_VERSION,
};
use toto_scenario::{compile, CompiledScenario, ScenarioDoc};

/// The named workloads. Each stresses a different layer of the same
/// system; see `BENCHMARK.json` for why each was chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's §5 study: four 14-node gen5 density jobs at 144 h on
    /// two fleet workers, records written through `RunStore`. The metric
    /// report loop does almost all the work.
    PaperSweep,
    /// The built-in `hyperscale` ring (1,000 nodes, 100k databases) for
    /// one simulated hour. Bootstrap placement does most of the work.
    Ring1000Bootstrap,
    /// The built-in `chaos_storm` ladder, one job after another, each
    /// recording its full decision trace to memory. Adds crash failover,
    /// per-event trace encoding and the post-dispatch invariant oracle.
    StormTraced,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperSweep,
        Workload::Ring1000Bootstrap,
        Workload::StormTraced,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::Ring1000Bootstrap => "ring1000_bootstrap",
            Workload::StormTraced => "storm_traced",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Fleet workers, never more than the host's logical cores.
    pub fn workers(self) -> usize {
        let wanted = match self {
            Workload::PaperSweep => 2,
            Workload::Ring1000Bootstrap | Workload::StormTraced => 1,
        };
        wanted.min(std::thread::available_parallelism().map_or(1, usize::from))
    }

    /// Whether each job records its encoded trace to memory.
    pub fn records_trace(self) -> bool {
        self == Workload::StormTraced
    }

    /// The workload's jobs for `seed`.
    pub fn jobs(self, seed: u64) -> Result<Vec<FleetJob>, String> {
        match self {
            Workload::PaperSweep => Ok(density_fleet(seed, &[100, 110, 120, 140], 144).into_jobs()),
            Workload::Ring1000Bootstrap => builtin_fleet("hyperscale", seed, Some(1)),
            Workload::StormTraced => builtin_fleet("chaos_storm", seed, None),
        }
    }
}

/// Compile a built-in scenario with its seed (and optionally its hours)
/// replaced, gating on its workload oracle as the scenario runner does.
fn builtin_fleet(name: &str, seed: u64, hours: Option<u64>) -> Result<Vec<FleetJob>, String> {
    let text =
        toto_scenario::builtin(name).ok_or_else(|| format!("no built-in scenario {name}"))?;
    let mut doc = ScenarioDoc::parse(text).map_err(|e| format!("scenario {name}: {e}"))?;
    doc.seed = Some(seed);
    if hours.is_some() {
        doc.hours = hours;
    }
    match compile(&doc).map_err(|e| format!("scenario {name}: {e}"))? {
        CompiledScenario::Fleet(fleet) => {
            fleet
                .oracle
                .check()
                .map_err(|e| format!("scenario {name}: workload oracle: {e:?}"))?;
            Ok(fleet.jobs)
        }
        _ => Err(format!("scenario {name} is not a fleet scenario")),
    }
}

/// The repository root: the parent of this package.
pub fn repo_root() -> PathBuf {
    let package = Path::new(env!("CARGO_MANIFEST_DIR"));
    package.parent().unwrap_or(package).to_path_buf()
}

/// Where runs write their records and spans (ignored by git).
pub fn out_dir() -> PathBuf {
    repo_root().join(".perfbench_out")
}

/// One fleet job wrapped with the benchmark's sink.
struct BenchTask<'a> {
    job: &'a FleetJob,
    detailed: bool,
    forward: bool,
}

struct TaskOutput {
    result: ExperimentResult,
    profile: JobProfile,
    trace: Option<Vec<u8>>,
}

impl FleetTask for BenchTask<'_> {
    type Output = Result<TaskOutput, String>;

    fn label(&self) -> String {
        self.job.label.clone()
    }

    fn seed(&self) -> u64 {
        self.job.seed
    }

    fn run(&self) -> Self::Output {
        let sink = toto_trace::Shared::new(BenchSink::new(self.detailed, self.forward));
        let guard = toto_trace::SessionGuard::install(Box::new(sink.clone()));
        let result = self.job.execute();
        drop(guard);
        let (profile, trace) = sink.with(|s| s.finish())?;
        Ok(TaskOutput {
            result,
            profile,
            trace,
        })
    }
}

/// What one job of a repetition produced.
pub struct JobData {
    pub profile: JobProfile,
    /// The record file as `RunStore` wrote it.
    pub record: Vec<u8>,
    /// The encoded trace, when the workload records one; dropped once
    /// checked.
    pub trace: Option<Vec<u8>>,
    pub trace_bytes: u64,
    pub oracle_checks: u64,
    pub oracle_violations: u64,
    pub node_snapshots: u64,
}

pub struct JobRun {
    pub label: String,
    pub hours: u64,
    pub wall_s: f64,
    pub outcome: Result<JobData, String>,
}

/// One repetition of a workload.
pub struct Rep {
    /// First job started to last record written.
    pub wall_s: f64,
    /// The executor's own wall, jobs only.
    pub fleet_wall_s: f64,
    pub record_write_s: f64,
    pub workers: usize,
    pub jobs: Vec<JobRun>,
}

impl Rep {
    fn completed(&self) -> impl Iterator<Item = &JobData> {
        self.jobs.iter().filter_map(|j| j.outcome.as_ref().ok())
    }

    /// Host seconds before each job's run phase, summed over jobs.
    pub fn setup_s(&self) -> f64 {
        self.completed().map(|d| d.profile.setup_s).sum()
    }

    /// Simulated ring-hours per run-phase host second.
    pub fn sim_hours_per_s(&self) -> f64 {
        let (hours, secs) = self
            .jobs
            .iter()
            .filter_map(|j| j.outcome.as_ref().ok().map(|d| (j.hours, d.profile.run_s)))
            .fold((0.0, 0.0), |(h, s), (jh, js)| (h + jh as f64, s + js));
        if secs > 0.0 {
            hours / secs
        } else {
            0.0
        }
    }

    /// Sum of `f` over completed jobs.
    pub fn sum(&self, f: impl Fn(&JobData) -> f64) -> f64 {
        self.completed().map(f).sum()
    }
}

/// Run every job of the workload once and write the records.
pub fn run_rep(workload: Workload, jobs: &[FleetJob], detailed: bool) -> Rep {
    let workers = workload.workers();
    let tasks: Vec<BenchTask> = jobs
        .iter()
        .map(|job| BenchTask {
            job,
            detailed,
            forward: workload.records_trace(),
        })
        .collect();
    let store = RunStore::new(out_dir());
    let fleet = workload.name().to_string();

    let started = Instant::now();
    let report = FleetExecutor::new(workers).run(&tasks, &NullObserver);
    let records: Vec<RunRecord> = report
        .jobs
        .iter()
        .filter_map(|j| match &j.outcome {
            JobOutcome::Completed(Ok(out)) => {
                Some(RunRecord::from_result(&j.label, j.seed, &out.result))
            }
            _ => None,
        })
        .collect();
    let manifest = FleetManifest {
        schema_version: RUN_SCHEMA_VERSION,
        fleet: fleet.clone(),
        root_seed: 0,
        threads: report.threads as u64,
        wall_secs: report.wall_secs,
        jobs: report
            .jobs
            .iter()
            .map(|j| ManifestJob {
                label: j.label.clone(),
                seed: j.seed,
                status: j.outcome.status().to_string(),
                wall_secs: j.wall_secs,
            })
            .collect(),
    };
    let write_started = Instant::now();
    let saved = store.save_fleet(&manifest, &records);
    let record_write_s = write_started.elapsed().as_secs_f64();
    let wall_s = started.elapsed().as_secs_f64();

    let jobs_out = report
        .jobs
        .into_iter()
        .zip(jobs)
        .map(|(j, job)| {
            let outcome = match j.outcome {
                JobOutcome::Completed(Ok(out)) => match &saved {
                    Ok(_) => store
                        .record_bytes(&fleet, &j.label)
                        .map_err(|e| format!("reading back its record: {e}"))
                        .map(|record| {
                            let chaos = out.result.chaos.as_ref();
                            JobData {
                                profile: out.profile,
                                record,
                                trace_bytes: out.trace.as_ref().map_or(0, |t| t.len() as u64),
                                trace: out.trace,
                                oracle_checks: chaos.map_or(0, |c| c.oracle_checks),
                                oracle_violations: chaos.map_or(0, |c| c.oracle_violations),
                                node_snapshots: out.result.telemetry.node_snapshots.len() as u64,
                            }
                        }),
                    Err(e) => Err(format!("writing records: {e}")),
                },
                JobOutcome::Completed(Err(e)) => Err(e),
                JobOutcome::Failed(msg) => Err(format!("panicked: {msg}")),
                JobOutcome::Cancelled => Err("cancelled".to_string()),
            };
            JobRun {
                label: j.label,
                hours: job.scenario.duration_hours,
                wall_s: j.wall_secs,
                outcome,
            }
        })
        .collect();
    Rep {
        wall_s,
        fleet_wall_s: report.wall_secs,
        record_write_s,
        workers: report.threads,
        jobs: jobs_out,
    }
}

/// Pinned digests of the default-seed outputs, `<label> <kind> <digest>`.
fn pinned_text(workload: Workload) -> &'static str {
    match workload {
        Workload::PaperSweep => "",
        Workload::Ring1000Bootstrap => include_str!("../reference/ring1000_bootstrap.txt"),
        Workload::StormTraced => include_str!("../reference/storm_traced.txt"),
    }
}

/// Checks every job's outputs against its reference.
///
/// At the pinned seed the reference is the committed run record
/// (`paper_sweep`) or a pinned digest (the others). Every job is also
/// compared with the first run of the same job in this invocation, so at
/// any other seed two runs must produce identical bytes.
pub struct Checker {
    workload: Workload,
    pinned_seed: bool,
    pinned: BTreeMap<String, String>,
    first: BTreeMap<String, String>,
}

impl Checker {
    pub fn new(workload: Workload, seed: u64) -> Checker {
        let pinned = pinned_text(workload)
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .filter_map(|l| l.rsplit_once(' '))
            .map(|(key, d)| (key.to_string(), d.to_string()))
            .collect();
        Checker {
            workload,
            pinned_seed: seed == crate::cli::PINNED_SEED,
            pinned,
            first: BTreeMap::new(),
        }
    }

    /// Every way `data` differs from its references.
    pub fn check(&mut self, label: &str, data: &JobData) -> Vec<String> {
        let mut problems = Vec::new();
        if data.oracle_violations > 0 {
            problems.push(format!(
                "{} invariant-oracle violations",
                data.oracle_violations
            ));
        }
        let mut outputs = vec![("record", digest(&data.record))];
        if let Some(trace) = &data.trace {
            outputs.push(("trace", digest(trace)));
        }
        if self.pinned_seed && self.workload == Workload::PaperSweep {
            let path = repo_root()
                .join("results/runs/fleet_runner")
                .join(format!("{label}.json"));
            match std::fs::read(&path) {
                Ok(want) if want == data.record => {}
                Ok(want) => problems.push(format!(
                    "record {} differs from committed results/runs/fleet_runner/{label}.json ({})",
                    outputs[0].1,
                    digest(&want)
                )),
                Err(e) => problems.push(format!("cannot read {}: {e}", path.display())),
            }
        }
        for (kind, got) in outputs {
            let key = format!("{label} {kind}");
            if self.pinned_seed && self.workload != Workload::PaperSweep {
                match self.pinned.get(&key) {
                    Some(want) if *want == got => {}
                    Some(want) => problems.push(format!("{kind} {got} != pinned {want}")),
                    None => problems.push(format!("{kind} {got} has no pinned digest")),
                }
            }
            match self.first.get(&key) {
                Some(first) if *first != got => {
                    problems.push(format!("{kind} {got} != first run's {first}"))
                }
                Some(_) => {}
                None => {
                    self.first.insert(key, got);
                }
            }
        }
        problems
    }

    /// `(label kind, digest)` of every output seen, for pinning.
    pub fn digests(&self) -> impl Iterator<Item = (&String, &String)> {
        self.first.iter()
    }
}
