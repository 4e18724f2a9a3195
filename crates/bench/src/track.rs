//! `bench_track`: the pinned benchmark suite and its regression gate.
//!
//! The suite measures four things, in a fixed order, with fixed
//! parameters — change a parameter and you invalidate the recorded
//! history, so don't:
//!
//! 1. The six PLB microbenches on the shared [`crate::fixtures`] rings
//!    (same ids and same work as the criterion benches).
//! 2. A headline **sim-events/sec** from a pinned 24-hour density-140
//!    run: dispatched simulation events divided by host wall-clock.
//! 3. `hyperscale_smoke` wall-clock through the scenario runner.
//! 4. The 24-hour four-density fleet wall-clock at 1 and 8 workers.
//!
//! Every entry is the **median of K repeated samples** (K = 5 for
//! microbenches, 3 for macro runs) — *Sampling in Cloud Benchmarking*'s
//! antidote to single-point estimates — and lands in
//! `results/benchdata.json` as one commit-stamped
//! [`BenchRecord`](toto_fleet::BenchRecord) through the store's atomic
//! append. The gate compares each suite metric against the trailing
//! median of its last [`DEFAULT_WINDOW`] recorded samples and fails on
//! a worsening strictly beyond [`DEFAULT_THRESHOLD`], with a typed
//! verdict per metric.

use std::hint::black_box;
use std::time::Instant;
use toto::experiment::{DensityExperiment, ExperimentOverrides};
use toto_fabric::plb::{Plb, PlbConfig};
use toto_fleet::{BenchEntry, BenchRecord, FleetExecutor, NullObserver};
use toto_simcore::time::SimTime;
use toto_spec::ScenarioSpec;
use toto_stats::describe::median;
use toto_stats::regression::{gate_metric, Direction, GateError, GateVerdict};
pub use toto_stats::regression::{DEFAULT_THRESHOLD, DEFAULT_WINDOW};

use crate::fixtures::{bc_spec, loaded_cluster_at, push_three_disk_violations};

/// Repeated samples per microbench entry.
pub const K_MICRO: u32 = 5;
/// Repeated samples per macro (whole-run) entry.
pub const K_MACRO: u32 = 3;
/// Pinned simulated duration of the density-140 and fleet runs, hours.
pub const PINNED_HOURS: u64 = 24;

/// One pinned suite metric: its series name, unit, and which direction
/// of drift counts as a regression.
#[derive(Clone, Copy, Debug)]
pub struct SuiteMetric {
    /// Series name (microbench ids match the criterion benches).
    pub name: &'static str,
    /// Unit label recorded with every sample.
    pub unit: &'static str,
    /// Which way is worse.
    pub direction: Direction,
}

/// The pinned suite, in measurement order. The gate checks exactly
/// these metrics — other series in `benchdata.json` (for example
/// `density-sweep/jobs_per_sec`) are informational and never gated.
pub const SUITE: &[SuiteMetric] = &[
    SuiteMetric {
        name: "plb_place_bc_x4_ring_100",
        unit: "ns/iter",
        direction: Direction::SmallerIsBetter,
    },
    SuiteMetric {
        name: "plb_place_bc_x4_ring_1000",
        unit: "ns/iter",
        direction: Direction::SmallerIsBetter,
    },
    SuiteMetric {
        name: "plb_violation_scan_ring_100",
        unit: "ns/iter",
        direction: Direction::SmallerIsBetter,
    },
    SuiteMetric {
        name: "plb_violation_scan_ring_1000",
        unit: "ns/iter",
        direction: Direction::SmallerIsBetter,
    },
    SuiteMetric {
        name: "plb_fix_violations_pass_ring_100",
        unit: "ns/iter",
        direction: Direction::SmallerIsBetter,
    },
    SuiteMetric {
        name: "plb_fix_violations_pass_ring_1000",
        unit: "ns/iter",
        direction: Direction::SmallerIsBetter,
    },
    SuiteMetric {
        name: "sim_density140/events_per_sec",
        unit: "events/s",
        direction: Direction::LargerIsBetter,
    },
    SuiteMetric {
        name: "hyperscale_smoke/wall_secs",
        unit: "s",
        direction: Direction::SmallerIsBetter,
    },
    SuiteMetric {
        name: "fleet_density24h/wall_secs_t1",
        unit: "s",
        direction: Direction::SmallerIsBetter,
    },
    SuiteMetric {
        name: "fleet_density24h/wall_secs_t8",
        unit: "s",
        direction: Direction::SmallerIsBetter,
    },
];

/// Why the gate could not produce a verdict. Distinct from a
/// regression: these are malformed inputs, reported typed so the CI log
/// says *what* is broken instead of panicking mid-gate.
#[derive(Clone, Debug, PartialEq)]
pub enum TrackError {
    /// The current record lacks a pinned suite metric entirely.
    MissingMetric {
        /// The absent series name.
        name: String,
    },
    /// A metric's series or current sample is malformed (non-finite,
    /// non-positive baseline, ...).
    Metric {
        /// The offending series name.
        name: String,
        /// The underlying typed gate error.
        source: GateError,
    },
}

impl std::fmt::Display for TrackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrackError::MissingMetric { name } => {
                write!(f, "suite metric {name:?} missing from the current record")
            }
            TrackError::Metric { name, source } => {
                write!(f, "suite metric {name:?}: {source}")
            }
        }
    }
}

impl std::error::Error for TrackError {}

/// One suite metric's gate outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricVerdict {
    /// Series name.
    pub name: String,
    /// Unit label.
    pub unit: String,
    /// Regression direction the verdict was judged under.
    pub direction: Direction,
    /// The typed verdict.
    pub verdict: GateVerdict,
}

/// Gate `current` against the recorded history: every pinned suite
/// metric is compared to the trailing median of its last
/// [`DEFAULT_WINDOW`] samples in `prior` (records lacking a metric —
/// e.g. scenario-run throughput stamps — simply don't contribute to
/// that metric's history). Returns one typed verdict per suite metric,
/// in suite order, or the first typed error for malformed input.
pub fn gate_record(
    prior: &[BenchRecord],
    current: &BenchRecord,
) -> Result<Vec<MetricVerdict>, TrackError> {
    SUITE
        .iter()
        .map(|m| {
            let value = current
                .value_of(m.name)
                .ok_or_else(|| TrackError::MissingMetric {
                    name: m.name.to_string(),
                })?;
            let history: Vec<f64> = prior.iter().filter_map(|r| r.value_of(m.name)).collect();
            let verdict = gate_metric(
                &history,
                value,
                m.direction,
                DEFAULT_THRESHOLD,
                DEFAULT_WINDOW,
            )
            .map_err(|source| TrackError::Metric {
                name: m.name.to_string(),
                source,
            })?;
            Ok(MetricVerdict {
                name: m.name.to_string(),
                unit: m.unit.to_string(),
                direction: m.direction,
                verdict,
            })
        })
        .collect()
}

/// Render the verdicts as the aligned table `bench_track` prints.
pub fn render_verdicts(verdicts: &[MetricVerdict]) -> String {
    let rows: Vec<Vec<String>> = verdicts
        .iter()
        .map(|v| {
            let (baseline, change) = match &v.verdict {
                GateVerdict::NoHistory { .. } => ("-".to_string(), "-".to_string()),
                GateVerdict::Pass {
                    baseline,
                    worsening,
                    ..
                }
                | GateVerdict::Regressed {
                    baseline,
                    worsening,
                    ..
                } => (
                    format!("{baseline:.1}"),
                    format!("{:+.1}%", worsening * 100.0),
                ),
            };
            let current = match &v.verdict {
                GateVerdict::NoHistory { current }
                | GateVerdict::Pass { current, .. }
                | GateVerdict::Regressed { current, .. } => format!("{current:.1}"),
            };
            vec![
                v.name.clone(),
                v.unit.clone(),
                current,
                baseline,
                change,
                v.verdict.verdict().to_string(),
            ]
        })
        .collect();
    crate::render_table(
        &[
            "metric", "unit", "current", "baseline", "worse_by", "verdict",
        ],
        &rows,
    )
}

/// True when any verdict regressed.
pub fn any_regression(verdicts: &[MetricVerdict]) -> bool {
    verdicts.iter().any(|v| v.verdict.is_regression())
}

// ---------------------------------------------------------------------------
// The pinned suite runner
// ---------------------------------------------------------------------------

/// Median of `k` repeated samples.
fn median_of_k(k: u32, mut sample: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..k).map(|_| sample()).collect();
    median(&samples)
}

/// Nanoseconds per iteration of `f` over `iters` calls.
fn ns_per_iter(iters: u32, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_nanos() as f64 / f64::from(iters)
}

fn entry(metric: &SuiteMetric, value: f64) -> BenchEntry {
    BenchEntry {
        name: metric.name.to_string(),
        unit: metric.unit.to_string(),
        value,
    }
}

/// Run the six PLB microbenches on the shared fixtures; returns entries
/// in suite order (the first six suite metrics).
fn run_plb_micro(progress: &mut dyn FnMut(&str)) -> Vec<BenchEntry> {
    let mut entries = Vec::new();
    for (ring_idx, &nodes) in [100u32, 1000].iter().enumerate() {
        let services = u64::from(nodes) * 16;
        let (cluster, cpu, disk) = loaded_cluster_at(nodes, services);
        let spec = bc_spec(&cluster, cpu, disk);

        progress(&format!("plb_place_bc_x4_ring_{nodes}"));
        let place = median_of_k(K_MICRO, || {
            let mut plb = Plb::new(PlbConfig::default(), 77);
            ns_per_iter(200, || {
                black_box(
                    plb.place_new_service(&cluster, &spec)
                        .expect("bench fixture must stay feasible"),
                );
            })
        });
        entries.push(entry(&SUITE[ring_idx], place));

        progress(&format!("plb_violation_scan_ring_{nodes}"));
        let scan = median_of_k(K_MICRO, || {
            ns_per_iter(20_000, || {
                black_box(cluster.violations());
            })
        });
        entries.push(entry(&SUITE[2 + ring_idx], scan));

        progress(&format!("plb_fix_violations_pass_ring_{nodes}"));
        let fix = median_of_k(K_MICRO, || {
            // Per-pass setup (clone + induced violations) stays outside
            // the timed region, mirroring criterion's `iter_batched`.
            let mut total_ns = 0.0;
            const PASSES: u32 = 8;
            for _ in 0..PASSES {
                let mut dirty = cluster.clone();
                push_three_disk_violations(&mut dirty, disk);
                let mut plb = Plb::new(PlbConfig::default(), 3);
                total_ns += ns_per_iter(1, || {
                    black_box(plb.fix_violations(&mut dirty, SimTime::from_secs(60)));
                });
            }
            total_ns / f64::from(PASSES)
        });
        entries.push(entry(&SUITE[4 + ring_idx], fix));
    }
    // Reorder: the loop above produced [place_100, scan_100, fix_100,
    // place_1000, scan_1000, fix_1000] indices via SUITE offsets, so
    // sort into suite order by name for a stable record layout.
    let order: Vec<&str> = SUITE[..6].iter().map(|m| m.name).collect();
    entries.sort_by_key(|e| order.iter().position(|n| *n == e.name));
    entries
}

/// The pinned density-140 run: sim-events/sec over `PINNED_HOURS`
/// simulated hours with the paper's default seeds.
fn run_sim_throughput(progress: &mut dyn FnMut(&str)) -> BenchEntry {
    progress("sim_density140/events_per_sec");
    let value = median_of_k(K_MACRO, || {
        let mut scenario = ScenarioSpec::gen5_stage_cluster(140);
        scenario.duration_hours = PINNED_HOURS;
        let t0 = Instant::now();
        let result = DensityExperiment::new(scenario, ExperimentOverrides::default()).run();
        let wall = t0.elapsed().as_secs_f64();
        result.dispatched_events as f64 / wall
    });
    entry(&SUITE[6], value)
}

/// `hyperscale_smoke` wall-clock through the scenario runner (oracle
/// gate included, artifacts to a scratch directory).
fn run_hyperscale_smoke(progress: &mut dyn FnMut(&str)) -> BenchEntry {
    progress("hyperscale_smoke/wall_secs");
    let resolved = toto_scenario::cli::resolve("hyperscale_smoke")
        .expect("hyperscale_smoke is a built-in scenario");
    let mut sample_idx = 0u32;
    let value = median_of_k(K_MACRO, || {
        sample_idx += 1;
        let scratch = std::env::temp_dir().join(format!(
            "toto-bench-track-hs-{}-{sample_idx}",
            std::process::id()
        ));
        let options = toto_scenario::runner::RunOptions {
            threads: 4,
            seeds: 1,
            out: scratch.to_string_lossy().to_string(),
        };
        let t0 = Instant::now();
        toto_scenario::runner::run(&resolved.doc, &resolved.source, &options, &NullObserver)
            .expect("hyperscale_smoke must run clean");
        let wall = t0.elapsed().as_secs_f64();
        let _ = std::fs::remove_dir_all(&scratch);
        wall
    });
    entry(&SUITE[7], value)
}

/// The 24-hour four-density fleet at a fixed worker count; returns its
/// wall-clock (the executor's own measurement).
fn run_fleet_wall(
    threads: usize,
    metric: &SuiteMetric,
    progress: &mut dyn FnMut(&str),
) -> BenchEntry {
    progress(metric.name);
    let value = median_of_k(K_MACRO, || {
        let plan = crate::density_study_plan(Some(PINNED_HOURS));
        let report = FleetExecutor::new(threads).run(plan.jobs(), &NullObserver);
        assert_eq!(
            report.failed_count(),
            0,
            "pinned fleet jobs must complete for a valid wall-clock sample"
        );
        report.wall_secs
    });
    entry(metric, value)
}

/// Run the whole pinned suite; `progress` is called with each metric
/// name as it starts (the bin wires this to stderr). Returns the
/// entries in suite order.
pub fn run_suite(progress: &mut dyn FnMut(&str)) -> Vec<BenchEntry> {
    let mut entries = run_plb_micro(progress);
    entries.push(run_sim_throughput(progress));
    entries.push(run_hyperscale_smoke(progress));
    entries.push(run_fleet_wall(1, &SUITE[8], progress));
    entries.push(run_fleet_wall(8, &SUITE[9], progress));
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use toto_fleet::BenchRecord;

    fn full_record(commit: &str, scale: f64) -> BenchRecord {
        BenchRecord::new(
            commit,
            SUITE
                .iter()
                .map(|m| BenchEntry {
                    name: m.name.to_string(),
                    unit: m.unit.to_string(),
                    value: 100.0 * scale,
                })
                .collect(),
        )
    }

    #[test]
    fn suite_names_are_unique_and_ordered() {
        let names: std::collections::BTreeSet<&str> = SUITE.iter().map(|m| m.name).collect();
        assert_eq!(names.len(), SUITE.len(), "duplicate suite metric names");
        assert_eq!(SUITE.len(), 10);
    }

    #[test]
    fn gate_passes_with_no_history() {
        let verdicts = gate_record(&[], &full_record("head", 1.0)).unwrap();
        assert_eq!(verdicts.len(), SUITE.len());
        assert!(verdicts.iter().all(|v| v.verdict.verdict() == "no_history"));
        assert!(!any_regression(&verdicts));
    }

    #[test]
    fn gate_skips_records_without_a_metric() {
        // A scenario-run throughput stamp in the history must not count
        // as history for suite metrics.
        let stamp = BenchRecord::new(
            "other",
            vec![BenchEntry {
                name: "density-sweep/jobs_per_sec".to_string(),
                unit: "jobs/s".to_string(),
                value: 0.5,
            }],
        );
        let verdicts = gate_record(&[stamp], &full_record("head", 1.0)).unwrap();
        assert!(verdicts.iter().all(|v| v.verdict.verdict() == "no_history"));
    }

    #[test]
    fn render_includes_every_metric_and_verdict() {
        let prior = [full_record("a", 1.0)];
        let verdicts = gate_record(&prior, &full_record("b", 2.0)).unwrap();
        let table = render_verdicts(&verdicts);
        for m in SUITE {
            assert!(table.contains(m.name), "table missing {}", m.name);
        }
        // Latency metrics doubled (regressed); the throughput metric
        // doubled too, which is an improvement.
        assert!(table.contains("regressed"));
        assert!(table.contains("pass"));
    }
}
