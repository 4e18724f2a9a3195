//! The persistent run-artifact store.
//!
//! Two kinds of artifact, with a deliberate split:
//!
//! * [`RunRecord`] — one per job, **deterministic**: label, seed, the
//!   scenario XML, KPI summary, revenue. No wall-clock, no hostnames, no
//!   thread counts. Records from a 1-thread run and a 16-thread run of
//!   the same plan are byte-identical, and that property is what the
//!   determinism integration test asserts.
//! * [`FleetManifest`] — one per fleet, **observational**: thread count,
//!   wall-clock per job and total, job statuses. This is where timing
//!   lives, so it never contaminates the records.
//!
//! Layout under the store root (conventionally `results/`):
//!
//! ```text
//! results/
//!   runs/<fleet>/manifest.json        (FleetManifest)
//!   runs/<fleet>/<job-label>.json     (RunRecord, one per job)
//!   runs/<fleet>/<job-label>.trace    (opt-in trace sidecar)
//!   runs/<fleet>/<job-label>.chaos.json (ChaosReport sidecar)
//!   benchdata.json                    (append-only BenchRecord array:
//!                                      commit-stamped benchmark samples)
//! ```
//!
//! Every record and manifest carries [`RUN_SCHEMA_VERSION`]; loading a
//! record with a different version is an error, not a silent reinterpretation.

use crate::executor::FleetReport;
use crate::job::JobOutput;
use crate::json::Json;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use toto::experiment::ExperimentResult;
use toto_chaos::ChaosReport;
use toto_telemetry::kpi::KpiSummary;
use toto_telemetry::revenue::RevenueBreakdown;

/// Current artifact schema version. Bump on any field change (version 2:
/// objects serialize with canonically sorted keys; version 3: kpis gained
/// `bootstrap_placement_failures`, and jobs may carry a `<label>.trace`
/// flight-recorder sidecar).
pub const RUN_SCHEMA_VERSION: u64 = 3;

/// The deterministic per-job artifact.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Schema version this record was written with.
    pub schema_version: u64,
    /// Job label (also the file stem).
    pub label: String,
    /// The job's derived seed.
    pub seed: u64,
    /// Full scenario, as the canonical XML the spec crate round-trips.
    pub scenario_xml: String,
    /// Flat telemetry digest.
    pub kpis: KpiSummary,
    /// Modeled revenue split (§5.1).
    pub revenue: RevenueBreakdown,
    /// Creation redirects during the run.
    pub redirect_count: u64,
    /// Databases the Population Manager created during the run.
    pub created_during_run: u64,
}

impl RunRecord {
    /// Digest one experiment result into a record.
    pub fn from_result(label: &str, seed: u64, result: &ExperimentResult) -> Self {
        RunRecord {
            schema_version: RUN_SCHEMA_VERSION,
            label: label.to_string(),
            seed,
            scenario_xml: result.scenario.to_xml_string(),
            kpis: result.telemetry.summarize(),
            revenue: result.revenue,
            redirect_count: result.redirect_count as u64,
            created_during_run: result.created_during_run,
        }
    }

    /// Serialize. Field order is fixed, so equal records render to equal
    /// bytes.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::Uint(self.schema_version)),
            ("label", Json::Str(self.label.clone())),
            ("seed", Json::Uint(self.seed)),
            ("scenario_xml", Json::Str(self.scenario_xml.clone())),
            ("kpis", kpis_to_json(&self.kpis)),
            ("revenue", revenue_to_json(&self.revenue)),
            ("redirect_count", Json::Uint(self.redirect_count)),
            ("created_during_run", Json::Uint(self.created_during_run)),
        ])
    }

    /// Deserialize, rejecting unknown schema versions.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let version = json
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("missing schema_version")?;
        if version != RUN_SCHEMA_VERSION {
            return Err(format!(
                "run record schema {version} != supported {RUN_SCHEMA_VERSION}"
            ));
        }
        let str_field = |key: &str| -> Result<String, String> {
            json.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field {key}"))
        };
        let uint_field = |obj: &Json, key: &str| -> Result<u64, String> {
            obj.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing uint field {key}"))
        };
        let kpis_json = json.get("kpis").ok_or("missing kpis")?;
        let revenue_json = json.get("revenue").ok_or("missing revenue")?;
        Ok(RunRecord {
            schema_version: version,
            label: str_field("label")?,
            seed: uint_field(json, "seed")?,
            scenario_xml: str_field("scenario_xml")?,
            kpis: kpis_from_json(kpis_json)?,
            revenue: revenue_from_json(revenue_json)?,
            redirect_count: uint_field(json, "redirect_count")?,
            created_during_run: uint_field(json, "created_during_run")?,
        })
    }
}

/// Render a KPI summary as the fixed-order JSON object every run-record
/// artifact embeds (region records reuse this shape for per-ring and
/// aggregated summaries).
pub fn kpis_to_json(k: &KpiSummary) -> Json {
    Json::obj(vec![
        ("failover_count", Json::Uint(k.failover_count)),
        ("failed_over_cores", Json::Num(k.failed_over_cores)),
        ("gp_failover_count", Json::Uint(k.gp_failover_count)),
        ("bc_failover_count", Json::Uint(k.bc_failover_count)),
        ("total_downtime_secs", Json::Num(k.total_downtime_secs)),
        ("final_reserved_cores", Json::Num(k.final_reserved_cores)),
        ("final_disk_gb", Json::Num(k.final_disk_gb)),
        ("creation_redirects", Json::Uint(k.creation_redirects)),
        (
            "throttled_core_intervals",
            Json::Num(k.throttled_core_intervals),
        ),
        (
            "contended_governance_passes",
            Json::Uint(k.contended_governance_passes),
        ),
        ("kpi_samples", Json::Uint(k.kpi_samples)),
        ("node_snapshot_count", Json::Uint(k.node_snapshot_count)),
        (
            "bootstrap_placement_failures",
            Json::Uint(k.bootstrap_placement_failures),
        ),
    ])
}

/// Parse a KPI summary from the object [`kpis_to_json`] renders.
pub fn kpis_from_json(json: &Json) -> Result<KpiSummary, String> {
    let uint = |key: &str| -> Result<u64, String> {
        json.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing uint field {key}"))
    };
    let num = |key: &str| -> Result<f64, String> {
        json.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing number field {key}"))
    };
    Ok(KpiSummary {
        failover_count: uint("failover_count")?,
        failed_over_cores: num("failed_over_cores")?,
        gp_failover_count: uint("gp_failover_count")?,
        bc_failover_count: uint("bc_failover_count")?,
        total_downtime_secs: num("total_downtime_secs")?,
        final_reserved_cores: num("final_reserved_cores")?,
        final_disk_gb: num("final_disk_gb")?,
        creation_redirects: uint("creation_redirects")?,
        throttled_core_intervals: num("throttled_core_intervals")?,
        contended_governance_passes: uint("contended_governance_passes")?,
        kpi_samples: uint("kpi_samples")?,
        node_snapshot_count: uint("node_snapshot_count")?,
        bootstrap_placement_failures: uint("bootstrap_placement_failures")?,
    })
}

/// Render a revenue breakdown (with its derived `adjusted` total) as the
/// fixed-order JSON object run records embed.
pub fn revenue_to_json(r: &RevenueBreakdown) -> Json {
    Json::obj(vec![
        ("compute", Json::Num(r.compute)),
        ("storage", Json::Num(r.storage)),
        ("penalty", Json::Num(r.penalty)),
        ("adjusted", Json::Num(r.adjusted())),
    ])
}

/// Parse a revenue breakdown from the object [`revenue_to_json`]
/// renders (the derived `adjusted` field is ignored).
pub fn revenue_from_json(json: &Json) -> Result<RevenueBreakdown, String> {
    let num = |key: &str| -> Result<f64, String> {
        json.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing number field {key}"))
    };
    Ok(RevenueBreakdown {
        compute: num("compute")?,
        storage: num("storage")?,
        penalty: num("penalty")?,
    })
}

/// Schema version of the `<label>.chaos.json` sidecar, independent of
/// [`RUN_SCHEMA_VERSION`].
pub const CHAOS_SCHEMA_VERSION: u64 = 1;

/// Render a chaos report as the `<label>.chaos.json` sidecar object.
/// Absent options (`node`, `recovery_secs`) render as `null`.
pub fn chaos_report_to_json(report: &ChaosReport) -> Json {
    let opt = |v: Option<u64>| v.map_or(Json::Null, Json::Uint);
    let faults = report
        .faults
        .iter()
        .map(|f| {
            Json::obj(vec![
                ("at_secs", Json::Uint(f.at_secs)),
                ("kind", Json::Str(f.kind.clone())),
                ("node", opt(f.node.map(u64::from))),
                ("failovers", Json::Uint(f.failovers)),
                ("failed_over_cores", Json::Num(f.failed_over_cores)),
                ("redirects_delta", Json::Uint(f.redirects_delta)),
                ("recovery_secs", opt(f.recovery_secs)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("schema_version", Json::Uint(CHAOS_SCHEMA_VERSION)),
        ("faults", Json::Arr(faults)),
        ("oracle_checks", Json::Uint(report.oracle_checks)),
        ("oracle_violations", Json::Uint(report.oracle_violations)),
    ])
}

/// One job's entry in a fleet manifest.
#[derive(Clone, Debug, PartialEq)]
pub struct ManifestJob {
    /// Job label.
    pub label: String,
    /// Job seed.
    pub seed: u64,
    /// `completed` / `failed` / `cancelled`.
    pub status: String,
    /// Wall-clock the job took, seconds.
    pub wall_secs: f64,
}

/// The observational per-fleet artifact: where timing and topology live.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetManifest {
    /// Schema version.
    pub schema_version: u64,
    /// Fleet name (the directory under `runs/`).
    pub fleet: String,
    /// Root seed the plan derived all job seeds from.
    pub root_seed: u64,
    /// Worker threads used.
    pub threads: u64,
    /// Total fleet wall-clock, seconds.
    pub wall_secs: f64,
    /// Per-job status and timing, submission order.
    pub jobs: Vec<ManifestJob>,
}

impl FleetManifest {
    /// The manifest of a finished fleet run: the report's thread count
    /// and timings, one entry per job in submission order.
    pub fn from_report<O>(fleet: &str, root_seed: u64, report: &FleetReport<O>) -> Self {
        FleetManifest {
            schema_version: RUN_SCHEMA_VERSION,
            fleet: fleet.to_string(),
            root_seed,
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
        }
    }

    /// Serialize.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::Uint(self.schema_version)),
            ("fleet", Json::Str(self.fleet.clone())),
            ("root_seed", Json::Uint(self.root_seed)),
            ("threads", Json::Uint(self.threads)),
            ("wall_secs", Json::Num(self.wall_secs)),
            (
                "jobs",
                Json::Arr(
                    self.jobs
                        .iter()
                        .map(|j| {
                            Json::obj(vec![
                                ("label", Json::Str(j.label.clone())),
                                ("seed", Json::Uint(j.seed)),
                                ("status", Json::Str(j.status.clone())),
                                ("wall_secs", Json::Num(j.wall_secs)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Deserialize, rejecting unknown schema versions.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let version = json
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("missing schema_version")?;
        if version != RUN_SCHEMA_VERSION {
            return Err(format!(
                "manifest schema {version} != supported {RUN_SCHEMA_VERSION}"
            ));
        }
        let jobs = json
            .get("jobs")
            .and_then(Json::as_arr)
            .ok_or("missing jobs")?
            .iter()
            .map(|j| {
                Ok(ManifestJob {
                    label: j
                        .get("label")
                        .and_then(Json::as_str)
                        .ok_or("missing job label")?
                        .to_string(),
                    seed: j
                        .get("seed")
                        .and_then(Json::as_u64)
                        .ok_or("missing job seed")?,
                    status: j
                        .get("status")
                        .and_then(Json::as_str)
                        .ok_or("missing job status")?
                        .to_string(),
                    wall_secs: j
                        .get("wall_secs")
                        .and_then(Json::as_f64)
                        .ok_or("missing job wall_secs")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(FleetManifest {
            schema_version: version,
            fleet: json
                .get("fleet")
                .and_then(Json::as_str)
                .ok_or("missing fleet")?
                .to_string(),
            root_seed: json
                .get("root_seed")
                .and_then(Json::as_u64)
                .ok_or("missing root_seed")?,
            threads: json
                .get("threads")
                .and_then(Json::as_u64)
                .ok_or("missing threads")?,
            wall_secs: json
                .get("wall_secs")
                .and_then(Json::as_f64)
                .ok_or("missing wall_secs")?,
            jobs,
        })
    }
}

/// Schema version of the `benchdata.json` series. Version 1: the file
/// is an array of commit-stamped [`BenchRecord`] objects (older seeds
/// stored a flat entry array with no provenance; that shape is no
/// longer readable and was migrated when this version landed).
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// One point in the benchmark time series
/// (github-action-benchmark's `customSmallerIsBetter`/`customBiggerIsBetter`
/// entry shape: name, unit, value).
#[derive(Clone, Debug, PartialEq)]
pub struct BenchEntry {
    /// Metric name, e.g. `"density-120/adjusted_revenue"`.
    pub name: String,
    /// Unit label, e.g. `"$"` or `"jobs/s"`.
    pub unit: String,
    /// The measured value.
    pub value: f64,
}

impl BenchEntry {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("unit", Json::Str(self.unit.clone())),
            ("value", Json::Num(self.value)),
        ])
    }

    fn from_json(json: &Json) -> Result<Self, String> {
        Ok(BenchEntry {
            name: json
                .get("name")
                .and_then(Json::as_str)
                .ok_or("missing bench name")?
                .to_string(),
            unit: json
                .get("unit")
                .and_then(Json::as_str)
                .ok_or("missing bench unit")?
                .to_string(),
            value: json
                .get("value")
                .and_then(Json::as_f64)
                .ok_or("missing bench value")?,
        })
    }
}

/// One commit's worth of benchmark samples: the unit of append in
/// `benchdata.json`. Every writer — `bench_track`, `fleet_runner`, the
/// scenario runner — appends whole records through the same
/// temp-file-and-rename path, so concurrent-looking writers can never
/// interleave partial JSON.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRecord {
    /// Schema version this record was written with.
    pub schema_version: u64,
    /// The commit the samples were measured at (short hash, or
    /// `"unknown"` outside a git checkout).
    pub commit: String,
    /// The samples, in suite order.
    pub entries: Vec<BenchEntry>,
}

impl BenchRecord {
    /// A record stamped with the current schema version.
    pub fn new(commit: impl Into<String>, entries: Vec<BenchEntry>) -> Self {
        BenchRecord {
            schema_version: BENCH_SCHEMA_VERSION,
            commit: commit.into(),
            entries,
        }
    }

    /// The value of the entry named `name`, if present.
    pub fn value_of(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.value)
    }

    /// Serialize (canonically sorted keys, like every store artifact).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::Uint(self.schema_version)),
            ("commit", Json::Str(self.commit.clone())),
            (
                "entries",
                Json::Arr(self.entries.iter().map(BenchEntry::to_json).collect()),
            ),
        ])
    }

    /// Deserialize, rejecting unknown schema versions.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let version = json
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("bench record missing schema_version")?;
        if version != BENCH_SCHEMA_VERSION {
            return Err(format!(
                "bench record schema {version} != supported {BENCH_SCHEMA_VERSION}"
            ));
        }
        Ok(BenchRecord {
            schema_version: version,
            commit: json
                .get("commit")
                .and_then(Json::as_str)
                .ok_or("bench record missing commit")?
                .to_string(),
            entries: json
                .get("entries")
                .and_then(Json::as_arr)
                .ok_or("bench record missing entries")?
                .iter()
                .map(BenchEntry::from_json)
                .collect::<Result<Vec<_>, String>>()?,
        })
    }
}

/// Best-effort commit stamp for bench records: the short hash of the
/// checked-out HEAD, or `"unknown"` when git (or a repository) is not
/// available. Purely observational — commit stamps live in the bench
/// series, never in deterministic run records.
pub fn current_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Filesystem-backed artifact store rooted at a results directory.
#[derive(Clone, Debug)]
pub struct RunStore {
    root: PathBuf,
}

impl RunStore {
    /// A store rooted at `root` (conventionally `results/`). Nothing is
    /// created until the first save.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        RunStore { root: root.into() }
    }

    /// The store root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn fleet_dir(&self, fleet: &str) -> PathBuf {
        self.root.join("runs").join(fleet)
    }

    /// Persist a fleet: its manifest plus one record file per record.
    /// Returns the fleet directory.
    pub fn save_fleet(
        &self,
        manifest: &FleetManifest,
        records: &[RunRecord],
    ) -> io::Result<PathBuf> {
        let dir = self.fleet_dir(&manifest.fleet);
        fs::create_dir_all(&dir)?;
        fs::write(dir.join("manifest.json"), manifest.to_json().render())?;
        for record in records {
            fs::write(
                dir.join(format!("{}.json", record.label)),
                record.to_json().render(),
            )?;
        }
        Ok(dir)
    }

    /// Persist a finished fleet of density jobs: the manifest, one run
    /// record per completed job, and each completed job's trace and
    /// chaos sidecars. Returns the fleet directory and the records.
    pub fn save_report(
        &self,
        fleet: &str,
        root_seed: u64,
        report: &FleetReport<JobOutput>,
    ) -> io::Result<(PathBuf, Vec<RunRecord>)> {
        let records: Vec<RunRecord> = report
            .completed()
            .map(|(job, out)| RunRecord::from_result(&job.label, job.seed, &out.result))
            .collect();
        let manifest = FleetManifest::from_report(fleet, root_seed, report);
        let dir = self.save_fleet(&manifest, &records)?;
        for (job, out) in report.completed() {
            if let Some(trace) = &out.trace {
                self.save_trace(fleet, &job.label, trace)?;
            }
            if let Some(chaos) = &out.result.chaos {
                self.save_chaos(fleet, &job.label, chaos)?;
            }
        }
        Ok((dir, records))
    }

    /// Write one job's encoded trace stream as a `<label>.trace` sidecar
    /// next to its run record. Traces are opt-in (see `FleetJob::trace`)
    /// and, like records, are pure functions of the job descriptor — two
    /// runs of the same job write byte-identical sidecars.
    pub fn save_trace(&self, fleet: &str, label: &str, bytes: &[u8]) -> io::Result<PathBuf> {
        let dir = self.fleet_dir(fleet);
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{label}.trace"));
        fs::write(&path, bytes)?;
        Ok(path)
    }

    /// Load one job's trace sidecar bytes (decode with `toto-trace`).
    pub fn trace_bytes(&self, fleet: &str, label: &str) -> io::Result<Vec<u8>> {
        fs::read(self.fleet_dir(fleet).join(format!("{label}.trace")))
    }

    /// Write one job's chaos report as a `<label>.chaos.json` sidecar.
    /// Like the record, the report is a pure function of (spec, seed);
    /// chaos fleets use their own fleet name so pinned plain-run
    /// artifacts are never touched.
    pub fn save_chaos(
        &self,
        fleet: &str,
        label: &str,
        report: &ChaosReport,
    ) -> io::Result<PathBuf> {
        let dir = self.fleet_dir(fleet);
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{label}.chaos.json"));
        fs::write(&path, chaos_report_to_json(report).render())?;
        Ok(path)
    }

    /// Load one job's chaos-report sidecar bytes.
    pub fn chaos_bytes(&self, fleet: &str, label: &str) -> io::Result<Vec<u8>> {
        fs::read(self.fleet_dir(fleet).join(format!("{label}.chaos.json")))
    }

    /// Write an arbitrary named artifact into a fleet directory (region
    /// run records and the region control-plane trace use this). The
    /// file name is used verbatim; callers own the naming convention.
    pub fn save_artifact(&self, fleet: &str, file_name: &str, bytes: &[u8]) -> io::Result<PathBuf> {
        let dir = self.fleet_dir(fleet);
        fs::create_dir_all(&dir)?;
        let path = dir.join(file_name);
        fs::write(&path, bytes)?;
        Ok(path)
    }

    /// Load a named artifact's bytes from a fleet directory.
    pub fn artifact_bytes(&self, fleet: &str, file_name: &str) -> io::Result<Vec<u8>> {
        fs::read(self.fleet_dir(fleet).join(file_name))
    }

    /// Load one job's record from a saved fleet.
    pub fn load_record(&self, fleet: &str, label: &str) -> io::Result<RunRecord> {
        let path = self.fleet_dir(fleet).join(format!("{label}.json"));
        let text = fs::read_to_string(&path)?;
        let json = Json::parse(&text).map_err(invalid)?;
        RunRecord::from_json(&json).map_err(invalid)
    }

    /// Load a saved fleet's manifest.
    pub fn load_manifest(&self, fleet: &str) -> io::Result<FleetManifest> {
        let text = fs::read_to_string(self.fleet_dir(fleet).join("manifest.json"))?;
        let json = Json::parse(&text).map_err(invalid)?;
        FleetManifest::from_json(&json).map_err(invalid)
    }

    /// Raw bytes of one job's record (for byte-identity comparisons).
    pub fn record_bytes(&self, fleet: &str, label: &str) -> io::Result<Vec<u8>> {
        fs::read(self.fleet_dir(fleet).join(format!("{label}.json")))
    }

    /// The benchmark series file this store appends to.
    pub fn bench_path(&self) -> PathBuf {
        self.root.join("benchdata.json")
    }

    /// Append one commit-stamped record to `benchdata.json`, creating
    /// the series if absent. This is the **single** append path for
    /// every writer: the whole series is re-rendered and written to a
    /// temp file in the same directory, then atomically renamed over
    /// the series, so a reader (or a second writer landing just after)
    /// always sees a complete, parseable array — never a torn write.
    /// Returns the file path.
    pub fn append_bench_record(&self, record: &BenchRecord) -> io::Result<PathBuf> {
        fs::create_dir_all(&self.root)?;
        let path = self.bench_path();
        let mut all = self.load_bench_records()?;
        all.push(record.clone());
        let json = Json::Arr(all.iter().map(BenchRecord::to_json).collect());
        let tmp = self
            .root
            .join(format!("benchdata.json.tmp.{}", std::process::id()));
        fs::write(&tmp, json.render())?;
        fs::rename(&tmp, &path)?;
        Ok(path)
    }

    /// Read back the whole benchmark series, oldest record first
    /// (empty if never written).
    pub fn load_bench_records(&self) -> io::Result<Vec<BenchRecord>> {
        let path = self.bench_path();
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        Json::parse(&text)
            .map_err(invalid)?
            .as_arr()
            .ok_or_else(|| invalid("benchdata.json is not an array"))?
            .iter()
            .map(BenchRecord::from_json)
            .collect::<Result<Vec<_>, String>>()
            .map_err(invalid)
    }

    /// The per-metric history across the series, oldest first: every
    /// value recorded under `name`, in append order. Feed this to
    /// `toto_stats::regression::gate_metric` as the trailing history.
    pub fn bench_history(&self, name: &str) -> io::Result<Vec<f64>> {
        Ok(self
            .load_bench_records()?
            .iter()
            .filter_map(|r| r.value_of(name))
            .collect())
    }
}

fn invalid(message: impl ToString) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record(label: &str) -> RunRecord {
        RunRecord {
            schema_version: RUN_SCHEMA_VERSION,
            label: label.to_string(),
            seed: 0xDEAD_BEEF_CAFE_F00D,
            scenario_xml: "<Scenario name=\"t\"/>".to_string(),
            kpis: KpiSummary {
                failover_count: 7,
                failed_over_cores: 28.5,
                gp_failover_count: 5,
                bc_failover_count: 2,
                total_downtime_secs: 310.25,
                final_reserved_cores: 812.0,
                final_disk_gb: 55_000.125,
                creation_redirects: 3,
                throttled_core_intervals: 19.75,
                contended_governance_passes: 11,
                kpi_samples: 144,
                node_snapshot_count: 2016,
                bootstrap_placement_failures: 0,
            },
            revenue: RevenueBreakdown {
                compute: 100.5,
                storage: 20.25,
                penalty: 1.125,
            },
            redirect_count: 3,
            created_during_run: 42,
        }
    }

    #[test]
    fn record_round_trips_through_json() {
        let record = sample_record("density-120");
        let back = RunRecord::from_json(&record.to_json()).unwrap();
        assert_eq!(back, record);
        // Byte-stable: render(parse(render(x))) == render(x).
        assert_eq!(back.to_json().render(), record.to_json().render());
    }

    #[test]
    fn unknown_schema_version_is_rejected() {
        let mut record = sample_record("x");
        record.schema_version = RUN_SCHEMA_VERSION + 1;
        let err = RunRecord::from_json(&record.to_json()).unwrap_err();
        assert!(err.contains("schema"), "got: {err}");
    }

    #[test]
    fn store_saves_and_loads_fleets() {
        let dir =
            std::env::temp_dir().join(format!("toto-fleet-store-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = RunStore::new(&dir);
        let manifest = FleetManifest {
            schema_version: RUN_SCHEMA_VERSION,
            fleet: "density-study".to_string(),
            root_seed: 42,
            threads: 8,
            wall_secs: 12.5,
            jobs: vec![ManifestJob {
                label: "density-120".to_string(),
                seed: 0xDEAD_BEEF_CAFE_F00D,
                status: "completed".to_string(),
                wall_secs: 12.5,
            }],
        };
        let records = vec![sample_record("density-120")];
        store.save_fleet(&manifest, &records).unwrap();

        assert_eq!(store.load_manifest("density-study").unwrap(), manifest);
        assert_eq!(
            store.load_record("density-study", "density-120").unwrap(),
            records[0]
        );

        store
            .append_bench_record(&BenchRecord::new(
                "aaaa111",
                vec![BenchEntry {
                    name: "fleet/jobs_per_sec".to_string(),
                    unit: "jobs/s".to_string(),
                    value: 2.5,
                }],
            ))
            .unwrap();
        store
            .append_bench_record(&BenchRecord::new(
                "bbbb222",
                vec![BenchEntry {
                    name: "fleet/jobs_per_sec".to_string(),
                    unit: "jobs/s".to_string(),
                    value: 3.0,
                }],
            ))
            .unwrap();
        let series = store.load_bench_records().unwrap();
        assert_eq!(series.len(), 2, "benchdata.json must append, not overwrite");
        assert_eq!(series[1].commit, "bbbb222");
        assert_eq!(series[1].value_of("fleet/jobs_per_sec"), Some(3.0));
        assert_eq!(
            store.bench_history("fleet/jobs_per_sec").unwrap(),
            vec![2.5, 3.0]
        );

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_from_report_lists_every_job_in_submission_order() {
        use crate::executor::{JobOutcome, JobReport};
        let outcomes = [
            JobOutcome::Completed(()),
            JobOutcome::Failed("boom".into()),
            JobOutcome::Cancelled,
        ];
        let report = FleetReport {
            jobs: outcomes
                .into_iter()
                .enumerate()
                .map(|(index, outcome)| JobReport {
                    index,
                    label: format!("job{index}"),
                    seed: 100 + index as u64,
                    outcome,
                    wall_secs: index as f64 * 0.5,
                })
                .collect(),
            threads: 3,
            wall_secs: 2.0,
        };
        let m = FleetManifest::from_report("study", 42, &report);
        assert_eq!(
            (m.schema_version, m.fleet.as_str(), m.root_seed, m.threads),
            (RUN_SCHEMA_VERSION, "study", 42, 3)
        );
        assert_eq!(m.wall_secs, 2.0);
        let jobs: Vec<_> = m
            .jobs
            .iter()
            .map(|j| (j.label.as_str(), j.seed, j.status.as_str(), j.wall_secs))
            .collect();
        assert_eq!(
            jobs,
            [
                ("job0", 100, "completed", 0.0),
                ("job1", 101, "failed", 0.5),
                ("job2", 102, "cancelled", 1.0)
            ]
        );
    }

    #[test]
    fn chaos_sidecar_round_trips_every_field() {
        use toto_chaos::ChaosFaultRecord;
        let report = ChaosReport {
            faults: vec![
                ChaosFaultRecord {
                    at_secs: 7200,
                    kind: "node_crash".into(),
                    node: Some(3),
                    failovers: 5,
                    failed_over_cores: 40.5,
                    redirects_delta: 2,
                    recovery_secs: Some(1800),
                },
                ChaosFaultRecord {
                    at_secs: 10800,
                    kind: "decommission".into(),
                    node: None,
                    failovers: 0,
                    failed_over_cores: 0.0,
                    redirects_delta: 0,
                    recovery_secs: None,
                },
            ],
            oracle_checks: 1234,
            oracle_violations: 0,
        };
        let dir = std::env::temp_dir().join(format!(
            "toto-chaos-sidecar-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = fs::remove_dir_all(&dir);
        let store = RunStore::new(&dir);
        store.save_chaos("chaos", "density-120", &report).unwrap();
        let bytes = store.chaos_bytes("chaos", "density-120").unwrap();
        let json = Json::parse(&String::from_utf8(bytes).unwrap()).unwrap();

        // Every key and value of the sidecar's earlier hand-written
        // layout, absent options as `null`; only key order and
        // whitespace changed.
        let legacy = r#"{
  "schema_version": 1,
  "faults": [
    {"at_secs": 7200, "kind": "node_crash", "node": 3, "failovers": 5, "failed_over_cores": 40.5, "redirects_delta": 2, "recovery_secs": 1800},
    {"at_secs": 10800, "kind": "decommission", "node": null, "failovers": 0, "failed_over_cores": 0.0, "redirects_delta": 0, "recovery_secs": null}
  ],
  "oracle_checks": 1234,
  "oracle_violations": 0
}
"#;
        assert_eq!(json, Json::parse(legacy).unwrap());

        let empty =
            r#"{"schema_version": 1, "faults": [], "oracle_checks": 0, "oracle_violations": 0}"#;
        assert_eq!(
            chaos_report_to_json(&ChaosReport::default()),
            Json::parse(empty).unwrap()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bench_record_round_trips_and_rejects_unknown_schema() {
        let record = BenchRecord::new(
            "abc1234",
            vec![BenchEntry {
                name: "plb_place_bc_x4_ring_100".to_string(),
                unit: "ns/iter".to_string(),
                value: 15_320.0,
            }],
        );
        let back = BenchRecord::from_json(&record.to_json()).unwrap();
        assert_eq!(back, record);
        assert_eq!(back.to_json().render(), record.to_json().render());

        let mut wrong = record.clone();
        wrong.schema_version = BENCH_SCHEMA_VERSION + 1;
        let err = BenchRecord::from_json(&wrong.to_json()).unwrap_err();
        assert!(err.contains("schema"), "got: {err}");
    }

    #[test]
    fn sequential_appends_preserve_prior_entries_byte_for_byte() {
        let dir = std::env::temp_dir().join(format!(
            "toto-bench-append-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = fs::remove_dir_all(&dir);
        let store = RunStore::new(&dir);
        let entry = |v: f64| BenchEntry {
            name: "suite/metric".to_string(),
            unit: "ns/iter".to_string(),
            value: v,
        };
        store
            .append_bench_record(&BenchRecord::new("c0ffee1", vec![entry(100.0)]))
            .unwrap();
        let first = fs::read(store.bench_path()).unwrap();

        store
            .append_bench_record(&BenchRecord::new("c0ffee2", vec![entry(101.0)]))
            .unwrap();
        let second = fs::read(store.bench_path()).unwrap();

        // The first record's rendered bytes survive the second append
        // unchanged: the rewrite re-renders parsed records, and
        // render(parse(render(x))) == render(x) for every artifact. The
        // series after two appends is the first file with its closing
        // "\n]\n" replaced by ",\n  {record2}...", so the first file
        // minus that suffix must be a byte prefix of the second.
        let first_text = String::from_utf8(first).unwrap();
        let second_text = String::from_utf8(second).unwrap();
        let first_body = first_text
            .strip_suffix("\n]\n")
            .expect("series must end with a closing bracket");
        assert!(
            second_text.starts_with(first_body),
            "append must preserve the prior record byte-for-byte;\nfirst:\n{first_text}\nsecond:\n{second_text}"
        );
        assert!(second_text.contains("c0ffee2"));
        // No temp file left behind.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().to_string())
            .filter(|n| n.contains("tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files must be renamed away");

        let _ = fs::remove_dir_all(&dir);
    }
}
