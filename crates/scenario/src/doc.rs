//! The typed scenario document.
//!
//! [`ScenarioDoc::parse`] turns the generic [`toto_fleet::toml::RawDoc`] into
//! a validated scenario: every section and key is checked against the
//! grammar (unknown names are hard errors, like the linter config), all
//! value domains are enforced, and cross-section rules (a `fleet`
//! scenario needs a `[schedule]`, `[workload]` never combines with a
//! region run, …) are applied here so the compiler and runner can trust
//! the document.

use crate::error::ScenarioError;
use toto_chaos::ChaosPlan;
use toto_fleet::toml::{Entry, RawDoc, Table, Value};
use toto_region::RegionSpec;
use toto_telemetry::{CohortProfile, EtlSeason, LaunchSpike, RegionProfile, ServerlessProfile};

/// What a scenario executes on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScenarioKind {
    /// A fleet of density experiments (the §5.2 machinery).
    Fleet,
    /// A multi-ring region run.
    Region,
    /// The elastic-pool bin-packing study.
    Pools,
}

/// How job seeds are produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SeedPolicy {
    /// Derive every job seed from the scenario seed via the workspace
    /// SplitMix64 scheme (the fleet default).
    #[default]
    Derived,
    /// Keep the gen5 scenario's pinned component seeds (repeat studies
    /// that vary nothing but the schedule).
    Pinned,
}

/// The `[schedule]` table: which density jobs a fleet scenario runs.
#[derive(Clone, Debug, PartialEq)]
pub struct ScheduleConfig {
    /// Density ladder, one job per entry (duplicates allowed — they get
    /// positional labels).
    pub densities: Vec<u32>,
    /// Override the ring's node count (default: the gen5 stage ring's 14).
    pub node_count: Option<u32>,
    /// Override the bootstrap Standard/GP population (default: Table 2's
    /// 187). Hyperscale rings bootstrap tens of thousands.
    pub bootstrap_gp: Option<u32>,
    /// Override the bootstrap Premium/BC population (default: Table 2's
    /// 33).
    pub bootstrap_bc: Option<u32>,
    /// Override physical CPU cores per node (default: gen5's 128).
    pub cores_per_node: Option<f64>,
    /// Override physical DRAM per node in GB (default: gen5's 512).
    pub memory_per_node_gb: Option<f64>,
}

/// The `[chaos]` table: a named fault-injection plan.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosConfig {
    /// Plan name (one of [`ChaosPlan::NAMED`]).
    pub plan: String,
    /// Region runs only: restrict the plan to one named ring.
    pub ring: Option<String>,
}

/// The `[oracle]` table: K-S validation thresholds. The oracle is
/// mandatory — this table only tunes it.
#[derive(Clone, Debug, PartialEq)]
pub struct OracleConfig {
    /// K-S significance level.
    pub alpha: f64,
    /// Required fraction of tested cells accepting normality.
    pub min_acceptance: f64,
    /// Weeks of synthetic telemetry fitted per stream family.
    pub weeks: u64,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            alpha: 0.05,
            min_acceptance: 0.6,
            weeks: 6,
        }
    }
}

/// The `[workload]` table plus its sub-tables: a statistical workload
/// synthesized by `toto_telemetry::WorkloadGenerator`, fitted into the
/// population model the jobs run under.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadConfig {
    /// Regional baseline: `"region1"` or `"region2"`.
    pub region: RegionProfile,
    /// Fraction of the region's volume this ring receives.
    pub ring_fraction: f64,
    /// Tenant cohorts (`[[workload.cohort]]`); empty means one baseline
    /// cohort.
    pub cohorts: Vec<CohortProfile>,
    /// Launch spikes (`[[workload.spike]]`).
    pub spikes: Vec<LaunchSpike>,
    /// Serverless auto-pause/resume population (`[workload.serverless]`).
    pub serverless: Option<ServerlessProfile>,
    /// ETL-season disk modulation (`[workload.etl]`).
    pub etl: Option<EtlSeason>,
}

/// The `[region]` table: which region spec a region scenario runs.
#[derive(Clone, Debug, PartialEq)]
pub struct RegionConfig {
    /// Built-in region name ([`RegionSpec::NAMED`]) or a path to a
    /// `<region>` XML file.
    pub spec: String,
}

/// The `[pools]` table: the elastic-pool study's shape.
#[derive(Clone, Debug, PartialEq)]
pub struct PoolsConfig {
    /// Number of pools packed onto the ring.
    pub pools: u32,
    /// Member databases per pool.
    pub members: u32,
    /// Pool reservation, vcores.
    pub pool_vcores: u32,
    /// Per-database reservation in the singleton comparison, vcores.
    pub per_db_vcores: u32,
    /// Fleet size for the reservation comparison.
    pub databases: u32,
    /// Draw member sizes from the synthesized pool population instead of
    /// the fixed `5 + m` GB ladder.
    pub synth_members: bool,
}

/// A fully validated scenario document.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioDoc {
    /// Scenario name — also the artifact directory under `results/runs/`.
    pub name: String,
    /// Execution target.
    pub kind: ScenarioKind,
    /// Root seed. `None` keeps the target's own default (42 for fleets,
    /// the region spec's seed for regions).
    pub seed: Option<u64>,
    /// Run length override, hours. `None` keeps the target's default.
    pub hours: Option<u64>,
    /// Seed policy for fleet jobs.
    pub seed_policy: SeedPolicy,
    /// Record structured traces per job.
    pub trace: bool,
    /// Fleet schedule (required when `kind` is `Fleet`).
    pub schedule: Option<ScheduleConfig>,
    /// Optional chaos plan.
    pub chaos: Option<ChaosConfig>,
    /// Oracle thresholds (always present; defaults when the table is
    /// omitted).
    pub oracle: OracleConfig,
    /// Optional synthesized workload (fleet scenarios only).
    pub workload: Option<WorkloadConfig>,
    /// Region target (required when `kind` is `Region`).
    pub region: Option<RegionConfig>,
    /// Pools target (required when `kind` is `Pools`).
    pub pools: Option<PoolsConfig>,
}

const KNOWN_SECTIONS: &[&str] = &[
    "scenario",
    "schedule",
    "chaos",
    "oracle",
    "workload",
    "workload.serverless",
    "workload.etl",
    "region",
    "pools",
];

const KNOWN_TABLES: &[&str] = &["workload.cohort", "workload.spike"];

/// Typed accessors over a raw table that consume keys, so leftovers can
/// be rejected as unknown.
struct Keys {
    section: String,
    table: Table,
}

impl Keys {
    fn new(section: &str, table: &Table) -> Keys {
        Keys {
            section: section.to_string(),
            table: table.clone(),
        }
    }

    fn take(&mut self, key: &str) -> Option<Entry> {
        self.table.remove(key)
    }

    fn take_str(&mut self, key: &str) -> Result<Option<String>, ScenarioError> {
        match self.take(key) {
            None => Ok(None),
            Some(Entry {
                value: Value::Str(s),
                ..
            }) => Ok(Some(s)),
            Some(entry) => Err(ScenarioError::invalid(format!(
                "line {}: `{key}` in [{}] must be a string",
                entry.line, self.section
            ))),
        }
    }

    fn take_num(&mut self, key: &str) -> Result<Option<f64>, ScenarioError> {
        match self.take(key) {
            None => Ok(None),
            Some(Entry {
                value: Value::Num(n),
                ..
            }) => Ok(Some(n)),
            Some(entry) => Err(ScenarioError::invalid(format!(
                "line {}: `{key}` in [{}] must be a number",
                entry.line, self.section
            ))),
        }
    }

    fn take_uint(&mut self, key: &str) -> Result<Option<u64>, ScenarioError> {
        match self.take_num(key)? {
            None => Ok(None),
            // Deliberate exact check: an integer-valued literal has an
            // exact fract() of 0.0; any epsilon would admit "42.0001".
            // toto-lint: allow(D006)
            Some(n) if n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 => Ok(Some(n as u64)),
            Some(n) => Err(ScenarioError::invalid(format!(
                "`{key}` in [{}] must be a non-negative integer, got {n}",
                self.section
            ))),
        }
    }

    fn take_bool(&mut self, key: &str) -> Result<Option<bool>, ScenarioError> {
        match self.take(key) {
            None => Ok(None),
            Some(Entry {
                value: Value::Bool(b),
                ..
            }) => Ok(Some(b)),
            Some(entry) => Err(ScenarioError::invalid(format!(
                "line {}: `{key}` in [{}] must be true or false",
                entry.line, self.section
            ))),
        }
    }

    fn take_uint_array(&mut self, key: &str) -> Result<Option<Vec<u64>>, ScenarioError> {
        let entry = match self.take(key) {
            None => return Ok(None),
            Some(e) => e,
        };
        let items = match entry.value {
            Value::Arr(items) => items,
            _ => {
                return Err(ScenarioError::invalid(format!(
                    "line {}: `{key}` in [{}] must be an array",
                    entry.line, self.section
                )))
            }
        };
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            match item {
                // Same deliberate exact integer-literal guard as take_uint.
                // toto-lint: allow(D006)
                Value::Num(n) if n >= 0.0 && n.fract() == 0.0 => out.push(n as u64),
                other => {
                    return Err(ScenarioError::invalid(format!(
                    "line {}: `{key}` in [{}] must contain non-negative integers, got {other:?}",
                    entry.line, self.section
                )))
                }
            }
        }
        Ok(Some(out))
    }

    fn missing(&self, key: &str) -> ScenarioError {
        ScenarioError::invalid(format!(
            "[{}] is missing required key `{key}`",
            self.section
        ))
    }

    fn req_str(&mut self, key: &str) -> Result<String, ScenarioError> {
        self.take_str(key)?.ok_or_else(|| self.missing(key))
    }

    fn req_num(&mut self, key: &str) -> Result<f64, ScenarioError> {
        self.take_num(key)?.ok_or_else(|| self.missing(key))
    }

    fn req_uint(&mut self, key: &str) -> Result<u64, ScenarioError> {
        self.take_uint(key)?.ok_or_else(|| self.missing(key))
    }

    fn req_uint_array(&mut self, key: &str) -> Result<Vec<u64>, ScenarioError> {
        self.take_uint_array(key)?.ok_or_else(|| self.missing(key))
    }

    fn finish(self) -> Result<(), ScenarioError> {
        if let Some((key, entry)) = self.table.iter().next() {
            return Err(ScenarioError::invalid(format!(
                "line {}: unknown key `{key}` in [{}]",
                entry.line, self.section
            )));
        }
        Ok(())
    }
}

impl ScenarioDoc {
    /// Parse and validate a scenario document.
    pub fn parse(text: &str) -> Result<ScenarioDoc, ScenarioError> {
        let raw = RawDoc::parse(text)?;
        for (name, (line, _)) in &raw.sections {
            if !KNOWN_SECTIONS.contains(&name.as_str()) {
                return Err(ScenarioError::invalid(format!(
                    "line {line}: unknown section [{name}]; known sections: {}",
                    KNOWN_SECTIONS.join(", ")
                )));
            }
        }
        for (name, entries) in &raw.tables {
            if !KNOWN_TABLES.contains(&name.as_str()) {
                let line = entries.first().map(|(l, _)| *l).unwrap_or(0);
                return Err(ScenarioError::invalid(format!(
                    "line {line}: unknown array table [[{name}]]; known tables: {}",
                    KNOWN_TABLES.join(", ")
                )));
            }
        }

        let scenario_table = raw
            .sections
            .get("scenario")
            .map(|(_, t)| t)
            .ok_or_else(|| ScenarioError::invalid("missing required section [scenario]"))?;
        let mut keys = Keys::new("scenario", scenario_table);
        let name = keys.req_str("name")?;
        if name.is_empty()
            || !name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_'))
        {
            return Err(ScenarioError::invalid(format!(
                "[scenario] name {name:?} must be a non-empty [A-Za-z0-9_-]+ slug \
                 (it becomes the artifact directory)"
            )));
        }
        let kind = match keys.req_str("kind")?.as_str() {
            "fleet" => ScenarioKind::Fleet,
            "region" => ScenarioKind::Region,
            "pools" => ScenarioKind::Pools,
            other => {
                return Err(ScenarioError::invalid(format!(
                    "[scenario] kind must be fleet|region|pools, got {other:?}"
                )))
            }
        };
        let seed = keys.take_uint("seed")?;
        let hours = keys.take_uint("hours")?;
        if hours == Some(0) {
            return Err(ScenarioError::invalid("[scenario] hours must be positive"));
        }
        let seed_policy = match keys.take_str("seed_policy")?.as_deref() {
            None | Some("derived") => SeedPolicy::Derived,
            Some("pinned") => SeedPolicy::Pinned,
            Some(other) => {
                return Err(ScenarioError::invalid(format!(
                    "[scenario] seed_policy must be derived|pinned, got {other:?}"
                )))
            }
        };
        let trace = keys.take_bool("trace")?.unwrap_or(false);
        keys.finish()?;

        let schedule = match raw.sections.get("schedule") {
            None => None,
            Some((_, table)) => {
                let mut keys = Keys::new("schedule", table);
                let densities = keys.req_uint_array("densities")?;
                if densities.is_empty() {
                    return Err(ScenarioError::invalid(
                        "[schedule] densities must not be empty",
                    ));
                }
                for &d in &densities {
                    if !(50..=400).contains(&d) {
                        return Err(ScenarioError::invalid(format!(
                            "[schedule] density {d} is outside the supported 50..=400 % range"
                        )));
                    }
                }
                let node_count = keys.take_uint("node_count")?;
                if node_count == Some(0) {
                    return Err(ScenarioError::invalid(
                        "[schedule] node_count must be positive",
                    ));
                }
                let bootstrap_gp = keys.take_uint("bootstrap_gp")?;
                let bootstrap_bc = keys.take_uint("bootstrap_bc")?;
                if bootstrap_gp == Some(0) && bootstrap_bc == Some(0) {
                    return Err(ScenarioError::invalid(
                        "[schedule] bootstrap_gp and bootstrap_bc must not both be zero",
                    ));
                }
                let cores_per_node = keys.take_num("cores_per_node")?;
                if cores_per_node.is_some_and(|c| !c.is_finite() || c <= 0.0) {
                    return Err(ScenarioError::invalid(
                        "[schedule] cores_per_node must be a positive number",
                    ));
                }
                let memory_per_node_gb = keys.take_num("memory_per_node_gb")?;
                if memory_per_node_gb.is_some_and(|m| !m.is_finite() || m <= 0.0) {
                    return Err(ScenarioError::invalid(
                        "[schedule] memory_per_node_gb must be a positive number",
                    ));
                }
                keys.finish()?;
                Some(ScheduleConfig {
                    densities: densities.iter().map(|&d| d as u32).collect(),
                    node_count: node_count.map(|n| n as u32),
                    bootstrap_gp: bootstrap_gp.map(|n| n as u32),
                    bootstrap_bc: bootstrap_bc.map(|n| n as u32),
                    cores_per_node,
                    memory_per_node_gb,
                })
            }
        };

        let chaos = match raw.sections.get("chaos") {
            None => None,
            Some((_, table)) => {
                let mut keys = Keys::new("chaos", table);
                let plan = keys.req_str("plan")?;
                if ChaosPlan::named(&plan).is_none() {
                    return Err(ScenarioError::invalid(format!(
                        "[chaos] unknown plan {plan:?}; named plans: {}",
                        ChaosPlan::NAMED.join(", ")
                    )));
                }
                let ring = keys.take_str("ring")?;
                keys.finish()?;
                Some(ChaosConfig { plan, ring })
            }
        };

        let oracle = match raw.sections.get("oracle") {
            None => OracleConfig::default(),
            Some((_, table)) => {
                let defaults = OracleConfig::default();
                let mut keys = Keys::new("oracle", table);
                let alpha = keys.take_num("alpha")?.unwrap_or(defaults.alpha);
                let min_acceptance = keys
                    .take_num("min_acceptance")?
                    .unwrap_or(defaults.min_acceptance);
                let weeks = keys.take_uint("weeks")?.unwrap_or(defaults.weeks);
                keys.finish()?;
                if !(alpha > 0.0 && alpha < 1.0) {
                    return Err(ScenarioError::invalid(format!(
                        "[oracle] alpha must be in (0, 1), got {alpha}"
                    )));
                }
                if !(0.0..=1.0).contains(&min_acceptance) {
                    return Err(ScenarioError::invalid(format!(
                        "[oracle] min_acceptance must be in [0, 1], got {min_acceptance}"
                    )));
                }
                if weeks == 0 {
                    return Err(ScenarioError::invalid("[oracle] weeks must be positive"));
                }
                OracleConfig {
                    alpha,
                    min_acceptance,
                    weeks,
                }
            }
        };

        let workload = parse_workload(&raw)?;

        let region = match raw.sections.get("region") {
            None => None,
            Some((_, table)) => {
                let mut keys = Keys::new("region", table);
                let spec = keys.req_str("spec")?;
                keys.finish()?;
                Some(RegionConfig { spec })
            }
        };

        let pools = match raw.sections.get("pools") {
            None => None,
            Some((_, table)) => {
                let mut keys = Keys::new("pools", table);
                let pools = keys.take_uint("pools")?.unwrap_or(12);
                let members = keys.take_uint("members")?.unwrap_or(20);
                let pool_vcores = keys.take_uint("pool_vcores")?.unwrap_or(8);
                let per_db_vcores = keys.take_uint("per_db_vcores")?.unwrap_or(2);
                let databases = keys.take_uint("databases")?.unwrap_or(1000);
                let synth_members = keys.take_bool("synth_members")?.unwrap_or(false);
                keys.finish()?;
                if pools == 0 || members == 0 || pool_vcores == 0 || per_db_vcores == 0 {
                    return Err(ScenarioError::invalid(
                        "[pools] pools, members, pool_vcores and per_db_vcores must be positive",
                    ));
                }
                Some(PoolsConfig {
                    pools: pools as u32,
                    members: members as u32,
                    pool_vcores: pool_vcores as u32,
                    per_db_vcores: per_db_vcores as u32,
                    databases: databases as u32,
                    synth_members,
                })
            }
        };

        let doc = ScenarioDoc {
            name,
            kind,
            seed,
            hours,
            seed_policy,
            trace,
            schedule,
            chaos,
            oracle,
            workload,
            region,
            pools,
        };
        doc.check_cross_rules()?;
        Ok(doc)
    }

    fn check_cross_rules(&self) -> Result<(), ScenarioError> {
        match self.kind {
            ScenarioKind::Fleet => {
                if self.schedule.is_none() {
                    return Err(ScenarioError::invalid(
                        "kind = \"fleet\" requires a [schedule] section",
                    ));
                }
                if self.region.is_some() || self.pools.is_some() {
                    return Err(ScenarioError::invalid(
                        "a fleet scenario cannot carry [region] or [pools] sections",
                    ));
                }
                if self.chaos.as_ref().is_some_and(|c| c.ring.is_some()) {
                    return Err(ScenarioError::invalid(
                        "[chaos] ring targets a region ring; it requires kind = \"region\"",
                    ));
                }
            }
            ScenarioKind::Region => {
                if self.region.is_none() {
                    return Err(ScenarioError::invalid(
                        "kind = \"region\" requires a [region] section",
                    ));
                }
                if self.schedule.is_some() || self.pools.is_some() {
                    return Err(ScenarioError::invalid(
                        "a region scenario cannot carry [schedule] or [pools] sections",
                    ));
                }
                if self.workload.is_some() {
                    return Err(ScenarioError::invalid(
                        "[workload] drives the fleet population model; region runs use their \
                         region plan's directed schedule instead",
                    ));
                }
                if self.seed_policy == SeedPolicy::Pinned {
                    return Err(ScenarioError::invalid(
                        "seed_policy = \"pinned\" only applies to fleet scenarios",
                    ));
                }
            }
            ScenarioKind::Pools => {
                if self.pools.is_none() {
                    return Err(ScenarioError::invalid(
                        "kind = \"pools\" requires a [pools] section",
                    ));
                }
                if self.schedule.is_some() || self.region.is_some() || self.workload.is_some() {
                    return Err(ScenarioError::invalid(
                        "a pools scenario cannot carry [schedule], [region] or [workload] sections",
                    ));
                }
                if self.chaos.is_some() {
                    return Err(ScenarioError::invalid(
                        "the pools study has no fault-injection hook; remove [chaos]",
                    ));
                }
            }
        }
        if let Some(region) = &self.region {
            if RegionSpec::named(&region.spec).is_none() && !region.spec.contains('.') {
                return Err(ScenarioError::invalid(format!(
                    "[region] spec {:?} is neither a named region ({}) nor an XML file path",
                    region.spec,
                    RegionSpec::NAMED.join(", ")
                )));
            }
        }
        Ok(())
    }
}

fn parse_workload(raw: &RawDoc) -> Result<Option<WorkloadConfig>, ScenarioError> {
    let table = match raw.sections.get("workload") {
        None => {
            // Sub-tables without the parent are dangling.
            for orphan in ["workload.serverless", "workload.etl"] {
                if let Some((line, _)) = raw.sections.get(orphan) {
                    return Err(ScenarioError::invalid(format!(
                        "line {line}: [{orphan}] requires a [workload] section"
                    )));
                }
            }
            for orphan in ["workload.cohort", "workload.spike"] {
                if let Some(entries) = raw.tables.get(orphan) {
                    if let Some((line, _)) = entries.first() {
                        return Err(ScenarioError::invalid(format!(
                            "line {line}: [[{orphan}]] requires a [workload] section"
                        )));
                    }
                }
            }
            return Ok(None);
        }
        Some((_, t)) => t,
    };
    let mut keys = Keys::new("workload", table);
    let region = match keys.take_str("region")?.as_deref().unwrap_or("region1") {
        "region1" => RegionProfile::region1(),
        "region2" => RegionProfile::region2(),
        other => {
            return Err(ScenarioError::invalid(format!(
                "[workload] region must be region1|region2, got {other:?}"
            )))
        }
    };
    let ring_fraction = keys.take_num("ring_fraction")?.unwrap_or(0.05);
    if !(ring_fraction > 0.0 && ring_fraction <= 1.0) {
        return Err(ScenarioError::invalid(format!(
            "[workload] ring_fraction must be in (0, 1], got {ring_fraction}"
        )));
    }
    keys.finish()?;

    let mut cohorts = Vec::new();
    if let Some(entries) = raw.tables.get("workload.cohort") {
        for (line, table) in entries {
            let mut keys = Keys::new("workload.cohort", table);
            let name = keys.req_str("name")?;
            let weight = keys.req_num("weight")?;
            let lifetime_hours = keys.req_num("lifetime_hours")?;
            let bc_fraction = keys.take_num("bc_fraction")?.unwrap_or(0.12);
            keys.finish()?;
            if weight <= 0.0 || lifetime_hours <= 0.0 || !(0.0..=1.0).contains(&bc_fraction) {
                return Err(ScenarioError::invalid(format!(
                    "line {line}: [[workload.cohort]] {name:?} needs weight > 0, \
                     lifetime_hours > 0 and bc_fraction in [0, 1]"
                )));
            }
            if cohorts.iter().any(|c: &CohortProfile| c.name == name) {
                return Err(ScenarioError::invalid(format!(
                    "line {line}: duplicate [[workload.cohort]] name {name:?}"
                )));
            }
            cohorts.push(CohortProfile {
                name,
                weight,
                lifetime_hours,
                bc_fraction,
            });
        }
    }

    let mut spikes = Vec::new();
    if let Some(entries) = raw.tables.get("workload.spike") {
        for (line, table) in entries {
            let mut keys = Keys::new("workload.spike", table);
            let at_hour = keys.req_uint("at_hour")?;
            let magnitude = keys.req_num("magnitude")?;
            let decay_hours = keys.req_num("decay_hours")?;
            keys.finish()?;
            if magnitude < 1.0 || decay_hours <= 0.0 {
                return Err(ScenarioError::invalid(format!(
                    "line {line}: [[workload.spike]] needs magnitude >= 1 and decay_hours > 0"
                )));
            }
            spikes.push(LaunchSpike {
                at_hour,
                magnitude,
                decay_hours,
            });
        }
    }

    let serverless = match raw.sections.get("workload.serverless") {
        None => None,
        Some((_, table)) => {
            let mut keys = Keys::new("workload.serverless", table);
            let pause_peak = keys.req_num("pause_peak")?;
            let resume_hour = keys.req_uint("resume_hour")?;
            let weekend_factor = keys.take_num("weekend_factor")?.unwrap_or(0.5);
            keys.finish()?;
            if pause_peak <= 0.0 || resume_hour >= 24 || !(0.0..=1.0).contains(&weekend_factor) {
                return Err(ScenarioError::invalid(
                    "[workload.serverless] needs pause_peak > 0, resume_hour in 0..24 \
                     and weekend_factor in [0, 1]",
                ));
            }
            Some(ServerlessProfile {
                pause_peak,
                resume_hour: resume_hour as u32,
                weekend_factor,
            })
        }
    };

    let etl = match raw.sections.get("workload.etl") {
        None => None,
        Some((_, table)) => {
            let mut keys = Keys::new("workload.etl", table);
            let amplitude = keys.req_num("amplitude")?;
            let period_days = keys.req_num("period_days")?;
            keys.finish()?;
            if !(0.0..=1.0).contains(&amplitude) || period_days <= 0.0 {
                return Err(ScenarioError::invalid(
                    "[workload.etl] needs amplitude in [0, 1] and period_days > 0",
                ));
            }
            Some(EtlSeason {
                amplitude,
                period_days,
            })
        }
    };

    Ok(Some(WorkloadConfig {
        region,
        ring_fraction,
        cohorts,
        spikes,
        serverless,
        etl,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"
[scenario]
name = "density-sweep"
kind = "fleet"
seed = 42
hours = 144

[schedule]
densities = [100, 110, 120, 140]
"#;

    #[test]
    fn minimal_fleet_scenario_parses() {
        let doc = ScenarioDoc::parse(MINIMAL).expect("parses");
        assert_eq!(doc.name, "density-sweep");
        assert_eq!(doc.kind, ScenarioKind::Fleet);
        assert_eq!(doc.seed, Some(42));
        assert_eq!(doc.hours, Some(144));
        assert_eq!(doc.seed_policy, SeedPolicy::Derived);
        let schedule = doc.schedule.expect("schedule");
        assert_eq!(schedule.densities, vec![100, 110, 120, 140]);
        assert_eq!(doc.oracle, OracleConfig::default());
        assert!(doc.workload.is_none());
    }

    #[test]
    fn unknown_section_is_a_typed_error() {
        let err = ScenarioDoc::parse(&format!("{MINIMAL}\n[mystery]\nx = 1\n")).unwrap_err();
        match err {
            ScenarioError::Invalid { message } => {
                assert!(message.contains("[mystery]"), "{message}");
                assert!(message.contains("known sections"), "{message}");
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn unknown_key_is_a_typed_error_with_line() {
        let err = ScenarioDoc::parse("[scenario]\nname = \"x\"\nkind = \"fleet\"\nbogus = 1\n")
            .unwrap_err();
        match err {
            ScenarioError::Invalid { message } => {
                assert!(message.contains("bogus"), "{message}");
                assert!(message.contains("line 4"), "{message}");
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn unknown_chaos_plan_lists_known_plans() {
        let err =
            ScenarioDoc::parse(&format!("{MINIMAL}\n[chaos]\nplan = \"meteor\"\n")).unwrap_err();
        match err {
            ScenarioError::Invalid { message } => {
                assert!(message.contains("meteor"), "{message}");
                assert!(message.contains("storm"), "should list plans: {message}");
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn fleet_without_schedule_is_rejected() {
        let err = ScenarioDoc::parse("[scenario]\nname = \"x\"\nkind = \"fleet\"\n").unwrap_err();
        assert!(matches!(err, ScenarioError::Invalid { .. }), "{err:?}");
    }

    #[test]
    fn region_scenario_rejects_workload() {
        let err = ScenarioDoc::parse(
            "[scenario]\nname = \"r\"\nkind = \"region\"\n\
             [region]\nspec = \"mixed4\"\n\
             [workload]\nregion = \"region1\"\n",
        )
        .unwrap_err();
        match err {
            ScenarioError::Invalid { message } => {
                assert!(message.contains("directed schedule"), "{message}")
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn workload_cohorts_and_structures_parse() {
        let doc = ScenarioDoc::parse(
            r#"
[scenario]
name = "cohorts"
kind = "fleet"

[schedule]
densities = [110]

[workload]
region = "region2"
ring_fraction = 0.04

[[workload.cohort]]
name = "dev"
weight = 3.0
lifetime_hours = 48
bc_fraction = 0.05

[[workload.spike]]
at_hour = 24
magnitude = 2.5
decay_hours = 8

[workload.serverless]
pause_peak = 40.0
resume_hour = 8

[workload.etl]
amplitude = 0.3
period_days = 90
"#,
        )
        .expect("parses");
        let wl = doc.workload.expect("workload");
        assert_eq!(wl.region.name, "Region 2");
        assert_eq!(wl.cohorts.len(), 1);
        assert_eq!(wl.spikes.len(), 1);
        assert!(wl.serverless.is_some());
        assert!(wl.etl.is_some());
    }

    #[test]
    fn dangling_workload_subtable_is_rejected() {
        let err = ScenarioDoc::parse(&format!(
            "{MINIMAL}\n[[workload.cohort]]\nname = \"x\"\nweight = 1.0\nlifetime_hours = 24\n"
        ))
        .unwrap_err();
        match err {
            ScenarioError::Invalid { message } => {
                assert!(message.contains("requires a [workload]"), "{message}")
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn bad_oracle_domain_is_rejected() {
        let err = ScenarioDoc::parse(&format!("{MINIMAL}\n[oracle]\nalpha = 1.5\n")).unwrap_err();
        assert!(matches!(err, ScenarioError::Invalid { .. }), "{err:?}");
    }

    #[test]
    fn pools_scenario_parses_with_defaults() {
        let doc = ScenarioDoc::parse(
            "[scenario]\nname = \"pools\"\nkind = \"pools\"\n[pools]\nsynth_members = true\n",
        )
        .expect("parses");
        let pools = doc.pools.expect("pools");
        assert_eq!(pools.pools, 12);
        assert_eq!(pools.members, 20);
        assert!(pools.synth_members);
    }
}
