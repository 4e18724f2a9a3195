//! Timed calls into each layer's public functions, on a state rebuilt
//! from the workload's own bootstrap.
//!
//! The rebuild repeats what `DensityExperiment::run` does before its run
//! phase: the same metric registry, `bootstrap_population`, the model
//! write and the initial RgManager refresh. Every figure is nanoseconds
//! per call, the median of several timed batches.

use std::hint::black_box;
use std::time::{Duration, Instant};
use toto::bootstrap::{bootstrap_population, draft_population};
use toto::defaults;
use toto::experiment::ExperimentOverrides;
use toto_chaos::oracle::InvariantOracle;
use toto_chaos::{ChaosAction, ChaosRuntime};
use toto_controlplane::slo::{decode_tag, encode_tag, SloCatalog};
use toto_fabric::cluster::{Cluster, ClusterConfig, ReplicaRole, ServiceSpec};
use toto_fabric::ids::{MetricId, ReplicaId};
use toto_fabric::metrics::{MetricDef, MetricRegistry};
use toto_fabric::naming::NamingService;
use toto_fabric::plb::Plb;
use toto_models::compiled::{CompiledModelSet, ReplicaRoleKind, SampleContext};
use toto_rgmanager::{persisted_state_key, ReportRequest, RgManager, MODEL_KEY};
use toto_simcore::time::{SimDuration, SimTime};
use toto_spec::{EditionKind, ResourceKind, ScenarioSpec};

/// Host time each timed layer call gets, at most (after its minimum
/// batch count).
const BUDGET: Duration = Duration::from_millis(150);

/// Per-call host time of each layer entry point, nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct LayerTimes {
    pub place_ns: f64,
    pub compute_report_ns: f64,
    pub next_value_ns: f64,
    pub refresh_models_ns: f64,
    pub naming_write_ns: f64,
    pub report_load_ns: f64,
    pub violations_ns: f64,
    pub fix_violations_ns: f64,
    pub balance_ns: f64,
    pub oracle_check_ns: f64,
}

/// One replica as `report_metrics` sees it.
struct Row {
    replica: ReplicaId,
    identity: u64,
    node: u32,
    role: ReplicaRoleKind,
    edition: EditionKind,
    created_at: SimTime,
    disk: f64,
}

struct Rebuilt {
    cluster: Cluster,
    plb: Plb,
    naming: NamingService,
    rgmanagers: Vec<RgManager>,
    models: CompiledModelSet,
    disk: MetricId,
    specs: Vec<ServiceSpec>,
    rows: Vec<Row>,
    identities: Vec<u64>,
    headroom: f64,
    now: SimTime,
}

fn rebuild(scenario: &ScenarioSpec, overrides: &ExperimentOverrides) -> Result<Rebuilt, String> {
    let mut metrics = MetricRegistry::new();
    let cpu = metrics.register(MetricDef {
        name: "Cpu".into(),
        node_capacity: scenario.cpu_capacity_per_node(),
        balancing_weight: 1.0,
    });
    let memory = metrics.register(MetricDef {
        name: "Memory".into(),
        node_capacity: scenario.memory_per_node_gb * 0.9,
        balancing_weight: 0.3,
    });
    let disk = metrics.register(MetricDef {
        name: "Disk".into(),
        node_capacity: scenario.disk_capacity_per_node(),
        balancing_weight: 1.0,
    });
    let mut cluster = Cluster::new(ClusterConfig {
        node_count: scenario.node_count,
        metrics,
        fault_domains: scenario.fault_domains,
    });
    let plb_config = overrides.plb.clone().unwrap_or_default();
    let headroom = plb_config.placement_headroom;
    let mut plb = Plb::new(plb_config, scenario.plb_seed);
    let catalog = SloCatalog::gen5();

    let report = bootstrap_population(
        &mut cluster,
        &mut plb,
        &catalog,
        scenario,
        cpu,
        memory,
        disk,
    )
    .map_err(|e| e.to_string())?;

    // The placement requests bootstrap made, for re-timing the placement
    // decision against the loaded ring.
    let specs = draft_population(&catalog, scenario)
        .map_err(|e| e.to_string())?
        .into_iter()
        .map(|d| {
            let mut load = cluster.metrics().zero_load();
            load[cpu] = f64::from(d.vcores);
            load[memory] = 1.0;
            load[disk] = d.initial_disk_gb;
            ServiceSpec {
                name: d.name,
                tag: encode_tag(d.edition, d.slo_index),
                replica_count: d.replica_count,
                default_load: load,
            }
        })
        .collect();

    let mut naming = NamingService::new();
    let model_set = overrides.models.clone().unwrap_or_else(|| {
        defaults::gen5_model_set(scenario.model_seed, scenario.report_period_secs)
    });
    naming.write(MODEL_KEY, model_set.to_xml_string());
    let mut identities = Vec::new();
    for (id, edition, _, initial_disk) in &report.services {
        let name = &cluster
            .service(*id)
            .ok_or("bootstrap service vanished")?
            .name;
        let identity = toto_simcore::rng::stable_id(name);
        identities.push(identity);
        if edition.disk_is_persisted() {
            naming.write(
                &persisted_state_key(ResourceKind::Disk, identity),
                format!("{initial_disk:?}"),
            );
        }
    }
    let mut rgmanagers: Vec<RgManager> = (0..scenario.node_count).map(RgManager::new).collect();
    for rg in &mut rgmanagers {
        rg.refresh_models(&mut naming);
    }

    let mut rows = Vec::new();
    for r in cluster.replicas() {
        let svc = cluster
            .service(r.service)
            .ok_or("replica without service")?;
        rows.push(Row {
            replica: r.id,
            identity: toto_simcore::rng::stable_id(&svc.name),
            node: r.node.raw(),
            role: match r.role {
                ReplicaRole::Primary => ReplicaRoleKind::Primary,
                ReplicaRole::Secondary => ReplicaRoleKind::Secondary,
            },
            edition: decode_tag(svc.tag).0,
            created_at: svc.created_at,
            disk: r.load[disk],
        });
    }
    let start = SimTime::ZERO + SimDuration::from_days(7);
    Ok(Rebuilt {
        cluster,
        plb,
        naming,
        rgmanagers,
        models: CompiledModelSet::compile(&model_set),
        disk,
        specs,
        rows,
        identities,
        headroom,
        now: start + SimDuration::from_secs(scenario.report_period_secs),
    })
}

/// Median nanoseconds per call over timed batches. `batch` performs some
/// calls and returns how many; it runs at least `min_batches` times and
/// then until [`BUDGET`] is spent.
fn per_call_ns(min_batches: usize, mut batch: impl FnMut() -> u64) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_batches || started.elapsed() < BUDGET {
        let t = Instant::now();
        let calls = batch();
        let ns = t.elapsed().as_nanos() as f64;
        if calls > 0 {
            samples.push(ns / calls as f64);
        }
        if calls == 0 && samples.is_empty() {
            return 0.0;
        }
    }
    crate::stats::median(&samples)
}

/// Like [`per_call_ns`] for a call that mutates the state: each batch is
/// one call on a fresh copy, and the copy is made outside the timing.
fn per_fresh_call_ns<S: Clone>(min_batches: usize, state: &S, mut call: impl FnMut(&mut S)) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_batches || started.elapsed() < BUDGET {
        let mut copy = state.clone();
        let t = Instant::now();
        call(&mut copy);
        samples.push(t.elapsed().as_nanos() as f64);
    }
    crate::stats::median(&samples)
}

/// Crash the nodes the job's failover storms crash, picked as the chaos
/// runtime picks them, so PLB failover work is timed on the state the
/// workload's faults leave behind.
fn apply_storms(s: &mut Rebuilt, scenario: &ScenarioSpec, overrides: &ExperimentOverrides) {
    let mut chaos = ChaosRuntime::new(scenario.plb_seed, s.headroom);
    for fault in overrides
        .chaos
        .compile(scenario.node_count, scenario.duration_hours)
    {
        if let ChaosAction::Storm { node_count, .. } = fault.action {
            for node in chaos.pick_up_nodes(&s.cluster, node_count) {
                s.plb.crash_node(&mut s.cluster, node, s.now);
            }
        }
    }
}

/// Rebuild the job's state and time each layer's entry points on it.
pub fn measure(
    scenario: &ScenarioSpec,
    overrides: &ExperimentOverrides,
) -> Result<LayerTimes, String> {
    let mut s = rebuild(scenario, overrides)?;
    apply_storms(&mut s, scenario, overrides);
    let chunk = 1024;
    let n = s.rows.len().max(1);

    let mut next_spec = 0;
    let place_ns = per_call_ns(3, || {
        let mut calls = 0;
        for _ in 0..16 {
            let spec = &s.specs[next_spec % s.specs.len()];
            next_spec += 1;
            let _ = black_box(s.plb.place_new_service(&s.cluster, spec));
            calls += 1;
        }
        calls
    });

    let mut next_row = 0;
    let compute_report_ns = per_call_ns(3, || {
        let mut calls = 0;
        for _ in 0..chunk {
            let r = &s.rows[next_row % n];
            next_row += 1;
            for (resource, actual) in [(ResourceKind::Disk, r.disk), (ResourceKind::Memory, 1.0)] {
                let req = ReportRequest {
                    replica: r.replica.raw(),
                    service: r.identity,
                    role: r.role,
                    edition: r.edition,
                    resource,
                    created_at: r.created_at,
                    now: s.now,
                    actual_load: actual,
                };
                black_box(s.rgmanagers[r.node as usize].compute_report(&mut s.naming, &req));
                calls += 1;
            }
        }
        calls
    });

    let mut next_row = 0;
    let next_value_ns = per_call_ns(3, || {
        let mut calls = 0;
        for _ in 0..chunk {
            let r = &s.rows[next_row % n];
            next_row += 1;
            if let Some(model) = s.models.model_for(ResourceKind::Disk, r.edition) {
                let ctx = SampleContext {
                    service: r.identity,
                    node: r.node,
                    role: r.role,
                    created_at: r.created_at,
                    now: s.now,
                    prev: Some(r.disk),
                };
                black_box(model.next_value(black_box(&ctx)));
                calls += 1;
            }
        }
        calls
    });

    let refresh_models_ns = per_call_ns(3, || {
        for rg in &mut s.rgmanagers {
            black_box(rg.refresh_models(&mut s.naming));
        }
        s.rgmanagers.len() as u64
    });

    let keys: Vec<(String, f64)> = s
        .rows
        .iter()
        .filter(|r| r.role == ReplicaRoleKind::Primary && r.edition.disk_is_persisted())
        .map(|r| (persisted_state_key(ResourceKind::Disk, r.identity), r.disk))
        .collect();
    let mut next_key = 0;
    let naming_write_ns = per_call_ns(3, || {
        let mut calls = 0;
        for _ in 0..chunk.min(keys.len()) {
            let (key, value) = &keys[next_key % keys.len()];
            next_key += 1;
            black_box(s.naming.write_with(key, |buf| {
                use std::fmt::Write;
                let _ = write!(buf, "{value:?}");
            }));
            calls += 1;
        }
        calls
    });

    let mut next_row = 0;
    let disk = s.disk;
    let report_load_ns = per_call_ns(3, || {
        for _ in 0..chunk {
            let r = &s.rows[next_row % n];
            next_row += 1;
            black_box(s.cluster.report_load(r.replica, disk, r.disk));
        }
        chunk as u64
    });

    let violations_ns = per_call_ns(3, || {
        for _ in 0..64 {
            black_box(s.cluster.violations());
        }
        64
    });

    let now = s.now;
    let pair = (s.cluster.clone(), s.plb.clone());
    let fix_violations_ns = per_fresh_call_ns(3, &pair, |(cluster, plb)| {
        black_box(plb.fix_violations(cluster, now));
    });
    let balance_ns = per_fresh_call_ns(1, &pair, |(cluster, plb)| {
        black_box(plb.balance(cluster, now));
    });
    drop(pair);

    let mut oracle = InvariantOracle::new(s.headroom);
    oracle.check(&s.cluster, &s.naming, s.identities.iter().copied());
    let oracle_check_ns = per_call_ns(3, || {
        black_box(oracle.check(&s.cluster, &s.naming, s.identities.iter().copied()));
        1
    });

    Ok(LayerTimes {
        place_ns,
        compute_report_ns,
        next_value_ns,
        refresh_models_ns,
        naming_write_ns,
        report_load_ns,
        violations_ns,
        fix_violations_ns,
        balance_ns,
        oracle_check_ns,
    })
}
