//! Property-based tests: random operation sequences must preserve the
//! cluster's accounting invariants, and the PLB must never corrupt state.

use proptest::prelude::*;
use toto_fabric::cluster::{Cluster, ClusterConfig, ServiceSpec};
use toto_fabric::ids::{MetricId, NodeId, ReplicaId, ServiceId};
use toto_fabric::metrics::{MetricDef, MetricRegistry};
use toto_fabric::naming::NamingService;
use toto_fabric::plb::{PlacementError, Plb, PlbConfig};
use toto_simcore::time::SimTime;

#[derive(Debug, Clone)]
enum Op {
    Create { cpu: f64, disk: f64, replicas: u32 },
    Remove { index: usize },
    Report { index: usize, disk: f64 },
    FixViolations,
}

/// Raw cluster mutations for exercising the per-node cost cache: unlike
/// [`Op`], these drive `move_replica` directly (no PLB in between).
#[derive(Debug, Clone)]
enum CacheOp {
    Add { cpu: f64, disk: f64, replicas: u32 },
    Move { replica: usize, node: u32 },
    Report { replica: usize, disk: f64 },
    Drop { index: usize },
}

fn cache_op_strategy() -> impl Strategy<Value = CacheOp> {
    prop_oneof![
        (1.0f64..16.0, 1.0f64..300.0, 1u32..=4).prop_map(|(cpu, disk, replicas)| CacheOp::Add {
            cpu,
            disk,
            replicas
        }),
        (0usize..256, 0u32..8).prop_map(|(replica, node)| CacheOp::Move { replica, node }),
        (0usize..256, 0.0f64..900.0).prop_map(|(replica, disk)| CacheOp::Report { replica, disk }),
        (0usize..64).prop_map(|index| CacheOp::Drop { index }),
    ]
}

/// Fault-injection mutations interleaved with normal traffic: the chaos
/// engine's building blocks (crash / restart / degrade) driven directly
/// against the fabric, with the same invariants the engine's oracles
/// enforce at the experiment level.
#[derive(Debug, Clone)]
enum ChaosOp {
    Create {
        cpu: f64,
        disk: f64,
        replicas: u32,
    },
    Remove {
        index: usize,
    },
    Report {
        index: usize,
        disk: f64,
    },
    Crash {
        node: u32,
    },
    Restart {
        node: u32,
    },
    /// Shrink (or restore) disk capacity to `permille`/1000 of baseline.
    Degrade {
        permille: u32,
    },
    FixViolations,
}

fn chaos_op_strategy() -> impl Strategy<Value = ChaosOp> {
    prop_oneof![
        (1.0f64..16.0, 1.0f64..300.0, 1u32..=4).prop_map(|(cpu, disk, replicas)| {
            ChaosOp::Create {
                cpu,
                disk,
                replicas,
            }
        }),
        (0usize..64).prop_map(|index| ChaosOp::Remove { index }),
        (0usize..64, 0.0f64..900.0).prop_map(|(index, disk)| ChaosOp::Report { index, disk }),
        (0u32..8).prop_map(|node| ChaosOp::Crash { node }),
        (0u32..8).prop_map(|node| ChaosOp::Restart { node }),
        (300u32..=1000).prop_map(|permille| ChaosOp::Degrade { permille }),
        Just(ChaosOp::FixViolations),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1.0f64..16.0, 1.0f64..300.0, 1u32..=4).prop_map(|(cpu, disk, replicas)| Op::Create {
            cpu,
            disk,
            replicas
        }),
        (0usize..64).prop_map(|index| Op::Remove { index }),
        (0usize..64, 0.0f64..900.0).prop_map(|(index, disk)| Op::Report { index, disk }),
        Just(Op::FixViolations),
    ]
}

/// Placement traffic on ring-sized clusters: mixed-shape creates,
/// drops, load reports and node drains, the inputs that move nodes
/// around the PLB's placement ranking between decisions.
#[derive(Debug, Clone)]
enum PlaceOp {
    Create { cpu: f64, disk: f64, replicas: u32 },
    Remove { index: usize },
    Report { index: usize, disk: f64 },
    SetUp { node: u32, up: bool },
}

fn create_op() -> impl Strategy<Value = PlaceOp> {
    (1.0f64..48.0, 1.0f64..1_200.0, 1u32..=4).prop_map(|(cpu, disk, replicas)| PlaceOp::Create {
        cpu,
        disk,
        replicas,
    })
}

fn place_op_strategy() -> impl Strategy<Value = PlaceOp> {
    // `create_op` is listed twice so creates are two fifths of traffic.
    prop_oneof![
        create_op(),
        create_op(),
        (0usize..256).prop_map(|index| PlaceOp::Remove { index }),
        (0usize..256, 0.0f64..2_400.0).prop_map(|(index, disk)| PlaceOp::Report { index, disk }),
        (0u32..160, any::<bool>()).prop_map(|(node, up)| PlaceOp::SetUp { node, up }),
    ]
}

/// Run `ops` on a `first`-node cluster and then on a fresh `second`-node
/// one with the same `Plb`, so the second cluster starts from a rank
/// hint of the wrong length. Returns every placement decision in order
/// (`None` for a rejection).
fn run_placement_script(
    ops: &[PlaceOp],
    first: u32,
    second: u32,
    fault_domains: u32,
    seed: u64,
) -> Vec<Option<Vec<NodeId>>> {
    let mut plb = Plb::new(PlbConfig::default(), seed);
    let mut decisions = Vec::new();
    for nodes in [first, second] {
        let (mut cluster, cpu, disk) = ring_cluster(nodes, fault_domains);
        let mut services: Vec<ServiceId> = Vec::new();
        for op in ops {
            match *op {
                PlaceOp::Create {
                    cpu: c,
                    disk: d,
                    replicas,
                } => {
                    let mut load = cluster.metrics().zero_load();
                    load[cpu] = c;
                    load[disk] = d;
                    let spec = ServiceSpec {
                        name: "db".into(),
                        tag: 0,
                        replica_count: replicas,
                        default_load: load,
                    };
                    match plb.create_service(&mut cluster, &spec, SimTime::ZERO) {
                        Ok(id) => {
                            let service = cluster.service(id).unwrap();
                            let placed: Vec<NodeId> = service
                                .replicas
                                .iter()
                                .map(|&r| cluster.replica(r).unwrap().node)
                                .collect();
                            let mut distinct = placed.clone();
                            distinct.sort_unstable();
                            distinct.dedup();
                            assert_eq!(distinct.len(), placed.len(), "replicas colocated");
                            assert!(placed.iter().all(|&n| cluster.node(n).up));
                            decisions.push(Some(placed));
                            services.push(id);
                        }
                        Err(_) => decisions.push(None),
                    }
                }
                PlaceOp::Remove { index } => {
                    if !services.is_empty() {
                        let id = services.remove(index % services.len());
                        assert!(cluster.remove_service(id).is_some());
                    }
                }
                PlaceOp::Report { index, disk: d } => {
                    if !services.is_empty() {
                        let id = services[index % services.len()];
                        let rid = cluster.service(id).unwrap().replicas[0];
                        cluster.report_load(rid, disk, d);
                    }
                }
                PlaceOp::SetUp { node, up } => {
                    cluster.set_node_up(NodeId(node % nodes), up);
                }
            }
        }
        cluster.check_invariants();
    }
    decisions
}

/// Placement-memo traffic: runs of one repeated shape (the memo's hit
/// path) mixed with fresh shapes and every mutation that restamps nodes.
#[derive(Debug, Clone)]
enum MemoOp {
    Run { shape: usize, count: usize },
    Fresh { cpu: f64, disk: f64, replicas: u32 },
    Reports { reports: Vec<(usize, bool, f64)> },
    SetUp { node: u32, up: bool },
    Capacity { permille: u32 },
    Remove { index: usize },
    Move { index: usize, node: u32 },
}

/// The repeated shapes, `(cpu, disk, replicas)`. The last fits no node,
/// so its runs fail with `NotEnoughNodes` on the memo's hit path; the
/// large-disk one starts failing once disk capacity is degraded.
const MEMO_SHAPES: [(f64, f64, u32); 5] = [
    (2.0, 40.0, 1),
    (4.0, 150.0, 4),
    (8.0, 600.0, 3),
    (24.0, 1_500.0, 2),
    (120.0, 10.0, 1),
];

fn memo_run_op() -> impl Strategy<Value = MemoOp> {
    (0..MEMO_SHAPES.len(), 1usize..=12).prop_map(|(shape, count)| MemoOp::Run { shape, count })
}

fn memo_op_strategy() -> impl Strategy<Value = MemoOp> {
    // `memo_run_op` is listed three times so runs are a third of steps.
    prop_oneof![
        memo_run_op(),
        memo_run_op(),
        memo_run_op(),
        (1.0f64..48.0, 1.0f64..1_200.0, 1u32..=4).prop_map(|(cpu, disk, replicas)| MemoOp::Fresh {
            cpu,
            disk,
            replicas,
        }),
        prop::collection::vec((0usize..4096, any::<bool>(), 0.0f64..2_600.0), 1..24)
            .prop_map(|reports| MemoOp::Reports { reports }),
        (0u32..160, any::<bool>()).prop_map(|(node, up)| MemoOp::SetUp { node, up }),
        (300u32..=1_200).prop_map(|permille| MemoOp::Capacity { permille }),
        (0usize..256).prop_map(|index| MemoOp::Remove { index }),
        (0usize..256, 0u32..160).prop_map(|(index, node)| MemoOp::Move { index, node }),
    ]
}

fn shaped_spec(cluster: &Cluster, (cpu, disk, replicas): (f64, f64, u32)) -> ServiceSpec {
    let mut load = cluster.metrics().zero_load();
    load[MetricId(0)] = cpu;
    load[MetricId(1)] = disk;
    ServiceSpec {
        name: "db".into(),
        tag: 0,
        replica_count: replicas,
        default_load: load,
    }
}

/// Place `spec` with the persistent `plb` and with a clone of it on a
/// clone of the cluster, whose fresh identity keeps the clone's memo
/// cold, and assert both decide alike. Then place `spec` once more from
/// each side's post-decision state, so a divergence in RNG consumption
/// shows even when the first decisions agreed. Returns the persistent
/// decision.
fn place_against_cold(
    plb: &mut Plb,
    cluster: &Cluster,
    spec: &ServiceSpec,
) -> Result<Vec<NodeId>, PlacementError> {
    let mut cold = plb.clone();
    let twin = cluster.clone();
    let hot = plb.place_new_service(cluster, spec);
    assert_eq!(
        hot,
        cold.place_new_service(&twin, spec),
        "memoized decision diverged"
    );
    assert_eq!(
        plb.clone().place_new_service(cluster, spec),
        cold.place_new_service(&twin, spec),
        "decision after a memoized one diverged"
    );
    hot
}

/// Run a memo script on a `nodes`-node ring, checking every placement
/// against a cold one.
fn run_memo_script(ops: &[MemoOp], nodes: u32, fault_domains: u32, seed: u64) {
    let (mut cluster, _, disk) = ring_cluster(nodes, fault_domains);
    let base_disk = cluster.metrics().def(disk).node_capacity;
    let mut plb = Plb::new(PlbConfig::default(), seed);
    let mut services: Vec<ServiceId> = Vec::new();
    let mut last = shaped_spec(&cluster, MEMO_SHAPES[0]);
    for op in ops {
        let mut runs = Vec::new();
        match op {
            MemoOp::Run { shape, count } => {
                runs.extend(std::iter::repeat_n(MEMO_SHAPES[*shape], *count));
            }
            &MemoOp::Fresh {
                cpu,
                disk,
                replicas,
            } => runs.push((cpu, disk, replicas)),
            MemoOp::Reports { reports } => {
                let live: Vec<ReplicaId> = cluster.replicas().map(|r| r.id).collect();
                if !live.is_empty() {
                    cluster.report_loads(reports.iter().map(|&(index, on_cpu, value)| {
                        let replica = live[index % live.len()];
                        if on_cpu {
                            (replica, MetricId(0), value / 20.0)
                        } else {
                            (replica, disk, value)
                        }
                    }));
                }
            }
            &MemoOp::SetUp { node, up } => cluster.set_node_up(NodeId(node % nodes), up),
            &MemoOp::Capacity { permille } => {
                cluster.set_metric_capacity(disk, base_disk * f64::from(permille) / 1000.0);
            }
            &MemoOp::Remove { index } => {
                if !services.is_empty() {
                    let id = services.remove(index % services.len());
                    assert!(cluster.remove_service(id).is_some());
                }
            }
            &MemoOp::Move { index, node } => {
                if !services.is_empty() {
                    let id = services[index % services.len()];
                    let rid = cluster.service(id).unwrap().replicas[0];
                    let to = NodeId(node % nodes);
                    if !cluster.node(to).hosts_service(id) {
                        cluster.move_replica(rid, to);
                    }
                }
            }
        }
        for shape in runs {
            let spec = shaped_spec(&cluster, shape);
            if let Ok(placement) = place_against_cold(&mut plb, &cluster, &spec) {
                services.push(cluster.add_service(&spec, &placement, SimTime::ZERO));
            }
            last = spec;
        }
        // Whatever the step was, the next placement of the last shape
        // must still agree with a cold decision.
        let _ = place_against_cold(&mut plb.clone(), &cluster, &last);
        cluster.check_invariants();
    }
}

fn build_cluster() -> (Cluster, MetricId, MetricId) {
    ring_cluster(8, 1)
}

/// A `nodes`-node cluster over `fault_domains` domains with a Cpu and a
/// Disk metric.
fn ring_cluster(nodes: u32, fault_domains: u32) -> (Cluster, MetricId, MetricId) {
    let mut metrics = MetricRegistry::new();
    let cpu = metrics.register(MetricDef {
        name: "Cpu".into(),
        node_capacity: 96.0,
        balancing_weight: 1.0,
    });
    let disk = metrics.register(MetricDef {
        name: "Disk".into(),
        node_capacity: 2_000.0,
        balancing_weight: 1.0,
    });
    (
        Cluster::new(ClusterConfig {
            node_count: nodes,
            metrics,
            fault_domains,
        }),
        cpu,
        disk,
    )
}

/// Drive one seeded chaos sequence, asserting the cluster's structural
/// invariants and bitwise cost-cache agreement after every op. Returns a
/// state digest plus the trace bytes the run emitted, for cross-replay
/// byte-identity checks.
fn run_chaos_sequence(ops: &[ChaosOp], seed: u64) -> (Vec<u64>, Vec<u8>) {
    let sink = toto_trace::Shared::new(toto_trace::BufferSink::new());
    let guard = toto_trace::SessionGuard::install(Box::new(sink.clone()));
    let (mut cluster, cpu, disk) = build_cluster();
    let base_disk_capacity = cluster.metrics().def(disk).node_capacity;
    let mut plb = Plb::new(PlbConfig::default(), seed);
    let mut services: Vec<ServiceId> = Vec::new();
    for op in ops {
        match *op {
            ChaosOp::Create {
                cpu: c,
                disk: d,
                replicas,
            } => {
                let mut load = cluster.metrics().zero_load();
                load[cpu] = c;
                load[disk] = d;
                let spec = ServiceSpec {
                    name: "db".into(),
                    tag: 0,
                    replica_count: replicas,
                    default_load: load,
                };
                if let Ok(id) = plb.create_service(&mut cluster, &spec, SimTime::ZERO) {
                    services.push(id);
                }
            }
            ChaosOp::Remove { index } => {
                if !services.is_empty() {
                    let id = services.remove(index % services.len());
                    assert!(cluster.remove_service(id).is_some());
                }
            }
            ChaosOp::Report { index, disk: d } => {
                if !services.is_empty() {
                    let id = services[index % services.len()];
                    let rid = cluster.service(id).unwrap().replicas[0];
                    cluster.report_load(rid, disk, d);
                }
            }
            ChaosOp::Crash { node } => {
                plb.crash_node(
                    &mut cluster,
                    toto_fabric::ids::NodeId(node % 8),
                    SimTime::ZERO,
                );
            }
            ChaosOp::Restart { node } => {
                cluster.set_node_up(toto_fabric::ids::NodeId(node % 8), true);
            }
            ChaosOp::Degrade { permille } => {
                cluster
                    .set_metric_capacity(disk, base_disk_capacity * f64::from(permille) / 1000.0);
            }
            ChaosOp::FixViolations => {
                plb.fix_violations(&mut cluster, SimTime::ZERO);
            }
        }
        cluster.check_invariants();
        for n in cluster.nodes() {
            assert_eq!(
                cluster.node_cost(n.id).to_bits(),
                cluster.metrics().cost_of(&n.load).to_bits(),
                "cost cache diverged on {} after {op:?}",
                n.id
            );
        }
    }
    let mut digest: Vec<u64> = Vec::new();
    for n in cluster.nodes() {
        digest.push(u64::from(n.id.raw()));
        digest.push(u64::from(n.up));
        digest.push(n.replicas.len() as u64);
        digest.push(cluster.node_cost(n.id).to_bits());
        digest.push(n.load[cpu].to_bits());
        digest.push(n.load[disk].to_bits());
    }
    digest.push(services.len() as u64);
    drop(guard);
    (digest, sink.with(|b| b.bytes().to_vec()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_op_sequences_preserve_invariants(ops in prop::collection::vec(op_strategy(), 1..60), seed: u64) {
        let (mut cluster, cpu, disk) = build_cluster();
        let mut plb = Plb::new(PlbConfig::default(), seed);
        let mut services: Vec<ServiceId> = Vec::new();
        for op in ops {
            match op {
                Op::Create { cpu: c, disk: d, replicas } => {
                    let mut load = cluster.metrics().zero_load();
                    load[cpu] = c;
                    load[disk] = d;
                    let spec = ServiceSpec {
                        name: "db".into(),
                        tag: 0,
                        replica_count: replicas,
                        default_load: load,
                    };
                    if let Ok(id) = plb.create_service(&mut cluster, &spec, SimTime::ZERO) {
                        services.push(id);
                    }
                }
                Op::Remove { index } => {
                    if !services.is_empty() {
                        let id = services.remove(index % services.len());
                        prop_assert!(cluster.remove_service(id).is_some());
                    }
                }
                Op::Report { index, disk: d } => {
                    if !services.is_empty() {
                        let id = services[index % services.len()];
                        let rid = cluster.service(id).unwrap().replicas[0];
                        cluster.report_load(rid, disk, d);
                    }
                }
                Op::FixViolations => {
                    let events = plb.fix_violations(&mut cluster, SimTime::ZERO);
                    // Every reported move must reference live entities.
                    for e in &events {
                        prop_assert!(cluster.service(e.service).is_some());
                        prop_assert!(cluster.replica(e.replica).is_some());
                        prop_assert_eq!(cluster.replica(e.replica).unwrap().node, e.to);
                    }
                }
            }
            cluster.check_invariants();
        }
        // Total load equals the sum over replicas at all times (checked by
        // check_invariants); finally, removing everything zeroes the loads.
        for id in services {
            cluster.remove_service(id);
        }
        prop_assert!(cluster.total_load(cpu).abs() < 1e-6);
        prop_assert!(cluster.total_load(disk).abs() < 1e-6);
    }

    #[test]
    fn node_cost_cache_matches_recompute_after_random_ops(
        ops in prop::collection::vec(cache_op_strategy(), 1..80),
        seed: u64,
    ) {
        // The incremental per-node cost cache must stay *bitwise* equal
        // to a from-scratch recompute after any seeded sequence of
        // add / move / report / drop mutations.
        let (mut cluster, cpu, disk) = build_cluster();
        let mut plb = Plb::new(PlbConfig::default(), seed);
        let mut services: Vec<ServiceId> = Vec::new();
        for op in ops {
            match op {
                CacheOp::Add { cpu: c, disk: d, replicas } => {
                    let mut load = cluster.metrics().zero_load();
                    load[cpu] = c;
                    load[disk] = d;
                    let spec = ServiceSpec {
                        name: "db".into(),
                        tag: 0,
                        replica_count: replicas,
                        default_load: load,
                    };
                    if let Ok(id) = plb.create_service(&mut cluster, &spec, SimTime::ZERO) {
                        services.push(id);
                    }
                }
                CacheOp::Move { replica, node } => {
                    let live: Vec<_> = cluster.replicas().map(|r| (r.id, r.service, r.node)).collect();
                    if !live.is_empty() {
                        let (rid, service, from) = live[replica % live.len()];
                        let to = toto_fabric::ids::NodeId(node % 8);
                        if to != from && !cluster.node(to).hosts_service(service) {
                            cluster.move_replica(rid, to);
                        }
                    }
                }
                CacheOp::Report { replica, disk: d } => {
                    let live: Vec<_> = cluster.replicas().map(|r| r.id).collect();
                    if !live.is_empty() {
                        cluster.report_load(live[replica % live.len()], disk, d);
                    }
                }
                CacheOp::Drop { index } => {
                    if !services.is_empty() {
                        let id = services.remove(index % services.len());
                        prop_assert!(cluster.remove_service(id).is_some());
                    }
                }
            }
            for n in cluster.nodes() {
                let recomputed = cluster.metrics().cost_of(&n.load);
                prop_assert_eq!(
                    cluster.node_cost(n.id).to_bits(),
                    recomputed.to_bits(),
                    "cached cost diverged on {} ({} vs {})",
                    n.id,
                    cluster.node_cost(n.id),
                    recomputed
                );
            }
        }
    }

    #[test]
    fn chaos_sequences_preserve_invariants_and_determinism(
        ops in prop::collection::vec(chaos_op_strategy(), 1..60),
        seed: u64,
    ) {
        // One pass checks structural invariants and bitwise cost-cache
        // agreement after every mutation; a second identically-seeded
        // pass must take byte-identical decisions (same state digest,
        // same trace bytes) — the PLB-determinism contract under faults.
        let (digest_a, trace_a) = run_chaos_sequence(&ops, seed);
        let (digest_b, trace_b) = run_chaos_sequence(&ops, seed);
        prop_assert_eq!(digest_a, digest_b, "state digest diverged across replays");
        prop_assert_eq!(trace_a, trace_b, "trace bytes diverged across replays");
    }

    #[test]
    fn placement_never_colocates_replicas(seed: u64, cpu_load in 1.0f64..24.0, replicas in 2u32..=4) {
        let (mut cluster, cpu, disk) = build_cluster();
        let mut plb = Plb::new(PlbConfig::default(), seed);
        let mut load = cluster.metrics().zero_load();
        load[cpu] = cpu_load;
        load[disk] = 10.0;
        let spec = ServiceSpec {
            name: "db".into(),
            tag: 0,
            replica_count: replicas,
            default_load: load,
        };
        let placement = plb.place_new_service(&cluster, &spec).unwrap();
        let mut nodes = placement.clone();
        nodes.sort_unstable();
        nodes.dedup();
        prop_assert_eq!(nodes.len(), placement.len());
        let id = cluster.add_service(&spec, &placement, SimTime::ZERO);
        cluster.check_invariants();
        prop_assert_eq!(cluster.service(id).unwrap().replicas.len(), replicas as usize);
    }

    #[test]
    fn reused_plb_places_identically_across_replays_and_ring_sizes(
        head in create_op(),
        tail in prop::collection::vec(place_op_strategy(), 0..120),
        first in 64u32..=160,
        shift in 1u32..=96,
        fault_domains in 1u32..=8,
        seed: u64,
    ) {
        // The placement ranking re-sorts from the previous decision's
        // order; the hint may only change speed. Debug builds assert each
        // ranking against a from-scratch sort, so any divergence panics
        // here. Two identically seeded replays, each reusing one `Plb`
        // across two ring sizes, must decide identically.
        let second = 64 + (first - 64 + shift) % 97;
        let ops: Vec<PlaceOp> = std::iter::once(head).chain(tail).collect();
        let a = run_placement_script(&ops, first, second, fault_domains, seed);
        let b = run_placement_script(&ops, first, second, fault_domains, seed);
        prop_assert!(a.iter().any(Option::is_some));
        prop_assert_eq!(a, b, "placements diverged across identically seeded replays");
    }

    #[test]
    fn batched_reports_match_one_report_at_a_time(
        creates in prop::collection::vec(create_op(), 1..160),
        reports in prop::collection::vec((0usize..4096, any::<bool>(), 0.0f64..2_600.0), 0..400),
        downs in prop::collection::vec(0u32..128, 0..8),
        nodes in 64u32..=128,
        fault_domains in 1u32..=8,
        seed: u64,
    ) {
        // A report tick hands the cluster its reports as one batch that
        // refreshes each touched node once. Node loads, cached costs,
        // the violation set and the candidate index must end bitwise
        // equal to reporting one value at a time. Rings of 64+ nodes
        // are where the PLB walks the candidate index; drained nodes
        // exercise its down-node exclusion.
        let (mut cluster, cpu, disk) = ring_cluster(nodes, fault_domains);
        let mut plb = Plb::new(PlbConfig::default(), seed);
        for op in creates {
            if let PlaceOp::Create { cpu: c, disk: d, replicas } = op {
                let mut load = cluster.metrics().zero_load();
                load[cpu] = c;
                load[disk] = d;
                let spec = ServiceSpec {
                    name: "db".into(),
                    tag: 0,
                    replica_count: replicas,
                    default_load: load,
                };
                let _ = plb.create_service(&mut cluster, &spec, SimTime::ZERO);
            }
        }
        for node in downs {
            cluster.set_node_up(NodeId(node % nodes), false);
        }
        let live: Vec<ReplicaId> = cluster.replicas().map(|r| r.id).collect();
        prop_assert!(!live.is_empty());
        // Cpu values span 0..130 against a capacity of 96, disk values
        // 0..2,600 against 2,000: both metrics enter and leave violation.
        let batch: Vec<(ReplicaId, MetricId, f64)> = reports
            .iter()
            .map(|&(index, on_cpu, value)| {
                let replica = live[index % live.len()];
                if on_cpu {
                    (replica, cpu, value / 20.0)
                } else {
                    (replica, disk, value)
                }
            })
            .collect();
        let mut batched = cluster.clone();
        batched.report_loads(batch.iter().copied());
        let mut single = cluster;
        for &(replica, metric, value) in &batch {
            single.report_load(replica, metric, value);
        }
        for (a, b) in batched.nodes().iter().zip(single.nodes()) {
            for metric in [cpu, disk] {
                prop_assert_eq!(a.load[metric].to_bits(), b.load[metric].to_bits(), "{} load", a.id);
            }
            prop_assert_eq!(batched.node_cost(a.id).to_bits(), single.node_cost(b.id).to_bits(), "{} cost", a.id);
        }
        for (a, b) in batched.replicas().zip(single.replicas()) {
            for metric in [cpu, disk] {
                prop_assert_eq!(a.load[metric].to_bits(), b.load[metric].to_bits(), "{} load", a.id);
            }
        }
        prop_assert_eq!(batched.violations(), single.violations());
        prop_assert_eq!(
            batched.candidate_nodes_by_cost().collect::<Vec<_>>(),
            single.candidate_nodes_by_cost().collect::<Vec<_>>()
        );
        for domain in 0..batched.fault_domain_count() as u32 {
            prop_assert_eq!(
                batched.domain_nodes_by_cost(domain).collect::<Vec<_>>(),
                single.domain_nodes_by_cost(domain).collect::<Vec<_>>()
            );
        }
        prop_assert!(batched.invariants_ok());
        prop_assert!(single.invariants_ok());
    }

    #[test]
    fn typed_naming_value_is_exact(bits: u64, magnitude: f64) {
        // `write_f64` must be indistinguishable from writing the value's
        // `{:?}` text with `write_with`: same text reads, same versions,
        // same counters. Raw bits reach subnormals and the extremes;
        // `magnitude` covers everyday decimals. Non-finite bit patterns
        // are folded to finite ones by clearing the exponent's top bit.
        let bits = if f64::from_bits(bits).is_finite() { bits } else { bits & !(1 << 62) };
        for v in [f64::from_bits(bits), magnitude] {
            let text = format!("{v:?}");
            let mut typed = NamingService::new();
            let mut texted = NamingService::new();
            let version = typed.write_f64("k", v);
            prop_assert_eq!(version, texted.write_with("k", |b| b.push_str(&text)));
            prop_assert_eq!(typed.get_f64("k").map(f64::to_bits), Some(v.to_bits()));
            prop_assert_eq!(texted.get_f64("k"), text.parse::<f64>().ok());
            prop_assert_eq!(texted.get_f64("k").map(f64::to_bits), Some(v.to_bits()));
            typed.get_f64("k");
            prop_assert_eq!(typed.read("k"), Some(text.clone()));
            prop_assert_eq!(texted.read("k"), Some(text.clone()));
            prop_assert_eq!(typed.get_versioned("k"), Some((text.as_str(), version)));
            prop_assert_eq!(texted.get_versioned("k"), Some((text.as_str(), version)));
            prop_assert_eq!(typed.stats(), texted.stats());
            // Overwrites stay in lockstep whichever form replaces which.
            let v2 = -v / 3.0;
            let version = typed.write("k", format!("{v2:?}"));
            prop_assert_eq!(version, texted.write_f64("k", v2));
            prop_assert_eq!(typed.get_f64("k").map(f64::to_bits), Some(v2.to_bits()));
            prop_assert_eq!(texted.get_f64("k").map(f64::to_bits), Some(v2.to_bits()));
            prop_assert_eq!(typed.get("k"), texted.get("k"));
            prop_assert_eq!(typed.stats(), texted.stats());
        }
    }

    #[test]
    fn memoized_placements_match_cold_clones(
        ops in prop::collection::vec(memo_op_strategy(), 1..60),
        nodes in 64u32..=160,
        fault_domains in 1u32..=8,
        seed: u64,
    ) {
        // A persistent `Plb` re-costs only restamped nodes when it places
        // the same shape on the same cluster again. Each decision must
        // equal the one a clone of it makes on a clone of the cluster,
        // which always recomputes every node. Debug builds also check
        // each memoized table and ranking against a from-scratch one.
        run_memo_script(&ops, nodes, fault_domains, seed);
    }
}
