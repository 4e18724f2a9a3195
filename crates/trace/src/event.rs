//! The trace event model.
//!
//! Every event carries only simulated time and a monotonic sequence
//! number — never a wall clock — so two runs of the same `(spec, seed)`
//! pair produce identical event streams. Payloads are flat scalar/string
//! tuples described by a static per-kind schema; the schema is embedded
//! in every trace file so decoders never need this crate's source to be
//! in sync with the writer (self-describing format).
//!
//! Each kind is declared exactly once, in the `event_kinds!` table below:
//! doc comment, variant, on-disk id, wire name and typed fields. The
//! table generates [`EventKind`], [`ALL_KINDS`], [`KIND_COUNT`], the wire
//! schema ([`EventKind::fields`]) and the [`EventBody`] payload enum with
//! its conversions to and from wire [`Value`]s. Add a kind by appending
//! one entry with the next id; ids are append-only and never renumbered,
//! or old traces become unreadable.

/// Bit masks for selecting which kinds a sink records.
pub mod mask {
    /// Record every kind.
    pub const ALL: u64 = (1u64 << super::KIND_COUNT) - 1;
    /// Record nothing (disabled tracing).
    pub const NONE: u64 = 0;
}

impl EventKind {
    /// The bit for this kind in a sink's kind mask.
    #[inline]
    pub fn bit(self) -> u64 {
        1u64 << (self as u8)
    }

    /// Stable on-disk kind id.
    #[inline]
    pub fn id(self) -> u8 {
        self as u8
    }

    /// Kind for a raw on-disk id, if defined.
    pub fn from_id(id: u8) -> Option<EventKind> {
        ALL_KINDS.get(id as usize).copied()
    }

    /// Look a kind up by its schema name.
    pub fn from_name(name: &str) -> Option<EventKind> {
        ALL_KINDS.iter().copied().find(|k| k.name() == name)
    }
}

/// Wire type of one payload field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FieldType {
    U64 = 0,
    F64 = 1,
    Str = 2,
}

impl FieldType {
    pub fn from_id(id: u8) -> Option<FieldType> {
        match id {
            0 => Some(FieldType::U64),
            1 => Some(FieldType::F64),
            2 => Some(FieldType::Str),
            _ => None,
        }
    }
}

/// One field in a kind's payload schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldDef {
    pub name: &'static str,
    pub ty: FieldType,
}

/// A decoded (or to-be-encoded) payload field value.
///
/// Equality compares `F64` by bit pattern so NaNs and signed zeros cannot
/// mask a real divergence between two traces.
#[derive(Debug, Clone)]
pub enum Value {
    U64(u64),
    F64(f64),
    Str(String),
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::U64(a), Value::U64(b)) => a == b,
            (Value::F64(a), Value::F64(b)) => a.to_bits() == b.to_bits(),
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => false,
        }
    }
}
impl Eq for Value {}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
        }
    }
}

/// A payload field type: its wire [`FieldType`] and its conversions to and
/// from a wire [`Value`].
trait Field: Sized {
    const TYPE: FieldType;
    fn to_value(&self) -> Value;
    fn from_value(value: &Value) -> Option<Self>;
}

impl Field for u64 {
    const TYPE: FieldType = FieldType::U64;
    fn to_value(&self) -> Value {
        Value::U64(*self)
    }
    fn from_value(value: &Value) -> Option<Self> {
        match value {
            Value::U64(v) => Some(*v),
            _ => None,
        }
    }
}

impl Field for f64 {
    const TYPE: FieldType = FieldType::F64;
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
    fn from_value(value: &Value) -> Option<Self> {
        match value {
            Value::F64(v) => Some(*v),
            _ => None,
        }
    }
}

impl Field for String {
    const TYPE: FieldType = FieldType::Str;
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
    fn from_value(value: &Value) -> Option<Self> {
        match value {
            Value::Str(v) => Some(v.clone()),
            _ => None,
        }
    }
}

/// A flag travels as a `U64` 0/1 on the wire; any non-zero decodes as set.
impl Field for bool {
    const TYPE: FieldType = FieldType::U64;
    fn to_value(&self) -> Value {
        Value::U64(u64::from(*self))
    }
    fn from_value(value: &Value) -> Option<Self> {
        u64::from_value(value).map(|v| v != 0)
    }
}

/// Generates the kind enum, its schema and the payload enum from one
/// table. Entry syntax: doc comment, `Variant = id "wire_name" { field:
/// type, … }`, where each type implements [`Field`].
macro_rules! event_kinds {
    ($(
        $(#[$doc:meta])*
        $kind:ident = $id:literal $name:literal {
            $($(#[$fdoc:meta])* $field:ident: $ty:ty),+ $(,)?
        }
    )+) => {
        /// Discriminant for every traceable decision in the sim path.
        ///
        /// The numeric value is the on-disk kind id; append-only — never
        /// renumber an existing kind, or old traces become unreadable.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        #[repr(u8)]
        pub enum EventKind {
            $($(#[$doc])* $kind = $id,)+
        }

        /// Number of defined event kinds (kind ids are `0..COUNT`).
        pub const KIND_COUNT: usize = [$($id),+].len();

        /// All kinds, in kind-id order.
        pub const ALL_KINDS: [EventKind; KIND_COUNT] = [$(EventKind::$kind),+];

        // Ids must be exactly `0..KIND_COUNT` in table order: `from_id`
        // indexes `ALL_KINDS` by id.
        const _: () = {
            let mut i = 0;
            while i < KIND_COUNT {
                assert!(ALL_KINDS[i] as usize == i, "kind ids must be 0, 1, 2, … in table order");
                i += 1;
            }
        };

        impl EventKind {
            /// Human-readable kind name (also the on-disk schema name).
            pub fn name(self) -> &'static str {
                match self {
                    $(EventKind::$kind => $name,)+
                }
            }

            /// Field schema for this kind, in payload order.
            pub fn fields(self) -> &'static [FieldDef] {
                match self {
                    $(EventKind::$kind => &[
                        $(FieldDef { name: stringify!($field), ty: <$ty as Field>::TYPE }),+
                    ],)+
                }
            }
        }

        /// Structured payload of one trace event; field order is the wire
        /// order of [`EventKind::fields`].
        #[derive(Debug, Clone, PartialEq)]
        pub enum EventBody {
            $($(#[$doc])* $kind { $($(#[$fdoc])* $field: $ty,)+ },)+
        }

        impl EventBody {
            /// The kind this payload belongs to.
            pub fn kind(&self) -> EventKind {
                match self {
                    $(EventBody::$kind { .. } => EventKind::$kind,)+
                }
            }

            /// Payload fields in schema order, as generic wire values.
            pub fn values(&self) -> Vec<Value> {
                match self {
                    $(EventBody::$kind { $($field),+ } => vec![$($field.to_value()),+],)+
                }
            }

            /// Rebuild a payload of `kind` from wire values in schema order;
            /// `None` when the count or a value's type does not match.
            pub fn from_values(kind: EventKind, values: &[Value]) -> Option<EventBody> {
                if values.len() != kind.fields().len() {
                    return None;
                }
                let mut values = values.iter();
                Some(match kind {
                    $(EventKind::$kind => EventBody::$kind {
                        $($field: Field::from_value(values.next()?)?,)+
                    },)+
                })
            }
        }
    };
}

event_kinds! {
    /// Experiment lifecycle marker (bootstrap / run / score …).
    Phase = 0 "phase" { label: String }
    /// One event-loop dispatch in `toto-simcore`.
    Dispatch = 1 "dispatch" { queue_seq: u64 }
    /// PLB placed a new service.
    Placement = 2 "placement" { service: u64, replicas: u64, primary_node: u64 }
    /// PLB could not place a new service (not enough feasible nodes).
    PlacementRejected = 3 "placement_rejected" { needed: u64, feasible: u64 }
    /// Summary of one simulated-annealing refinement pass.
    AnnealSummary = 4 "anneal_summary" { service: u64, iterations: u64, accepted: u64 }
    /// A capacity violation the PLB could not resolve this pass.
    ViolationUnresolved = 5 "violation_unresolved" { node: u64, resource: u64 }
    /// A replica moved between nodes (violation fix, balance, drain…).
    Failover = 6 "failover" {
        service: u64,
        replica: u64,
        from: u64,
        to: u64,
        primary: bool,
        reason: String,
        /// Replica id promoted to primary as a result, or `u64::MAX`.
        promoted: u64,
    }
    /// A write against the naming service.
    NamingWrite = 7 "naming_write" { key: String, version: u64 }
    /// RG manager interposed on a replica metric report.
    MetricReport = 8 "metric_report" {
        service: u64,
        replica: u64,
        node: u64,
        resource: String,
        value: f64,
    }
    /// RG manager refreshed its create/drop model snapshot.
    ModelRefresh = 9 "model_refresh" { node: u64, version: u64 }
    /// Control plane admitted a create request.
    AdmissionAdmitted = 10 "admission_admitted" { service: u64, cores: f64 }
    /// Control plane redirected a create request away from the cluster.
    AdmissionRedirected = 11 "admission_redirected" { cores: f64, available: f64 }
    /// Population manager created a database.
    DbCreate = 12 "db_create" { service: u64, edition: u64, slo: u64 }
    /// Population manager dropped a database.
    DbDrop = 13 "db_drop" { service: u64, edition: u64 }
    /// Bootstrap could not place one of the initial-population drafts.
    BootstrapPlacementFailed = 14 "bootstrap_placement_failed" {
        draft: u64,
        vcores: u64,
        disk_gb: f64,
    }
    /// Chaos injected a node crash (abrupt down, replicas failed over).
    ChaosNodeCrash = 15 "chaos_node_crash" { node: u64, downtime_secs: u64 }
    /// Chaos restarted a previously crashed/upgraded node (back up).
    ChaosNodeRestart = 16 "chaos_node_restart" { node: u64 }
    /// Chaos permanently decommissioned a node (drained, never restarts).
    ChaosNodeDecommission = 17 "chaos_node_decommission" { node: u64 }
    /// Chaos shrank (or restored) a metric's logical per-node capacity.
    ChaosCapacityDegrade = 18 "chaos_capacity_degrade" { resource: String, node_capacity: f64 }
    /// Chaos suppressed a replica metric report at the RG-manager boundary.
    ChaosReportDropped = 19 "chaos_report_dropped" {
        service: u64,
        replica: u64,
        node: u64,
        resource: String,
    }
    /// Chaos triggered a correlated failover storm (several crashes at once).
    ChaosStorm = 20 "chaos_storm" { nodes: u64, downtime_secs: u64 }
    /// An invariant oracle detected a violation after a dispatched event.
    OracleViolation = 21 "oracle_violation" { oracle: String, detail: String }
    /// Chaos drained a node gracefully (one rolling-restart step).
    ChaosNodeDrain = 22 "chaos_node_drain" { node: u64, downtime_secs: u64 }
    /// Region admission placed a create into a named ring.
    RegionRingAdmit = 23 "region_ring_admit" { ring: String, db: String, cores: f64 }
    /// Region admission redirected a create between rings (or out of the
    /// region entirely when no ring could take it).
    RegionRingRedirect = 24 "region_ring_redirect" { from: String, to: String, cores: f64 }
    /// Ring lifecycle: a ring joined region admission (build-out).
    RegionRingUp = 25 "region_ring_up" { ring: String, nodes: u64, logical_cores: f64 }
    /// Ring lifecycle: a ring left region admission and drained its
    /// tenants to sibling rings (decommission).
    RegionRingDrain = 26 "region_ring_drain" { ring: String, tenants: u64, cores: f64 }
    /// A delete against the naming service (tombstone removal on drop).
    NamingDelete = 27 "naming_delete" {
        key: String,
        /// 1 when the key existed (a record was removed), 0 for a no-op.
        existed: u64,
    }
    /// Scenario K-S oracle scored one synthesized stream family.
    ScenarioFit = 28 "scenario_fit" {
        family: String,
        tested: u64,
        accepted: u64,
        /// Smallest K-S p-value across tested cells (1.0 when none tested).
        min_p: f64,
    }
}

/// One recorded event: simulated time, a per-session monotonic sequence
/// number, and the structured payload. No wall clock anywhere.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    pub time_secs: u64,
    pub seq: u64,
    pub body: EventBody,
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = self.body.kind();
        write!(
            f,
            "[{:>8}s #{:>6}] {}",
            self.time_secs,
            self.seq,
            kind.name()
        )?;
        for (def, val) in kind.fields().iter().zip(self.body.values()) {
            write!(f, " {}={}", def.name, val)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_ids_round_trip() {
        for (i, k) in ALL_KINDS.iter().enumerate() {
            assert_eq!(k.id() as usize, i);
            assert_eq!(EventKind::from_id(k.id()), Some(*k));
            assert_eq!(EventKind::from_name(k.name()), Some(*k));
        }
        assert_eq!(EventKind::from_id(KIND_COUNT as u8), None);
        assert_eq!(EventKind::from_name("no_such_kind"), None);
    }

    #[test]
    fn from_values_rejects_wrong_count_and_types() {
        let body = EventBody::Failover {
            service: 9,
            replica: 1,
            from: 2,
            to: 3,
            primary: true,
            reason: "node_crash".into(),
            promoted: u64::MAX,
        };
        let values = body.values();
        assert_eq!(values[4], Value::U64(1), "bool travels as U64");
        assert_eq!(
            EventBody::from_values(EventKind::Failover, &values),
            Some(body)
        );
        assert_eq!(
            EventBody::from_values(EventKind::Failover, &values[1..]),
            None
        );
        assert_eq!(EventBody::from_values(EventKind::Dispatch, &values), None);
        let mut retyped = values.clone();
        retyped[0] = Value::F64(9.0);
        assert_eq!(EventBody::from_values(EventKind::Failover, &retyped), None);
    }

    #[test]
    fn f64_values_compare_by_bits() {
        assert_ne!(Value::F64(0.0), Value::F64(-0.0));
        assert_eq!(Value::F64(f64::NAN), Value::F64(f64::NAN));
    }
}
