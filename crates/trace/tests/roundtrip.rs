//! Codec round-trip coverage: every event kind (including the chaos
//! kinds) must survive encode → decode → re-encode byte-identically
//! through both the in-memory and the file sink, and malformed inputs
//! must produce a typed [`DecodeError`], never a panic.

use proptest::prelude::*;
use toto_trace::codec::{decode, encode_all, retype, DecodeError, FORMAT_VERSION, MAGIC};
use toto_trace::event::FieldType;
use toto_trace::{
    BufferSink, EventBody, FileSink, TraceEvent, TraceSink, Value, ALL_KINDS, KIND_COUNT,
};

/// One representative event per kind, in kind-id order.
fn one_event_per_kind() -> Vec<TraceEvent> {
    let bodies = vec![
        EventBody::Phase {
            label: "run".into(),
        },
        EventBody::Dispatch { queue_seq: 7 },
        EventBody::Placement {
            service: 1,
            replicas: 2,
            primary_node: 3,
        },
        EventBody::PlacementRejected {
            needed: 4,
            feasible: 1,
        },
        EventBody::AnnealSummary {
            service: 1,
            iterations: 200,
            accepted: 12,
        },
        EventBody::ViolationUnresolved {
            node: 5,
            resource: 0,
        },
        EventBody::Failover {
            service: 9,
            replica: 1,
            from: 2,
            to: 3,
            primary: true,
            reason: "node_crash".into(),
            promoted: u64::MAX,
        },
        EventBody::NamingWrite {
            key: "toto/models".into(),
            version: 3,
        },
        EventBody::MetricReport {
            service: 9,
            replica: 0,
            node: 2,
            resource: "cpu".into(),
            value: -0.0, // signed zero must survive bitwise
        },
        EventBody::ModelRefresh {
            node: 2,
            version: 4,
        },
        EventBody::AdmissionAdmitted {
            service: 10,
            cores: 4.0,
        },
        EventBody::AdmissionRedirected {
            cores: 8.0,
            available: 2.5,
        },
        EventBody::DbCreate {
            service: 10,
            edition: 1,
            slo: 42,
        },
        EventBody::DbDrop {
            service: 10,
            edition: 1,
        },
        EventBody::BootstrapPlacementFailed {
            draft: 3,
            vcores: 16,
            disk_gb: 1024.0,
        },
        EventBody::ChaosNodeCrash {
            node: 4,
            downtime_secs: 1800,
        },
        EventBody::ChaosNodeRestart { node: 4 },
        EventBody::ChaosNodeDecommission { node: 6 },
        EventBody::ChaosCapacityDegrade {
            resource: "Disk".into(),
            node_capacity: 18_000.0,
        },
        EventBody::ChaosReportDropped {
            service: 9,
            replica: 0,
            node: 2,
            resource: "cpu".into(),
        },
        EventBody::ChaosStorm {
            nodes: 3,
            downtime_secs: 900,
        },
        EventBody::OracleViolation {
            oracle: "replica_on_down_node".into(),
            detail: "replica 7 on node 4".into(),
        },
        EventBody::ChaosNodeDrain {
            node: 5,
            downtime_secs: 3600,
        },
        EventBody::RegionRingAdmit {
            ring: "ring-1".into(),
            db: "gp_4-17".into(),
            cores: 4.0,
        },
        EventBody::RegionRingRedirect {
            from: "ring-0".into(),
            to: "ring-2".into(),
            cores: 96.0,
        },
        EventBody::RegionRingUp {
            ring: "ring-3".into(),
            nodes: 14,
            logical_cores: 1344.0,
        },
        EventBody::RegionRingDrain {
            ring: "ring-1".into(),
            tenants: 42,
            cores: 380.0,
        },
        EventBody::NamingDelete {
            key: "services/gp_4-17".into(),
            existed: 1,
        },
        EventBody::ScenarioFit {
            family: "creates/gp".into(),
            tested: 48,
            accepted: 47,
            min_p: 0.03,
        },
    ];
    assert_eq!(bodies.len(), KIND_COUNT, "one sample body per kind");
    for (i, (body, kind)) in bodies.iter().zip(ALL_KINDS).enumerate() {
        assert_eq!(body.kind(), kind, "sample {i} out of kind-id order");
    }
    bodies
        .into_iter()
        .enumerate()
        .map(|(i, body)| TraceEvent {
            time_secs: (i as u64) * 60,
            seq: i as u64,
            body,
        })
        .collect()
}

#[test]
fn body_values_match_schema() {
    let events = one_event_per_kind();
    assert_eq!(events.len(), KIND_COUNT);
    for (ev, kind) in events.iter().zip(ALL_KINDS) {
        assert_eq!(ev.body.kind(), kind);
        let values = ev.body.values();
        assert_eq!(values.len(), kind.fields().len(), "kind {}", kind.name());
        for (def, val) in kind.fields().iter().zip(&values) {
            let ok = matches!(
                (def.ty, val),
                (FieldType::U64, Value::U64(_))
                    | (FieldType::F64, Value::F64(_))
                    | (FieldType::Str, Value::Str(_))
            );
            assert!(ok, "field {} of {} has wrong type", def.name, kind.name());
        }
    }
}

#[test]
fn every_kind_round_trips_through_buffer_sink() {
    let events = one_event_per_kind();
    let mut sink = BufferSink::new();
    for ev in &events {
        sink.record(ev);
    }
    let bytes = sink.into_bytes();
    let file = decode(&bytes).expect("buffer trace decodes");
    assert_eq!(file.format_version, FORMAT_VERSION);
    assert_eq!(file.events.len(), KIND_COUNT);
    // Re-type every decoded event back into the writer vocabulary and
    // re-encode: the bytes must be identical to the first encoding.
    let retyped: Vec<TraceEvent> = file
        .events
        .iter()
        .map(|dec| TraceEvent {
            time_secs: dec.time_secs,
            seq: dec.seq,
            body: retype(&file, dec).expect("current vocabulary retypes"),
        })
        .collect();
    assert_eq!(retyped, events);
    assert_eq!(encode_all(&retyped), bytes, "re-encode is byte-identical");
}

#[test]
fn every_kind_round_trips_through_file_sink() {
    let events = one_event_per_kind();
    let path =
        std::env::temp_dir().join(format!("toto_trace_roundtrip_{}.trace", std::process::id()));
    let mut sink = FileSink::create(&path).expect("create trace file");
    for ev in &events {
        sink.record(ev);
    }
    sink.finish().expect("flush trace file");
    drop(sink);
    let bytes = std::fs::read(&path).expect("read trace file back");
    let _ = std::fs::remove_file(&path);
    assert_eq!(bytes, encode_all(&events), "file sink bytes match batch");
    let file = decode(&bytes).expect("file trace decodes");
    for (orig, dec) in events.iter().zip(&file.events) {
        assert_eq!(retype(&file, dec), Some(orig.body.clone()));
    }
}

#[test]
fn truncated_trace_yields_typed_error_at_every_cut() {
    let bytes = encode_all(&one_event_per_kind());
    // Cutting the stream anywhere inside the header or mid-record must
    // produce a DecodeError (never a panic). Cuts that land exactly on a
    // record boundary decode fine — just to fewer events.
    for cut in 0..bytes.len() {
        let truncated = &bytes[..cut];
        match decode(truncated) {
            Ok(file) => assert!(file.events.len() <= KIND_COUNT),
            Err(DecodeError { offset, .. }) => assert!(offset <= cut),
        }
    }
}

#[test]
fn corrupt_header_yields_typed_error() {
    // Bad magic.
    let err = decode(b"NOTATRACE").expect_err("bad magic rejected");
    assert!(err.message.contains("magic"), "got: {err}");

    // Unsupported format version.
    let mut bytes = encode_all(&[]);
    bytes[MAGIC.len()] = FORMAT_VERSION + 1;
    let err = decode(&bytes).expect_err("future version rejected");
    assert!(err.message.contains("version"), "got: {err}");

    // Undeclared kind id in the event stream.
    let mut bytes = encode_all(&[]);
    bytes.push(0xFE);
    let err = decode(&bytes).expect_err("undeclared kind rejected");
    assert!(err.message.contains("kind"), "got: {err}");
}

/// 64-bit FNV-1a, to pin trace bytes in a test without committing them.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn wire_bytes_are_pinned() {
    // The header (schema table) alone, and a whole trace (that header
    // followed by one record per kind), pinned by length and digest: any
    // change to a kind's id, name, field order or field type changes both,
    // a change to the record layout only the second. Kinds are
    // append-only, so only adding a kind may update them.
    let mut header = Vec::new();
    toto_trace::codec::encode_header(&mut header);
    let records = encode_all(&one_event_per_kind());
    assert_eq!(
        (header.len(), fnv1a(&header)),
        (1154, 0x0b9d_852d_81ff_3f45),
        "header bytes changed"
    );
    assert_eq!(
        (records.len(), fnv1a(&records)),
        (1567, 0x1f9a_e060_3070_4ffb),
        "one-event-per-kind trace bytes (header and records) changed"
    );
}

/// Flip bits of one byte per `(position, mask)` edit (a zero mask flips
/// the low bit), then keep at most `keep` bytes.
fn mutate(bytes: &[u8], edits: &[(usize, u8)], keep: usize) -> Vec<u8> {
    let mut bytes = bytes.to_vec();
    for &(pos, mask) in edits {
        let len = bytes.len();
        bytes[pos % len] ^= mask.max(1);
    }
    bytes.truncate(keep);
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_traces_decode_or_fail_typed(
        edits in prop::collection::vec((any::<usize>(), any::<u8>()), 0..8),
        keep in 0usize..4096,
    ) {
        let events = one_event_per_kind();
        let pristine = encode_all(&events);
        let bytes = mutate(&pristine, &edits, keep);
        match decode(&bytes) {
            Ok(file) => {
                let retyped: Vec<Option<EventBody>> =
                    file.events.iter().map(|ev| retype(&file, ev)).collect();
                if bytes == pristine {
                    let originals: Vec<Option<EventBody>> =
                        events.into_iter().map(|ev| Some(ev.body)).collect();
                    prop_assert_eq!(retyped, originals);
                }
            }
            Err(DecodeError { offset, message }) => {
                prop_assert!(offset <= bytes.len(), "offset {offset} past end");
                prop_assert!(!message.is_empty());
            }
        }
    }
}
