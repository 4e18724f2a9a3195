//! Robustness of the fleet JSON reader: flipped and truncated bytes of
//! the committed run records and manifest parse to a value or to an
//! error, and every record decoder returns `Ok` or `Err` — never a
//! panic.

use proptest::prelude::*;
use toto_fleet::{BenchEntry, BenchRecord, FleetManifest, Json, RunRecord};

/// The pinned paper sweep's records and manifest, as committed.
const COMMITTED: &[&str] = &[
    include_str!("../../../results/runs/fleet_runner/density-100.json"),
    include_str!("../../../results/runs/fleet_runner/density-110.json"),
    include_str!("../../../results/runs/fleet_runner/density-120.json"),
    include_str!("../../../results/runs/fleet_runner/density-140.json"),
    include_str!("../../../results/runs/fleet_runner/manifest.json"),
];

/// Bytes that steer flips toward the grammar's edge cases.
const GRAMMAR_BYTES: &[u8] = b"[]{}:,\"\\.-+eE019tfnu \n";

/// A rendered bench record, so `BenchRecord::from_json` sees its own
/// shape as well as the run records'.
fn bench_document() -> String {
    let entry = |name: &str, value| BenchEntry {
        name: name.to_string(),
        unit: "s".to_string(),
        value,
    };
    BenchRecord::new(
        "abc1234",
        vec![entry("density-140/wall", 1.5), entry("fleet/jobs", 4.0)],
    )
    .to_json()
    .render()
}

/// The documents mutations start from.
fn seed_documents() -> Vec<String> {
    let mut docs: Vec<String> = COMMITTED.iter().map(|d| d.to_string()).collect();
    docs.push(bench_document());
    docs
}

/// XOR one byte per `(position, byte)` edit — even bytes swap in a
/// byte from [`GRAMMAR_BYTES`], odd ones flip bits — then keep at most
/// `keep` bytes.
fn mutate(doc: &str, edits: &[(usize, u8)], keep: usize) -> String {
    let mut bytes = doc.as_bytes().to_vec();
    for &(pos, byte) in edits {
        let len = bytes.len();
        let at = &mut bytes[pos % len];
        *at = match byte % 2 {
            0 => GRAMMAR_BYTES[usize::from(byte / 2) % GRAMMAR_BYTES.len()],
            _ => *at ^ byte,
        };
    }
    bytes.truncate(keep);
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Parse `text` and run every decoder on the result; any outcome but a
/// panic is fine.
fn decode_everything(text: &str) {
    if let Ok(json) = Json::parse(text) {
        let _ = RunRecord::from_json(&json);
        let _ = FleetManifest::from_json(&json);
        let _ = BenchRecord::from_json(&json);
    }
}

#[test]
fn the_seed_documents_decode() {
    for doc in &COMMITTED[..4] {
        RunRecord::from_json(&Json::parse(doc).expect("record parses")).expect("record decodes");
    }
    FleetManifest::from_json(&Json::parse(COMMITTED[4]).expect("manifest parses"))
        .expect("manifest decodes");
    BenchRecord::from_json(&Json::parse(&bench_document()).expect("bench record parses"))
        .expect("bench record decodes");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_records_never_panic(
        doc in 0usize..COMMITTED.len() + 1,
        edits in prop::collection::vec((any::<usize>(), any::<u8>()), 0..12),
        keep in 0usize..2048,
    ) {
        decode_everything(&mutate(&seed_documents()[doc], &edits, keep));
    }

    #[test]
    fn truncated_records_never_panic(doc in 0usize..COMMITTED.len() + 1, keep: usize) {
        let text = &seed_documents()[doc];
        decode_everything(&String::from_utf8_lossy(&text.as_bytes()[..keep % (text.len() + 1)]));
    }
}
