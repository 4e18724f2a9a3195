//! Robustness of the shared TOML-subset parser: random bytes and
//! mutations of a well-formed document parse to a document or to a typed
//! error naming a line of the input — never a panic.

use proptest::prelude::*;
use toto_fleet::toml::RawDoc;

/// A well-formed document using every construct of the subset.
const SEED_DOC: &str = r#"# a scenario
[scenario]
name = "density-sweep"   # trailing comment
seed = 42
hours = 1.5e2
trace = false

[schedule]
densities = [
    100, 110, # continued
    120, 140,
]

[[workload.cohort]]
name = "dev # not a comment"
weight = -3_000.0
tags = ["a", "b", true]
"#;

/// Bytes that steer mutations toward the grammar's edge cases.
const GRAMMAR_BYTES: &[u8] = b"[]=\"#,.\n\r\t _-+eE01aZ";

/// Overwrite one byte per `(position, byte)` edit — even bytes are
/// drawn from [`GRAMMAR_BYTES`], odd ones are raw — then keep at most
/// `keep` bytes.
fn mutate(doc: &str, edits: &[(usize, u8)], keep: usize) -> String {
    let mut bytes = doc.as_bytes().to_vec();
    for &(pos, byte) in edits {
        let len = bytes.len();
        bytes[pos % len] = match byte % 2 {
            0 => GRAMMAR_BYTES[usize::from(byte / 2) % GRAMMAR_BYTES.len()],
            _ => byte,
        };
    }
    bytes.truncate(keep);
    String::from_utf8_lossy(&bytes).into_owned()
}

fn assert_parses_or_names_a_line(text: &str) {
    if let Err(e) = RawDoc::parse(text) {
        assert!(
            (1..=text.lines().count()).contains(&e.line),
            "error line out of range: {e:?} for {text:?}"
        );
        assert!(!e.message.is_empty());
    }
}

#[test]
fn the_seed_document_is_well_formed() {
    let doc = RawDoc::parse(SEED_DOC).expect("seed document parses");
    assert_eq!(doc.sections.len(), 2);
    assert_eq!(doc.tables["workload.cohort"].len(), 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        assert_parses_or_names_a_line(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn mutated_documents_never_panic(
        edits in prop::collection::vec((any::<usize>(), any::<u8>()), 1..12),
        keep in 0usize..4096,
    ) {
        assert_parses_or_names_a_line(&mutate(SEED_DOC, &edits, keep));
    }
}
