//! Robustness of the `lint.toml` loader: random bytes, and mutations of
//! documents assembled from the config's own sections and keys, return a
//! config or an error message — never a panic.

use proptest::prelude::*;
use toto_lint::config::Config;

/// The workspace's real config.
const LINT_TOML: &str = include_str!("../../../lint.toml");

/// Section headers: every one the config knows, plus unknown ones.
const HEADERS: &[&str] = &[
    "[scan]",
    "[classes]",
    "[levels]",
    "[rules.D002]",
    "[rules.R002]",
    "[[allow]]",
    "[mystery]",
    "[[other]]",
];

/// Assignments of every key the config knows, with well- and ill-typed
/// values, plus an unknown key.
const KEY_LINES: &[&str] = &[
    "exclude = [\"crates/a\"]",
    "sim_path = [\"crates/a\", 1]",
    "D001 = \"warn\"",
    "D001 = true",
    "D9 = \"off\"",
    "allowed_paths = \"crates/a\"",
    "paths = []",
    "mut_state_types = [\"World\"]",
    "rule = \"R001\"",
    "path = \"crates/x\"",
    "reason = \"vetted\"",
    "reason = 42",
    "unknown = \"x\"",
];

/// A document of `(header, key lines)` blocks drawn from the pools.
fn assemble(blocks: &[(usize, Vec<usize>)]) -> String {
    let mut doc = String::new();
    for (header, keys) in blocks {
        doc.push_str(HEADERS[header % HEADERS.len()]);
        for key in keys {
            doc.push('\n');
            doc.push_str(KEY_LINES[key % KEY_LINES.len()]);
        }
        doc.push('\n');
    }
    doc
}

/// Bytes that steer mutations toward the grammar's edge cases.
const GRAMMAR_BYTES: &[u8] = b"[]=\"#,.\n _-aDL0";

/// Overwrite one byte per `(position, byte)` edit — even bytes are
/// drawn from [`GRAMMAR_BYTES`], odd ones are raw.
fn mutate(doc: &str, edits: &[(usize, u8)]) -> String {
    let mut bytes = doc.as_bytes().to_vec();
    for &(pos, byte) in edits {
        let Some(len) = std::num::NonZeroUsize::new(bytes.len()) else {
            break;
        };
        bytes[pos % len] = match byte % 2 {
            0 => GRAMMAR_BYTES[usize::from(byte / 2) % GRAMMAR_BYTES.len()],
            _ => byte,
        };
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn the_workspace_config_loads() {
    let config = Config::from_toml_str(LINT_TOML).expect("lint.toml loads");
    assert!(config.sim_path.iter().any(|p| p == "crates/core"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = Config::from_toml_str(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn mutated_configs_never_panic(
        blocks in prop::collection::vec(
            (any::<usize>(), prop::collection::vec(any::<usize>(), 0..4)),
            0..6,
        ),
        edits in prop::collection::vec((any::<usize>(), any::<u8>()), 0..4),
    ) {
        let _ = Config::from_toml_str(&mutate(&assemble(&blocks), &edits));
    }
}
