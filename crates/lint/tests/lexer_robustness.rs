//! Robustness of the lexer: mutations and truncations of workspace
//! sources lex to tokens in source order — never a panic. Mutations aim
//! at the hard cases: unterminated strings, raw-string hashes, nested
//! block comments, lifetimes versus char literals and multi-byte text.

use proptest::prelude::*;
use toto_lint::lexer::lex;

/// Workspace sources to mutate: the lexer itself (every literal form it
/// handles appears in its own source) and sim-path code.
const SOURCES: &[&str] = &[
    include_str!("../src/lexer.rs"),
    include_str!("../../fabric/src/plb.rs"),
    include_str!("../../fleet/src/json.rs"),
    include_str!("fixtures/clean.rs"),
];

/// Fragments spliced in by mutations: the openers and closers of every
/// literal and comment form, plus multi-byte characters.
const FRAGMENTS: &[&str] = &[
    "\"",
    "'",
    "'a",
    "'\\''",
    "/*",
    "*/",
    "//",
    "///",
    "r#\"",
    "\"#",
    "br##\"",
    "b'",
    "\\",
    "\n",
    "é",
    "→",
    "0x1f",
    "1e-3",
    "// toto-lint: allow(",
    ")",
];

/// Replace the byte range at each `(position, fragment, span)` edit with
/// a fragment, then keep at most `keep` bytes. Edits land on char
/// boundaries, so the text stays valid UTF-8 without lossy repair.
fn mutate(src: &str, edits: &[(usize, usize, usize)], keep: usize) -> String {
    let mut text = src.to_string();
    for &(pos, fragment, span) in edits {
        let mut at = pos % (text.len() + 1);
        while !text.is_char_boundary(at) {
            at -= 1;
        }
        let mut end = (at + span % 8).min(text.len());
        while !text.is_char_boundary(end) {
            end -= 1;
        }
        text.replace_range(at..end, FRAGMENTS[fragment % FRAGMENTS.len()]);
    }
    let mut keep = keep.min(text.len());
    while !text.is_char_boundary(keep) {
        keep -= 1;
    }
    text.truncate(keep);
    text
}

/// Lex `text` and check the tokens come out in source order.
fn assert_lexes_in_order(text: &str) {
    let lexed = lex(text);
    let positions: Vec<(usize, usize)> = lexed.tokens.iter().map(|t| (t.line, t.col)).collect();
    assert!(
        positions.windows(2).all(|w| w[0] < w[1]),
        "tokens out of source order"
    );
    let lines = text.lines().count().max(1);
    assert!(lexed.tokens.iter().all(|t| (1..=lines).contains(&t.line)));
}

#[test]
fn the_sources_lex() {
    for src in SOURCES {
        assert!(!lex(src).tokens.is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutated_sources_never_panic(
        src in 0..SOURCES.len(),
        edits in prop::collection::vec((any::<usize>(), any::<usize>(), any::<usize>()), 1..16),
        keep: usize,
    ) {
        assert_lexes_in_order(&mutate(SOURCES[src], &edits, keep));
    }

    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        assert_lexes_in_order(&String::from_utf8_lossy(&bytes));
    }
}
