//! Workspace-level call-graph construction.
//!
//! The graph is built by conservative *name resolution*, not type
//! inference: a call site resolves to every workspace function the name
//! could plausibly denote, filtered by the caller crate's dependency
//! closure (a crate cannot call into a crate it does not depend on).
//! Over-approximation is the correct bias here — the graph feeds a
//! reachability ("taint") analysis whose job is to prove the *absence*
//! of nondeterminism sinks on sim paths, so a spurious edge can at worst
//! surface a finding a human then vets, while a missing edge would hide
//! a real violation.
//!
//! Resolution rules, per call form (all restricted to the caller's
//! dependency closure):
//!
//! * `name(…)`        → free functions named `name`
//! * `recv.name(…)`   → methods (impl-block fns) named `name`
//! * `Type::name(…)`  → fns named `name` inside `impl Type`
//! * `Self::name(…)`  → fns named `name` in the caller's own impl type
//! * `mod::name(…)`   → free fns named `name`, preferring files whose
//!   stem is `mod`; `toto_x::…` paths pin the crate.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Token, TokenKind};
use crate::parse::{parse_file, FnDef, ParsedFile};

/// A parsed workspace: every lib-code file, grouped by crate.
pub struct Workspace {
    /// (workspace-relative path, parsed file, crate index).
    pub files: Vec<(String, ParsedFile, usize)>,
    /// Crate short names (`fabric`, `fleet`, …; the root package is
    /// `suite`), indexed by crate id.
    pub crates: Vec<String>,
    /// Transitive dependency closure per crate, self included.
    pub closure: Vec<BTreeSet<usize>>,
    /// Global fn table: (file index, fn index within the file).
    pub fns: Vec<(usize, usize)>,
}

/// The crate short name a workspace-relative path belongs to:
/// `crates/fabric/src/plb.rs` → `fabric`, root `src/…` → `suite`.
pub fn crate_of_path(path: &str) -> String {
    if let Some(rest) = path.strip_prefix("crates/") {
        rest.split('/').next().unwrap_or("suite").to_string()
    } else {
        "suite".to_string()
    }
}

/// Normalize a Rust path segment that names a workspace crate to its
/// short name: `toto_fabric` → `fabric`, `toto` → `core`, `toto_suite`
/// → `suite`. Returns `None` for non-crate segments.
fn crate_segment(seg: &str, crates: &[String]) -> Option<usize> {
    let short = match seg {
        "toto" => "core".to_string(),
        s => s.strip_prefix("toto_")?.to_string(),
    };
    crates.iter().position(|c| *c == short)
}

impl Workspace {
    /// Build a workspace from in-memory sources and a crate dependency
    /// map keyed by crate short name (`deps["region"] = ["fleet", …]`).
    /// Missing keys mean "no workspace dependencies".
    pub fn build(sources: &[(String, String)], deps: &BTreeMap<String, Vec<String>>) -> Workspace {
        let mut crates: Vec<String> = Vec::new();
        let crate_id = |name: String, crates: &mut Vec<String>| -> usize {
            match crates.iter().position(|c| *c == name) {
                Some(i) => i,
                None => {
                    crates.push(name);
                    crates.len() - 1
                }
            }
        };

        let mut files = Vec::new();
        for (path, source) in sources {
            let cid = crate_id(crate_of_path(path), &mut crates);
            files.push((path.clone(), parse_file(source), cid));
        }
        // Crates named only in the dependency map still get ids so the
        // closure computation sees them.
        for (from, tos) in deps {
            crate_id(from.clone(), &mut crates);
            for to in tos {
                crate_id(to.clone(), &mut crates);
            }
        }

        // Transitive closure by fixpoint; the crate graph is tiny.
        let n = crates.len();
        let mut closure: Vec<BTreeSet<usize>> = (0..n).map(|i| BTreeSet::from([i])).collect();
        let direct: Vec<BTreeSet<usize>> = (0..n)
            .map(|i| {
                deps.get(&crates[i])
                    .map(|tos| {
                        tos.iter()
                            .filter_map(|t| crates.iter().position(|c| c == t))
                            .collect()
                    })
                    .unwrap_or_default()
            })
            .collect();
        loop {
            let mut changed = false;
            for i in 0..n {
                let mut add: BTreeSet<usize> = BTreeSet::new();
                for &d in &direct[i] {
                    add.insert(d);
                    add.extend(closure[d].iter().copied());
                }
                for a in add {
                    changed |= closure[i].insert(a);
                }
            }
            if !changed {
                break;
            }
        }

        let mut fns = Vec::new();
        for (fi, (_, parsed, _)) in files.iter().enumerate() {
            for (gi, _) in parsed.fns.iter().enumerate() {
                fns.push((fi, gi));
            }
        }
        Workspace {
            files,
            crates,
            closure,
            fns,
        }
    }

    pub fn fn_def(&self, id: usize) -> &FnDef {
        let (fi, gi) = self.fns[id];
        &self.files[fi].1.fns[gi]
    }

    pub fn fn_file(&self, id: usize) -> &str {
        &self.files[self.fns[id].0].0
    }

    pub fn fn_crate(&self, id: usize) -> usize {
        self.files[self.fns[id].0].2
    }

    pub fn fn_tokens(&self, id: usize) -> &[Token] {
        &self.files[self.fns[id].0].1.lexed.tokens
    }

    /// `crate::module::Type::name` display form used in D004 chains.
    pub fn fn_qualified(&self, id: usize) -> String {
        let (fi, gi) = self.fns[id];
        let (path, parsed, cid) = &self.files[fi];
        let def = &parsed.fns[gi];
        let mut out = self.crates[*cid].clone();
        let stem = path
            .rsplit('/')
            .next()
            .and_then(|f| f.strip_suffix(".rs"))
            .unwrap_or("");
        if !matches!(stem, "lib" | "mod" | "main" | "") {
            out.push_str("::");
            out.push_str(stem);
        }
        if let Some(ty) = &def.impl_type {
            out.push_str("::");
            out.push_str(ty);
        }
        out.push_str("::");
        out.push_str(&def.name);
        out
    }
}

/// One call site recovered from a fn body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Call {
    /// `name(…)`
    Bare(String),
    /// `recv.name(…)`
    Method(String),
    /// `a::b::name(…)` — segments exclude the final name.
    Qualified(Vec<String>, String),
}

const KEYWORDS: &[&str] = &[
    "if", "while", "for", "loop", "match", "return", "fn", "let", "in", "move", "box", "as",
    "where", "impl", "dyn", "ref", "mut", "pub", "use", "mod", "else", "break", "continue",
];

/// Extract call sites from a token range (a fn body).
pub fn extract_calls(tokens: &[Token], range: (usize, usize)) -> Vec<Call> {
    let (start, end) = range;
    let mut out = Vec::new();
    let is_p = |i: usize, s: &str| {
        tokens
            .get(i)
            .is_some_and(|t| t.kind == TokenKind::Punct && t.text == s)
    };
    for j in start..end.min(tokens.len()) {
        let t = &tokens[j];
        if t.kind != TokenKind::Ident || !is_p(j + 1, "(") {
            continue;
        }
        if KEYWORDS.contains(&t.text.as_str()) {
            continue;
        }
        let name = t.text.clone();
        if j > start && is_p(j - 1, ".") {
            out.push(Call::Method(name));
            continue;
        }
        if j >= start + 2 && is_p(j - 1, ":") && is_p(j - 2, ":") {
            // Walk the path backwards: … seg :: seg :: name(
            let mut segs = Vec::new();
            let mut k = j - 2;
            while let Some(seg) = k.checked_sub(1).map(|p| &tokens[p]) {
                if seg.kind != TokenKind::Ident {
                    break;
                }
                segs.push(seg.text.clone());
                if k >= 3 && is_p(k - 2, ":") && is_p(k - 3, ":") {
                    k -= 3;
                } else {
                    break;
                }
            }
            segs.reverse();
            if segs.is_empty() {
                out.push(Call::Bare(name));
            } else {
                out.push(Call::Qualified(segs, name));
            }
            continue;
        }
        out.push(Call::Bare(name));
    }
    out
}

/// The workspace call graph: `edges[caller] = callees`, both global fn
/// ids, deduplicated and sorted for determinism.
pub struct CallGraph {
    pub edges: Vec<Vec<usize>>,
}

impl CallGraph {
    pub fn build(ws: &Workspace) -> CallGraph {
        // Name indices over the global fn table.
        let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_type_name: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for id in 0..ws.fns.len() {
            let def = ws.fn_def(id);
            match &def.impl_type {
                None => free_by_name.entry(&def.name).or_default().push(id),
                Some(ty) => {
                    methods_by_name.entry(&def.name).or_default().push(id);
                    by_type_name
                        .entry((ty.as_str(), def.name.as_str()))
                        .or_default()
                        .push(id);
                }
            }
        }
        let impl_types: BTreeSet<&str> = by_type_name.iter().map(|((ty, _), _)| *ty).collect();

        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); ws.fns.len()];
        for (caller, caller_edges) in edges.iter_mut().enumerate() {
            let def = ws.fn_def(caller);
            let Some(body) = def.body_inner() else {
                continue;
            };
            let tokens = ws.fn_tokens(caller);
            let caller_crate = ws.fn_crate(caller);
            let caller_file = ws.fns[caller].0;
            let in_closure =
                |id: usize| -> bool { ws.closure[caller_crate].contains(&ws.fn_crate(id)) };
            let mut callees: BTreeSet<usize> = BTreeSet::new();
            for call in extract_calls(tokens, body) {
                match call {
                    Call::Bare(name) => {
                        if let Some(cands) = free_by_name.get(name.as_str()) {
                            callees.extend(cands.iter().copied().filter(|&c| in_closure(c)));
                        }
                    }
                    Call::Method(name) => {
                        if let Some(cands) = methods_by_name.get(name.as_str()) {
                            callees.extend(cands.iter().copied().filter(|&c| in_closure(c)));
                        }
                    }
                    Call::Qualified(segs, name) => {
                        let parent = segs.last().map(String::as_str).unwrap_or("");
                        if parent == "Self" {
                            if let Some(self_ty) = &def.impl_type {
                                if let Some(cands) =
                                    by_type_name.get(&(self_ty.as_str(), name.as_str()))
                                {
                                    callees
                                        .extend(cands.iter().copied().filter(|&c| in_closure(c)));
                                }
                            }
                        } else if matches!(parent, "self" | "crate" | "super") {
                            if let Some(cands) = free_by_name.get(name.as_str()) {
                                callees.extend(
                                    cands
                                        .iter()
                                        .copied()
                                        .filter(|&c| ws.fn_crate(c) == caller_crate),
                                );
                            }
                        } else if impl_types.contains(parent) {
                            if let Some(cands) = by_type_name.get(&(parent, name.as_str())) {
                                callees.extend(cands.iter().copied().filter(|&c| in_closure(c)));
                            }
                        } else if let Some(target_crate) =
                            segs.first().and_then(|s| crate_segment(s, &ws.crates))
                        {
                            // `toto_x::path::name(…)`: pin the crate; the
                            // name may be free or associated.
                            for idx in [
                                free_by_name.get(name.as_str()),
                                methods_by_name.get(name.as_str()),
                            ]
                            .into_iter()
                            .flatten()
                            {
                                callees.extend(
                                    idx.iter()
                                        .copied()
                                        .filter(|&c| ws.fn_crate(c) == target_crate),
                                );
                            }
                        } else if let Some(cands) = free_by_name.get(name.as_str()) {
                            // Module-qualified local call: prefer files
                            // whose stem matches the qualifier.
                            let in_mod: Vec<usize> = cands
                                .iter()
                                .copied()
                                .filter(|&c| {
                                    in_closure(c)
                                        && ws
                                            .fn_file(c)
                                            .rsplit('/')
                                            .next()
                                            .and_then(|f| f.strip_suffix(".rs"))
                                            == Some(parent)
                                })
                                .collect();
                            if in_mod.is_empty() {
                                callees.extend(cands.iter().copied().filter(|&c| in_closure(c)));
                            } else {
                                callees.extend(in_mod);
                            }
                        }
                    }
                }
            }
            // A fn trivially "calls" itself only through recursion, which
            // adds nothing to reachability; drop self-edges for clarity.
            callees.remove(&caller);
            let _ = caller_file;
            *caller_edges = callees.into_iter().collect();
        }
        CallGraph { edges }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)], deps: &[(&str, &[&str])]) -> Workspace {
        let sources: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect();
        let deps: BTreeMap<String, Vec<String>> = deps
            .iter()
            .map(|(f, ts)| {
                (
                    f.to_string(),
                    ts.iter().map(|t| t.to_string()).collect::<Vec<_>>(),
                )
            })
            .collect();
        Workspace::build(&sources, &deps)
    }

    fn edge(ws: &Workspace, g: &CallGraph, from: &str, to: &str) -> bool {
        let find = |name: &str| {
            (0..ws.fns.len())
                .find(|&i| ws.fn_qualified(i) == name)
                .unwrap_or_else(|| panic!("no fn {name}"))
        };
        g.edges[find(from)].contains(&find(to))
    }

    #[test]
    fn extracts_call_forms() {
        let parsed = parse_file("fn f() { helper(); x.method(); a::b::qual(); Type::assoc(); }");
        let body = parsed.fns[0].body_inner().unwrap();
        let calls = extract_calls(&parsed.lexed.tokens, body);
        assert_eq!(
            calls,
            vec![
                Call::Bare("helper".into()),
                Call::Method("method".into()),
                Call::Qualified(vec!["a".into(), "b".into()], "qual".into()),
                Call::Qualified(vec!["Type".into()], "assoc".into()),
            ]
        );
    }

    #[test]
    fn macros_and_keywords_are_not_calls() {
        let parsed = parse_file("fn f() { assert!(x); if (a) {} vec![]; }");
        let body = parsed.fns[0].body_inner().unwrap();
        assert!(extract_calls(&parsed.lexed.tokens, body).is_empty());
    }

    #[test]
    fn cross_crate_edges_respect_dependency_closure() {
        let w = ws(
            &[
                ("crates/core/src/lib.rs", "pub fn run() { tick(); }"),
                ("crates/fleet/src/lib.rs", "pub fn tick() {}"),
                ("crates/other/src/lib.rs", "pub fn tick() {}"),
            ],
            &[("core", &["fleet"])],
        );
        let g = CallGraph::build(&w);
        assert!(edge(&w, &g, "core::run", "fleet::tick"));
        // `other` is not a dependency of `core`: no edge.
        assert!(!edge(&w, &g, "core::run", "other::tick"));
    }

    #[test]
    fn transitive_closure_spans_chains() {
        let w = ws(
            &[
                ("crates/a/src/lib.rs", "pub fn top() { mid(); }"),
                ("crates/b/src/lib.rs", "pub fn mid() { bot(); }"),
                ("crates/c/src/lib.rs", "pub fn bot() {}"),
            ],
            &[("a", &["b"]), ("b", &["c"])],
        );
        let g = CallGraph::build(&w);
        assert!(edge(&w, &g, "a::top", "b::mid"));
        assert!(edge(&w, &g, "b::mid", "c::bot"));
    }

    #[test]
    fn method_and_type_qualified_resolution() {
        let w = ws(
            &[(
                "crates/a/src/lib.rs",
                "pub struct S;\n\
                 impl S { pub fn m(&self) {} pub fn assoc() { Self::m_helper(); } \
                 fn m_helper(&self) {} }\n\
                 pub fn caller(s: &S) { s.m(); S::assoc(); }",
            )],
            &[],
        );
        let g = CallGraph::build(&w);
        assert!(edge(&w, &g, "a::caller", "a::S::m"));
        assert!(edge(&w, &g, "a::caller", "a::S::assoc"));
        assert!(edge(&w, &g, "a::S::assoc", "a::S::m_helper"));
    }

    #[test]
    fn crate_qualified_paths_pin_the_crate() {
        let w = ws(
            &[
                (
                    "crates/region/src/lib.rs",
                    "pub fn go() { toto_fleet::execute(); }",
                ),
                ("crates/fleet/src/lib.rs", "pub fn execute() {}"),
                ("crates/spec/src/lib.rs", "pub fn execute() {}"),
            ],
            &[("region", &["fleet", "spec"])],
        );
        let g = CallGraph::build(&w);
        assert!(edge(&w, &g, "region::go", "fleet::execute"));
        assert!(!edge(&w, &g, "region::go", "spec::execute"));
    }
}
