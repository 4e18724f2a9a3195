//! Linter configuration, loaded from `lint.toml` at the workspace root.
//!
//! The file is read by the workspace's shared TOML-subset parser
//! ([`toto_fleet::toml`]); this module is the typed walk over its
//! [`RawDoc`]. The config uses `[section]` headers, `[[allow]]`
//! array-of-tables entries, `key = "string"` and `key = ["a", "b"]`
//! assignments, and `#` comments. Anything else — unknown sections,
//! keys or rules, non-string values — is a hard configuration error: a
//! linter that silently ignores half its config is worse than no linter.

use std::collections::BTreeMap;
use toto_fleet::toml::{Entry, RawDoc, Table, Value};

/// Diagnostic severity / rule level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Rule disabled.
    Off,
    /// Report, but do not fail the run.
    Warn,
    /// Report and fail the run (exit code 1).
    Error,
}

impl Level {
    fn parse(s: &str) -> Option<Level> {
        match s {
            "off" => Some(Level::Off),
            "warn" => Some(Level::Warn),
            "error" => Some(Level::Error),
            _ => None,
        }
    }

    /// Lower-case name, as used in output.
    pub fn name(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

/// A vetted file-level exemption: all diagnostics of `rule` in `path`
/// are dropped. Every entry must carry a one-line justification.
#[derive(Clone, Debug)]
pub struct AllowEntry {
    /// The rule being exempted.
    pub rule: String,
    /// Path prefix (workspace-relative, forward slashes).
    pub path: String,
    /// Why the exemption is sound.
    pub reason: String,
}

/// The full linter configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Crate-path prefixes forming the deterministic simulation path
    /// (D001 and R001 apply here).
    pub sim_path: Vec<String>,
    /// Per-rule levels; rules absent from the map use their default.
    pub levels: BTreeMap<String, Level>,
    /// Paths where wall-clock use is legitimate (D002 does not apply):
    /// the fleet executor's progress reporting and bench harnesses.
    pub d002_allowed_paths: Vec<String>,
    /// Files whose `pub fn … &mut <state>` functions must carry a
    /// `debug_assert!`-based invariant check (R002).
    pub r002_paths: Vec<String>,
    /// Type names treated as mutable cluster state by R002.
    pub r002_mut_state_types: Vec<String>,
    /// Path prefixes excluded from the workspace scan entirely (the
    /// linter's own rule fixtures live here).
    pub exclude: Vec<String>,
    /// Vetted file-level exemptions.
    pub allow: Vec<AllowEntry>,
}

/// The rules this linter knows about, in report order. `D004`–`D006`
/// and `T001` are the flow-aware/parse-layer family; `L001`/`L002`
/// police the suppression mechanism itself.
pub const KNOWN_RULES: &[&str] = &[
    "D001", "D002", "D003", "D004", "D005", "D006", "R001", "R002", "T001", "L001", "L002",
];

impl Default for Config {
    fn default() -> Self {
        let mut levels = BTreeMap::new();
        for rule in [
            "D001", "D002", "D003", "D004", "D005", "D006", "R001", "R002", "T001", "L001",
        ] {
            levels.insert(rule.to_string(), Level::Error);
        }
        levels.insert("L002".to_string(), Level::Warn);
        Config {
            sim_path: [
                "crates/simcore",
                "crates/fabric",
                "crates/rgmanager",
                "crates/models",
                "crates/controlplane",
                "crates/core",
                "crates/stats",
                "crates/trace",
                "crates/chaos",
                "crates/region",
                "crates/scenario",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            levels,
            d002_allowed_paths: vec![
                "crates/fleet/src/executor.rs".to_string(),
                "crates/bench".to_string(),
                "crates/fleet/benches".to_string(),
                // The linter's own `--timing` flag measures wall time.
                "crates/lint/src/main.rs".to_string(),
            ],
            r002_paths: vec![
                "crates/fabric/src/plb.rs".to_string(),
                "crates/rgmanager/src".to_string(),
                "crates/controlplane/src/ring.rs".to_string(),
                "crates/scenario/src/oracle.rs".to_string(),
            ],
            r002_mut_state_types: vec![
                "Cluster".to_string(),
                "NamingService".to_string(),
                "RingSet".to_string(),
                "KsOracle".to_string(),
            ],
            exclude: vec!["crates/lint/tests/fixtures".to_string()],
            allow: Vec::new(),
        }
    }
}

impl Config {
    /// The effective level for a rule (default `Off` for unknown ids —
    /// unknown ids are rejected earlier, at parse time).
    pub fn level(&self, rule: &str) -> Level {
        self.levels.get(rule).copied().unwrap_or(Level::Off)
    }

    /// Parse a `lint.toml` document. Unknown sections, keys, rules or
    /// value shapes are errors. Sections configured by the file replace
    /// the built-in defaults rather than appending to them.
    pub fn from_toml_str(text: &str) -> Result<Config, String> {
        let doc = RawDoc::parse(text).map_err(|e| e.to_string())?;
        let mut config = Config::default();
        for (section, (header_line, table)) in &doc.sections {
            if !matches!(
                section.as_str(),
                "scan" | "classes" | "levels" | "rules.D002" | "rules.R002"
            ) {
                return Err(format!("line {header_line}: unknown section [{section}]"));
            }
            for (key, entry) in table {
                let lineno = entry.line;
                match (section.as_str(), key.as_str()) {
                    ("scan", "exclude") => config.exclude = strings(entry, key)?,
                    ("classes", "sim_path") => config.sim_path = strings(entry, key)?,
                    ("levels", rule) => {
                        if !KNOWN_RULES.contains(&rule) {
                            return Err(format!(
                                "line {lineno}: L001: unknown rule `{rule}` in [levels]; \
                                 known rules: {}",
                                KNOWN_RULES.join(", ")
                            ));
                        }
                        let level = Level::parse(&string(entry, key)?).ok_or_else(|| {
                            format!("line {lineno}: level for {rule} must be off|warn|error")
                        })?;
                        config.levels.insert(rule.to_string(), level);
                    }
                    ("rules.D002", "allowed_paths") => {
                        config.d002_allowed_paths = strings(entry, key)?
                    }
                    ("rules.R002", "paths") => config.r002_paths = strings(entry, key)?,
                    ("rules.R002", "mut_state_types") => {
                        config.r002_mut_state_types = strings(entry, key)?
                    }
                    _ => {
                        return Err(format!(
                            "line {lineno}: unknown key `{key}` in section [{section}]"
                        ));
                    }
                }
            }
        }
        for (name, entries) in &doc.tables {
            if name != "allow" {
                let lineno = entries.first().map_or(0, |(line, _)| *line);
                return Err(format!("line {lineno}: unknown array table [[{name}]]"));
            }
            for entry in entries {
                config.allow.push(allow_entry(entry)?);
            }
        }
        Ok(config)
    }
}

/// One validated `[[allow]]` entry.
fn allow_entry((header_line, table): &(usize, Table)) -> Result<AllowEntry, String> {
    if let Some((key, entry)) = table
        .iter()
        .find(|(k, _)| !matches!(k.as_str(), "rule" | "path" | "reason"))
    {
        return Err(format!(
            "line {}: unknown key `{key}` in section [allow]",
            entry.line
        ));
    }
    let get = |k: &str| match table.get(k) {
        Some(entry) => string(entry, k),
        None => Err(format!(
            "line {header_line}: [[allow]] entry is missing `{k}`"
        )),
    };
    let entry = AllowEntry {
        rule: get("rule")?,
        path: get("path")?,
        reason: get("reason")?,
    };
    if !KNOWN_RULES.contains(&entry.rule.as_str()) {
        return Err(format!(
            "L001: [[allow]] names unknown rule {:?}; known rules: {}",
            entry.rule,
            KNOWN_RULES.join(", ")
        ));
    }
    if entry.reason.trim().is_empty() {
        return Err(format!(
            "[[allow]] for {} in {} has an empty reason; every exemption \
             must be justified",
            entry.rule, entry.path
        ));
    }
    Ok(entry)
}

fn string(entry: &Entry, key: &str) -> Result<String, String> {
    match &entry.value {
        Value::Str(s) => Ok(s.clone()),
        _ => Err(format!("line {}: `{key}` must be a string", entry.line)),
    }
}

fn strings(entry: &Entry, key: &str) -> Result<Vec<String>, String> {
    let not_strings = || format!("line {}: `{key}` must be an array of strings", entry.line);
    match &entry.value {
        Value::Arr(items) => items
            .iter()
            .map(|item| match item {
                Value::Str(s) => Ok(s.clone()),
                _ => Err(not_strings()),
            })
            .collect(),
        _ => Err(not_strings()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_cover_all_rules() {
        let c = Config::default();
        for rule in KNOWN_RULES {
            assert_ne!(c.level(rule), Level::Off, "{rule} should be on by default");
        }
        assert_eq!(c.level("L002"), Level::Warn);
    }

    #[test]
    fn parses_multi_line_arrays() {
        let c = Config::from_toml_str(
            "[classes]\nsim_path = [\n    \"crates/a\", # trailing comment\n    \"crates/b\",\n]\n",
        )
        .expect("multi-line array parses");
        assert_eq!(c.sim_path, vec!["crates/a", "crates/b"]);
    }

    #[test]
    fn parses_a_full_document() {
        let c = Config::from_toml_str(
            r#"
# comment
[scan]
exclude = ["a/b", "c"]

[classes]
sim_path = ["crates/x"]

[levels]
D001 = "error"
R001 = "warn"
D003 = "off"

[rules.D002]
allowed_paths = ["crates/y/src/clock.rs"]

[rules.R002]
paths = ["crates/x/src/state.rs"]
mut_state_types = ["World"]

[[allow]]
rule = "R001"
path = "crates/x/src/hot.rs"
reason = "expects guard internal invariants"

[[allow]]
rule = "D001" # trailing comment
path = "crates/x/src/wrap.rs"
reason = "defines the deterministic wrapper itself"
"#,
        )
        .expect("parses");
        assert_eq!(c.exclude, vec!["a/b", "c"]);
        assert_eq!(c.sim_path, vec!["crates/x"]);
        assert_eq!(c.level("R001"), Level::Warn);
        assert_eq!(c.level("D003"), Level::Off);
        assert_eq!(c.level("D002"), Level::Error); // default retained
        assert_eq!(c.d002_allowed_paths, vec!["crates/y/src/clock.rs"]);
        assert_eq!(c.r002_mut_state_types, vec!["World"]);
        assert_eq!(c.allow.len(), 2);
        assert_eq!(c.allow[1].rule, "D001");
    }

    #[test]
    fn unknown_rule_in_levels_is_rejected() {
        let err = Config::from_toml_str("[levels]\nD9 = \"error\"\n").unwrap_err();
        assert!(err.contains("unknown rule"), "{err}");
        assert!(err.contains("L001"), "{err}");
    }

    #[test]
    fn misspelled_rule_in_levels_is_a_hard_l001_error() {
        // `D0O4` (letter O) for `D004` — the typo class that would
        // silently leave the real rule at its default.
        let err = Config::from_toml_str("[levels]\nD0O4 = \"error\"\n").unwrap_err();
        assert!(err.contains("L001"), "{err}");
        assert!(err.contains("D0O4"), "{err}");
        assert!(err.contains("D004"), "should list known rules: {err}");
    }

    #[test]
    fn misspelled_rule_in_allow_is_a_hard_l001_error() {
        let err = Config::from_toml_str(
            "[[allow]]\nrule = \"T01\"\npath = \"crates/x\"\nreason = \"typo\"\n",
        )
        .unwrap_err();
        assert!(err.contains("L001"), "{err}");
        assert!(err.contains("T01"), "{err}");
    }

    #[test]
    fn unknown_section_is_rejected() {
        let err = Config::from_toml_str("[mystery]\nx = \"1\"\n").unwrap_err();
        assert!(err.contains("unknown section"), "{err}");
    }

    #[test]
    fn allow_without_reason_is_rejected() {
        let err =
            Config::from_toml_str("[[allow]]\nrule = \"R001\"\npath = \"x\"\nreason = \" \"\n")
                .unwrap_err();
        assert!(err.contains("justified"), "{err}");
    }

    #[test]
    fn allow_missing_key_is_rejected() {
        let err = Config::from_toml_str("[[allow]]\nrule = \"R001\"\n").unwrap_err();
        assert!(err.contains("missing"), "{err}");
    }

    #[test]
    fn allow_unknown_rule_is_rejected() {
        let err = Config::from_toml_str(
            "[[allow]]\nrule = \"Z001\"\npath = \"x\"\nreason = \"because\"\n",
        )
        .unwrap_err();
        assert!(err.contains("unknown rule"), "{err}");
    }
}
