//! The workspace's one TOML-subset parser.
//!
//! The build environment has no TOML crate, so this module parses
//! exactly the subset the workspace's config files use and rejects
//! everything else loudly: `[section]` headers (dotted names allowed),
//! `[[array-of-tables]]` headers, `key = value` assignments where a
//! value is a quoted string, a number, `true`/`false`, or a flat array
//! of those, and `#` comments. The grammar is *generic* at this layer:
//! any section or key parses, and each consumer's typed layer (the
//! scenario DSL's `ScenarioDoc`, the linter's `lint.toml` config)
//! rejects names it does not know — keeping "is this well-formed?"
//! separate from "is this a scenario / a lint config?".

use std::collections::BTreeMap;
use std::fmt;

/// A syntax error: the input is not in the supported TOML subset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TomlError {
    /// 1-based line of the offending construct.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for TomlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TomlError {}

/// A parsed scalar or flat array.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `"quoted"`.
    Str(String),
    /// Integer or float literal (all numbers parse as `f64`; the typed
    /// layer re-checks integrality where it matters).
    Num(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `[v, v, …]` of scalars (arrays never nest).
    Arr(Vec<Value>),
}

/// A value plus the line it was assigned on (for error messages).
#[derive(Clone, Debug, PartialEq)]
pub struct Entry {
    /// 1-based source line of the assignment.
    pub line: usize,
    /// The parsed value.
    pub value: Value,
}

/// One table: ordered `key -> entry`.
pub type Table = BTreeMap<String, Entry>;

/// A whole parsed document.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RawDoc {
    /// `[section]` tables, by (possibly dotted) section name, with the
    /// header's line number.
    pub sections: BTreeMap<String, (usize, Table)>,
    /// `[[name]]` array-of-tables entries, in file order per name, each
    /// with its header line.
    pub tables: BTreeMap<String, Vec<(usize, Table)>>,
}

impl RawDoc {
    /// Parse a document. Syntax errors are typed with their line.
    pub fn parse(text: &str) -> Result<RawDoc, TomlError> {
        let mut doc = RawDoc::default();
        // Where the next `key = value` lands: the root table (before any
        // header), a named section, or the latest [[array]] entry.
        enum Target {
            Root,
            Section(String),
            ArrayEntry(String),
        }
        let mut target = Target::Root;
        for (lineno, line) in logical_lines(text) {
            let line = line.as_str();
            if let Some(header) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
                let name = parse_section_name(header, lineno)?;
                doc.tables
                    .entry(name.clone())
                    .or_default()
                    .push((lineno, Table::new()));
                target = Target::ArrayEntry(name);
                continue;
            }
            if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                let name = parse_section_name(header, lineno)?;
                if doc.sections.contains_key(&name) {
                    return Err(TomlError {
                        line: lineno,
                        message: format!("duplicate section [{name}]"),
                    });
                }
                doc.sections.insert(name.clone(), (lineno, Table::new()));
                target = Target::Section(name);
                continue;
            }
            let (key, raw_value) = line.split_once('=').ok_or_else(|| TomlError {
                line: lineno,
                message: "expected `key = value`, `[section]` or `[[table]]`".to_string(),
            })?;
            let key = key.trim();
            if key.is_empty() || !key.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_') {
                return Err(TomlError {
                    line: lineno,
                    message: format!("malformed key {key:?}"),
                });
            }
            let value = parse_value(raw_value.trim()).ok_or_else(|| TomlError {
                line: lineno,
                message: format!("malformed value for `{key}`"),
            })?;
            let table = match &target {
                Target::Root => {
                    return Err(TomlError {
                        line: lineno,
                        message: format!("key `{key}` appears before any [section] header"),
                    });
                }
                Target::Section(name) => match doc.sections.get_mut(name) {
                    Some((_, t)) => t,
                    None => {
                        return Err(TomlError {
                            line: lineno,
                            message: "internal: key targets a missing section".to_string(),
                        })
                    }
                },
                Target::ArrayEntry(name) => {
                    let entries = doc
                        .tables
                        .get_mut(name)
                        .and_then(|v| v.last_mut())
                        .map(|(_, t)| t);
                    match entries {
                        Some(t) => t,
                        None => {
                            return Err(TomlError {
                                line: lineno,
                                message: "internal: array entry without table".to_string(),
                            })
                        }
                    }
                }
            };
            if table.contains_key(key) {
                return Err(TomlError {
                    line: lineno,
                    message: format!("duplicate key `{key}`"),
                });
            }
            table.insert(
                key.to_string(),
                Entry {
                    line: lineno,
                    value,
                },
            );
        }
        Ok(doc)
    }
}

fn parse_section_name(header: &str, lineno: usize) -> Result<String, TomlError> {
    let name = header.trim();
    let ok = !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.')
        && !name.starts_with('.')
        && !name.ends_with('.');
    if !ok {
        return Err(TomlError {
            line: lineno,
            message: format!("malformed section name {name:?}"),
        });
    }
    Ok(name.to_string())
}

/// Net `[`-minus-`]` count outside quoted strings, for multi-line arrays.
fn bracket_balance(line: &str) -> i32 {
    let mut in_str = false;
    let mut balance = 0;
    for b in line.bytes() {
        match b {
            b'"' => in_str = !in_str,
            b'[' if !in_str => balance += 1,
            b']' if !in_str => balance -= 1,
            _ => {}
        }
    }
    balance
}

/// Fold the document into logical `(lineno, text)` lines: comments
/// stripped, blanks dropped, and a `key = [` array spliced together with
/// its continuation lines until the brackets balance. Section headers
/// are bracketed too, so the fold only engages when a `=` is present.
fn logical_lines(text: &str) -> Vec<(usize, String)> {
    let mut out: Vec<(usize, String)> = Vec::new();
    let mut open = 0i32;
    for (idx, raw_line) in text.lines().enumerate() {
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        if open > 0 {
            if let Some((_, buf)) = out.last_mut() {
                buf.push(' ');
                buf.push_str(line);
            }
            open += bracket_balance(line);
            continue;
        }
        out.push((idx + 1, line.to_string()));
        if line.contains('=') {
            open = bracket_balance(line).max(0);
        }
    }
    out
}

/// Strip a trailing `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, b) in line.bytes().enumerate() {
        match b {
            b'"' => in_str = !in_str,
            b'#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_value(text: &str) -> Option<Value> {
    if let Some(inner) = text.strip_prefix('[').and_then(|t| t.strip_suffix(']')) {
        let inner = inner.trim();
        if inner.is_empty() {
            return Some(Value::Arr(Vec::new()));
        }
        let mut items = Vec::new();
        for item in inner.split(',') {
            let item = item.trim();
            if item.is_empty() {
                continue; // trailing comma
            }
            match parse_scalar(item)? {
                Value::Arr(_) => return None, // arrays never nest
                scalar => items.push(scalar),
            }
        }
        return Some(Value::Arr(items));
    }
    parse_scalar(text)
}

fn parse_scalar(text: &str) -> Option<Value> {
    if let Some(stripped) = text.strip_prefix('"').and_then(|t| t.strip_suffix('"')) {
        if stripped.contains('"') {
            return None;
        }
        return Some(Value::Str(stripped.to_string()));
    }
    match text {
        "true" => return Some(Value::Bool(true)),
        "false" => return Some(Value::Bool(false)),
        _ => {}
    }
    let numeric = text
        .bytes()
        .all(|b| b.is_ascii_digit() || matches!(b, b'.' | b'-' | b'+' | b'e' | b'E' | b'_'));
    if !numeric || text.is_empty() {
        return None;
    }
    text.replace('_', "").parse::<f64>().ok().map(Value::Num)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_tables_and_scalars() {
        let doc = RawDoc::parse(
            r#"
# a scenario
[scenario]
name = "density-sweep"   # trailing comment
seed = 42
hours = 144.0
trace = false

[schedule]
densities = [
    100, 110,
    120, 140,
]

[[workload.cohort]]
name = "dev"
weight = 3.0

[[workload.cohort]]
name = "enterprise"
weight = 1.0
"#,
        )
        .expect("parses");
        let (_, scenario) = &doc.sections["scenario"];
        assert_eq!(scenario["name"].value, Value::Str("density-sweep".into()));
        assert_eq!(scenario["seed"].value, Value::Num(42.0));
        assert_eq!(scenario["trace"].value, Value::Bool(false));
        let (_, schedule) = &doc.sections["schedule"];
        assert_eq!(
            schedule["densities"].value,
            Value::Arr(vec![
                Value::Num(100.0),
                Value::Num(110.0),
                Value::Num(120.0),
                Value::Num(140.0)
            ])
        );
        assert_eq!(doc.tables["workload.cohort"].len(), 2);
        assert_eq!(
            doc.tables["workload.cohort"][1].1["name"].value,
            Value::Str("enterprise".into())
        );
    }

    #[test]
    fn malformed_value_is_a_typed_parse_error_with_line() {
        let err = RawDoc::parse("[scenario]\nseed = @nope\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("seed"), "{}", err.message);
    }

    #[test]
    fn duplicate_keys_and_sections_are_rejected() {
        let err = RawDoc::parse("[a]\nx = 1\nx = 2\n").unwrap_err();
        assert_eq!(err.line, 3, "{err:?}");
        let err = RawDoc::parse("[a]\n[a]\n").unwrap_err();
        assert_eq!(err.line, 2, "{err:?}");
    }

    #[test]
    fn keys_before_any_section_are_rejected() {
        let err = RawDoc::parse("x = 1\n").unwrap_err();
        assert_eq!(err.line, 1, "{err:?}");
    }

    #[test]
    fn nested_arrays_are_rejected() {
        let err = RawDoc::parse("[a]\nx = [[1], [2]]\n").unwrap_err();
        assert_eq!(err.line, 2, "{err:?}");
    }
}
