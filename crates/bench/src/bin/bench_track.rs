//! `bench_track` — run the pinned benchmark suite, append the
//! commit-stamped record to `results/benchdata.json`, and (with
//! `--gate`) fail on regressions against the trailing median.
//!
//! ```text
//! bench_track [--gate] [--dry-run] [--out DIR] [--commit HASH] [--date YYYY-MM-DD]
//! ```
//!
//! * default: run the suite, print the typed per-metric verdict table,
//!   append the record.
//! * `--gate`: additionally exit 1 when any suite metric is worse than
//!   the trailing median of its last 5 recorded samples by strictly
//!   more than 10% (the record is appended either way — a regression
//!   should be *visible* in the history, not erased by the gate).
//! * `--dry-run`: never write; measure and judge only.
//! * `--out DIR`: store root (default `results`).
//! * `--commit HASH`: override the commit stamp (default: `git
//!   rev-parse --short HEAD`, falling back to `unknown`).
//! * `--date YYYY-MM-DD`: also write the new record alone to
//!   `DIR/BENCH_<date>.json`, the per-run snapshot CI uploads.
//!
//! A missing flag value or an unknown flag is a typed usage error: the
//! message and usage line go to stderr and the exit code is 2.
//!
//! Replaces `scripts/plb_bench_gate.sh`: the shell gate compared six
//! criterion point estimates against a committed baseline file with a
//! blunt 5× factor; this gate compares median-of-K samples of ten
//! metrics — including end-to-end sim-events/sec and fleet wall-clock —
//! against a rolling median with a 10% threshold, and its verdict logic
//! is unit-tested (`crates/bench/tests/gate.rs`).

use toto_bench::track::{any_regression, gate_record, render_verdicts, run_suite};
use toto_fleet::{current_commit, BenchRecord, RunStore};

const USAGE: &str =
    "usage: bench_track [--gate] [--dry-run] [--out DIR] [--commit HASH] [--date YYYY-MM-DD]";

#[derive(Debug, PartialEq, Eq)]
struct Args {
    gate: bool,
    dry_run: bool,
    out: String,
    commit: Option<String>,
    date: Option<String>,
}

/// Why the command line was rejected. `main` prints it with the usage
/// line and exits with code 2.
#[derive(Debug, PartialEq, Eq)]
enum UsageError {
    /// `--help` was asked for; not an error, but nothing runs.
    Help,
    MissingValue(&'static str),
    UnknownFlag(String),
}

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UsageError::Help => write!(f, "{USAGE}"),
            UsageError::MissingValue(flag) => write!(f, "{flag} requires a value\n{USAGE}"),
            UsageError::UnknownFlag(flag) => write!(f, "unknown flag {flag:?}\n{USAGE}"),
        }
    }
}

/// Parse the arguments after the program name.
fn parse_args<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, UsageError> {
    let mut args = Args {
        gate: false,
        dry_run: false,
        out: "results".to_string(),
        commit: None,
        date: None,
    };
    let mut argv = argv.into_iter();
    while let Some(flag) = argv.next() {
        let mut value = |name: &'static str| argv.next().ok_or(UsageError::MissingValue(name));
        match flag.as_str() {
            "--gate" => args.gate = true,
            "--dry-run" => args.dry_run = true,
            "--out" => args.out = value("--out")?,
            "--commit" => args.commit = Some(value("--commit")?),
            "--date" => args.date = Some(value("--date")?),
            "--help" | "-h" => return Err(UsageError::Help),
            _ => return Err(UsageError::UnknownFlag(flag)),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(UsageError::Help) => {
            eprintln!("{USAGE}");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("bench_track: {e}");
            std::process::exit(2);
        }
    };
    let store = RunStore::new(&args.out);
    let prior = match store.load_bench_records() {
        Ok(records) => records,
        Err(e) => {
            eprintln!("bench_track: cannot read benchmark history: {e}");
            std::process::exit(1);
        }
    };

    let mut progress = |name: &str| eprintln!("bench_track: measuring {name} ...");
    let entries = run_suite(&mut progress);
    let commit = args.commit.clone().unwrap_or_else(current_commit);
    let record = BenchRecord::new(commit, entries);

    let verdicts = match gate_record(&prior, &record) {
        Ok(verdicts) => verdicts,
        Err(e) => {
            eprintln!("bench_track: gate error: {e}");
            std::process::exit(1);
        }
    };
    print!("{}", render_verdicts(&verdicts));

    if !args.dry_run {
        let path = store
            .append_bench_record(&record)
            .expect("append benchdata.json");
        println!(
            "recorded {} entries at commit {} -> {}",
            record.entries.len(),
            record.commit,
            path.display()
        );
        if let Some(date) = &args.date {
            let snapshot = std::path::Path::new(&args.out).join(format!("BENCH_{date}.json"));
            std::fs::write(&snapshot, record.to_json().render()).expect("write BENCH snapshot");
            println!("snapshot -> {}", snapshot.display());
        }
    }

    if args.gate && any_regression(&verdicts) {
        eprintln!(
            "bench_track: GATE FAILED: at least one metric regressed >10% \
             vs its trailing median (see table above)"
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(list: &[&str]) -> Result<Args, UsageError> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn flags_parse_into_args() {
        let args = parse(&["--gate", "--out", "dir", "--commit", "abc"]).unwrap();
        assert!(args.gate && !args.dry_run);
        assert_eq!(args.out, "dir");
        assert_eq!(args.commit.as_deref(), Some("abc"));
        assert_eq!(args.date, None);
    }

    #[test]
    fn a_flag_without_its_value_is_a_usage_error() {
        assert_eq!(
            parse(&["--dry-run", "--out"]),
            Err(UsageError::MissingValue("--out"))
        );
        assert_eq!(parse(&["--date"]), Err(UsageError::MissingValue("--date")));
    }

    #[test]
    fn an_unknown_flag_is_a_usage_error() {
        let err = parse(&["--gate", "--frobnicate"]).unwrap_err();
        assert_eq!(err, UsageError::UnknownFlag("--frobnicate".to_string()));
        assert!(err.to_string().contains("usage: bench_track"));
    }

    #[test]
    fn help_is_not_a_run() {
        assert_eq!(parse(&["-h"]), Err(UsageError::Help));
    }
}
