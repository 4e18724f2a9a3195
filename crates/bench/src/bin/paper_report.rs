//! `paper_report` — regenerate every paper artifact under `results/`.
//!
//! ```text
//! paper_report [--threads T]
//! ```
//!
//! Runs each distinct simulation job of the report once, on a pool of
//! `T` fleet workers (default: all available cores), then writes one
//! `results/<name>.txt` per entry of `toto_bench::report::ARTIFACTS`,
//! relative to the working directory. The files do not depend on `T`.
//!
//! A missing, non-integer or zero `--threads` value and an unknown flag
//! are typed usage errors: the message and usage line go to stderr and
//! the exit code is 2. A failed job or an unwritable file exits 1.

use std::path::Path;
use std::time::Instant;

use toto_bench::report::{Study, ARTIFACTS};
use toto_fleet::FleetExecutor;

const USAGE: &str = "usage: paper_report [--threads T]";

/// Why the command line was rejected. `main` prints it with the usage
/// line and exits with code 2.
#[derive(Debug, PartialEq, Eq)]
enum UsageError {
    /// `--help` was asked for; not an error, but nothing runs.
    Help,
    MissingValue(&'static str),
    /// `--threads` was not a positive integer.
    BadThreads(String),
    UnknownFlag(String),
}

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UsageError::Help => write!(f, "{USAGE}"),
            UsageError::MissingValue(flag) => write!(f, "{flag} requires a value\n{USAGE}"),
            UsageError::BadThreads(value) => write!(
                f,
                "--threads takes a positive integer, not {value:?}\n{USAGE}"
            ),
            UsageError::UnknownFlag(flag) => write!(f, "unknown flag {flag:?}\n{USAGE}"),
        }
    }
}

/// Parse the arguments after the program name into the worker count.
fn parse_args<I: IntoIterator<Item = String>>(argv: I) -> Result<usize, UsageError> {
    let mut threads = std::thread::available_parallelism().map_or(4, usize::from);
    let mut argv = argv.into_iter();
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--threads" => {
                let value = argv.next().ok_or(UsageError::MissingValue("--threads"))?;
                threads = match value.parse() {
                    Ok(t) if t > 0 => t,
                    _ => return Err(UsageError::BadThreads(value)),
                };
            }
            "--help" | "-h" => return Err(UsageError::Help),
            _ => return Err(UsageError::UnknownFlag(flag)),
        }
    }
    Ok(threads)
}

fn main() {
    let threads = match parse_args(std::env::args().skip(1)) {
        Ok(threads) => threads,
        Err(UsageError::Help) => {
            eprintln!("{USAGE}");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("paper_report: {e}");
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let study = match Study::run(FleetExecutor::new(threads)) {
        Ok(study) => study,
        Err(e) => {
            eprintln!("paper_report: {e}");
            std::process::exit(1);
        }
    };
    let dir = Path::new("results");
    for (name, render) in ARTIFACTS {
        let mut text = String::new();
        render(&study, &mut text).expect("formatting into a String cannot fail");
        let path = dir.join(format!("{name}.txt"));
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("paper_report: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    eprintln!(
        "paper_report: wrote {} artifacts to {}/ in {:.1}s on {} threads",
        ARTIFACTS.len(),
        dir.display(),
        started.elapsed().as_secs_f64(),
        threads
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(list: &[&str]) -> Result<usize, UsageError> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn threads_parse() {
        assert_eq!(parse(&["--threads", "3"]), Ok(3));
        assert!(parse(&[]).unwrap() >= 1);
    }

    #[test]
    fn a_missing_threads_value_is_a_usage_error() {
        assert_eq!(
            parse(&["--threads"]),
            Err(UsageError::MissingValue("--threads"))
        );
    }

    #[test]
    fn a_non_integer_or_zero_thread_count_is_a_usage_error() {
        for bad in ["four", "-1", "2.5", "0"] {
            let err = parse(&["--threads", bad]).unwrap_err();
            assert_eq!(err, UsageError::BadThreads(bad.to_string()));
            assert!(err.to_string().contains("usage: paper_report"));
        }
    }

    #[test]
    fn an_unknown_flag_is_a_usage_error() {
        let err = parse(&["--hours", "6"]).unwrap_err();
        assert_eq!(err, UsageError::UnknownFlag("--hours".to_string()));
        assert!(err.to_string().contains("usage: paper_report"));
    }

    #[test]
    fn help_is_not_a_run() {
        assert_eq!(parse(&["--help"]), Err(UsageError::Help));
        assert_eq!(parse(&["--threads", "2", "-h"]), Err(UsageError::Help));
    }
}
