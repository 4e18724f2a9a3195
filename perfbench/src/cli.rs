//! Command-line arguments.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Every malformed input is a typed [`UsageError`]; `main` prints it and
//! exits with code 2. Nothing here panics.

use crate::workloads::Workload;
use std::fmt;

/// The seed whose outputs are pinned: committed run records for
/// `paper_sweep`, digests under `perfbench/reference/` for the others.
pub const PINNED_SEED: u64 = 42;

/// Default measuring budget, seconds.
pub const DEFAULT_SECONDS: u64 = 35;

/// Validated arguments.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// Why the arguments were rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UsageError {
    /// `--help` was asked for; not an error, but no run happens.
    Help,
    UnknownFlag(String),
    MissingValue(&'static str),
    BadValue {
        flag: &'static str,
        value: String,
    },
    MissingWorkload,
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UsageError::Help => write!(f, "{}", usage()),
            UsageError::UnknownFlag(flag) => write!(f, "unknown flag {flag:?}\n{}", usage()),
            UsageError::MissingValue(flag) => write!(f, "{flag} needs a value\n{}", usage()),
            UsageError::BadValue { flag, value } => {
                write!(f, "bad value {value:?} for {flag}\n{}", usage())
            }
            UsageError::MissingWorkload => write!(f, "--workload is required\n{}", usage()),
        }
    }
}

pub fn usage() -> String {
    format!(
        "usage: perfbench --workload {} [--seed N] [--seconds S] [--trace 0|1]\n\
         defaults: --seed {PINNED_SEED} --seconds {DEFAULT_SECONDS} --trace 0",
        Workload::ALL.map(Workload::name).join("|")
    )
}

/// Parse the arguments after the program name.
pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, UsageError> {
    let mut workload = None;
    let mut seed = PINNED_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut argv = argv.into_iter();
    while let Some(flag) = argv.next() {
        let mut value = |name: &'static str| argv.next().ok_or(UsageError::MissingValue(name));
        match flag.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                workload = Some(Workload::from_name(&v).ok_or(UsageError::BadValue {
                    flag: "--workload",
                    value: v,
                })?);
            }
            "--seed" => seed = number("--seed", value("--seed")?)?,
            "--seconds" => {
                seconds = number("--seconds", value("--seconds")?)?;
                if seconds == 0 {
                    return Err(UsageError::BadValue {
                        flag: "--seconds",
                        value: "0".to_string(),
                    });
                }
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => {
                        return Err(UsageError::BadValue {
                            flag: "--trace",
                            value: other.to_string(),
                        })
                    }
                }
            }
            "--help" | "-h" => return Err(UsageError::Help),
            _ => return Err(UsageError::UnknownFlag(flag)),
        }
    }
    Ok(Args {
        workload: workload.ok_or(UsageError::MissingWorkload)?,
        seed,
        seconds,
        trace,
    })
}

fn number(flag: &'static str, value: String) -> Result<u64, UsageError> {
    value
        .parse()
        .map_err(|_| UsageError::BadValue { flag, value })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, UsageError> {
        parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn full_argument_set_parses() {
        let a = args(&[
            "--workload",
            "storm_traced",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            a,
            Args {
                workload: Workload::StormTraced,
                seed: 7,
                seconds: 12,
                trace: true,
            }
        );
    }

    #[test]
    fn defaults_apply_to_omitted_flags() {
        let a = args(&["--workload", "paper_sweep"]).expect("valid");
        assert_eq!(a.seed, PINNED_SEED);
        assert_eq!(a.seconds, DEFAULT_SECONDS);
        assert!(!a.trace);
    }

    #[test]
    fn every_workload_name_round_trips() {
        for w in Workload::ALL {
            assert_eq!(args(&["--workload", w.name()]).expect("valid").workload, w);
        }
    }

    #[test]
    fn malformed_input_is_a_typed_error() {
        assert_eq!(args(&[]), Err(UsageError::MissingWorkload));
        assert_eq!(
            args(&["--workload", "paper_sweep", "--frobnicate"]),
            Err(UsageError::UnknownFlag("--frobnicate".to_string()))
        );
        assert_eq!(
            args(&["--workload"]),
            Err(UsageError::MissingValue("--workload"))
        );
        assert_eq!(
            args(&["--workload", "nope"]),
            Err(UsageError::BadValue {
                flag: "--workload",
                value: "nope".to_string()
            })
        );
        for (flag, bad) in [
            ("--seed", "-1"),
            ("--seed", "x"),
            ("--seconds", "0"),
            ("--seconds", "1.5"),
            ("--trace", "2"),
            ("--trace", "yes"),
        ] {
            let err = args(&["--workload", "paper_sweep", flag, bad]).expect_err(bad);
            assert!(
                matches!(err, UsageError::BadValue { flag: f, .. } if f == flag),
                "{flag} {bad} gave {err:?}"
            );
        }
        assert_eq!(args(&["--help"]), Err(UsageError::Help));
    }
}
