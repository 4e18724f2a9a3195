//! The host fingerprint every result carries, and peak memory.
//!
//! Numbers are comparable only between runs with the same fingerprint:
//! CPU model, logical cores, compiler and build profile.

use std::fs;

pub struct Host {
    pub cpu_model: String,
    pub logical_cores: usize,
    pub rustc: &'static str,
    pub profile: &'static str,
}

impl Host {
    pub fn detect() -> Host {
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            cpu_model,
            logical_cores: std::thread::available_parallelism().map_or(1, usize::from),
            rustc: env!("PERFBENCH_RUSTC"),
            profile: env!("PERFBENCH_PROFILE"),
        }
    }
}

/// Peak resident set size of this process, MB (`VmHWM`, Linux only).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}
