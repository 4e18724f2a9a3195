//! Per-run chaos accounting: what was injected, what it cost.
//!
//! The run-artifact store renders a [`ChaosReport`] as each job's
//! `<label>.chaos.json` sidecar (`toto_fleet::chaos_report_to_json`).

/// KPI deltas attributed to one injected fault.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosFaultRecord {
    /// Seconds from experiment start at which the fault fired.
    pub at_secs: u64,
    /// Stable fault kind name (`node_crash`, `drain`, `drain_blocked`,
    /// `decommission`, `capacity_degrade`, `report_loss`, `storm`).
    pub kind: String,
    /// The node hit, when the fault targets exactly one.
    pub node: Option<u32>,
    /// Replica moves the fault forced immediately.
    pub failovers: u64,
    /// Reserved cores of the services whose replicas failed over.
    pub failed_over_cores: f64,
    /// Creation redirects that accumulated between the fault and its
    /// recovery (0 for faults that recover instantly or never).
    pub redirects_delta: u64,
    /// Seconds until the fault's effect was undone (node restarted,
    /// capacity restored, loss window closed). `None` = permanent.
    pub recovery_secs: Option<u64>,
}

/// Everything one chaos-enabled run reports beyond its normal KPIs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChaosReport {
    /// One record per injected fault, in injection order.
    pub faults: Vec<ChaosFaultRecord>,
    /// Post-event invariant checks performed.
    pub oracle_checks: u64,
    /// Invariant violations detected (must be 0 for a healthy engine).
    pub oracle_violations: u64,
}
