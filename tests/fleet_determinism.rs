//! Parallel-determinism contract of the fleet subsystem (toto-fleet).
//!
//! The paper's §5.2 experiments rely on fixed seeds for repeatability;
//! the fleet executor extends that to parallel execution. These tests
//! pin the two load-bearing guarantees:
//!
//! 1. a density fleet produces **byte-identical run artifacts** on 1
//!    worker and on ≥4 workers, and
//! 2. re-running the same plan reproduces the artifacts a previous run
//!    stored, byte for byte.

use std::fs;
use std::path::PathBuf;
use toto_fleet::{
    density_fleet, FleetExecutor, FleetManifest, NullObserver, RunRecord, RunStore,
    RUN_SCHEMA_VERSION,
};

const DENSITIES: [u32; 4] = [100, 110, 120, 140];
const ROOT_SEED: u64 = 42;
const HOURS: u64 = 2;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "toto-fleet-determinism-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Run the reference 4-density fleet on `threads` workers and persist
/// its artifacts into a store rooted at `dir`.
fn run_and_store(dir: &PathBuf, threads: usize) -> RunStore {
    let plan = density_fleet(ROOT_SEED, &DENSITIES, HOURS);
    let report = FleetExecutor::new(threads).run(plan.jobs(), &NullObserver);
    assert!(report.all_completed(), "fleet jobs must all complete");

    let store = RunStore::new(dir);
    store
        .save_report("determinism", ROOT_SEED, &report)
        .expect("save fleet artifacts");
    store
}

#[test]
fn four_density_fleet_is_byte_identical_on_1_and_4_threads() {
    let serial_dir = scratch_dir("serial");
    let parallel_dir = scratch_dir("parallel");
    let serial = run_and_store(&serial_dir, 1);
    let parallel = run_and_store(&parallel_dir, 4);

    for density in DENSITIES {
        let label = format!("density-{density}");
        let a = serial
            .record_bytes("determinism", &label)
            .expect("serial record");
        let b = parallel
            .record_bytes("determinism", &label)
            .expect("parallel record");
        assert!(
            a == b,
            "run record {label} differs between 1-thread and 4-thread execution"
        );
        assert!(!a.is_empty());
    }

    // Manifests legitimately differ in timing/threads, but must agree on
    // the deterministic parts: job set, seeds, statuses.
    let ma = serial.load_manifest("determinism").unwrap();
    let mb = parallel.load_manifest("determinism").unwrap();
    assert_eq!(ma.root_seed, mb.root_seed);
    let key = |m: &FleetManifest| -> Vec<(String, u64, String)> {
        m.jobs
            .iter()
            .map(|j| (j.label.clone(), j.seed, j.status.clone()))
            .collect()
    };
    assert_eq!(key(&ma), key(&mb));

    let _ = fs::remove_dir_all(&serial_dir);
    let _ = fs::remove_dir_all(&parallel_dir);
}

#[test]
fn rerunning_a_plan_reproduces_stored_artifacts() {
    let dir = scratch_dir("rerun");
    let store = run_and_store(&dir, 4);
    let stored: Vec<Vec<u8>> = DENSITIES
        .iter()
        .map(|d| {
            store
                .record_bytes("determinism", &format!("density-{d}"))
                .expect("stored record")
        })
        .collect();

    // Fresh plan, fresh executor, same root seed: the regenerated
    // records must reproduce the stored bytes exactly.
    let plan = density_fleet(ROOT_SEED, &DENSITIES, HOURS);
    let report = FleetExecutor::new(2).run(plan.jobs(), &NullObserver);
    assert!(report.all_completed());
    for ((job, out), stored_bytes) in report.completed().zip(&stored) {
        let regenerated = RunRecord::from_result(&job.label, job.seed, &out.result)
            .to_json()
            .render();
        assert!(
            regenerated.as_bytes() == stored_bytes.as_slice(),
            "re-run of {} does not reproduce its stored artifact",
            job.label
        );
        // And the stored artifact round-trips through the typed loader.
        let loaded = store
            .load_record("determinism", &job.label)
            .expect("load stored record");
        assert_eq!(loaded.to_json().render(), regenerated);
        assert_eq!(loaded.schema_version, RUN_SCHEMA_VERSION);
    }

    let _ = fs::remove_dir_all(&dir);
}
