//! Parallel-determinism contract of the region subsystem (toto-region).
//!
//! A region run is a pure function of its `(spec, seed)` pair, and the
//! per-ring Phase B jobs run on a worker pool — so the whole artifact
//! set (per-ring run records, per-ring traces, the region record and
//! the region control-plane trace) must be **byte-identical at any
//! worker count**. On top of that, the region preserves the paper's
//! §5.2 seed-isolation discipline: perturbing one ring's PLB seed may
//! change that ring's placement decisions, but sibling rings — and
//! every routing decision the control plane makes — stay byte-identical.

use toto_region::{RegionRunner, RegionSpec};

fn run_region(spec: &RegionSpec, threads: usize) -> toto_region::RegionRunOutput {
    let runner = RegionRunner {
        threads,
        trace: true,
        ..RegionRunner::default()
    };
    let out = runner.run(spec, "region-determinism");
    assert!(out.all_completed, "every ring job must complete");
    out
}

#[test]
fn region_run_is_byte_identical_on_1_and_8_threads() {
    let spec = RegionSpec::named("ci2").expect("built-in region");
    let serial = run_region(&spec, 1);
    let parallel = run_region(&spec, 8);

    assert_eq!(
        serial.record.to_json().render(),
        parallel.record.to_json().render(),
        "region record must not depend on worker count"
    );
    assert_eq!(
        serial.plan.trace, parallel.plan.trace,
        "region control-plane trace must not depend on worker count"
    );
    for (a, b) in serial.ring_records.iter().zip(&parallel.ring_records) {
        assert_eq!(
            a.to_json().render(),
            b.to_json().render(),
            "ring record {} must not depend on worker count",
            a.label
        );
    }
    for (a, b) in serial.ring_outputs.iter().zip(&parallel.ring_outputs) {
        assert_eq!(
            a.trace, b.trace,
            "ring trace {} must not depend on worker count",
            a.label
        );
    }
}

#[test]
fn plb_perturbation_of_one_ring_leaves_siblings_byte_identical() {
    let spec = RegionSpec::named("ci2").expect("built-in region");
    let mut perturbed = spec.clone();
    perturbed.rings[0].plb_seed = Some(0xDEAD_BEEF);

    let base = run_region(&spec, 4);
    let other = run_region(&perturbed, 4);

    // The perturbed ring's placement decisions (hence its trace) move...
    assert_ne!(
        base.ring_outputs[0].trace, other.ring_outputs[0].trace,
        "a PLB perturbation must actually change the perturbed ring"
    );
    // ...but the sibling replays byte-identically: record and trace.
    assert_eq!(
        base.ring_records[1].to_json().render(),
        other.ring_records[1].to_json().render(),
        "sibling ring record must be unaffected by the perturbation"
    );
    assert_eq!(
        base.ring_outputs[1].trace, other.ring_outputs[1].trace,
        "sibling ring trace must be byte-identical under the perturbation"
    );
    // The control plane never consumes a PLB seed at all.
    assert_eq!(
        base.plan.trace, other.plan.trace,
        "routing must be blind to PLB seeds"
    );
    for (a, b) in base.plan.rings.iter().zip(&other.plan.rings) {
        assert_eq!(a.schedule, b.schedule, "directed schedules must match");
    }
}
