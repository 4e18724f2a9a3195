//! Property-based tests for the declarative spec layer — above all, that
//! the XML round-trip is lossless for anything the spec types can hold.

use proptest::prelude::*;
use toto_spec::model::{HourlyTable, MetricModelSpec, ModelSetSpec, SteadyStateSpec};
use toto_spec::xml::XmlElement;
use toto_spec::{EditionKind, ResourceKind, ScenarioSpec};

/// A one-model set whose hourly table has one cell off the constant.
fn model_set(mu: f64, sigma: f64) -> ModelSetSpec {
    let mut table = HourlyTable::constant(mu, sigma);
    table.cells[1][13] = (mu * 2.0, sigma + 1.0);
    ModelSetSpec {
        version: 1,
        base_seed: 2,
        models: vec![MetricModelSpec {
            resource: ResourceKind::Disk,
            target: toto_spec::model::TargetPopulation::All,
            persisted: true,
            report_period_secs: 1200,
            reset_value: 0.0,
            additive: true,
            secondary_scale: 1.0,
            seed_salt: 0,
            steady: SteadyStateSpec { hourly: table },
            initial: None,
            rapid: None,
        }],
    }
}

/// Flip bits of one byte per `(position, mask)` edit (a zero mask flips
/// the low bit), keep the first `keep_permille`‰ of the bytes (all of
/// them from 1000 up), and read the result back as text the way a file
/// reader would, replacing invalid UTF-8.
fn mutate(text: &str, edits: &[(usize, u8)], keep_permille: usize) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for &(pos, mask) in edits {
        let len = bytes.len();
        bytes[pos % len] ^= mask.max(1);
    }
    bytes.truncate(bytes.len() * keep_permille / 1000);
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #[test]
    fn xml_text_escaping_round_trips(text in "[ -~]{0,60}") {
        let doc = XmlElement::new("t").with_text(text.trim().to_string());
        let back = XmlElement::parse(&doc.to_xml_string()).unwrap();
        prop_assert_eq!(back.text, text.trim());
    }

    #[test]
    fn xml_attribute_escaping_round_trips(value in "[ -~]{0,60}") {
        let doc = XmlElement::new("t").attr("v", &value);
        let back = XmlElement::parse(&doc.to_xml_string()).unwrap();
        prop_assert_eq!(back.get_attr("v"), Some(value.as_str()));
    }

    #[test]
    fn xml_tree_structure_round_trips(names in prop::collection::vec("[a-z][a-z0-9]{0,8}", 1..12)) {
        let mut root = XmlElement::new("root");
        for (i, n) in names.iter().enumerate() {
            root.children.push(XmlElement::new(n.clone()).attr("i", i));
        }
        let back = XmlElement::parse(&root.to_xml_string()).unwrap();
        prop_assert_eq!(back.children.len(), names.len());
        for (c, n) in back.children.iter().zip(&names) {
            prop_assert_eq!(&c.name, n);
        }
    }

    #[test]
    fn hourly_table_round_trips(mu in -1e3f64..1e3, sigma in 0.0f64..1e3) {
        let spec = model_set(mu, sigma);
        let back = ModelSetSpec::from_xml_str(&spec.to_xml_string()).unwrap();
        prop_assert_eq!(back, spec);
    }

    #[test]
    fn scenario_round_trips_for_any_density(density in 1u32..1000, hours in 1u64..10_000) {
        let mut s = ScenarioSpec::gen5_stage_cluster(density);
        s.duration_hours = hours;
        let back = ScenarioSpec::from_xml_str(&s.to_xml_string()).unwrap();
        prop_assert_eq!(back, s);
    }

    #[test]
    fn density_scaling_is_linear(density in 1u32..500) {
        let base = ScenarioSpec::gen5_stage_cluster(100);
        let s = ScenarioSpec::gen5_stage_cluster(density);
        let expected = base.cpu_capacity_per_node() * density as f64 / 100.0;
        prop_assert!((s.cpu_capacity_per_node() - expected).abs() < 1e-9);
        prop_assert_eq!(s.disk_capacity_per_node(), base.disk_capacity_per_node());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_spec_xml_parses_or_fails_typed(
        edits in prop::collection::vec((any::<usize>(), any::<u8>()), 0..8),
        keep_permille in 0usize..1500,
        density in 1u32..300,
    ) {
        // Each parser returns a value or a typed ParseError; a panic (or
        // a stack overflow) fails the test.
        let scenario = ScenarioSpec::gen5_stage_cluster(density).to_xml_string();
        let scenario = mutate(&scenario, &edits, keep_permille);
        if let Err(e) = XmlElement::parse(&scenario) {
            prop_assert!(e.offset <= scenario.len());
        }
        let _ = ScenarioSpec::from_xml_str(&scenario);

        let models = model_set(density as f64, 1.0).to_xml_string();
        let models = mutate(&models, &edits, keep_permille);
        if let Err(e) = XmlElement::parse(&models) {
            prop_assert!(e.offset <= models.len());
        }
        let _ = ModelSetSpec::from_xml_str(&models);
    }
}

#[test]
fn edition_targets_cover_every_edition() {
    for e in EditionKind::ALL {
        assert!(toto_spec::model::TargetPopulation::All.matches(e));
    }
}
