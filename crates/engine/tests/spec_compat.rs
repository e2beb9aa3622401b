//! Cache-compatibility regression tests for the typed-estimator
//! migration.
//!
//! The `EstimatorSpec` redesign replaced stringly estimator ids, but
//! the canonical id — and therefore every cache key, seed derivation,
//! and CSV/JSONL estimator column — must stay **byte-identical** to
//! what the PR-4 stringly registry produced. The golden table below
//! was generated by the pre-redesign code; if any entry changes, every
//! user's on-disk result cache silently invalidates.

use proptest::prelude::*;
use serde::Deserialize;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use stochdag_core::{Estimate, SamplingModel, ESTIMATOR_FAMILIES};
use stochdag_dag::structural_hash;
use stochdag_engine::{
    cell_key, Campaign, DagSpec, EstimatorRegistry, EstimatorSpec, ResultCache, SweepSpec,
};
use stochdag_taskgraphs::FactorizationClass;

/// `(spec string, canonical id, cell_key(feed…, 0.0123, id, 7),
/// cell_key(42, 0.0004, id, 987654321))` — captured from the PR-4
/// stringly-typed registry before the redesign. Do not regenerate.
const GOLDEN: &[(&str, &str, &str, &str)] = &[
    // (spec, canonical, key_a, key_b)
    (
        "first-order",
        "first-order",
        "ae7a5f0de35c10703955d9c74a9ddc56",
        "22c14810a3e515bfe5159aecc41899ee",
    ),
    (
        "first-order-naive",
        "first-order-naive",
        "f907dd7e846ff51338054f2efa55fc91",
        "5d2c6d1a8880fae2e4594babb8996959",
    ),
    (
        "second-order",
        "second-order",
        "3fafeba843be067736595378f881e62e",
        "43055dcedff1c1ac40e1b1eeae275a4e",
    ),
    (
        "sculli",
        "sculli",
        "cd917415edee802b4f8c85db934580e0",
        "88204a7aff8579ea5db0fd2c305f3dcf",
    ),
    (
        "corlca",
        "corlca",
        "4f24f017bb7171999748eb472ea599ce",
        "7976c3d02404ebb44fe4cec37665d467",
    ),
    (
        "normal-cov",
        "normal-cov",
        "5b1d51f71c5629386ed52c7af30b678a",
        "3423580b2fd58db64b5882dd40d52c3e",
    ),
    (
        "dodin",
        "dodin:128",
        "0cf0f8011e5e97279d4129c93d97d267",
        "65402cbe1f8c0f4fd9b4f16b9a506ae9",
    ),
    (
        "dodin:64",
        "dodin:64",
        "055e2dd9a663ff1a09d84c65ce8f921f",
        "69fb51f91d86a2598bc430d95bcee6f4",
    ),
    (
        "dodin-dup",
        "dodin-dup:128",
        "957815f72d839dfed7f9f7bec74d6361",
        "fcc82f35e0be9fb1838e9165021c49f5",
    ),
    (
        "dodin-dup:32",
        "dodin-dup:32",
        "091865cc78635070fbf46c17edb3e9f0",
        "adf40f71c1757799d04379c9222994d7",
    ),
    (
        "spelde",
        "spelde:16",
        "eb80e49468e296ae60b757cb735cd604",
        "349b0fb9887d587efafdecf5689bf47a",
    ),
    (
        "spelde:8",
        "spelde:8",
        "3ae3a2d8b6457d9e614dbec9fbd3a967",
        "c9154e0216df67cac194dc4200a906b0",
    ),
    (
        "exact",
        "exact",
        "32b03e4a2e3dc3f61afc3ebff96bcdba",
        "e996910ad2ec0ed59d00c7200a354984",
    ),
    (
        "mc",
        "mc:10000",
        "7029218702751c0388e667ca1679dd9e",
        "c282bd1fb5eb589986c0ddf0e705bf78",
    ),
    (
        "mc:10000",
        "mc:10000",
        "7029218702751c0388e667ca1679dd9e",
        "c282bd1fb5eb589986c0ddf0e705bf78",
    ),
    (
        "mc:2500",
        "mc:2500",
        "bb57332ce7d48e59af354d71f832aca5",
        "4fd8c21ee011572071d7e872fcab197c",
    ),
];

const DAG_HASH_A: u128 = 0xfeed_beef_1234_5678_9abc_def0_1122_3344;

/// `(unit string, cell_key(feed…, 0.0123, unit, 7), cell_key(42,
/// 0.0004, unit, 987654321))` for correlated-scenario cells, whose
/// unit is the canonical estimator id plus a `|{scenario_id}` suffix
/// (i.i.d. cells keep the bare id, so pre-scenario caches stay valid).
/// Captured when the scenario axis landed — do not regenerate.
const GOLDEN_SCENARIO: &[(&str, &str, &str)] = &[
    (
        "first-order|rack:4:0.05:2",
        "08349035e087fc7a84bb0b3b0564a2da",
        "ca4a9dc71b9c57b7ce2114a260bb1df0",
    ),
    (
        "first-order-naive|rack:4:0.05:2",
        "238d6287c961ddcc3f5197e3cef09fcd",
        "ba5c0576e3618abb504cbc9550e6cd94",
    ),
    (
        "mc:2500|rack:4:0.05:2",
        "4693a04f0ca0ee0407445417905c36f1",
        "a9ed3d6348aa921d3681b44c5bd3afab",
    ),
    (
        "first-order|bursty:3:0.25:2:11",
        "3dfc959488e7e9415101beacede668dc",
        "c9f6a48a34c529712a33b3079d5fda25",
    ),
    (
        "mc:2500|bursty:3:0.25:2:11",
        "435a8eb95836aaa134f728bedc03dc7a",
        "fe12833ffbc3cf4603c1b79346e4e2cf",
    ),
    (
        "mc-reference:1500:geometric|rack:4:0.05:2",
        "f34334c8601ba9b47d6e84fde05bc069",
        "f9aeeb33cf635edd6fa24c2231da1334",
    ),
];

#[test]
fn cell_keys_match_the_pr4_stringly_registry() {
    let registry = EstimatorRegistry::standard();
    for &(spec, canonical, key_a, key_b) in GOLDEN {
        let parsed = registry
            .parse(spec)
            .unwrap_or_else(|e| panic!("{spec}: {e}"));
        assert_eq!(parsed.to_string(), canonical, "canonical id of {spec:?}");
        assert_eq!(
            cell_key(DAG_HASH_A, 0.0123, &parsed.to_string(), 7),
            key_a,
            "cache key drifted for {spec:?}"
        );
        assert_eq!(
            cell_key(42, 0.000_4, &parsed.to_string(), 987_654_321),
            key_b,
            "cache key drifted for {spec:?}"
        );
    }
}

#[test]
fn scenario_cell_keys_are_pinned() {
    for &(unit, key_a, key_b) in GOLDEN_SCENARIO {
        assert_eq!(
            cell_key(DAG_HASH_A, 0.0123, unit, 7),
            key_a,
            "scenario cache key drifted for {unit:?}"
        );
        assert_eq!(
            cell_key(42, 0.000_4, unit, 987_654_321),
            key_b,
            "scenario cache key drifted for {unit:?}"
        );
    }
}

#[test]
fn golden_table_covers_every_registered_family() {
    for &family in ESTIMATOR_FAMILIES {
        assert!(
            GOLDEN
                .iter()
                .any(|(s, ..)| s.split(':').next() == Some(family)),
            "golden table is missing family {family:?}"
        );
    }
}

/// A kernel change moved Dodin's output bits, so its cells carry a
/// kernel revision in their cache keys: a cache filled under the keys
/// without it (every key an earlier release wrote) must still serve
/// every other family, and must never serve a Dodin cell.
#[test]
fn only_dodin_cells_leave_their_earlier_keys() {
    let spec = SweepSpec {
        name: "kernel-revision".into(),
        seed: 11,
        pfails: vec![0.01, 0.001],
        lambdas: vec![],
        estimators: vec![
            EstimatorSpec::Dodin { atoms: 32 },
            EstimatorSpec::FirstOrder,
        ],
        reference_trials: 400,
        reference_sampling: SamplingModel::Geometric,
        jobs: Some(1),
        scenarios: vec![],
        dags: vec![DagSpec::Factorization {
            class: FactorizationClass::Cholesky,
            ks: vec![3, 4],
        }],
    };
    let run = |cache: &Arc<ResultCache>| {
        Campaign::builder(spec.clone())
            .cache(cache.clone())
            .build()
            .unwrap()
            .run()
            .unwrap()
    };
    let fresh = run(&Arc::new(ResultCache::in_memory()));
    let hashes: HashMap<String, u128> = spec.dags[0]
        .materialize()
        .unwrap()
        .into_iter()
        .map(|inst| (inst.id, structural_hash(&inst.dag)))
        .collect();
    let sentinel = Estimate {
        value: 1e9,
        elapsed: Duration::from_secs(1),
        name: "sentinel".into(),
        std_error: None,
    };
    let planted = Arc::new(ResultCache::in_memory());
    for row in &fresh.rows {
        let key = cell_key(hashes[&row.dag], row.lambda, &row.estimator, row.seed);
        planted.store(&key, &sentinel);
    }
    let rerun = run(&planted);
    assert_eq!(rerun.rows.len(), 8);
    for (row, first) in rerun.rows.iter().zip(&fresh.rows) {
        if row.estimator == "first-order" {
            assert_eq!(row.value, sentinel.value, "{row:?}: first-order key moved");
        } else {
            assert_eq!(row.estimator, "dodin:32");
            assert_eq!(
                row.value.to_bits(),
                first.value.to_bits(),
                "{row:?}: a Dodin cell was served from its earlier key"
            );
        }
    }
}

/// Any typed spec the closed enum can express (valid knob ranges).
fn arb_spec() -> impl Strategy<Value = EstimatorSpec> {
    (0usize..11, 1u64..1_000_000).prop_map(|(family, arg)| {
        let arg = arg as usize;
        match family {
            0 => EstimatorSpec::FirstOrder,
            1 => EstimatorSpec::FirstOrderNaive,
            2 => EstimatorSpec::SecondOrder,
            3 => EstimatorSpec::Sculli,
            4 => EstimatorSpec::CorLca,
            5 => EstimatorSpec::NormalCov,
            6 => EstimatorSpec::Dodin { atoms: arg.max(2) },
            7 => EstimatorSpec::DodinDup { atoms: arg.max(2) },
            8 => EstimatorSpec::Spelde { paths: arg },
            9 => EstimatorSpec::Exact,
            _ => EstimatorSpec::Mc { trials: arg },
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Display ⇄ FromStr round-trips for every expressible spec, and
    // the canonical id is a fixed point (parsing it re-renders it).
    #[test]
    fn estimator_spec_string_round_trips(spec in arb_spec()) {
        let rendered = spec.to_string();
        let back: EstimatorSpec = rendered.parse().unwrap();
        prop_assert_eq!(&back, &spec);
        prop_assert_eq!(back.to_string(), rendered.clone());
        // The registry accepts exactly what the enum renders.
        let registry = EstimatorRegistry::standard();
        prop_assert_eq!(registry.parse(&rendered).unwrap(), spec);
    }

    // Serde round-trips through the JSON value model (what worker
    // spec handover and spec files use).
    #[test]
    fn estimator_spec_serde_round_trips(spec in arb_spec()) {
        let json = serde::json::to_string(&spec);
        let value = serde::json::parse(&json).unwrap();
        prop_assert_eq!(EstimatorSpec::deserialize(&value).unwrap(), spec);
    }
}
