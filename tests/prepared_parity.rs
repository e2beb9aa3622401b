//! Prepared parity: for every estimator family, one
//! preparation reused across many models must return **bit-identical**
//! estimates (value, standard error, name) to a fresh preparation per
//! model, which is what the one-shot `estimate(dag, model)` builds.
//! This pins down the hazards of reusing a preparation: stale scratch
//! buffers leaking across models, reseeding not fully resetting a
//! statistical estimator, and shared precomputations (levels, all-pairs
//! tables, dominant paths, frozen views) drifting from their freshly
//! computed counterparts.

use proptest::prelude::*;
use stochdag::prelude::*;

/// Random small DAG via forward edges (acyclic by construction). Small
/// enough for the exhaustive oracle and the Dodin duplication engine.
fn arb_dag() -> impl Strategy<Value = Dag> {
    (2usize..=10).prop_flat_map(|n| {
        let weights = proptest::collection::vec(0.01f64..5.0, n);
        let bits = proptest::collection::vec(any::<bool>(), n * (n - 1) / 2);
        (weights, bits).prop_map(move |(ws, bits)| {
            let mut g = Dag::new();
            let ids: Vec<NodeId> = ws.iter().map(|&w| g.add_node(w)).collect();
            let mut b = 0;
            for i in 0..n {
                for j in (i + 1)..n {
                    if bits[b] {
                        g.add_edge(ids[i], ids[j]);
                    }
                    b += 1;
                }
            }
            g
        })
    })
}

/// Concrete spec per family base name: bounded work for the
/// statistical/path estimators so 64 proptest cases stay fast.
fn spec_of(base: &str) -> stochdag::core::EstimatorSpec {
    let s = match base {
        "mc" => "mc:400".into(),
        "spelde" => "spelde:4".into(),
        "dodin" | "dodin-dup" => format!("{base}:32"),
        other => other.to_string(),
    };
    s.parse().expect("registered estimators parse")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prepared_equals_one_shot_for_every_registered_estimator(
        g in arb_dag(),
        lambda in 0.001f64..0.15,
        seed in 0u64..(1 << 20),
    ) {
        let registry = EstimatorRegistry::standard();
        // Several models per preparation, evaluated through ONE prepared
        // handle in sequence — including λ = 0 in the middle so buffer
        // reuse across degenerate cases is exercised too.
        let models = [
            FailureModel::new(lambda),
            FailureModel::failure_free(),
            FailureModel::new(lambda * 0.37),
        ];
        let prepared = PreparedDag::new(g.clone());
        for &base in stochdag::core::ESTIMATOR_FAMILIES {
            let spec = spec_of(base);
            let est = registry.build(&spec, seed).unwrap();
            let mut prep = est.prepare(&prepared);
            for (k, model) in models.iter().enumerate() {
                // Per-cell seeds, as the sweep engine derives them.
                let cell_seed = seed ^ ((k as u64) << 21);
                prep.reseed(cell_seed);
                let shared = prep.estimate_for(model);
                let one_shot = registry
                    .build(&spec, cell_seed)
                    .unwrap()
                    .estimate(&g, model);
                prop_assert_eq!(
                    shared.value.to_bits(),
                    one_shot.value.to_bits(),
                    "estimator {} model #{}: prepared {} vs one-shot {}",
                    spec, k, shared.value, one_shot.value
                );
                prop_assert_eq!(
                    shared.std_error.map(f64::to_bits),
                    one_shot.std_error.map(f64::to_bits),
                    "estimator {} model #{}: standard errors differ", spec, k
                );
                prop_assert_eq!(&shared.name, &one_shot.name);
                prop_assert_eq!(
                    one_shot.std_error.is_some(),
                    base == "mc",
                    "estimator {}: only Monte Carlo reports a standard error", spec
                );
                if base == "first-order" {
                    prop_assert_eq!(
                        first_order_detailed(&g, model).expected_makespan.to_bits(),
                        one_shot.value.to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn estimate_grid_equals_sequential_estimate_for(
        g in arb_dag(),
        lambda in 0.001f64..0.2,
    ) {
        let models = vec![
            FailureModel::new(lambda),
            FailureModel::new(lambda / 2.0),
            FailureModel::failure_free(),
        ];
        let prepared = PreparedDag::new(g);
        let est = FirstOrderEstimator::fast();
        let grid = est.prepare(&prepared).estimate_grid(&models);
        let mut seq = est.prepare(&prepared);
        prop_assert_eq!(grid.len(), models.len());
        for (e, m) in grid.iter().zip(models.iter()) {
            prop_assert_eq!(e.value.to_bits(), seq.expected_makespan_for(m).to_bits());
            prop_assert_eq!(&e.name, "FirstOrder");
        }
    }
}
