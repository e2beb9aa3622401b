//! Grid/sequential parity: for every registered estimator family,
//! [`PreparedEstimator::estimate_grid`] must return the same `value`
//! bits as evaluating the models one by one through
//! [`PreparedEstimator::estimate_for`].
//!
//! This is the contract that lets the sweep engine mix the two paths
//! freely (a cached cell computed by a batched grid pass must replay
//! byte-identically against a freshly computed single cell), and it is
//! what keeps the batched structure-of-arrays overrides honest: they
//! may reorder *reads*, never the per-model floating-point operations.

use proptest::prelude::*;
use stochdag_core::{
    CorLcaEstimator, CovarianceNormalEstimator, DodinEstimator, Estimator, ExactEstimator,
    FailureModel, FirstOrderEstimator, MonteCarloEstimator, SculliEstimator, SecondOrderEstimator,
    SpeldeEstimator,
};
use stochdag_dag::{Dag, PreparedDag};

/// Every estimator family, constructed the way `EstimatorSpec::build`
/// builds them (small arguments so the exhaustive/statistical members
/// stay fast).
fn all_families() -> Vec<Box<dyn Estimator>> {
    vec![
        Box::new(FirstOrderEstimator::fast()),
        Box::new(FirstOrderEstimator::naive()),
        Box::new(SecondOrderEstimator),
        Box::new(SculliEstimator),
        Box::new(CorLcaEstimator),
        Box::new(CovarianceNormalEstimator),
        Box::new(DodinEstimator::scalable().with_max_atoms(32)),
        Box::new(DodinEstimator::new().with_max_atoms(32)),
        Box::new(SpeldeEstimator::new(4)),
        Box::new(ExactEstimator),
        Box::new(MonteCarloEstimator::new(200).with_seed(7)),
    ]
}

/// A random small layered DAG: weights on a coarse grid, edges only
/// from lower to higher ids (acyclic by construction). Small enough
/// for the exact oracle and the duplication engine.
fn arb_dag() -> impl Strategy<Value = Dag> {
    (
        proptest::collection::vec(1u32..16, 1..8),
        proptest::collection::vec(any::<bool>(), 64),
    )
        .prop_map(|(weights, edges)| {
            let mut g = Dag::new();
            let ids: Vec<_> = weights
                .iter()
                .map(|&w| g.add_node(w as f64 * 0.25))
                .collect();
            for i in 0..ids.len() {
                for j in (i + 1)..ids.len() {
                    if edges[(i * 8 + j) % 64] {
                        g.add_edge(ids[i], ids[j]);
                    }
                }
            }
            g
        })
}

/// A small grid of failure rates, always including the failure-free
/// corner (λ = 0 exercises the zero-skip branches of the batched
/// second-order pass).
fn arb_models() -> impl Strategy<Value = Vec<FailureModel>> {
    proptest::collection::vec(0u32..30, 1..4).prop_map(|ls| {
        let mut models = vec![FailureModel::failure_free()];
        models.extend(ls.iter().map(|&l| FailureModel::new(l as f64 / 100.0)));
        models
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn estimate_grid_is_bit_identical_to_sequential(dag in arb_dag(), models in arb_models()) {
        let prepared = PreparedDag::new(dag);
        for est in all_families() {
            // Two independent preparations of the same graph: one runs
            // the batched grid, the other the sequential loop.
            let mut grid_side = est.prepare(&prepared);
            let mut seq_side = est.prepare(&prepared);
            let grid = grid_side.estimate_grid(&models);
            prop_assert_eq!(grid.len(), models.len());
            for (m, g) in models.iter().zip(&grid) {
                let s = seq_side.estimate_for(m);
                prop_assert_eq!(
                    g.value.to_bits(),
                    s.value.to_bits(),
                    "{}: grid {} vs sequential {} under lambda {}",
                    est.name(), g.value, s.value, m.lambda
                );
                prop_assert_eq!(&g.name, &s.name, "{}: name mismatch", est.name());
            }
        }
    }

    #[test]
    fn repeated_evaluation_is_pure(dag in arb_dag()) {
        // The trait contract behind grid batching: evaluating the same
        // model twice (with other models in between) returns the same
        // bits — scratch reuse must not leak state across calls.
        let prepared = PreparedDag::new(dag);
        let probe = FailureModel::new(0.07);
        let other = FailureModel::new(0.21);
        for est in all_families() {
            let mut p = est.prepare(&prepared);
            let first = p.expected_makespan_for(&probe);
            let _ = p.expected_makespan_for(&other);
            let again = p.expected_makespan_for(&probe);
            prop_assert_eq!(
                first.to_bits(),
                again.to_bits(),
                "{}: {} then {} after interleaved model",
                est.name(), first, again
            );
        }
    }
}
