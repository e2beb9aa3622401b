//! Exhaustive exact expected makespan for the 2-state model.
//!
//! Enumerates all `2^|V|` failure subsets; usable for `|V| ≤ ~24`. The
//! problem is #P-complete (Hagstrom 1988), so this is strictly a
//! validation oracle: tests use it to check the Monte Carlo sampler and
//! the `O(λ²)` error bound of the first-order approximation on small
//! graphs.

use crate::estimator::{Estimator, PreparedEstimator};
use crate::model::FailureModel;
use stochdag_dag::{Dag, FrozenDag, PreparedDag};
use stochdag_dist::DurationTable;

/// Largest node count accepted by the exhaustive evaluator.
pub const MAX_EXACT_NODES: usize = 24;

/// Reusable buffers of the exhaustive mask loop.
#[derive(Default)]
struct ExactScratch {
    weights: Vec<f64>,
    completion: Vec<f64>,
}

/// The `2^n`-mask expectation over a frozen view.
fn exact_with(frozen: &FrozenDag, pfail: &[f64], scratch: &mut ExactScratch) -> f64 {
    let n = frozen.node_count();
    let base = &frozen.weights;
    scratch.weights.clear();
    scratch.weights.extend_from_slice(base);
    let weights = &mut scratch.weights;
    let completion = &mut scratch.completion;
    let mut expectation = 0.0f64;
    for mask in 0u64..(1u64 << n) {
        let mut prob = 1.0f64;
        for i in 0..n {
            if mask >> i & 1 == 1 {
                prob *= pfail[i];
                weights[i] = 2.0 * base[i];
            } else {
                prob *= 1.0 - pfail[i];
                weights[i] = base[i];
            }
        }
        if prob == 0.0 {
            continue;
        }
        expectation += prob * frozen.longest_path_with_weights(weights, completion);
    }
    expectation
}

/// Exact expected makespan under the **2-state** model (every task runs
/// once with probability `pᵢ = e^{−λaᵢ}`, else exactly twice).
///
/// # Panics
/// Panics if the DAG has more than [`MAX_EXACT_NODES`] nodes.
pub fn exact_expected_makespan_two_state(dag: &Dag, model: &FailureModel) -> f64 {
    ExactEstimator.expected_makespan(dag, model)
}

/// The exhaustive 2-state estimator (validation oracle).
#[derive(Clone, Copy, Debug, Default)]
pub struct ExactEstimator;

/// Exact estimator bound to one prepared graph: the frozen view is
/// shared with the preparation and the mask-loop buffers are reused
/// across models.
struct PreparedExact {
    prepared: PreparedDag,
    table: DurationTable,
    scratch: ExactScratch,
}

impl PreparedEstimator for PreparedExact {
    fn name(&self) -> &'static str {
        "Exact(2-state)"
    }

    fn expected_makespan_for(&mut self, model: &FailureModel) -> f64 {
        if self.prepared.node_count() == 0 {
            return 0.0;
        }
        self.table.rebuild(model.lambda, self.prepared.weights());
        exact_with(
            self.prepared.frozen(),
            self.table.pfail_all(),
            &mut self.scratch,
        )
    }
}

impl Estimator for ExactEstimator {
    fn name(&self) -> &'static str {
        "Exact(2-state)"
    }

    fn prepare(&self, prepared: &PreparedDag) -> Box<dyn PreparedEstimator> {
        assert!(
            prepared.node_count() <= MAX_EXACT_NODES,
            "exhaustive evaluation needs |V| <= {MAX_EXACT_NODES}, got {}",
            prepared.node_count()
        );
        Box::new(PreparedExact {
            prepared: prepared.clone(),
            table: DurationTable::default(),
            scratch: ExactScratch::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monte_carlo::{MonteCarloEstimator, SamplingModel};

    #[test]
    fn single_task_closed_form() {
        let mut g = Dag::new();
        g.add_node(2.0);
        let lambda = 0.1;
        let model = FailureModel::new(lambda);
        let q = model.pfail_of_weight(2.0);
        let want = (1.0 - q) * 2.0 + q * 4.0;
        let e = exact_expected_makespan_two_state(&g, &model);
        assert!((e - want).abs() < 1e-14);
    }

    #[test]
    fn two_parallel_tasks_closed_form() {
        // max of two independent 2-state variables with equal a.
        let a = 1.0;
        let mut g = Dag::new();
        g.add_node(a);
        g.add_node(a);
        let model = FailureModel::new(0.3);
        let q = model.pfail_of_weight(a);
        let p = 1.0 - q;
        // P(max = a) = p², else max = 2a.
        let want = p * p * a + (1.0 - p * p) * 2.0 * a;
        let e = exact_expected_makespan_two_state(&g, &model);
        assert!((e - want).abs() < 1e-14);
    }

    #[test]
    fn matches_monte_carlo_two_state() {
        let mut g = Dag::new();
        let a = g.add_node(1.0);
        let b = g.add_node(2.0);
        let c = g.add_node(1.5);
        let d = g.add_node(0.5);
        g.add_edge(a, b);
        g.add_edge(a, c);
        g.add_edge(b, d);
        g.add_edge(c, d);
        let model = FailureModel::new(0.15);
        let exact = exact_expected_makespan_two_state(&g, &model);
        let mc = MonteCarloEstimator::new(500_000)
            .with_seed(9)
            .with_sampling(SamplingModel::TwoState)
            .run(&g, &model);
        assert!(
            (exact - mc.mean).abs() < 4.0 * mc.std_error,
            "exact {exact} vs MC {} ± {}",
            mc.mean,
            mc.std_error
        );
    }

    #[test]
    fn failure_free_is_longest_path() {
        let mut g = Dag::new();
        let a = g.add_node(1.0);
        let b = g.add_node(3.0);
        g.add_edge(a, b);
        let e = exact_expected_makespan_two_state(&g, &FailureModel::failure_free());
        assert_eq!(e, 4.0);
    }

    #[test]
    #[should_panic(expected = "exhaustive evaluation")]
    fn too_large_rejected() {
        let mut g = Dag::new();
        for _ in 0..(MAX_EXACT_NODES + 1) {
            g.add_node(1.0);
        }
        exact_expected_makespan_two_state(&g, &FailureModel::new(0.1));
    }

    #[test]
    fn bounded_below_by_failure_free_makespan() {
        let mut g = Dag::new();
        let a = g.add_node(1.0);
        let b = g.add_node(2.0);
        g.add_edge(a, b);
        for lam in [0.01, 0.1, 0.5] {
            let e = exact_expected_makespan_two_state(&g, &FailureModel::new(lam));
            assert!(e >= 3.0);
            assert!(e <= 6.0, "at most everything doubled");
        }
    }
}
