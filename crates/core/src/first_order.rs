//! The paper's first-order approximation of the expected makespan
//! (Section IV) — **the primary contribution**.
//!
//! With per-attempt success probability `pᵢ = e^{−λaᵢ} = 1 − λaᵢ + O(λ²)`,
//! expanding `E(G) = Σ_{S⊆V} P(S)·L(S)` and dropping `O(λ²)` terms
//! (i.e. states with two or more failures) leaves
//!
//! ```text
//! E(G) = d(G) + λ · Σ_{i∈V} aᵢ · ( d(Gᵢ) − d(G) ) + O(λ²)
//! ```
//!
//! where `Gᵢ` doubles task `i`'s weight. Two implementations:
//!
//! * [`first_order_expected_makespan_naive`] recomputes the longest path
//!   of each `Gᵢ` from scratch — the `O(|V|² + |V||E|)` bound quoted in
//!   the paper.
//! * [`first_order_expected_makespan_fast`] exploits the paper's closing
//!   remark ("lower complexity can be achieved by exploiting the fact
//!   that G and the Gᵢ's differ in only the weight of one task"):
//!   `d(Gᵢ) = max(d(G), top(i) + aᵢ + bot(i))` from one pair of DP
//!   passes, giving `O(|V| + |E|)` total.
//!
//! Both are exposed; their equality is enforced by unit and property
//! tests, and the `first_order_ablation` bench measures the speedup.

use crate::estimator::{Estimate, Estimator, PreparedEstimator};
use crate::model::FailureModel;
use crate::scenario::{ScenarioModel, UnsupportedScenario};
use std::time::Instant;
use stochdag_dag::{Dag, PreparedDag};

/// Detailed first-order result.
#[derive(Clone, Debug)]
pub struct FirstOrderResult {
    /// The approximation of `E(G)`.
    pub expected_makespan: f64,
    /// Failure-free makespan `d(G)` (lower bound on `E(G)`).
    pub failure_free_makespan: f64,
    /// Per-task contribution `λ·aᵢ·(d(Gᵢ) − d(G))`, indexed by
    /// `NodeId::index()`. Summing these recovers
    /// `expected_makespan − failure_free_makespan`. Useful as a
    /// *criticality* measure for failure-aware scheduling.
    pub task_contribution: Vec<f64>,
}

/// Fast `O(|V| + |E|)` first-order approximation with per-task detail.
pub fn first_order_detailed(dag: &Dag, model: &FailureModel) -> FirstOrderResult {
    let p = PreparedFirstOrder::new(&PreparedDag::new(dag.clone()), false);
    FirstOrderResult {
        expected_makespan: p.value(model.lambda, |_| 1.0),
        failure_free_makespan: p.d_g,
        task_contribution: p
            .prepared
            .weights()
            .iter()
            .zip(&p.sens)
            .map(|(&a_i, &delta)| model.lambda * a_i * delta)
            .collect(),
    }
}

/// Fast `O(|V| + |E|)` first-order approximation (value only).
pub fn first_order_expected_makespan_fast(dag: &Dag, model: &FailureModel) -> f64 {
    FirstOrderEstimator::fast().expected_makespan(dag, model)
}

/// Naive `O(|V|·(|V| + |E|))` first-order approximation: recomputes
/// `d(Gᵢ)` with a fresh longest-path pass per task, exactly as the
/// complexity bound quoted in the paper's Section IV.
pub fn first_order_expected_makespan_naive(dag: &Dag, model: &FailureModel) -> f64 {
    FirstOrderEstimator::naive().expected_makespan(dag, model)
}

/// The first-order estimator of the paper ("First Order" in the
/// figures).
#[derive(Clone, Copy, Debug, Default)]
pub struct FirstOrderEstimator {
    use_naive: bool,
}

impl FirstOrderEstimator {
    /// The `O(|V| + |E|)` implementation (default).
    pub fn fast() -> FirstOrderEstimator {
        FirstOrderEstimator { use_naive: false }
    }

    /// The `O(|V|·(|V| + |E|))` reference implementation.
    pub fn naive() -> FirstOrderEstimator {
        FirstOrderEstimator { use_naive: true }
    }
}

/// First-order estimator bound to one prepared graph. The fast variant
/// hoists the per-task re-execution sensitivities
/// `sens[i] = d(Gᵢ) − d(G)` out of the model loop at prepare time (they
/// only depend on the level decomposition), so each model evaluation is
/// one multiply-add pass over two contiguous arrays — and a whole grid
/// of models is one structure-of-arrays sweep over the node axis
/// ([`PreparedEstimator::estimate_grid`]).
struct PreparedFirstOrder {
    prepared: PreparedDag,
    use_naive: bool,
    /// Hoisted `d(Gᵢ) − d(G)` per node (fast variant; empty for naive).
    sens: Vec<f64>,
    /// Hoisted failure-free makespan `d(G)`.
    d_g: f64,
}

impl PreparedFirstOrder {
    fn new(prepared: &PreparedDag, use_naive: bool) -> PreparedFirstOrder {
        let (sens, d_g) = if use_naive {
            (Vec::new(), 0.0)
        } else {
            let dag = prepared.dag();
            let levels = prepared.levels();
            let sens = dag
                .nodes()
                .map(|i| levels.reexecution_sensitivity(dag, i))
                .collect();
            (sens, levels.makespan)
        };
        PreparedFirstOrder {
            prepared: prepared.clone(),
            use_naive,
            sens,
            d_g,
        }
    }

    /// `d(G) + Σᵢ (λ·hᵢ)·aᵢ·(d(Gᵢ) − d(G))`, summed in node order, where
    /// `hazard(i)` is task `i`'s hazard multiplier `hᵢ`. The i.i.d.
    /// model is `hᵢ = 1`, and `λ·1.0` is exactly `λ`, so its bits are
    /// those of the plain `λ·aᵢ·(d(Gᵢ) − d(G))` sum.
    fn value(&self, lambda: f64, hazard: impl Fn(usize) -> f64) -> f64 {
        let mut sum = 0.0f64;
        if self.use_naive {
            let dag = self.prepared.dag();
            let d_g = dag.longest_path_length();
            for i in dag.nodes() {
                let d_gi = dag.with_scaled_weight(i, 2.0).longest_path_length();
                sum += lambda * hazard(i.index()) * dag.weight(i) * (d_gi - d_g);
            }
            d_g + sum
        } else {
            for (i, (&a_i, &delta)) in self.prepared.weights().iter().zip(&self.sens).enumerate() {
                sum += lambda * hazard(i) * a_i * delta;
            }
            self.d_g + sum
        }
    }
}

impl PreparedEstimator for PreparedFirstOrder {
    fn name(&self) -> &'static str {
        if self.use_naive {
            "FirstOrder(naive)"
        } else {
            "FirstOrder"
        }
    }

    fn expected_makespan_for(&mut self, model: &FailureModel) -> f64 {
        self.value(model.lambda, |_| 1.0)
    }

    /// First-order evaluation over the scenario *mixture*: the
    /// correction term becomes `Σᵢ λ·h̄ᵢ·aᵢ·(d(Gᵢ) − d(G))` where
    /// `h̄ᵢ` is the scenario's marginal hazard multiplier for node `i`
    /// ([`ScenarioModel::marginal_hazard`]). This is *exact to first
    /// order in λ*: a group-correlated mixture only perturbs the
    /// single-failure states through their marginal probability —
    /// cross-task correlation enters at `O(λ²)`, which the expansion
    /// drops anyway. The i.i.d. scenario delegates to
    /// [`PreparedEstimator::estimate_for`] bit-identically.
    fn estimate_scenario(
        &mut self,
        model: &FailureModel,
        scenario: &ScenarioModel,
    ) -> Result<Estimate, UnsupportedScenario> {
        if scenario.is_iid() {
            return Ok(self.estimate_for(model));
        }
        let start = Instant::now();
        let value = self.value(model.lambda, |i| scenario.marginal_hazard(i));
        Ok(Estimate {
            value,
            elapsed: start.elapsed(),
            name: self.name().to_string(),
            std_error: None,
        })
    }

    /// Batched grid pass (fast variant): one sweep over the node axis
    /// updating every model's accumulator, so the weight and sensitivity
    /// arrays are read once for the whole grid instead of once per
    /// model. Each model's additions happen in node order exactly as in
    /// the sequential path, so values are bit-identical to
    /// [`PreparedEstimator::estimate_for`]; the reported `elapsed` is
    /// each model's amortized share of the batched pass.
    fn estimate_grid(&mut self, models: &[FailureModel]) -> Vec<Estimate> {
        if self.use_naive || models.is_empty() {
            return models.iter().map(|m| self.estimate_for(m)).collect();
        }
        let start = Instant::now();
        let mut sums = vec![0.0f64; models.len()];
        for (&a_i, &delta) in self.prepared.weights().iter().zip(&self.sens) {
            for (s, m) in sums.iter_mut().zip(models) {
                *s += m.lambda * a_i * delta;
            }
        }
        let elapsed = start.elapsed() / models.len() as u32;
        sums.into_iter()
            .map(|sum| Estimate {
                value: self.d_g + sum,
                elapsed,
                name: self.name().to_string(),
                std_error: None,
            })
            .collect()
    }
}

impl Estimator for FirstOrderEstimator {
    fn name(&self) -> &'static str {
        if self.use_naive {
            "FirstOrder(naive)"
        } else {
            "FirstOrder"
        }
    }

    fn prepare(&self, prepared: &PreparedDag) -> Box<dyn PreparedEstimator> {
        Box::new(PreparedFirstOrder::new(prepared, self.use_naive))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stochdag_dag::Dag;

    fn diamond() -> Dag {
        let mut g = Dag::new();
        let a = g.add_node(1.0);
        let b = g.add_node(2.0);
        let c = g.add_node(3.0);
        let d = g.add_node(1.0);
        g.add_edge(a, b);
        g.add_edge(a, c);
        g.add_edge(b, d);
        g.add_edge(c, d);
        g
    }

    #[test]
    fn fast_equals_naive_on_diamond() {
        let g = diamond();
        let m = FailureModel::new(0.01);
        let fast = first_order_expected_makespan_fast(&g, &m);
        let naive = first_order_expected_makespan_naive(&g, &m);
        assert!((fast - naive).abs() < 1e-12, "fast {fast} vs naive {naive}");
    }

    #[test]
    fn single_task_closed_form() {
        // E ≈ a + λ·a·a (d(G_i) − d(G) = a).
        let mut g = Dag::new();
        g.add_node(2.0);
        let m = FailureModel::new(0.05);
        let e = first_order_expected_makespan_fast(&g, &m);
        assert!((e - (2.0 + 0.05 * 2.0 * 2.0)).abs() < 1e-12);
    }

    #[test]
    fn chain_closed_form() {
        // Chain of weights a_j: every task is critical, d(G_i) − d(G) = a_i,
        // E = Σa + λΣa².
        let mut g = Dag::new();
        let mut prev = None;
        for w in [1.0, 2.0, 3.0] {
            let v = g.add_node(w);
            if let Some(p) = prev {
                g.add_edge(p, v);
            }
            prev = Some(v);
        }
        let m = FailureModel::new(0.01);
        let e = first_order_expected_makespan_fast(&g, &m);
        assert!((e - (6.0 + 0.01 * (1.0 + 4.0 + 9.0))).abs() < 1e-12);
    }

    #[test]
    fn noncritical_task_contributes_only_above_slack() {
        let g = diamond();
        let m = FailureModel::new(0.1);
        let r = first_order_detailed(&g, &m);
        // b has weight 2, slack 1: d(G_b) − d(G) = 1 ⇒ contribution λ·2·1.
        assert!((r.task_contribution[1] - 0.1 * 2.0 * 1.0).abs() < 1e-12);
        // c is critical with weight 3: contribution λ·3·3.
        assert!((r.task_contribution[2] - 0.1 * 3.0 * 3.0).abs() < 1e-12);
        let sum: f64 = r.task_contribution.iter().sum();
        assert!(
            (r.expected_makespan - r.failure_free_makespan - sum).abs() < 1e-12,
            "contributions must decompose the correction"
        );
    }

    #[test]
    fn zero_lambda_gives_failure_free_makespan() {
        let g = diamond();
        let e = first_order_expected_makespan_fast(&g, &FailureModel::failure_free());
        assert_eq!(e, 5.0);
    }

    #[test]
    fn estimate_is_at_least_failure_free() {
        let g = diamond();
        for lam in [0.0, 0.001, 0.1, 1.0] {
            let e = first_order_expected_makespan_fast(&g, &FailureModel::new(lam));
            assert!(e >= 5.0 - 1e-12);
        }
    }

    #[test]
    fn estimator_trait_names() {
        assert_eq!(FirstOrderEstimator::fast().name(), "FirstOrder");
        assert_eq!(FirstOrderEstimator::naive().name(), "FirstOrder(naive)");
    }

    #[test]
    fn monotone_in_lambda() {
        let g = diamond();
        let mut prev = 0.0;
        for lam in [0.0, 0.01, 0.05, 0.2] {
            let e = first_order_expected_makespan_fast(&g, &FailureModel::new(lam));
            assert!(e >= prev);
            prev = e;
        }
    }

    #[test]
    fn scenario_iid_is_bit_identical_to_plain_path() {
        let g = diamond();
        let m = FailureModel::new(0.03);
        let prepared = PreparedDag::new(g);
        let mut p = FirstOrderEstimator::fast().prepare(&prepared);
        let plain = p.estimate_for(&m).value;
        let via = p.estimate_scenario(&m, &ScenarioModel::Iid).unwrap().value;
        assert_eq!(plain, via);
    }

    #[test]
    fn scenario_fast_equals_naive() {
        let g = diamond();
        let m = FailureModel::new(0.02);
        let scenario = ScenarioModel::NodeHazard {
            hazard: vec![1.0, 3.0, 2.0, 1.5],
        };
        let prepared = PreparedDag::new(g);
        let fast = FirstOrderEstimator::fast()
            .prepare(&prepared)
            .estimate_scenario(&m, &scenario)
            .unwrap()
            .value;
        let naive = FirstOrderEstimator::naive()
            .prepare(&prepared)
            .estimate_scenario(&m, &scenario)
            .unwrap()
            .value;
        assert!((fast - naive).abs() < 1e-12, "fast {fast} vs naive {naive}");
    }

    #[test]
    fn group_scenario_uses_the_marginal_hazard() {
        // rack mixture with q, m: every node's marginal multiplier is
        // 1 + q(m − 1), so the correction scales by exactly that factor.
        let g = diamond();
        let m = FailureModel::new(0.01);
        let prepared = PreparedDag::new(g);
        let mut p = FirstOrderEstimator::fast().prepare(&prepared);
        let base = p.estimate_for(&m).value;
        let d_g = 5.0;
        let scenario = ScenarioModel::GroupHazard {
            group_of: vec![0, 1, 0, 1],
            n_groups: 2,
            group_prob: 0.25,
            hazard: 5.0,
        };
        let mixed = p.estimate_scenario(&m, &scenario).unwrap().value;
        let factor = 1.0 + 0.25 * (5.0 - 1.0);
        assert!(
            (mixed - d_g - factor * (base - d_g)).abs() < 1e-12,
            "mixed {mixed} base {base}"
        );
    }

    #[test]
    fn scenario_matches_monte_carlo_mixture() {
        // MC samples the rack mixture directly; first-order evaluates
        // the marginal-hazard expansion. At small λ they must agree to
        // within sampling noise + O(λ²).
        use crate::monte_carlo::MonteCarloEstimator;
        let g = diamond();
        let m = FailureModel::new(0.01);
        let scenario = ScenarioModel::GroupHazard {
            group_of: vec![0, 0, 1, 1],
            n_groups: 2,
            group_prob: 0.2,
            hazard: 4.0,
        };
        let prepared = PreparedDag::new(g);
        let fo = FirstOrderEstimator::fast()
            .prepare(&prepared)
            .estimate_scenario(&m, &scenario)
            .unwrap()
            .value;
        let mut mc = MonteCarloEstimator::new(150_000)
            .with_seed(11)
            .prepare(&prepared);
        let mce = mc.estimate_scenario(&m, &scenario).unwrap();
        let tol = 4.0 * mce.std_error.unwrap() + 0.01;
        assert!(
            (fo - mce.value).abs() < tol,
            "first-order {fo} vs MC {} (tol {tol})",
            mce.value
        );
    }
}
