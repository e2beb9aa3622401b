//! The common estimator interface.
//!
//! Estimation is **two-phase**:
//!
//! 1. [`Estimator::prepare`] consumes a shared [`PreparedDag`] and
//!    returns a [`PreparedEstimator`] holding every model-independent
//!    artifact the estimator needs (level decompositions, all-pairs
//!    longest paths, dominant path sets, frozen CSR views, scratch
//!    buffers, …) — computed once per graph.
//! 2. [`PreparedEstimator::estimate_for`] (or the batched
//!    [`PreparedEstimator::estimate_grid`]) evaluates one failure model
//!    against that preparation, as many times as the caller likes.
//!
//! `prepare` is the only implementation of every family. The one-shot
//! [`Estimator::estimate`] / [`Estimator::expected_makespan`] are
//! trait defaults that prepare a fresh [`PreparedDag`] and evaluate
//! once. Sweep-style callers (the `stochdag-engine` runner, the
//! accuracy-grid examples) prepare once per (graph, estimator) pair and
//! amortize the preprocessing across every failure model.

use crate::model::FailureModel;
use crate::scenario::{ScenarioModel, UnsupportedScenario};
use std::time::{Duration, Instant};
use stochdag_dag::{Dag, PreparedDag};

serde::codec! {
    lenient;
    /// Result of one expected-makespan estimation (also the result
    /// cache's payload).
    #[derive(Clone, Debug)]
    pub struct Estimate {
        /// Estimated expected makespan `E(G)`, in the task-weight time unit.
        pub value: f64,
        /// Wall-clock time the estimation took.
        pub elapsed: Duration,
        /// Estimator display name (e.g. `"FirstOrder"`). Owned so estimates
        /// survive serialization round trips (result caches, sinks).
        pub name: String,
        /// Optional standard error of `value` (Monte Carlo only).
        pub std_error: Option<f64> = None,
    }
}

impl Estimate {
    /// Relative difference of this estimate against a reference value
    /// (the paper's "normalized difference with Monte-Carlo"):
    /// `(value − reference) / reference`. Negative ⇒ underestimate.
    pub fn relative_error(&self, reference: f64) -> f64 {
        assert!(reference != 0.0, "reference makespan must be non-zero");
        (self.value - reference) / reference
    }
}

/// An estimator bound to one prepared graph (phase two of the
/// lifecycle; see the module docs).
///
/// Implementations own their model-independent precomputation plus any
/// scratch buffers, which is why evaluation takes `&mut self`: buffers
/// are reused across calls instead of reallocated. Evaluation must
/// still be *pure with respect to the model*: calling
/// [`PreparedEstimator::expected_makespan_for`] twice with the same
/// model (and, for statistical estimators, the same seed) returns the
/// same value, regardless of which other models were evaluated in
/// between. The `prepared_parity` property tests enforce this bit for
/// bit against a fresh preparation per model.
pub trait PreparedEstimator: Send {
    /// Short display name (same as the estimator that produced this).
    fn name(&self) -> &'static str;

    /// Expected makespan of the prepared graph under `model`.
    fn expected_makespan_for(&mut self, model: &FailureModel) -> f64;

    /// Standard error of the most recent evaluation, if the estimator
    /// is statistical. Default: `None`.
    fn std_error_hint(&self) -> Option<f64> {
        None
    }

    /// Replace the random seed used by subsequent evaluations.
    /// Deterministic estimators ignore this (default no-op); the sweep
    /// engine calls it before every cell so one preparation can serve
    /// many deterministically-seeded cells.
    fn reseed(&mut self, _seed: u64) {}

    /// Timed wrapper around [`PreparedEstimator::expected_makespan_for`].
    fn estimate_for(&mut self, model: &FailureModel) -> Estimate {
        let start = Instant::now();
        let value = self.expected_makespan_for(model);
        Estimate {
            value,
            elapsed: start.elapsed(),
            name: self.name().to_string(),
            std_error: self.std_error_hint(),
        }
    }

    /// Evaluate one failure model under a correlated-failure
    /// [`ScenarioModel`].
    ///
    /// The i.i.d. scenario always delegates to
    /// [`PreparedEstimator::estimate_for`], so it is bit-identical to
    /// the plain path. Non-i.i.d. scenarios are supported only by the
    /// families whose math extends soundly: Monte Carlo samples the
    /// mixture directly, and the first-order pair evaluates the
    /// marginal-hazard expansion (exact to first order in λ). Every
    /// other family returns a structured [`UnsupportedScenario`] error
    /// rather than silently ignoring the correlation — that is this
    /// default.
    fn estimate_scenario(
        &mut self,
        model: &FailureModel,
        scenario: &ScenarioModel,
    ) -> Result<Estimate, UnsupportedScenario> {
        if scenario.is_iid() {
            Ok(self.estimate_for(model))
        } else {
            Err(UnsupportedScenario::new(self.name(), scenario))
        }
    }

    /// Evaluate a whole grid of failure models against this one
    /// preparation, in order.
    ///
    /// The default maps [`PreparedEstimator::estimate_for`]. Hot
    /// estimator families override it with a *batched* pass that hoists
    /// whatever is shared across the grid (sensitivity vectors, pair
    /// tables, scratch arenas) out of the per-model loop. Overrides
    /// must return the same `value` bits as the sequential default for
    /// every model — the `grid_parity` integration tests enforce this
    /// for every registered family — because the sweep engine mixes the
    /// two paths freely (cache hits replay single-cell evaluations
    /// against grid-computed neighbors). Only `elapsed` may differ: a
    /// batched pass reports each model's amortized share.
    fn estimate_grid(&mut self, models: &[FailureModel]) -> Vec<Estimate> {
        models.iter().map(|m| self.estimate_for(m)).collect()
    }
}

/// An expected-makespan estimator for task graphs under silent errors.
///
/// The required method is [`Estimator::prepare`], the single
/// implementation of the family; the one-shot [`Estimator::estimate`] /
/// [`Estimator::expected_makespan`] defaults prepare a fresh
/// [`PreparedDag`] and evaluate once. Implementors must be pure: preparing the same graph
/// twice and evaluating the same model returns the same value (Monte
/// Carlo is deterministic given its configured seed).
pub trait Estimator {
    /// Short display name (stable; used in reports and CSV headers).
    fn name(&self) -> &'static str;

    /// Bind this estimator to a prepared graph, hoisting all
    /// model-independent work (phase one; see the module docs).
    fn prepare(&self, prepared: &PreparedDag) -> Box<dyn PreparedEstimator>;

    /// Expected makespan of `dag` under `model`: the value of
    /// [`Estimator::estimate`].
    fn expected_makespan(&self, dag: &Dag, model: &FailureModel) -> f64 {
        self.estimate(dag, model).value
    }

    /// Prepare a fresh [`PreparedDag`] and evaluate `model` once; the
    /// reported `elapsed` covers both phases. Callers that evaluate
    /// several models (or several estimators) on one graph should
    /// [`Estimator::prepare`] once instead.
    fn estimate(&self, dag: &Dag, model: &FailureModel) -> Estimate {
        let start = Instant::now();
        let mut estimate = self
            .prepare(&PreparedDag::new(dag.clone()))
            .estimate_for(model);
        estimate.elapsed = start.elapsed();
        estimate
    }
}

/// An owned, thread-safe estimator handle — what
/// [`EstimatorSpec::build`](crate::EstimatorSpec::build) returns and
/// the scenario-sweep engine prepares per (DAG × estimator) group.
/// `Estimator` is dyn-compatible by construction (no generic methods,
/// no `Self` returns), so trait objects work directly.
pub type BoxedEstimator = Box<dyn Estimator + Send + Sync>;

impl Estimator for BoxedEstimator {
    fn name(&self) -> &'static str {
        self.as_ref().name()
    }

    fn prepare(&self, prepared: &PreparedDag) -> Box<dyn PreparedEstimator> {
        self.as_ref().prepare(prepared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed(f64);
    struct PreparedFixed(f64);

    impl PreparedEstimator for PreparedFixed {
        fn name(&self) -> &'static str {
            "Fixed"
        }
        fn expected_makespan_for(&mut self, _model: &FailureModel) -> f64 {
            self.0
        }
    }

    impl Estimator for Fixed {
        fn name(&self) -> &'static str {
            "Fixed"
        }
        fn prepare(&self, _prepared: &PreparedDag) -> Box<dyn PreparedEstimator> {
            Box::new(PreparedFixed(self.0))
        }
    }

    #[test]
    fn estimate_wraps_value_and_name() {
        let mut g = Dag::new();
        g.add_node(1.0);
        let e = Fixed(42.0).estimate(&g, &FailureModel::failure_free());
        assert_eq!(e.value, 42.0);
        assert_eq!(e.name, "Fixed");
        assert!(e.std_error.is_none());
    }

    #[test]
    fn relative_error_signs() {
        let mut g = Dag::new();
        g.add_node(1.0);
        let e = Fixed(11.0).estimate(&g, &FailureModel::failure_free());
        assert!((e.relative_error(10.0) - 0.1).abs() < 1e-12);
        assert!((e.relative_error(12.0) + 1.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn estimate_grid_evaluates_in_order() {
        let mut g = Dag::new();
        g.add_node(1.0);
        let prepared = PreparedDag::new(g);
        let mut p = Fixed(7.0).prepare(&prepared);
        let grid = p.estimate_grid(&[FailureModel::new(0.1), FailureModel::failure_free()]);
        assert_eq!(grid.len(), 2);
        assert!(grid.iter().all(|e| e.value == 7.0 && e.name == "Fixed"));
    }
}
