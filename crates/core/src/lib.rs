//! # stochdag-core — expected-makespan estimators under silent errors
//!
//! The paper's primary contribution and every comparator it is evaluated
//! against, behind one trait:
//!
//! | Estimator | Paper role | Cost | Module |
//! |-----------|------------|------|--------|
//! | [`FirstOrderEstimator`] | **the contribution** (Section IV) | `O(V + E)` (fast) or `O(V(V+E))` (naive) | `first_order` |
//! | [`SecondOrderEstimator`] | the paper's "future work" `O(λ²)`-exact extension | `O(V·(V+E))` | `second_order` |
//! | [`MonteCarloEstimator`] | ground truth (Section II-A1) | `trials × O(V+E)`, parallel | `monte_carlo` |
//! | [`DodinEstimator`] | baseline #1 (Section II-A2) | pseudo-polynomial | `dodin` |
//! | [`SculliEstimator`] | baseline #2, ρ = 0 variant (Section II-A3) | `O(V + E)` | `normal` |
//! | [`CorLcaEstimator`] | correlation-aware normal (Canon–Jeannot) | `O(V·E)` worst case | `normal` |
//! | [`CovarianceNormalEstimator`] | full covariance propagation (the paper's slow "Normal" profile) | `O(V²·deg)` | `normal` |
//! | [`SpeldeEstimator`] | path-based bound over the `K` longest paths (Spelde) | `K`-longest-path extraction once, `O(K·V)` per model | `spelde` |
//! | [`ExactEstimator`] | exhaustive 2-state exact (tests/small DAGs) | `O(2^V · (V+E))` | `exact` |
//!
//! All estimators consume a task DAG ([`stochdag_dag::Dag`], weights =
//! failure-free durations) plus a [`FailureModel`] (rate λ, calibrated
//! from a target per-task failure probability as in the paper's
//! Section V-C).
//!
//! ## Two-phase estimator lifecycle
//!
//! Estimation splits into a per-graph **prepare** step and a per-model
//! **evaluate** step:
//!
//! 1. Wrap the graph once in a [`stochdag_dag::PreparedDag`] — this
//!    freezes the CSR adjacency, fixes a topological order, and (lazily)
//!    computes the level decomposition and the structural hash, all
//!    shared by every estimator.
//! 2. [`Estimator::prepare`] binds an estimator to that preparation and
//!    hoists its own model-independent work (all-pairs longest paths for
//!    `SecondOrder`, dominant path sets for `Spelde`, scratch buffers
//!    for `MonteCarlo`/`Exact`, …).
//! 3. [`PreparedEstimator::estimate_for`] — or the batched
//!    [`PreparedEstimator::estimate_grid`] — evaluates one failure model
//!    against that preparation, as many times as needed.
//!
//! **When to use which path:** `prepare` is the only implementation of
//! every family. Evaluating one (graph, model) pair — a CLI `analyze`
//! call, a scheduler probing a candidate DAG — can call
//! [`Estimator::estimate`] / [`Estimator::expected_makespan`], trait
//! defaults that prepare a fresh [`stochdag_dag::PreparedDag`] and
//! evaluate once. Evaluating a *grid* (many failure models, many
//! estimators, one graph) — the sweep engine, the paper's accuracy
//! studies — should prepare once per (graph, estimator) pair; the
//! `prepared_pipeline` bench measures the resulting amortization. The
//! `prepared_parity` property tests check that a reused preparation
//! returns the same bits as a fresh one per model.
//!
//! ## Quick example
//!
//! ```
//! use stochdag_core::{Estimator, FailureModel, FirstOrderEstimator, MonteCarloEstimator};
//! use stochdag_dag::{DagBuilder, PreparedDag};
//!
//! let mut b = DagBuilder::new();
//! let s = b.add_task("setup", 1.0);
//! let w = b.add_task("work", 4.0);
//! b.add_dep(s, w);
//! let dag = b.build().unwrap();
//!
//! let model = FailureModel::from_pfail(0.001, dag.mean_weight());
//! // One shot: prepare and evaluate in one call.
//! let first_order = FirstOrderEstimator::fast().estimate(&dag, &model);
//! let mc = MonteCarloEstimator::new(100_000).with_seed(42).estimate(&dag, &model);
//! let rel = (first_order.value - mc.value).abs() / mc.value;
//! assert!(rel < 1e-3, "first order within {rel} of Monte Carlo");
//!
//! // Grid evaluation: prepare once, evaluate many models against it.
//! let prepared = PreparedDag::new(dag);
//! let mut fo = FirstOrderEstimator::fast().prepare(&prepared);
//! let models: Vec<FailureModel> =
//!     [0.01, 0.001].iter().map(|&p| FailureModel::from_pfail(p, 2.5)).collect();
//! let grid = fo.estimate_grid(&models);
//! assert_eq!(grid.len(), 2);
//! assert_eq!(grid[1].value, first_order.value);
//! ```

mod estimator;
mod exact;
mod first_order;
mod model;
mod monte_carlo;
mod normal;
mod scenario;
mod second_order;
mod spec;
mod spelde;

pub mod dvfs;

pub mod dodin;

pub use dodin::DodinEstimator;
pub use dvfs::{speed_tradeoff, DvfsModel, PowerModel, TradeoffPoint};
pub use estimator::{BoxedEstimator, Estimate, Estimator, PreparedEstimator};
pub use exact::{exact_expected_makespan_two_state, ExactEstimator, MAX_EXACT_NODES};
pub use first_order::{
    first_order_detailed, first_order_expected_makespan_fast, first_order_expected_makespan_naive,
    FirstOrderEstimator, FirstOrderResult,
};
pub use model::FailureModel;
pub use monte_carlo::{MonteCarloEstimator, MonteCarloResult, SamplingModel};
pub use normal::{CorLcaEstimator, CovarianceNormalEstimator, SculliEstimator};
pub use scenario::{ScenarioModel, UnsupportedScenario};
pub use second_order::{second_order_expected_makespan, SecondOrderEstimator};
pub use spec::{
    EstimatorSpec, DEFAULT_DODIN_ATOMS, DEFAULT_MC_TRIALS, DEFAULT_SPELDE_PATHS, ESTIMATOR_FAMILIES,
};
pub use spelde::SpeldeEstimator;
