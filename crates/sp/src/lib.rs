//! # stochdag-sp — series-parallel machinery and Dodin's bound
//!
//! Implements the series-parallel (SP) toolchain needed by the paper's
//! **Dodin** baseline (Dodin, *Bounding the project completion time
//! distribution in PERT networks*, Operations Research 1985):
//!
//! 1. [`ArcNetwork`] — an activity-on-arc rendering of an
//!    activity-on-node task DAG: each task becomes an arc carrying its
//!    duration distribution, each precedence a zero-duration arc, with a
//!    unique virtual source and sink.
//! 2. A *reduction engine* ([`reduce`]) applying
//!    * **series reductions** (node with one in-arc and one out-arc →
//!      convolve the two distributions) and
//!    * **parallel reductions** (two arcs with the same endpoints → max
//!      of independent distributions)
//!      until the network collapses to a single source→sink arc.
//! 3. **Dodin duplication** — when a (non-SP) network is irreducible,
//!    the first node `v` in topological order with in-degree ≥ 2 is
//!    split: one incoming arc `(u, v)` with `outdeg(u) ≥ 2` is moved to
//!    a fresh copy `v'` which receives copies of `v`'s outgoing arcs.
//!    Copies are treated as independent — this is exactly the
//!    approximation that makes Dodin a *bound* rather than an exact
//!    method.
//! 4. [`is_series_parallel`] / [`exact_sp_expected_makespan`] — running
//!    the engine with duplication disabled recognizes SP DAGs and (with
//!    an unbounded atom cap) evaluates them **exactly**, which the tests
//!    use as ground truth for Dodin on SP inputs.
//! 5. [`dodin_forward_evaluate`] — the scalable surrogate: one pass over
//!    a caller-given topological order with independent maxima at every
//!    join, `O(|V| + |E|)` distribution operations.
//!
//! Both evaluators spend their time in the plain
//! [`stochdag_dist::DiscreteDist`] ops — `max_independent`, one linear
//! merge, and `convolve`, a k-way merge — with no scratch state to
//! carry between calls. Support growth is contained by mean-preserving
//! coarsening ([`stochdag_dist::DiscreteDist::reduce_support`]); the
//! cap is a parameter ([`ReduceConfig::max_atoms`]) swept by the
//! `dodin_ablation` bench.

mod arcnet;
mod engine;

pub use arcnet::ArcNetwork;
pub use engine::{
    dodin_evaluate, dodin_forward_evaluate, exact_sp_expected_makespan, is_series_parallel, reduce,
    ReduceConfig, ReduceError, ReduceOutcome,
};
