//! # stochdag — expected makespan of task graphs under silent errors
//!
//! Umbrella crate re-exporting the full public API of the workspace, a
//! Rust reproduction of **Casanova, Herrmann, Robert, "Computing the
//! expected makespan of task graphs in the presence of silent errors"**
//! (P2S2/ICPP 2016).
//!
//! ## Layout
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`dag`] | `stochdag-dag` | DAG substrate: graphs, topological order, longest paths, DOT |
//! | [`dist`] | `stochdag-dist` | discrete distributions, normal/erf, Clark's formulas, failure calibration |
//! | [`taskgraphs`] | `stochdag-taskgraphs` | Cholesky/LU/QR generators (paper Figs. 1–3) + synthetic families |
//! | [`workload`] | `stochdag-workload` | real-trace ingestion (DOT, WfCommons JSON) + correlated failure scenarios |
//! | [`sp`] | `stochdag-sp` | series-parallel reductions, Dodin's transformation |
//! | [`core`] | `stochdag-core` | the estimators: FirstOrder, SecondOrder, MonteCarlo, Dodin, Sculli/CorLCA/Normal(cov), Spelde, Exact; `EstimatorSpec` names and builds each |
//! | [`sched`] | `stochdag-sched` | failure-aware list scheduling, HEFT, execution simulation |
//! | [`engine`] | `stochdag-engine` | parallel scenario sweeps: campaigns over typed estimator specs, content-addressed caching, streaming sinks |
//!
//! ## Quickstart
//!
//! ```
//! use stochdag::prelude::*;
//!
//! // The paper's LU workload at k = 4, with the calibrated weight table.
//! let dag = lu_dag(4, &KernelTimings::paper_default());
//! // Paper protocol: pfail = 0.001 for the average task.
//! let model = FailureModel::from_pfail_for_dag(0.001, &dag);
//!
//! let first_order = FirstOrderEstimator::fast().estimate(&dag, &model);
//! let mc = MonteCarloEstimator::new(50_000).with_seed(1).estimate(&dag, &model);
//! let rel = first_order.relative_error(mc.value).abs();
//! assert!(rel < 1e-3, "first-order error {rel} vs Monte Carlo");
//! ```

pub use stochdag_core as core;
pub use stochdag_dag as dag;
pub use stochdag_dist as dist;
pub use stochdag_engine as engine;
pub use stochdag_sched as sched;
pub use stochdag_sp as sp;
pub use stochdag_taskgraphs as taskgraphs;
pub use stochdag_workload as workload;

/// Convenient glob-import surface for applications and examples.
pub mod prelude {
    pub use stochdag_core::{
        dodin::DodinStrategy,
        dvfs::{speed_tradeoff, DvfsModel, PowerModel, TradeoffPoint},
        exact_expected_makespan_two_state, first_order_detailed,
        first_order_expected_makespan_fast, first_order_expected_makespan_naive,
        second_order_expected_makespan, CorLcaEstimator, CovarianceNormalEstimator, DodinEstimator,
        Estimate, Estimator, ExactEstimator, FailureModel, FirstOrderEstimator, FirstOrderResult,
        MonteCarloEstimator, MonteCarloResult, PreparedEstimator, SamplingModel, SculliEstimator,
        SecondOrderEstimator, SpeldeEstimator,
    };
    pub use stochdag_dag::{
        dot_string, longest_path_length, structural_hash, topological_layers, topological_order,
        Dag, DagBuilder, LevelInfo, LongestPaths, NodeId, PreparedDag, TopoLayers,
    };
    pub use stochdag_dist::{
        clark_max_moments, failure_probability, geometric_truncated,
        lambda_for_failure_probability, two_state, DiscreteDist, DurationTable, Normal,
        TaskDurationModel,
    };
    pub use stochdag_engine::{
        Campaign, CampaignBuilder, CampaignEvent, CampaignObserver, CsvSink, DagSpec, DryRun,
        EngineError, EstimatorRegistry, EstimatorSpec, ExecBackend, InProcess, JsonlSink,
        MultiProcess, ProgressMode, ProgressReporter, ResultCache, ResultSink, ResumeReport,
        SweepOutcome, SweepSpec, VecSink, WireObserver,
    };
    pub use stochdag_sched::{
        compare_policies, heft_schedule, list_schedule, simulate_execution, Priority, Schedule,
        SimConfig,
    };
    pub use stochdag_sp::{dodin_forward_evaluate, exact_sp_expected_makespan, is_series_parallel};
    pub use stochdag_taskgraphs::{
        chain_dag, cholesky_dag, diamond_mesh_dag, erdos_renyi_dag, fork_join_dag,
        layered_random_dag, lu_dag, qr_dag, FactorizationClass, Kernel, KernelTimings,
        LayeredConfig,
    };
    pub use stochdag_workload::{
        load_dot, load_trace_json, parse_dot, parse_trace_json, IngestedTrace, ScenarioSpec,
        TraceFormat, WorkloadError,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_compiles_and_links_the_whole_stack() {
        let dag = cholesky_dag(3, &KernelTimings::paper_default());
        let model = FailureModel::from_pfail_for_dag(0.01, &dag);
        let e = FirstOrderEstimator::fast().estimate(&dag, &model);
        assert!(e.value >= longest_path_length(&dag));
    }
}
