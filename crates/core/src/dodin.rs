//! Dodin-baseline estimator: the series-parallel approximation of
//! Section II-A2, wired to the reduction engine of `stochdag-sp`.
//!
//! Nearly all of an evaluation is `DiscreteDist::max_independent` and
//! `convolve` at the joins. When the max became the linear product of
//! the operands' CDFs, the estimates moved by about 1e-12 relative, so
//! the Dodin families' cache keys carry kernel revision 1
//! ([`crate::EstimatorSpec::kernel_revision`]).

use crate::estimator::{Estimator, PreparedEstimator};
use crate::model::FailureModel;
use stochdag_dag::{Dag, PreparedDag};
use stochdag_dist::{DiscreteDist, DurationTable, TaskDurationModel};
use stochdag_sp::{dodin_evaluate, dodin_forward_evaluate, ReduceConfig, ReduceOutcome};

/// How the series-parallel approximation is computed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DodinStrategy {
    /// Literature-faithful node duplication (Dodin 1985). Exact on SP
    /// inputs, but the duplication count grows combinatorially on dense
    /// non-SP DAGs — usable up to a few hundred tasks.
    Duplication,
    /// Forward independence propagation
    /// ([`stochdag_sp::dodin_forward_evaluate`]): one topological pass
    /// with independent maxima, `O(|V| + |E|)` distribution operations.
    /// A scalable surrogate that makes the *same kind* of independence
    /// error as duplication (`stochdag-sp`'s `forward_equivalence`
    /// tests hold the two within 3% of each other on small random DAGs
    /// and Cholesky k = 4) and is what the experiment harness runs at
    /// the paper's k = 12 and k = 20 scales.
    Forward,
}

/// Dodin's series-parallel bound on the expected makespan.
///
/// Task durations are rendered as discrete distributions (2-state by
/// default, matching the paper's probabilistic 2-state DAG framing;
/// optionally truncated-geometric), the DAG is transformed into an
/// approximately equivalent series-parallel network, and that network is
/// evaluated exactly by convolutions/independent maxima with support
/// capped at [`DodinEstimator::with_max_atoms`] atoms.
#[derive(Clone, Debug)]
pub struct DodinEstimator {
    max_atoms: usize,
    duration_model: TaskDurationModel,
    strategy: DodinStrategy,
}

impl Default for DodinEstimator {
    fn default() -> Self {
        DodinEstimator {
            max_atoms: 128,
            duration_model: TaskDurationModel::TwoState,
            strategy: DodinStrategy::Duplication,
        }
    }
}

impl DodinEstimator {
    /// Faithful configuration (duplication engine, 2-state durations,
    /// 128-atom support cap).
    pub fn new() -> DodinEstimator {
        DodinEstimator::default()
    }

    /// Scalable configuration (forward propagation; see
    /// [`DodinStrategy::Forward`]).
    pub fn scalable() -> DodinEstimator {
        DodinEstimator {
            strategy: DodinStrategy::Forward,
            ..Default::default()
        }
    }

    /// Select the strategy explicitly.
    pub fn with_strategy(mut self, strategy: DodinStrategy) -> DodinEstimator {
        self.strategy = strategy;
        self
    }

    /// Set the support cap used after every convolution/max.
    pub fn with_max_atoms(mut self, max_atoms: usize) -> DodinEstimator {
        assert!(
            max_atoms >= 2,
            "need at least two atoms to represent randomness"
        );
        self.max_atoms = max_atoms;
        self
    }

    /// Use truncated-geometric task durations instead of 2-state.
    pub fn with_duration_model(mut self, m: TaskDurationModel) -> DodinEstimator {
        self.duration_model = m;
        self
    }

    /// The configured strategy.
    pub fn strategy(&self) -> DodinStrategy {
        self.strategy
    }

    /// Run the duplication engine, exposing the approximate makespan
    /// *distribution* and the reduction statistics (duplication count
    /// etc.). Always uses [`DodinStrategy::Duplication`] regardless of
    /// the configured strategy.
    pub fn run(&self, dag: &Dag, model: &FailureModel) -> ReduceOutcome {
        self.bind(&PreparedDag::new(dag.clone())).reduce(model)
    }

    /// The approximate makespan distribution under the configured
    /// strategy.
    pub fn makespan_dist(&self, dag: &Dag, model: &FailureModel) -> DiscreteDist {
        self.bind(&PreparedDag::new(dag.clone()))
            .makespan_dist(model)
    }

    fn bind(&self, prepared: &PreparedDag) -> PreparedDodin {
        PreparedDodin {
            est: self.clone(),
            prepared: prepared.clone(),
            table: DurationTable::default(),
        }
    }
}

/// Dodin estimator bound to one prepared graph: the per-node duration
/// table is rebuilt in place per failure model instead of re-rendered
/// atom by atom inside the reduction, and the forward strategy walks
/// the preparation's shared topological order, so no per-model call
/// recomputes it.
struct PreparedDodin {
    est: DodinEstimator,
    prepared: PreparedDag,
    table: DurationTable,
}

impl PreparedDodin {
    /// The duplication engine under `model`, with its reduction
    /// statistics.
    fn reduce(&mut self, model: &FailureModel) -> ReduceOutcome {
        self.table.rebuild(model.lambda, self.prepared.weights());
        let (table, duration_model) = (&self.table, self.est.duration_model);
        let cfg = ReduceConfig {
            max_atoms: self.est.max_atoms,
            ..Default::default()
        };
        dodin_evaluate(
            self.prepared.dag(),
            |i| table.duration_dist(i.index(), duration_model),
            &cfg,
        )
        .expect("Dodin reduction failed (operation limit)")
    }

    /// The makespan distribution under the configured strategy.
    fn makespan_dist(&mut self, model: &FailureModel) -> DiscreteDist {
        match self.est.strategy {
            DodinStrategy::Duplication => self.reduce(model).dist,
            DodinStrategy::Forward => {
                self.table.rebuild(model.lambda, self.prepared.weights());
                let (table, duration_model) = (&self.table, self.est.duration_model);
                dodin_forward_evaluate(
                    self.prepared.dag(),
                    self.prepared.topo_order(),
                    |i| table.duration_dist(i.index(), duration_model),
                    self.est.max_atoms,
                )
            }
        }
    }
}

impl PreparedEstimator for PreparedDodin {
    fn name(&self) -> &'static str {
        self.est.name()
    }

    fn expected_makespan_for(&mut self, model: &FailureModel) -> f64 {
        self.makespan_dist(model).mean()
    }
}

impl Estimator for DodinEstimator {
    fn name(&self) -> &'static str {
        match self.strategy {
            DodinStrategy::Duplication => "Dodin",
            DodinStrategy::Forward => "Dodin(fwd)",
        }
    }

    fn prepare(&self, prepared: &PreparedDag) -> Box<dyn PreparedEstimator> {
        Box::new(self.bind(prepared))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn failure_free_reduces_to_makespan() {
        let g = diamond();
        let v = DodinEstimator::new().expected_makespan(&g, &FailureModel::failure_free());
        assert!((v - 5.0).abs() < 1e-9);
    }

    #[test]
    fn sp_graph_is_exact_vs_exhaustive() {
        // The diamond is SP, so Dodin (with unbounded support) equals
        // the exhaustive 2-state expectation.
        let g = diamond();
        let model = FailureModel::new(0.1);
        let dodin = DodinEstimator::new()
            .with_max_atoms(usize::MAX)
            .expected_makespan(&g, &model);
        let exact = crate::exact::exact_expected_makespan_two_state(&g, &model);
        assert!((dodin - exact).abs() < 1e-9, "dodin {dodin} exact {exact}");
    }

    #[test]
    fn duplication_overestimates_on_shared_prefix() {
        // Non-SP: shared task feeds two join points. Duplication treats
        // the copies as independent, so Dodin ≥ exact here.
        let mut g = Dag::new();
        let s1 = g.add_node(1.0);
        let s2 = g.add_node(1.0);
        let t1 = g.add_node(1.0);
        let t2 = g.add_node(1.0);
        g.add_edge(s1, t1);
        g.add_edge(s1, t2);
        g.add_edge(s2, t2);
        let model = FailureModel::new(0.4);
        let dodin = DodinEstimator::new()
            .with_max_atoms(usize::MAX)
            .expected_makespan(&g, &model);
        let exact = crate::exact::exact_expected_makespan_two_state(&g, &model);
        assert!(
            dodin >= exact - 1e-9,
            "dodin {dodin} must not fall below exact {exact}"
        );
    }

    #[test]
    fn geometric_durations_increase_estimate() {
        let g = diamond();
        let model = FailureModel::new(0.3);
        let two = DodinEstimator::new().expected_makespan(&g, &model);
        let geo = DodinEstimator::new()
            .with_duration_model(TaskDurationModel::GeometricTruncated { tail_eps: 1e-10 })
            .expected_makespan(&g, &model);
        assert!(geo > two, "geometric tail mass must raise the mean");
    }

    #[test]
    fn atom_cap_controls_support() {
        let g = diamond();
        let model = FailureModel::new(0.2);
        let out = DodinEstimator::new().with_max_atoms(4).run(&g, &model);
        assert!(out.dist.len() <= 4);
    }
}
