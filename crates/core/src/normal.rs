//! Normal-approximation estimators (paper Section II-A3).
//!
//! All three share the same skeleton, due to Sculli (1983): propagate
//! each task's completion time through the DAG as a *normal* random
//! variable — sums are exact on normals, maxima are re-normalized via
//! Clark's moment formulas — and differ only in how the correlation
//! between the two maximands is obtained:
//!
//! * [`SculliEstimator`] — assumes every max is over independent
//!   variables (ρ = 0). `O(|V| + |E|)`.
//! * [`CorLcaEstimator`] — the Canon–Jeannot heuristic: each node keeps
//!   a *canonical* predecessor (the branch most likely to realize its
//!   start-time max), forming a tree; `Cov(C_u, C_v)` is approximated by
//!   `Var(C_a)` where `a` is the lowest common ancestor of `u`, `v` in
//!   that tree. `O(|E| · depth)`.
//! * [`CovarianceNormalEstimator`] — propagates the full covariance
//!   matrix of all completion times through Clark's covariance update
//!   (`Cov(max(X,Y), Z) = Φ(α)·Cov(X,Z) + Φ(−α)·Cov(Y,Z)`).
//!   `O(|E|·|V|)` time, `O(|V|²)` memory — the expensive, accurate
//!   variant whose cost profile matches the paper's "Normal" column in
//!   Table I.
//!
//! Task durations enter as their exact 2-state mean/variance
//! (`E = a(2−p)`, `Var = a²p(1−p)`), matching the paper's description of
//! approximating the *discrete* 2-state duration by a normal of the same
//! mean and variance. The per-node moments come from a
//! [`DurationTable`] that each preparation rebuilds in place per model;
//! the estimators reuse the shared topological order of their
//! [`PreparedDag`] and walk the graph through per-preparation scratch
//! buffers (completion vectors, the canonical tree, the covariance
//! matrix), so evaluating a whole grid of failure models allocates
//! nothing after the first call. Each family's Clark-max fold is one
//! function, applied to a node's predecessors and to the exit tasks.

use crate::estimator::{Estimator, PreparedEstimator};
use crate::model::FailureModel;
use stochdag_dag::{Dag, NodeId, PreparedDag};
use stochdag_dist::{clark_max_moments, DurationTable, Normal};

/// Correlation of two normals from their covariance, clamped to
/// `[−1, 1]`; 0 when either is degenerate.
fn correlation(cov: f64, x: Normal, y: Normal) -> f64 {
    let denom = x.sd * y.sd;
    if denom > 0.0 {
        (cov / denom).clamp(-1.0, 1.0)
    } else {
        0.0
    }
}

// ---------------------------------------------------------------------
// Sculli (ρ = 0)
// ---------------------------------------------------------------------

/// Sculli's normal-approximation estimator with independence assumed at
/// every maximum.
#[derive(Clone, Copy, Debug, Default)]
pub struct SculliEstimator;

/// Sequential ρ = 0 Clark max over the completions of `nodes`; the zero
/// normal when `nodes` is empty.
fn sculli_max(nodes: &[NodeId], completion: &[Normal]) -> Normal {
    let mut max = Normal::new(0.0, 0.0);
    for (k, &v) in nodes.iter().enumerate() {
        let c = completion[v.index()];
        max = if k == 0 {
            c
        } else {
            let m = clark_max_moments(max, c, 0.0);
            Normal::from_mean_var(m.mean, m.var)
        };
    }
    max
}

/// Sculli's propagation over a caller-provided completion buffer, which
/// the prepared estimator owns, so evaluating a whole grid of failure
/// models allocates nothing after the first call.
fn sculli_into(
    dag: &Dag,
    topo: &[NodeId],
    sinks: &[NodeId],
    table: &DurationTable,
    completion: &mut Vec<Normal>,
) -> f64 {
    if dag.node_count() == 0 {
        return 0.0;
    }
    completion.clear();
    completion.resize(dag.node_count(), Normal::new(0.0, 0.0));
    for &v in topo {
        let start = sculli_max(dag.preds(v), completion);
        let d = table.two_state_normal(v.index());
        completion[v.index()] = Normal::from_mean_var(start.mean + d.mean, start.var() + d.var());
    }
    sculli_max(sinks, completion).mean
}

struct PreparedSculli {
    prepared: PreparedDag,
    table: DurationTable,
    completion: Vec<Normal>,
}

impl PreparedEstimator for PreparedSculli {
    fn name(&self) -> &'static str {
        "Sculli"
    }

    fn expected_makespan_for(&mut self, model: &FailureModel) -> f64 {
        self.table.rebuild(model.lambda, self.prepared.weights());
        sculli_into(
            self.prepared.dag(),
            self.prepared.topo_order(),
            self.prepared.sinks(),
            &self.table,
            &mut self.completion,
        )
    }
}

impl Estimator for SculliEstimator {
    fn name(&self) -> &'static str {
        "Sculli"
    }

    fn prepare(&self, prepared: &PreparedDag) -> Box<dyn PreparedEstimator> {
        Box::new(PreparedSculli {
            prepared: prepared.clone(),
            table: DurationTable::default(),
            completion: Vec::new(),
        })
    }
}

// ---------------------------------------------------------------------
// CorLCA (Canon–Jeannot)
// ---------------------------------------------------------------------

/// Correlation-aware normal estimator using the canonical-ancestor
/// covariance heuristic of Canon & Jeannot.
#[derive(Clone, Copy, Debug, Default)]
pub struct CorLcaEstimator;

#[derive(Default)]
struct CanonicalTree {
    parent: Vec<Option<u32>>,
    depth: Vec<u32>,
    /// Var(C_v) for every processed node.
    var_c: Vec<f64>,
}

impl CanonicalTree {
    /// Clear and resize for a fresh walk, reusing the allocations. The
    /// resulting state is indistinguishable from a freshly built tree.
    fn reset(&mut self, n: usize) {
        self.parent.clear();
        self.parent.resize(n, None);
        self.depth.clear();
        self.depth.resize(n, 0);
        self.var_c.clear();
        self.var_c.resize(n, 0.0);
    }

    /// Covariance estimate `Var(C_lca(u, v))`; 0 when the two nodes have
    /// no common canonical ancestor.
    fn cov(&self, u: u32, v: u32) -> f64 {
        let (mut a, mut b) = (u, v);
        while self.depth[a as usize] > self.depth[b as usize] {
            a = match self.parent[a as usize] {
                Some(p) => p,
                None => return 0.0,
            };
        }
        while self.depth[b as usize] > self.depth[a as usize] {
            b = match self.parent[b as usize] {
                Some(p) => p,
                None => return 0.0,
            };
        }
        while a != b {
            match (self.parent[a as usize], self.parent[b as usize]) {
                (Some(pa), Some(pb)) => {
                    a = pa;
                    b = pb;
                }
                _ => return 0.0,
            }
        }
        self.var_c[a as usize]
    }

    fn attach(&mut self, v: u32, parent: Option<u32>, var_c: f64) {
        self.parent[v as usize] = parent;
        self.depth[v as usize] = parent.map_or(0, |p| self.depth[p as usize] + 1);
        self.var_c[v as usize] = var_c;
    }
}

/// Sequential Clark max over the completions of `nodes`, with each
/// pair's covariance taken from the canonical tree. Also returns the
/// canonical maximand: the node more likely to realize the max (`None`
/// when `nodes` is empty, whose max is the zero normal).
fn corlca_max(
    nodes: &[NodeId],
    completion: &[Normal],
    tree: &CanonicalTree,
) -> (Normal, Option<u32>) {
    let mut max = Normal::new(0.0, 0.0);
    let mut rep: Option<u32> = None;
    for &v in nodes {
        let c = completion[v.index()];
        match rep {
            None => {
                max = c;
                rep = Some(v.index() as u32);
            }
            Some(r) => {
                let rho = correlation(tree.cov(r, v.index() as u32), max, c);
                let m = clark_max_moments(max, c, rho);
                if m.phi_alpha < 0.5 {
                    rep = Some(v.index() as u32);
                }
                max = Normal::from_mean_var(m.mean, m.var);
            }
        }
    }
    (max, rep)
}

/// CorLCA's propagation over caller-provided completion and
/// canonical-tree buffers (see [`sculli_into`]).
fn corlca_into(
    dag: &Dag,
    topo: &[NodeId],
    sinks: &[NodeId],
    table: &DurationTable,
    completion: &mut Vec<Normal>,
    tree: &mut CanonicalTree,
) -> f64 {
    if dag.node_count() == 0 {
        return 0.0;
    }
    let n = dag.node_count();
    completion.clear();
    completion.resize(n, Normal::new(0.0, 0.0));
    tree.reset(n);
    for &v in topo {
        let (start, rep) = corlca_max(dag.preds(v), completion, tree);
        let d = table.two_state_normal(v.index());
        let c_v = Normal::from_mean_var(start.mean + d.mean, start.var() + d.var());
        completion[v.index()] = c_v;
        tree.attach(v.index() as u32, rep, c_v.var());
    }
    corlca_max(sinks, completion, tree).0.mean
}

struct PreparedCorLca {
    prepared: PreparedDag,
    table: DurationTable,
    completion: Vec<Normal>,
    tree: CanonicalTree,
}

impl PreparedEstimator for PreparedCorLca {
    fn name(&self) -> &'static str {
        "CorLCA"
    }

    fn expected_makespan_for(&mut self, model: &FailureModel) -> f64 {
        self.table.rebuild(model.lambda, self.prepared.weights());
        corlca_into(
            self.prepared.dag(),
            self.prepared.topo_order(),
            self.prepared.sinks(),
            &self.table,
            &mut self.completion,
            &mut self.tree,
        )
    }
}

impl Estimator for CorLcaEstimator {
    fn name(&self) -> &'static str {
        "CorLCA"
    }

    fn prepare(&self, prepared: &PreparedDag) -> Box<dyn PreparedEstimator> {
        Box::new(PreparedCorLca {
            prepared: prepared.clone(),
            table: DurationTable::default(),
            completion: Vec::new(),
            tree: CanonicalTree::default(),
        })
    }
}

// ---------------------------------------------------------------------
// Full covariance propagation
// ---------------------------------------------------------------------

/// Normal estimator propagating the complete covariance matrix of task
/// completion times (see module docs). Accuracy is the best of the
/// normal family; memory is `O(|V|²)`.
#[derive(Clone, Copy, Debug, Default)]
pub struct CovarianceNormalEstimator;

/// Reusable `O(|V|²)` workspace of the covariance propagation.
#[derive(Default)]
struct CovScratch {
    /// `cov[i*n + j] = Cov(C_i, C_j)`, filled in topological order.
    cov: Vec<f64>,
    /// `mean[i] = E[C_i]`.
    mean: Vec<f64>,
    /// Scratch row: `Cov(partial max M, C_z)` for all `z`.
    row: Vec<f64>,
}

/// Sequential Clark max over the completions of `nodes`, leaving
/// `Cov(max, C_z)` for every `z` in `row` (all zero, like the zero
/// normal returned, when `nodes` is empty).
fn covariance_max(nodes: &[NodeId], mean: &[f64], cov: &[f64], row: &mut [f64]) -> Normal {
    let n = row.len();
    let mut max = Normal::new(0.0, 0.0);
    row.iter_mut().for_each(|x| *x = 0.0);
    for (k, &v) in nodes.iter().enumerate() {
        let vi = v.index();
        let c = Normal::from_mean_var(mean[vi], cov[vi * n + vi]);
        let crow = &cov[vi * n..(vi + 1) * n];
        if k == 0 {
            max = c;
            row.copy_from_slice(crow);
        } else {
            let mm = clark_max_moments(max, c, correlation(row[vi], max, c));
            let (w1, w2) = (mm.phi_alpha, 1.0 - mm.phi_alpha);
            for (r, &cz) in row.iter_mut().zip(crow.iter()) {
                *r = w1 * *r + w2 * cz;
            }
            max = Normal::from_mean_var(mm.mean, mm.var);
        }
    }
    max
}

fn covariance_into(
    dag: &Dag,
    topo: &[NodeId],
    sinks: &[NodeId],
    table: &DurationTable,
    scratch: &mut CovScratch,
) -> f64 {
    if dag.node_count() == 0 {
        return 0.0;
    }
    let n = dag.node_count();
    scratch.cov.clear();
    scratch.cov.resize(n * n, 0.0);
    scratch.mean.clear();
    scratch.mean.resize(n, 0.0);
    scratch.row.clear();
    scratch.row.resize(n, 0.0);
    let (cov, mean, row) = (&mut scratch.cov, &mut scratch.mean, &mut scratch.row);
    for &v in topo {
        let vi = v.index();
        let m = covariance_max(dag.preds(v), mean, cov, row);
        let d = table.two_state_normal(vi);
        mean[vi] = m.mean + d.mean;
        let var_v = m.var() + d.var();
        // Write Cov(C_v, ·): the duration is independent of
        // everything else, so it contributes only to the diagonal.
        for z in 0..n {
            let c = row[z];
            cov[vi * n + z] = c;
            cov[z * n + vi] = c;
        }
        cov[vi * n + vi] = var_v;
    }
    covariance_max(sinks, mean, cov, row).mean
}

struct PreparedCovariance {
    prepared: PreparedDag,
    table: DurationTable,
    scratch: CovScratch,
}

impl PreparedEstimator for PreparedCovariance {
    fn name(&self) -> &'static str {
        "Normal(cov)"
    }

    fn expected_makespan_for(&mut self, model: &FailureModel) -> f64 {
        self.table.rebuild(model.lambda, self.prepared.weights());
        covariance_into(
            self.prepared.dag(),
            self.prepared.topo_order(),
            self.prepared.sinks(),
            &self.table,
            &mut self.scratch,
        )
    }
}

impl Estimator for CovarianceNormalEstimator {
    fn name(&self) -> &'static str {
        "Normal(cov)"
    }

    fn prepare(&self, prepared: &PreparedDag) -> Box<dyn PreparedEstimator> {
        Box::new(PreparedCovariance {
            prepared: prepared.clone(),
            table: DurationTable::default(),
            scratch: CovScratch::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monte_carlo::{MonteCarloEstimator, SamplingModel};

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

    fn all_normals() -> Vec<(&'static str, Box<dyn Estimator>)> {
        vec![
            ("sculli", Box::new(SculliEstimator)),
            ("corlca", Box::new(CorLcaEstimator)),
            ("cov", Box::new(CovarianceNormalEstimator)),
        ]
    }

    #[test]
    fn failure_free_reduces_to_deterministic_makespan() {
        let g = diamond();
        let m = FailureModel::failure_free();
        for (name, est) in all_normals() {
            let v = est.expected_makespan(&g, &m);
            assert!((v - 5.0).abs() < 1e-9, "{name}: {v}");
        }
    }

    #[test]
    fn chain_is_exact_for_all_variants() {
        // No maxima on a chain ⇒ the normal methods are exact: E = Σ a(2−p).
        let mut g = Dag::new();
        let mut prev = None;
        for w in [1.0, 2.0, 0.5] {
            let v = g.add_node(w);
            if let Some(p) = prev {
                g.add_edge(p, v);
            }
            prev = Some(v);
        }
        let model = FailureModel::new(0.1);
        let want: f64 = [1.0, 2.0, 0.5]
            .iter()
            .map(|&a| {
                let p = model.psuccess_of_weight(a);
                a * (2.0 - p)
            })
            .sum();
        for (name, est) in all_normals() {
            let v = est.expected_makespan(&g, &model);
            assert!((v - want).abs() < 1e-9, "{name}: {v} want {want}");
        }
    }

    #[test]
    fn independent_forks_agree_across_variants() {
        // Maxima over genuinely independent branches: ρ = 0 is the true
        // correlation, so all three must coincide.
        let mut g = Dag::new();
        g.add_node(1.0);
        g.add_node(1.0);
        g.add_node(1.5);
        let model = FailureModel::new(0.2);
        let s = SculliEstimator.expected_makespan(&g, &model);
        let c = CorLcaEstimator.expected_makespan(&g, &model);
        let f = CovarianceNormalEstimator.expected_makespan(&g, &model);
        assert!((s - c).abs() < 1e-9, "sculli {s} corlca {c}");
        assert!((s - f).abs() < 1e-9, "sculli {s} cov {f}");
    }

    #[test]
    fn correlated_branches_sculli_overestimates() {
        // Shared prefix a feeding two branches that rejoin: Sculli treats
        // the branch completions as independent although both contain
        // C_a, overestimating E[max]. The correlation-aware variants
        // must be at or below Sculli and closer to Monte Carlo.
        let mut g = Dag::new();
        let a = g.add_node(4.0);
        let b = g.add_node(1.0);
        let c = g.add_node(1.0);
        let d = g.add_node(0.5);
        g.add_edge(a, b);
        g.add_edge(a, c);
        g.add_edge(b, d);
        g.add_edge(c, d);
        let model = FailureModel::new(0.25);
        let s = SculliEstimator.expected_makespan(&g, &model);
        let l = CorLcaEstimator.expected_makespan(&g, &model);
        let f = CovarianceNormalEstimator.expected_makespan(&g, &model);
        let mc = MonteCarloEstimator::new(400_000)
            .with_seed(1)
            .with_sampling(SamplingModel::TwoState)
            .run(&g, &model);
        assert!(l <= s + 1e-9, "CorLCA {l} must not exceed Sculli {s}");
        assert!(f <= s + 1e-9, "Cov {f} must not exceed Sculli {s}");
        assert!(
            (f - mc.mean).abs() <= (s - mc.mean).abs() + 3.0 * mc.std_error,
            "cov {f} should be at least as close to MC {} as Sculli {s}",
            mc.mean
        );
    }

    #[test]
    fn normal_estimates_track_monte_carlo_on_diamond() {
        let g = diamond();
        let model = FailureModel::from_pfail_for_dag(0.01, &g);
        let mc = MonteCarloEstimator::new(300_000)
            .with_seed(2)
            .with_sampling(SamplingModel::TwoState)
            .run(&g, &model);
        for (name, est) in all_normals() {
            let v = est.expected_makespan(&g, &model);
            let rel = ((v - mc.mean) / mc.mean).abs();
            assert!(rel < 0.01, "{name}: {v} vs MC {} (rel {rel})", mc.mean);
        }
    }

    #[test]
    fn prepared_matches_one_shot_across_models() {
        let g = diamond();
        let prepared = PreparedDag::new(g.clone());
        let models = [
            FailureModel::new(0.05),
            FailureModel::failure_free(),
            FailureModel::new(0.2),
        ];
        for (name, est) in all_normals() {
            let mut prep = est.prepare(&prepared);
            for m in &models {
                let a = prep.expected_makespan_for(m);
                let b = est.expected_makespan(&g, m);
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{name}: prepared {a} vs one-shot {b}"
                );
            }
        }
    }

    #[test]
    fn estimator_names() {
        assert_eq!(SculliEstimator.name(), "Sculli");
        assert_eq!(CorLcaEstimator.name(), "CorLCA");
        assert_eq!(CovarianceNormalEstimator.name(), "Normal(cov)");
    }
}
