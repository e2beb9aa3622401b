//! Spelde-style path-based bounds on the expected makespan.
//!
//! A classical family of PERT heuristics (Spelde 1977; surveyed by
//! Möhring and by Canon–Jeannot, both cited by the paper): the makespan
//! is the maximum over all source→sink paths of the path sums; keeping
//! only the `K` *dominant* paths and treating them as **independent
//! normal** variables (CLT over the tasks of each path) gives
//!
//! * a **lower bound flavour** for small `K` (paths are dropped), and
//! * an over-independence error like Dodin's (shared tasks between the
//!   kept paths are treated as independent).
//!
//! `K = 1` degenerates to the expected *critical path* length
//! `Σ_{i∈CP} aᵢ(2 − pᵢ)` — the cheapest failure-aware estimate of all
//! and a true lower bound on `E(G)` (Jensen).
//!
//! Included as an extension baseline: it completes the classical-bounds
//! picture next to Dodin and the normal-propagation family, and it
//! exercises the `k_longest_paths` substrate.

use crate::estimator::{Estimator, PreparedEstimator};
use crate::model::FailureModel;
use stochdag_dag::{k_longest_paths, PreparedDag};
use stochdag_dist::{clark_max_moments, DurationTable, Normal};

/// Path-based estimator: independent-normal max over the `K` longest
/// (failure-free) paths, with per-task 2-state moments.
#[derive(Clone, Copy, Debug)]
pub struct SpeldeEstimator {
    paths: usize,
}

impl Default for SpeldeEstimator {
    fn default() -> Self {
        SpeldeEstimator { paths: 16 }
    }
}

impl SpeldeEstimator {
    /// Estimator over the `paths` longest paths.
    ///
    /// # Panics
    /// Panics if `paths == 0`.
    pub fn new(paths: usize) -> SpeldeEstimator {
        assert!(paths > 0, "need at least one path");
        SpeldeEstimator { paths }
    }

    /// The `K = 1` variant: expected critical-path length (a lower
    /// bound on the expected makespan).
    pub fn critical_path_only() -> SpeldeEstimator {
        SpeldeEstimator { paths: 1 }
    }

    /// Number of paths considered.
    pub fn paths(&self) -> usize {
        self.paths
    }
}

/// Independent-normal max over the dominant paths, laid out flat: all
/// path node indices in one contiguous array, delimited by an offsets
/// table, so the per-model pass touches one linear buffer. The path
/// extraction is model-independent (it uses failure-free weights), so
/// the preparation computes it once per graph; only this cheap per-path
/// moment summation runs per model.
fn spelde_flat(flat: &[u32], offsets: &[u32], table: &DurationTable) -> f64 {
    let mut max: Option<Normal> = None;
    for w in offsets.windows(2) {
        let mut mean = 0.0;
        let mut var = 0.0;
        for &v in &flat[w[0] as usize..w[1] as usize] {
            mean += table.two_state_mean(v as usize);
            var += table.two_state_var(v as usize);
        }
        let n = Normal::from_mean_var(mean, var);
        max = Some(match max {
            None => n,
            Some(cur) => {
                let m = clark_max_moments(cur, n, 0.0);
                Normal::from_mean_var(m.mean, m.var)
            }
        });
    }
    max.expect("a non-empty DAG has at least one path").mean
}

struct PreparedSpelde {
    prepared: PreparedDag,
    /// Flattened node indices of the K dominant paths, in path order.
    flat: Vec<u32>,
    /// `flat[offsets[p]..offsets[p+1]]` is path `p`.
    offsets: Vec<u32>,
    table: DurationTable,
}

impl PreparedEstimator for PreparedSpelde {
    fn name(&self) -> &'static str {
        "Spelde"
    }

    fn expected_makespan_for(&mut self, model: &FailureModel) -> f64 {
        if self.prepared.node_count() == 0 {
            return 0.0;
        }
        self.table.rebuild(model.lambda, self.prepared.weights());
        spelde_flat(&self.flat, &self.offsets, &self.table)
    }
}

impl Estimator for SpeldeEstimator {
    fn name(&self) -> &'static str {
        "Spelde"
    }

    fn prepare(&self, prepared: &PreparedDag) -> Box<dyn PreparedEstimator> {
        let paths = if prepared.node_count() == 0 {
            Vec::new()
        } else {
            k_longest_paths(prepared.dag(), self.paths)
        };
        let mut flat = Vec::new();
        let mut offsets = vec![0u32];
        for p in &paths {
            flat.extend(p.nodes.iter().map(|v| v.index() as u32));
            offsets.push(flat.len() as u32);
        }
        Box::new(PreparedSpelde {
            prepared: prepared.clone(),
            flat,
            offsets,
            table: DurationTable::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monte_carlo::{MonteCarloEstimator, SamplingModel};
    use stochdag_dag::Dag;
    use stochdag_dist::two_state_moments;

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
    fn critical_path_only_closed_form() {
        let g = diamond();
        let model = FailureModel::new(0.05);
        let want: f64 = [1.0, 3.0, 1.0]
            .iter()
            .map(|&a| two_state_moments(a, model.psuccess_of_weight(a)).0)
            .sum();
        let got = SpeldeEstimator::critical_path_only().expected_makespan(&g, &model);
        assert!((got - want).abs() < 1e-12, "{got} vs {want}");
    }

    #[test]
    fn more_paths_never_decrease_the_estimate() {
        let g = diamond();
        let model = FailureModel::new(0.1);
        let mut prev = 0.0;
        for k in [1usize, 2, 4, 8] {
            let v = SpeldeEstimator::new(k).expected_makespan(&g, &model);
            assert!(v + 1e-12 >= prev, "k={k}: {v} < {prev}");
            prev = v;
        }
    }

    #[test]
    fn single_path_lower_bounds_monte_carlo() {
        let g = diamond();
        let model = FailureModel::new(0.1);
        let mc = MonteCarloEstimator::new(300_000)
            .with_seed(5)
            .with_sampling(SamplingModel::TwoState)
            .run(&g, &model);
        let lb = SpeldeEstimator::critical_path_only().expected_makespan(&g, &model);
        assert!(
            lb <= mc.mean + 3.0 * mc.std_error,
            "critical-path bound {lb} above MC {}",
            mc.mean
        );
    }

    #[test]
    fn failure_free_equals_longest_path() {
        let g = diamond();
        let v = SpeldeEstimator::new(8).expected_makespan(&g, &FailureModel::failure_free());
        assert!((v - 5.0).abs() < 1e-9);
    }

    #[test]
    fn tracks_monte_carlo_at_low_rate() {
        let g = diamond();
        let model = FailureModel::new(0.01);
        let mc = MonteCarloEstimator::new(200_000)
            .with_seed(6)
            .with_sampling(SamplingModel::TwoState)
            .run(&g, &model);
        let v = SpeldeEstimator::new(8).expected_makespan(&g, &model);
        let rel = ((v - mc.mean) / mc.mean).abs();
        assert!(rel < 5e-3, "spelde {v} vs MC {} (rel {rel})", mc.mean);
    }

    #[test]
    fn name_and_accessors() {
        assert_eq!(SpeldeEstimator::default().name(), "Spelde");
        assert_eq!(SpeldeEstimator::new(4).paths(), 4);
        assert_eq!(SpeldeEstimator::critical_path_only().paths(), 1);
    }
}
