//! Second-order approximation — the extension sketched in the paper's
//! conclusion ("our general approach … can be used to obtain a (more
//! complicated but still tractable) second order approximation").
//!
//! Expanding the per-task attempt-count probabilities to `O(λ²)` with
//! `xᵢ = λaᵢ`:
//!
//! ```text
//! P(1 attempt)  = 1 − xᵢ + xᵢ²/2       (value aᵢ)
//! P(2 attempts) = xᵢ − (3/2)xᵢ²        (value 2aᵢ)
//! P(3 attempts) = xᵢ²                  (value 3aᵢ)
//! ```
//!
//! so the `O(λ²)`-exact expansion of `E(G)` needs four families of
//! longest paths:
//!
//! ```text
//! E(G) = c∅·d(G) + Σᵢ cᵢ·d(Gᵢ) + Σᵢ xᵢ²·d(Gᵢ³) + Σ_{i<j} xᵢxⱼ·d(G_{ij}) + O(λ³)
//!   c∅ = 1 − Σxᵢ + Σxᵢ²/2 + Σ_{i<j} xᵢxⱼ
//!   cᵢ = xᵢ − (3/2)xᵢ² − xᵢ·Σ_{j≠i} xⱼ
//! ```
//!
//! with `Gᵢ` doubling task `i`, `Gᵢ³` tripling it, and `G_{ij}` doubling
//! both `i` and `j`. The coefficients sum to `1 + O(λ³)` (asserted in
//! tests). `d(Gᵢ)`/`d(Gᵢ³)` come from the level decomposition in `O(1)`;
//! `d(G_{ij})` from all-pairs longest paths:
//!
//! ```text
//! d(G_{ij}) = max( d(G), through-i, through-j,
//!                  top(i) + pa(i,j) + bot(j) + aᵢ )   [if i ⇝ j]
//! ```
//!
//! Total cost `O(|V|·(|V| + |E|))` time and `O(|V|²)` memory.

use crate::estimator::{Estimate, Estimator, PreparedEstimator};
use crate::model::FailureModel;
use std::time::Instant;
use stochdag_dag::{AllPairsLongestPaths, Dag, LevelInfo, PreparedDag};

/// Second-order approximation of the expected makespan under the
/// geometric re-execution model.
pub fn second_order_expected_makespan(dag: &Dag, model: &FailureModel) -> f64 {
    SecondOrderEstimator.expected_makespan(dag, model)
}

/// The model-independent half of the second-order expansion: every
/// longest-path value the coefficient sums touch, precomputed once per
/// graph. `O(|V|²)` memory (like the all-pairs matrix it is derived
/// from, which can be dropped afterwards); evaluation against any λ is
/// then pure coefficient arithmetic ([`PreparedSecondOrder`]).
struct SecondOrderTables {
    /// `d(G)`.
    d_g: f64,
    /// `d(Gᵢ)` per node (task `i` doubled).
    d_gi: Vec<f64>,
    /// `d(Gᵢ³)` per node (task `i` tripled).
    d_gi3: Vec<f64>,
    /// `d(G_{ij})` for `i < j`, packed upper triangle in row-major
    /// order: entry `(i, j)` lives at `i·n − i(i+1)/2 + (j − i − 1)`.
    d_gij: Vec<f64>,
}

impl SecondOrderTables {
    /// Precompute all longest-path values of the expansion.
    fn compute(dag: &Dag, levels: &LevelInfo, ap: &AllPairsLongestPaths) -> SecondOrderTables {
        let n = dag.node_count();
        let d_g = levels.makespan;
        let mut d_gi = Vec::with_capacity(n);
        let mut d_gi3 = Vec::with_capacity(n);
        for i in dag.nodes() {
            d_gi.push(levels.makespan_with_scaled_node(dag, i, 2.0));
            d_gi3.push(levels.makespan_with_scaled_node(dag, i, 3.0));
        }
        let mut d_gij = Vec::with_capacity(n.saturating_sub(1) * n / 2);
        for i in dag.nodes() {
            let through_i = levels.path_through(i) + dag.weight(i);
            for j in dag.nodes().skip(i.index() + 1) {
                let through_j = levels.path_through(j) + dag.weight(j);
                let mut d = d_g.max(through_i).max(through_j);
                // Path through both, i before j (or j before i).
                if ap.reaches(i, j) {
                    let both = levels.top[i.index()]
                        + ap.get(i, j)
                        + levels.bot[j.index()]
                        + dag.weight(i);
                    d = d.max(both);
                } else if ap.reaches(j, i) {
                    let both = levels.top[j.index()]
                        + ap.get(j, i)
                        + levels.bot[i.index()]
                        + dag.weight(j);
                    d = d.max(both);
                }
                d_gij.push(d);
            }
        }
        SecondOrderTables {
            d_g,
            d_gi,
            d_gi3,
            d_gij,
        }
    }

    /// Packed index of pair `(i, j)` with `i < j`.
    #[inline]
    fn pair(&self, n: usize, i: usize, j: usize) -> f64 {
        self.d_gij[i * n - i * (i + 1) / 2 + (j - i - 1)]
    }
}

/// One register-blocked pass of the pair-table sweep covering models
/// `mo..mo + L` of a node-major `x` matrix. Accumulators are seeded
/// from (and written back to) `e`, so each lane's additions happen in
/// exactly the sequential `(i, j)` order starting from its prefix
/// value — bit-identical to the scalar loop, just `L` models per
/// table read. Returns `L` so the dispatcher can advance its offset.
#[inline]
fn pair_sweep_lanes<const L: usize>(
    grid_x: &[f64],
    d_gij: &[f64],
    n: usize,
    m_count: usize,
    mo: usize,
    e: &mut [f64],
) -> usize {
    let mut acc = [0.0f64; L];
    acc.copy_from_slice(&e[mo..mo + L]);
    for i in 0..n {
        let mut xi = [0.0f64; L];
        xi.copy_from_slice(&grid_x[i * m_count + mo..i * m_count + mo + L]);
        let base = i * n - i * (i + 1) / 2;
        let prow = &d_gij[base..base + (n - i - 1)];
        for (pj, &pair) in prow.iter().enumerate() {
            let j = i + 1 + pj;
            let xj = &grid_x[j * m_count + mo..j * m_count + mo + L];
            for l in 0..L {
                acc[l] += xi[l] * xj[l] * pair;
            }
        }
    }
    e[mo..mo + L].copy_from_slice(&acc);
    L
}

/// The second-order estimator.
#[derive(Clone, Copy, Debug, Default)]
pub struct SecondOrderEstimator;

/// Second-order estimator bound to one prepared graph: the
/// `O(|V|·(|V| + |E|))` all-pairs computation and every longest-path
/// value of the expansion are hoisted into [`SecondOrderTables`] at
/// prepare time (the all-pairs matrix itself is dropped immediately),
/// leaving only the λ-dependent coefficient sums per model.
struct PreparedSecondOrder {
    prepared: PreparedDag,
    tables: SecondOrderTables,
    /// Reused `x = λ·a` vector (sequential path).
    x: Vec<f64>,
    /// Reused node-major `x` matrix (grid path): row `i` holds node
    /// `i`'s `λ·a_i` across the grid's models.
    grid_x: Vec<f64>,
}

impl PreparedEstimator for PreparedSecondOrder {
    fn name(&self) -> &'static str {
        "SecondOrder"
    }

    /// The model-dependent half of the expansion: coefficient sums over
    /// the precomputed [`SecondOrderTables`], `O(|V|²)` multiply-adds
    /// with no graph traversal, over the reused `x = λ·a` vector.
    fn expected_makespan_for(&mut self, model: &FailureModel) -> f64 {
        let dag = self.prepared.dag();
        let n = dag.node_count();
        if n == 0 {
            return 0.0;
        }
        let tables = &self.tables;
        let x = &mut self.x;
        x.clear();
        x.extend(dag.nodes().map(|i| model.lambda * dag.weight(i)));
        let sum_x: f64 = x.iter().sum();
        let sum_x2: f64 = x.iter().map(|v| v * v).sum();
        // Σ_{i<j} x_i x_j = ((Σx)² − Σx²)/2
        let sum_cross = 0.5 * (sum_x * sum_x - sum_x2);

        let c_empty = 1.0 - sum_x + 0.5 * sum_x2 + sum_cross;
        let mut e = c_empty * tables.d_g;

        // Single-failure and double-failure-of-one-task terms.
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            let c_i = xi - 1.5 * xi * xi - xi * (sum_x - xi);
            e += c_i * tables.d_gi[i] + xi * xi * tables.d_gi3[i];
        }

        // Distinct-pair single failures.
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            for (j, &xj) in x.iter().enumerate().skip(i + 1) {
                if xj == 0.0 {
                    continue;
                }
                e += xi * xj * tables.pair(n, i, j);
            }
        }
        e
    }

    /// Batched grid pass: the `O(|V|²)` packed pair table — by far the
    /// largest input of the evaluation — is swept **once** for the whole
    /// grid, with every model's accumulator updated per pair, instead of
    /// once per model. Per model, terms are added in exactly the
    /// sequential order (empty-set, single/triple failures in node
    /// order, then pairs in `(i, j)` order), so values are bit-identical
    /// to [`PreparedEstimator::estimate_for`]; `elapsed` is each model's
    /// amortized share of the batched pass.
    fn estimate_grid(&mut self, models: &[FailureModel]) -> Vec<Estimate> {
        let n = self.prepared.node_count();
        if models.is_empty() || n == 0 {
            return models.iter().map(|m| self.estimate_for(m)).collect();
        }
        let start = Instant::now();
        let dag = self.prepared.dag();
        let m_count = models.len();
        // Node-major `x` matrix: row `i` holds node i's `λ·a_i` for
        // every model, so the per-pair model loop below reads two
        // contiguous rows instead of striding across model vectors.
        self.grid_x.clear();
        self.grid_x.resize(n * m_count, 0.0);
        for (ni, node) in dag.nodes().enumerate() {
            let w = dag.weight(node);
            let row = &mut self.grid_x[ni * m_count..(ni + 1) * m_count];
            for (mi, m) in models.iter().enumerate() {
                row[mi] = m.lambda * w;
            }
        }
        // Model-independent prefix: empty-set plus single/triple terms,
        // per model (cheap, O(|V|) each).
        let mut e: Vec<f64> = Vec::with_capacity(m_count);
        for mi in 0..m_count {
            let x = |i: usize| self.grid_x[i * m_count + mi];
            let sum_x: f64 = (0..n).map(&x).sum();
            let sum_x2: f64 = (0..n).map(|i| x(i) * x(i)).sum();
            let sum_cross = 0.5 * (sum_x * sum_x - sum_x2);
            let c_empty = 1.0 - sum_x + 0.5 * sum_x2 + sum_cross;
            let mut acc = c_empty * self.tables.d_g;
            for i in 0..n {
                let xi = x(i);
                if xi == 0.0 {
                    continue;
                }
                let c_i = xi - 1.5 * xi * xi - xi * (sum_x - xi);
                acc += c_i * self.tables.d_gi[i] + xi * xi * self.tables.d_gi3[i];
            }
            e.push(acc);
        }
        // One shared sweep of the pair table for every model: the
        // packed row of pairs `(i, ·)` is sliced once per `i`, and each
        // pair value updates all models off two contiguous `x` rows.
        // When no `x` entry is zero (every real calibration: positive
        // λ, positive weights) the zero-skip tests are dead, and
        // dropping them leaves independent accumulator lanes per pair —
        // branch-free, vectorizable, and bit-identical because skips
        // only alter the sum when a zero exists. The lanes run in
        // fixed-width register blocks (8/4/2/1 models at a time);
        // per-lane addition order is untouched by the blocking, so bits
        // still match the sequential path exactly.
        let has_zero = self.grid_x.contains(&0.0);
        if has_zero {
            for i in 0..n {
                let xi_row = &self.grid_x[i * m_count..(i + 1) * m_count];
                let base = i * n - i * (i + 1) / 2;
                let prow = &self.tables.d_gij[base..base + (n - i - 1)];
                for (pj, &pair) in prow.iter().enumerate() {
                    let j = i + 1 + pj;
                    let xj_row = &self.grid_x[j * m_count..(j + 1) * m_count];
                    for (mi, acc) in e.iter_mut().enumerate() {
                        let xi = xi_row[mi];
                        if xi == 0.0 {
                            continue;
                        }
                        let xj = xj_row[mi];
                        if xj == 0.0 {
                            continue;
                        }
                        *acc += xi * xj * pair;
                    }
                }
            }
        } else {
            let mut mo = 0;
            while mo < m_count {
                let left = m_count - mo;
                let step = if left >= 8 {
                    pair_sweep_lanes::<8>(&self.grid_x, &self.tables.d_gij, n, m_count, mo, &mut e)
                } else if left >= 4 {
                    pair_sweep_lanes::<4>(&self.grid_x, &self.tables.d_gij, n, m_count, mo, &mut e)
                } else if left >= 2 {
                    pair_sweep_lanes::<2>(&self.grid_x, &self.tables.d_gij, n, m_count, mo, &mut e)
                } else {
                    pair_sweep_lanes::<1>(&self.grid_x, &self.tables.d_gij, n, m_count, mo, &mut e)
                };
                mo += step;
            }
        }
        let elapsed = start.elapsed() / models.len() as u32;
        e.into_iter()
            .map(|value| Estimate {
                value,
                elapsed,
                name: self.name().to_string(),
                std_error: None,
            })
            .collect()
    }
}

impl Estimator for SecondOrderEstimator {
    fn name(&self) -> &'static str {
        "SecondOrder"
    }

    fn prepare(&self, prepared: &PreparedDag) -> Box<dyn PreparedEstimator> {
        let ap = AllPairsLongestPaths::compute(prepared.dag());
        Box::new(PreparedSecondOrder {
            tables: SecondOrderTables::compute(prepared.dag(), prepared.levels(), &ap),
            prepared: prepared.clone(),
            x: Vec::new(),
            grid_x: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::first_order::first_order_expected_makespan_fast;
    use crate::monte_carlo::MonteCarloEstimator;

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
    fn zero_lambda_gives_failure_free() {
        let g = diamond();
        let e = second_order_expected_makespan(&g, &FailureModel::failure_free());
        assert_eq!(e, 5.0);
    }

    #[test]
    fn single_task_closed_form() {
        // E[N·a] to O(λ²): a·(1·(1−x+x²/2) + 2·(x−1.5x²) + 3·x²)
        // = a·(1 + x + x²/2) — the O(x²) truncation of a·eˣ = a/p.
        let a = 2.0;
        let lambda = 0.03;
        let x: f64 = lambda * a;
        let mut g = Dag::new();
        g.add_node(a);
        let e = second_order_expected_makespan(&g, &FailureModel::new(lambda));
        let want = a * (1.0 + x + 0.5 * x * x);
        assert!((e - want).abs() < 1e-12, "{e} vs {want}");
    }

    #[test]
    fn agrees_with_first_order_at_order_lambda() {
        // E2 − E1 must be O(λ²): shrink λ by 10 ⇒ difference by ~100.
        let g = diamond();
        let d1 = {
            let m = FailureModel::new(1e-2);
            (second_order_expected_makespan(&g, &m) - first_order_expected_makespan_fast(&g, &m))
                .abs()
        };
        let d2 = {
            let m = FailureModel::new(1e-3);
            (second_order_expected_makespan(&g, &m) - first_order_expected_makespan_fast(&g, &m))
                .abs()
        };
        assert!(d2 < d1 / 50.0, "d(1e-2)={d1} d(1e-3)={d2}: not quadratic");
    }

    #[test]
    fn beats_first_order_at_high_failure_rate() {
        let g = diamond();
        let model = FailureModel::new(0.08); // pfail(ā=1.75) ≈ 13%
        let mc = MonteCarloEstimator::new(400_000)
            .with_seed(4)
            .run(&g, &model);
        let e1 = first_order_expected_makespan_fast(&g, &model);
        let e2 = second_order_expected_makespan(&g, &model);
        let err1 = (e1 - mc.mean).abs();
        let err2 = (e2 - mc.mean).abs();
        assert!(
            err2 < err1,
            "second order ({e2}, err {err2}) should beat first order ({e1}, err {err1}) vs MC {}",
            mc.mean
        );
    }

    #[test]
    fn pair_term_uses_joint_paths() {
        // Chain a→b: both on one path; doubling both lengthens the path
        // by a+b. Verify the closed form for a 2-task chain.
        let (a, b) = (1.0f64, 2.0f64);
        let lambda = 0.05f64;
        let (xa, xb) = (lambda * a, lambda * b);
        let mut g = Dag::new();
        let na = g.add_node(a);
        let nb = g.add_node(b);
        g.add_edge(na, nb);
        let d = a + b;
        let want = (1.0 - xa - xb + 0.5 * (xa * xa + xb * xb) + xa * xb) * d
            + (xa - 1.5 * xa * xa - xa * xb) * (d + a)
            + (xb - 1.5 * xb * xb - xa * xb) * (d + b)
            + xa * xa * (d + 2.0 * a)
            + xb * xb * (d + 2.0 * b)
            + xa * xb * (d + a + b);
        let e = second_order_expected_makespan(&g, &FailureModel::new(lambda));
        assert!((e - want).abs() < 1e-12, "{e} vs {want}");
    }

    #[test]
    fn parallel_pair_term() {
        // Two independent tasks of equal weight w: doubling both gives
        // makespan 2w only when at least one fails (through-i terms),
        // d(G_ij) = 2w as well.
        let w = 1.0;
        let lambda = 0.1;
        let x: f64 = lambda * w;
        let mut g = Dag::new();
        g.add_node(w);
        g.add_node(w);
        let want = (1.0 - 2.0 * x + x * x + x * x) * w
            + 2.0 * (x - 1.5 * x * x - x * x) * (2.0 * w)
            + 2.0 * (x * x) * (3.0 * w)
            + x * x * (2.0 * w);
        let e = second_order_expected_makespan(&g, &FailureModel::new(lambda));
        assert!((e - want).abs() < 1e-12, "{e} vs {want}");
    }

    #[test]
    fn estimator_name() {
        assert_eq!(SecondOrderEstimator.name(), "SecondOrder");
    }
}
