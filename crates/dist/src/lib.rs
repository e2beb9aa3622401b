//! # stochdag-dist — probability substrate
//!
//! The numeric layer under every estimator in the workspace:
//!
//! * [`DiscreteDist`] — finite discrete distributions with convolution,
//!   independent maximum, and mean-preserving support coarsening (the
//!   primitives of Dodin's series-parallel evaluation).
//! * [`Normal`] + [`clark_max_moments`] — normal random variables, the
//!   `Φ`/`φ` special functions, and Clark's 1961 moment formulas for
//!   `max(X, Y)` of correlated normals (the Sculli/CorLCA/covariance
//!   estimators).
//! * [`two_state`] / [`geometric_truncated`] / [`TaskDurationModel`] —
//!   task-duration models under silent errors: a task of weight `a`
//!   succeeds an attempt with probability `p`, so its duration is `a`
//!   w.p. `p` and `2a` otherwise (2-state), or `k·a` w.p.
//!   `p(1−p)^{k−1}` (geometric re-execution).
//! * [`DurationTable`] — the per-node success/failure probabilities and
//!   2-state moments for a whole weight vector, built once per
//!   (graph, model) pair and shared by an estimator's inner loops.
//! * [`failure_probability`] / [`lambda_for_failure_probability`] /
//!   [`mtbf`] — the paper's exponential-rate calibration (Section V-C).

mod dist;
mod duration;
mod normal;

pub use dist::DiscreteDist;
pub use duration::DurationTable;
pub use normal::{clark_max_moments, erf, normal_cdf, normal_pdf, ClarkMoments, Normal};

/// Per-attempt failure probability `1 − e^{−λa}` of a task of weight
/// `a` under error rate `λ`.
#[inline]
pub fn failure_probability(lambda: f64, a: f64) -> f64 {
    debug_assert!(lambda >= 0.0 && a >= 0.0);
    -(-lambda * a).exp_m1()
}

/// The rate `λ` at which a task of weight `mean_weight` fails with
/// probability `pfail`: `λ = −ln(1 − pfail) / mean_weight`.
///
/// # Panics
/// Panics unless `0 ≤ pfail < 1` and `mean_weight > 0`.
pub fn lambda_for_failure_probability(pfail: f64, mean_weight: f64) -> f64 {
    assert!(
        (0.0..1.0).contains(&pfail),
        "pfail must be in [0, 1), got {pfail}"
    );
    assert!(
        mean_weight > 0.0 && mean_weight.is_finite(),
        "mean weight must be positive, got {mean_weight}"
    );
    -(-pfail).ln_1p() / mean_weight
}

/// Mean time between failures `1/λ` (`+∞` for a failure-free model).
#[inline]
pub fn mtbf(lambda: f64) -> f64 {
    if lambda == 0.0 {
        f64::INFINITY
    } else {
        1.0 / lambda
    }
}

/// 2-state duration of a task of weight `a` with per-attempt success
/// probability `p`: `a` w.p. `p`, `2a` w.p. `1 − p` (at most one
/// re-execution — the first-order model's own truncation).
pub fn two_state(a: f64, p_success: f64) -> DiscreteDist {
    assert!(
        (0.0..=1.0).contains(&p_success),
        "success probability {p_success} out of range"
    );
    if a == 0.0 || p_success >= 1.0 {
        return DiscreteDist::point(a);
    }
    if p_success <= 0.0 {
        return DiscreteDist::point(2.0 * a);
    }
    // `a < 2a` for every positive weight, so the support is sorted by
    // construction — take the sort-free constructor.
    DiscreteDist::from_sorted_atoms(vec![(a, p_success), (2.0 * a, 1.0 - p_success)])
}

/// Mean and variance of the 2-state duration:
/// `E = a(2 − p)`, `Var = a²p(1 − p)`.
#[inline]
pub fn two_state_moments(a: f64, p_success: f64) -> (f64, f64) {
    (a * (2.0 - p_success), a * a * p_success * (1.0 - p_success))
}

/// Truncated-geometric duration: `k·a` w.p. `p(1−p)^{k−1}`, truncated
/// at the first `k` whose remaining tail mass drops below `tail_eps`
/// (the tail mass is folded into the last atom so the distribution
/// still sums to 1).
pub fn geometric_truncated(a: f64, p_success: f64, tail_eps: f64) -> DiscreteDist {
    assert!(
        (0.0..=1.0).contains(&p_success),
        "success probability {p_success} out of range"
    );
    assert!(tail_eps > 0.0, "tail_eps must be positive");
    if a == 0.0 || p_success >= 1.0 {
        return DiscreteDist::point(a);
    }
    assert!(
        p_success > 0.0,
        "geometric durations need a positive success probability"
    );
    let q = 1.0 - p_success;
    let mut atoms = Vec::new();
    let mut k = 1u32;
    let mut tail = 1.0f64; // P(attempts >= k)
                           // Hard cap mirrors the Monte-Carlo sampler's clamp.
    while tail > tail_eps && k <= 10_000 {
        let pk = tail * p_success;
        atoms.push((k as f64 * a, pk));
        tail *= q;
        k += 1;
    }
    // Fold the residual tail into the final atom.
    if let Some(last) = atoms.last_mut() {
        last.1 += tail;
    }
    // `k·a` is strictly increasing in `k` up to rounding; the sort-free
    // constructor still merges the (pathological) colliding neighbors.
    DiscreteDist::from_sorted_atoms(atoms)
}

/// Which duration model renders a task's weight + success probability
/// into a discrete distribution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TaskDurationModel {
    /// At most one re-execution (the paper's probabilistic 2-state DAG).
    TwoState,
    /// Geometric attempts truncated at `tail_eps` residual mass.
    GeometricTruncated {
        /// Residual tail mass at which the support is truncated.
        tail_eps: f64,
    },
}

impl TaskDurationModel {
    /// Duration distribution of a task of weight `a` with per-attempt
    /// success probability `p_success`.
    pub fn duration_dist(&self, a: f64, p_success: f64) -> DiscreteDist {
        match *self {
            TaskDurationModel::TwoState => two_state(a, p_success),
            TaskDurationModel::GeometricTruncated { tail_eps } => {
                geometric_truncated(a, p_success, tail_eps)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_inverts_failure_probability() {
        for (pfail, w) in [(0.01, 0.15), (0.001, 1.0), (0.1, 3.5)] {
            let lambda = lambda_for_failure_probability(pfail, w);
            assert!((failure_probability(lambda, w) - pfail).abs() < 1e-14);
        }
    }

    #[test]
    fn paper_section_vc_lambda() {
        // ā = 0.15, pfail = 0.01 ⇒ λ ≈ 0.067 (paper Section V-C).
        let lambda = lambda_for_failure_probability(0.01, 0.15);
        assert!((lambda - 0.067).abs() < 1e-3, "{lambda}");
    }

    #[test]
    fn mtbf_inverts_rate() {
        assert_eq!(mtbf(0.0), f64::INFINITY);
        assert!((mtbf(0.1) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn two_state_shape_and_moments() {
        let d = two_state(1.0, 0.9);
        assert_eq!(d.len(), 2);
        assert!((d.mean() - 1.1).abs() < 1e-15);
        let (m, v) = two_state_moments(1.0, 0.9);
        assert!((m - 1.1).abs() < 1e-15);
        assert!((v - 0.09).abs() < 1e-15);
        assert!((d.mean() - m).abs() < 1e-15);
        assert!(two_state(0.0, 0.5).is_point());
        assert!(two_state(1.0, 1.0).is_point());
    }

    #[test]
    fn geometric_mean_approaches_closed_form() {
        // E[duration] = a/p for the untruncated geometric.
        let (a, p) = (2.0, 0.7);
        let d = geometric_truncated(a, p, 1e-14);
        assert!((d.mean() - a / p).abs() < 1e-9, "mean {}", d.mean());
        assert!((d.total_prob() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn geometric_exceeds_two_state() {
        let (a, p) = (1.0, 0.6);
        let geo = geometric_truncated(a, p, 1e-12).mean();
        let two = two_state(a, p).mean();
        assert!(geo > two, "geo {geo} two {two}");
    }

    #[test]
    fn duration_model_dispatch() {
        let two = TaskDurationModel::TwoState.duration_dist(1.0, 0.9);
        assert_eq!(two.len(), 2);
        let geo = TaskDurationModel::GeometricTruncated { tail_eps: 1e-6 }.duration_dist(1.0, 0.9);
        assert!(geo.len() > 2);
    }
}
