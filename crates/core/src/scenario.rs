//! Correlated failure scenarios layered over the i.i.d.
//! [`FailureModel`](crate::FailureModel).
//!
//! The paper (and every estimator family in this crate) assumes task
//! failures are independent with per-task probability `pfail(a_i) =
//! 1 − e^{−λ a_i}`. Real platforms violate that in two canonical ways:
//! a shared fault domain (a rack, a PDU, a switch) takes a *group* of
//! tasks down together, and failure rates drift over *time* (bursts).
//! [`ScenarioModel`] captures both as resolved, per-node data so the
//! sampling and analytic layers stay ignorant of how groups or windows
//! were specified (that lives in `stochdag-workload`):
//!
//! - [`ScenarioModel::Iid`] — the paper's baseline; estimators treat it
//!   exactly like a plain [`FailureModel`](crate::FailureModel)
//!   (bit-identical results).
//! - [`ScenarioModel::GroupHazard`] — every node belongs to one group;
//!   per trial each group is independently "hot" with probability `q`,
//!   and a hot member's failure hazard is multiplied by `m` (its
//!   per-attempt success probability becomes `psucc^m`). This is the
//!   rack-correlated mixture: failures of same-group tasks are
//!   positively correlated through the shared hot/cold draw.
//! - [`ScenarioModel::NodeHazard`] — a fixed hazard multiplier per
//!   node (bursty/temporal windows resolve to this). No cross-task
//!   correlation, but the inhomogeneity alone already breaks the
//!   identical-distribution assumption analytic families lean on.
//!
//! The *marginal* hazard multiplier `h̄_i` (expectation over the group
//! draw) is what first-order analysis needs: to first order in λ, the
//! expected makespan under a scenario is `d(G) + Σ_i λ h̄_i a_i Δ_i`,
//! because correlation between tasks only enters at `O(λ²)`.
//! [`ScenarioModel::marginal_hazard`] returns exactly that multiplier.
//!
//! Estimators that cannot honor a scenario return a structured
//! [`UnsupportedScenario`] error instead of silently ignoring the
//! correlation; see `PreparedEstimator::estimate_scenario`.

use std::fmt;

/// A resolved correlated-failure scenario: per-node data only, no file
/// paths, window specs, or group labels (those live in
/// `stochdag-workload`, which resolves a user-facing spec against a
/// concrete DAG into this form).
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioModel {
    /// Independent, identically-modulated failures — the paper's
    /// baseline. Estimators must treat this exactly like the plain
    /// [`FailureModel`](crate::FailureModel) path (bit-identical).
    Iid,
    /// Rack-correlated mixture: node `i` belongs to group
    /// `group_of[i]`; each group is independently hot with probability
    /// `group_prob`, and hot members' failure hazard is multiplied by
    /// `hazard` (per-attempt success probability `psucc^hazard`).
    GroupHazard {
        /// Group index per node, in node-id order; values `< n_groups`.
        group_of: Vec<u32>,
        /// Number of groups (≥ 1).
        n_groups: usize,
        /// Probability a group is hot in a given trial, in `[0, 1]`.
        group_prob: f64,
        /// Hazard multiplier applied to hot members (≥ 1, finite).
        hazard: f64,
    },
    /// Deterministic per-node hazard multipliers (bursty/temporal
    /// windows resolve to this): node `i`'s failure hazard is scaled by
    /// `hazard[i]` in every trial.
    NodeHazard {
        /// Hazard multiplier per node, in node-id order (each ≥ 1,
        /// finite).
        hazard: Vec<f64>,
    },
}

impl ScenarioModel {
    /// Whether this is the i.i.d. baseline (estimators take the plain
    /// [`FailureModel`](crate::FailureModel) path).
    pub fn is_iid(&self) -> bool {
        matches!(self, ScenarioModel::Iid)
    }

    /// Short stable kind name, used in error messages and telemetry.
    pub fn kind_name(&self) -> &'static str {
        match self {
            ScenarioModel::Iid => "iid",
            ScenarioModel::GroupHazard { .. } => "group-hazard",
            ScenarioModel::NodeHazard { .. } => "node-hazard",
        }
    }

    /// Marginal hazard multiplier `h̄_i` for node `node`: the expected
    /// multiplier on the node's failure hazard over the scenario's
    /// randomness. First-order analysis is exact in this marginal
    /// (cross-task correlation enters only at `O(λ²)`).
    ///
    /// For [`ScenarioModel::GroupHazard`] this is `1 + q (m − 1)`; for
    /// [`ScenarioModel::NodeHazard`] it is `hazard[node]`; for
    /// [`ScenarioModel::Iid`] it is `1`.
    pub fn marginal_hazard(&self, node: usize) -> f64 {
        match self {
            ScenarioModel::Iid => 1.0,
            ScenarioModel::GroupHazard {
                group_prob, hazard, ..
            } => 1.0 + group_prob * (hazard - 1.0),
            ScenarioModel::NodeHazard { hazard } => hazard[node],
        }
    }

    /// Validate internal consistency against a graph of `n_nodes`
    /// nodes. Returns a human-readable description of the first
    /// problem found.
    pub fn validate(&self, n_nodes: usize) -> Result<(), String> {
        match self {
            ScenarioModel::Iid => Ok(()),
            ScenarioModel::GroupHazard {
                group_of,
                n_groups,
                group_prob,
                hazard,
            } => {
                if *n_groups == 0 {
                    return Err("group-hazard scenario needs at least one group".into());
                }
                if group_of.len() != n_nodes {
                    return Err(format!(
                        "group assignment covers {} nodes but the graph has {n_nodes}",
                        group_of.len()
                    ));
                }
                if let Some(g) = group_of.iter().find(|&&g| g as usize >= *n_groups) {
                    return Err(format!(
                        "group index {g} out of range (n_groups={n_groups})"
                    ));
                }
                if !(0.0..=1.0).contains(group_prob) {
                    return Err(format!("group probability {group_prob} must be in [0, 1]"));
                }
                if !hazard.is_finite() || *hazard < 1.0 {
                    return Err(format!(
                        "hazard multiplier {hazard} must be finite and >= 1"
                    ));
                }
                Ok(())
            }
            ScenarioModel::NodeHazard { hazard } => {
                if hazard.len() != n_nodes {
                    return Err(format!(
                        "hazard vector covers {} nodes but the graph has {n_nodes}",
                        hazard.len()
                    ));
                }
                if let Some(h) = hazard.iter().find(|h| !h.is_finite() || **h < 1.0) {
                    return Err(format!("hazard multiplier {h} must be finite and >= 1"));
                }
                Ok(())
            }
        }
    }
}

/// Structured "this estimator cannot honor that scenario" error.
///
/// Returned by `PreparedEstimator::estimate_scenario` for estimator
/// families whose math assumes independent failures and has no sound
/// extension to the requested correlation structure. Callers (the sweep
/// engine) reject such (estimator, scenario) pairs at spec-validation
/// time; this error is the defense in depth behind that check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnsupportedScenario {
    /// Display name of the estimator that refused.
    pub estimator: String,
    /// Kind name of the scenario it refused (see
    /// [`ScenarioModel::kind_name`]).
    pub scenario: String,
}

impl UnsupportedScenario {
    /// Build the error from an estimator name and the refused scenario.
    pub fn new(estimator: &str, scenario: &ScenarioModel) -> Self {
        UnsupportedScenario {
            estimator: estimator.to_string(),
            scenario: scenario.kind_name().to_string(),
        }
    }
}

impl fmt::Display for UnsupportedScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "estimator {} does not support {} failure scenarios \
             (supported: mc, first-order, first-order-naive)",
            self.estimator, self.scenario
        )
    }
}

impl std::error::Error for UnsupportedScenario {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marginal_hazard_matches_mixture_expectation() {
        let s = ScenarioModel::GroupHazard {
            group_of: vec![0, 1, 0],
            n_groups: 2,
            group_prob: 0.25,
            hazard: 3.0,
        };
        // E[multiplier] = (1 − q)·1 + q·m = 1 + q(m − 1).
        assert!((s.marginal_hazard(0) - 1.5).abs() < 1e-15);
        assert!((s.marginal_hazard(2) - 1.5).abs() < 1e-15);
        assert_eq!(ScenarioModel::Iid.marginal_hazard(0), 1.0);
        let n = ScenarioModel::NodeHazard {
            hazard: vec![1.0, 4.0],
        };
        assert_eq!(n.marginal_hazard(1), 4.0);
    }

    #[test]
    fn validate_catches_shape_and_range_errors() {
        let bad_len = ScenarioModel::GroupHazard {
            group_of: vec![0, 0],
            n_groups: 1,
            group_prob: 0.1,
            hazard: 2.0,
        };
        assert!(bad_len.validate(3).unwrap_err().contains("covers 2 nodes"));
        let bad_group = ScenarioModel::GroupHazard {
            group_of: vec![0, 5],
            n_groups: 2,
            group_prob: 0.1,
            hazard: 2.0,
        };
        assert!(bad_group.validate(2).unwrap_err().contains("out of range"));
        let bad_hazard = ScenarioModel::NodeHazard {
            hazard: vec![1.0, 0.5],
        };
        assert!(bad_hazard.validate(2).unwrap_err().contains(">= 1"));
        let ok = ScenarioModel::NodeHazard {
            hazard: vec![1.0, 2.0],
        };
        assert!(ok.validate(2).is_ok());
        assert!(ScenarioModel::Iid.validate(99).is_ok());
    }

    #[test]
    fn unsupported_error_names_both_sides() {
        let err = UnsupportedScenario::new("Sculli", &ScenarioModel::NodeHazard { hazard: vec![] });
        let msg = err.to_string();
        assert!(msg.contains("Sculli"), "{msg}");
        assert!(msg.contains("node-hazard"), "{msg}");
    }
}
