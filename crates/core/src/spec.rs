//! Typed estimator specifications.
//!
//! [`EstimatorSpec`] is the closed set of estimator configurations the
//! workspace knows how to build — each variant one estimator family,
//! with the family's single numeric knob (if any) as a typed field
//! instead of a `":arg"` suffix on a string.
//!
//! [`EstimatorSpec::build`] is the one place each family's estimator
//! is constructed: the sweep engine builds every (DAG × estimator)
//! group's estimator from its spec and the cell's seed.
//!
//! The string form is not gone: [`Display`](std::fmt::Display) renders
//! the **canonical id** (`"dodin:128"`, `"first-order"`, `"mc:10000"`,
//! …) and [`FromStr`] parses any legacy spelling (`"dodin"`,
//! `"dodin:128"`) back, filling defaults. The canonical id
//! is byte-identical to what the stringly-typed registry produced
//! before this type existed, so cache keys, CSV/JSONL columns, and
//! seed derivations are stable across the migration (the engine's
//! `spec_compat` tests pin this against golden hashes).
//!
//! | Canonical id | Variant |
//! |--------------|---------|
//! | `first-order` | [`EstimatorSpec::FirstOrder`] |
//! | `first-order-naive` | [`EstimatorSpec::FirstOrderNaive`] |
//! | `second-order` | [`EstimatorSpec::SecondOrder`] |
//! | `sculli` | [`EstimatorSpec::Sculli`] |
//! | `corlca` | [`EstimatorSpec::CorLca`] |
//! | `normal-cov` | [`EstimatorSpec::NormalCov`] |
//! | `dodin:ATOMS` | [`EstimatorSpec::Dodin`] |
//! | `dodin-dup:ATOMS` | [`EstimatorSpec::DodinDup`] |
//! | `spelde:PATHS` | [`EstimatorSpec::Spelde`] |
//! | `exact` | [`EstimatorSpec::Exact`] |
//! | `mc:TRIALS` | [`EstimatorSpec::Mc`] |

use crate::{
    BoxedEstimator, CorLcaEstimator, CovarianceNormalEstimator, DodinEstimator, ExactEstimator,
    FirstOrderEstimator, MonteCarloEstimator, SculliEstimator, SecondOrderEstimator,
    SpeldeEstimator,
};
use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::str::FromStr;

/// Default support-atom cap of the Dodin estimators.
pub const DEFAULT_DODIN_ATOMS: usize = 128;
/// Default dominant-path count of the Spelde bound.
pub const DEFAULT_SPELDE_PATHS: usize = 16;
/// Default trial count of the `mc` sweep estimator.
pub const DEFAULT_MC_TRIALS: usize = 10_000;

/// A typed, serde-round-trippable estimator configuration (see the
/// module docs above).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum EstimatorSpec {
    /// The paper's `O(V+E)` first-order approximation.
    FirstOrder,
    /// First-order via per-task longest-path recomputation.
    FirstOrderNaive,
    /// `O(λ²)`-exact second-order extension.
    SecondOrder,
    /// Sculli's independent-normal propagation.
    Sculli,
    /// Canon–Jeannot canonical-ancestor correlation heuristic.
    CorLca,
    /// Full covariance-propagating normal estimator.
    NormalCov,
    /// Dodin forward surrogate.
    Dodin {
        /// Support-atom cap (≥ 2).
        atoms: usize,
    },
    /// Faithful Dodin duplication engine.
    DodinDup {
        /// Support-atom cap (≥ 2).
        atoms: usize,
    },
    /// Spelde path-based bound.
    Spelde {
        /// Number of dominant paths (≥ 1).
        paths: usize,
    },
    /// Exhaustive 2-state oracle (small DAGs only).
    Exact,
    /// Monte Carlo with the cell's deterministic seed.
    Mc {
        /// Trial count (≥ 1).
        trials: usize,
    },
}

/// Estimator family base names, sorted.
pub const ESTIMATOR_FAMILIES: &[&str] = &[
    "corlca",
    "dodin",
    "dodin-dup",
    "exact",
    "first-order",
    "first-order-naive",
    "mc",
    "normal-cov",
    "sculli",
    "second-order",
    "spelde",
];

impl EstimatorSpec {
    /// The family base name (canonical id minus the `:arg` suffix).
    pub fn family(&self) -> &'static str {
        match self {
            EstimatorSpec::FirstOrder => "first-order",
            EstimatorSpec::FirstOrderNaive => "first-order-naive",
            EstimatorSpec::SecondOrder => "second-order",
            EstimatorSpec::Sculli => "sculli",
            EstimatorSpec::CorLca => "corlca",
            EstimatorSpec::NormalCov => "normal-cov",
            EstimatorSpec::Dodin { .. } => "dodin",
            EstimatorSpec::DodinDup { .. } => "dodin-dup",
            EstimatorSpec::Spelde { .. } => "spelde",
            EstimatorSpec::Exact => "exact",
            EstimatorSpec::Mc { .. } => "mc",
        }
    }

    /// The family's numeric knob, if it has one.
    pub fn arg(&self) -> Option<usize> {
        match self {
            EstimatorSpec::Dodin { atoms } | EstimatorSpec::DodinDup { atoms } => Some(*atoms),
            EstimatorSpec::Spelde { paths } => Some(*paths),
            EstimatorSpec::Mc { trials } => Some(*trials),
            _ => None,
        }
    }

    /// Revision of the family's kernel, folded into its cache keys (not
    /// its canonical id, seeds or rows) so that no cache serves a value
    /// an older kernel computed. Bumped when a kernel change moves the
    /// family's output bits. 0 leaves a key as it always was: every
    /// family's revision but Dodin's, which is 1 since its independent
    /// max became the linear product of the operands' CDFs.
    pub fn kernel_revision(&self) -> u32 {
        match self {
            EstimatorSpec::Dodin { .. } | EstimatorSpec::DodinDup { .. } => 1,
            _ => 0,
        }
    }

    /// One spec per family, with default arguments — the full closed
    /// set, for exhaustiveness tests.
    pub fn all_default() -> Vec<EstimatorSpec> {
        ESTIMATOR_FAMILIES
            .iter()
            .map(|f| f.parse().expect("every family parses bare"))
            .collect()
    }

    /// Check the argument constraints a builder will enforce, so a
    /// programmatically-constructed spec fails here instead of at
    /// estimator-build time deep inside a campaign.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            EstimatorSpec::Dodin { atoms } | EstimatorSpec::DodinDup { atoms } if *atoms < 2 => {
                Err("dodin needs at least two support atoms".into())
            }
            EstimatorSpec::Spelde { paths } if *paths == 0 => {
                Err("spelde needs at least one path".into())
            }
            EstimatorSpec::Mc { trials } if *trials == 0 => {
                Err("mc needs at least one trial".into())
            }
            _ => Ok(()),
        }
    }

    /// Construct the family's estimator. Only `mc` reads `seed` (the
    /// cell's deterministic seed); every other family is deterministic.
    ///
    /// # Panics
    ///
    /// On a spec that fails [`validate`](EstimatorSpec::validate) (an
    /// out-of-range knob), in the estimator's constructor. Parsed specs
    /// and campaign specs are validated before any estimator is built.
    pub fn build(&self, seed: u64) -> BoxedEstimator {
        match *self {
            EstimatorSpec::FirstOrder => Box::new(FirstOrderEstimator::fast()),
            EstimatorSpec::FirstOrderNaive => Box::new(FirstOrderEstimator::naive()),
            EstimatorSpec::SecondOrder => Box::new(SecondOrderEstimator),
            EstimatorSpec::Sculli => Box::new(SculliEstimator),
            EstimatorSpec::CorLca => Box::new(CorLcaEstimator),
            EstimatorSpec::NormalCov => Box::new(CovarianceNormalEstimator),
            EstimatorSpec::Dodin { atoms } => {
                Box::new(DodinEstimator::scalable().with_max_atoms(atoms))
            }
            EstimatorSpec::DodinDup { atoms } => {
                Box::new(DodinEstimator::new().with_max_atoms(atoms))
            }
            EstimatorSpec::Spelde { paths } => Box::new(SpeldeEstimator::new(paths)),
            EstimatorSpec::Exact => Box::new(ExactEstimator),
            EstimatorSpec::Mc { trials } => {
                Box::new(MonteCarloEstimator::new(trials).with_seed(seed))
            }
        }
    }
}

impl fmt::Display for EstimatorSpec {
    /// The canonical id: the family name, plus `:arg` for families
    /// that have a knob (defaults are spelled out, so `"dodin"` and
    /// `"dodin:128"` both render as `dodin:128`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.arg() {
            None => f.write_str(self.family()),
            Some(arg) => write!(f, "{}:{arg}", self.family()),
        }
    }
}

impl FromStr for EstimatorSpec {
    type Err = String;

    /// Parse a spec string (`family[:arg]`), filling defaults and
    /// validating the argument. Accepts every spelling the stringly
    /// registry accepted, with the same error messages.
    fn from_str(spec: &str) -> Result<EstimatorSpec, String> {
        let (base, arg) = match spec.split_once(':') {
            None => (spec, None),
            Some((base, arg)) => {
                let n: u64 = arg
                    .parse()
                    .map_err(|_| format!("estimator spec {spec:?}: bad argument {arg:?}"))?;
                (base, Some(n as usize))
            }
        };
        let no_arg = |parsed: EstimatorSpec| match arg {
            None => Ok(parsed),
            Some(_) => Err(format!("estimator {base:?} takes no argument")),
        };
        let parsed = match base {
            "first-order" => no_arg(EstimatorSpec::FirstOrder)?,
            "first-order-naive" => no_arg(EstimatorSpec::FirstOrderNaive)?,
            "second-order" => no_arg(EstimatorSpec::SecondOrder)?,
            "sculli" => no_arg(EstimatorSpec::Sculli)?,
            "corlca" => no_arg(EstimatorSpec::CorLca)?,
            "normal-cov" => no_arg(EstimatorSpec::NormalCov)?,
            "exact" => no_arg(EstimatorSpec::Exact)?,
            "dodin" => EstimatorSpec::Dodin {
                atoms: arg.unwrap_or(DEFAULT_DODIN_ATOMS),
            },
            "dodin-dup" => EstimatorSpec::DodinDup {
                atoms: arg.unwrap_or(DEFAULT_DODIN_ATOMS),
            },
            "spelde" => EstimatorSpec::Spelde {
                paths: arg.unwrap_or(DEFAULT_SPELDE_PATHS),
            },
            "mc" => EstimatorSpec::Mc {
                trials: arg.unwrap_or(DEFAULT_MC_TRIALS),
            },
            other => {
                return Err(format!(
                    "unknown estimator {other:?} (known: {})",
                    ESTIMATOR_FAMILIES.join(", ")
                ))
            }
        };
        parsed.validate()?;
        Ok(parsed)
    }
}

impl Serialize for EstimatorSpec {
    /// Serialized as the canonical id string, so spec files stay the
    /// familiar `estimators = ["first-order", "dodin:64"]` shape.
    fn serialize(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for EstimatorSpec {
    fn deserialize(v: &Value) -> Result<EstimatorSpec, serde::Error> {
        let s = String::deserialize(v)?;
        s.parse().map_err(serde::Error::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Estimator, FailureModel};
    use stochdag_dag::Dag;

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
    fn every_registered_estimator_builds_and_runs() {
        let g = diamond();
        let m = FailureModel::new(0.01);
        let d_g = 5.0;
        for &name in ESTIMATOR_FAMILIES {
            let spec = if name == "mc" { "mc:500" } else { name };
            let spec: EstimatorSpec = spec.parse().unwrap_or_else(|e| panic!("{name}: {e}"));
            let v = spec.build(7).expected_makespan(&g, &m);
            assert!(
                v >= d_g - 1e-9 && v.is_finite(),
                "{name}: estimate {v} below failure-free makespan"
            );
        }
    }

    #[test]
    fn mc_is_seed_deterministic() {
        let g = diamond();
        let m = FailureModel::new(0.05);
        let spec: EstimatorSpec = "mc:2000".parse().unwrap();
        let a = spec.build(11).expected_makespan(&g, &m);
        let b = spec.build(11).expected_makespan(&g, &m);
        let c = spec.build(12).expected_makespan(&g, &m);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn canonical_ids_match_the_stringly_registry() {
        let cases = [
            ("first-order", "first-order"),
            ("first-order-naive", "first-order-naive"),
            ("second-order", "second-order"),
            ("sculli", "sculli"),
            ("corlca", "corlca"),
            ("normal-cov", "normal-cov"),
            ("dodin", "dodin:128"),
            ("dodin:64", "dodin:64"),
            ("dodin-dup", "dodin-dup:128"),
            ("spelde", "spelde:16"),
            ("spelde:8", "spelde:8"),
            ("exact", "exact"),
            ("mc", "mc:10000"),
            ("mc:2500", "mc:2500"),
        ];
        for (input, canonical) in cases {
            let spec: EstimatorSpec = input.parse().unwrap();
            assert_eq!(spec.to_string(), canonical, "{input}");
        }
    }

    #[test]
    fn display_from_str_round_trips() {
        for spec in EstimatorSpec::all_default() {
            let back: EstimatorSpec = spec.to_string().parse().unwrap();
            assert_eq!(back, spec, "{spec}");
        }
        let custom = EstimatorSpec::Mc { trials: 777 };
        assert_eq!(custom.to_string().parse::<EstimatorSpec>(), Ok(custom));
    }

    #[test]
    fn serde_round_trips_as_canonical_string() {
        for spec in EstimatorSpec::all_default() {
            let v = spec.serialize();
            assert_eq!(v.as_str(), Some(spec.to_string().as_str()));
            assert_eq!(EstimatorSpec::deserialize(&v).unwrap(), spec);
        }
    }

    #[test]
    fn bad_specs_are_rejected_with_legacy_messages() {
        let err = "warp-drive".parse::<EstimatorSpec>().unwrap_err();
        assert!(err.contains("unknown estimator"), "{err}");
        assert!(err.contains("first-order"), "lists known families: {err}");
        let err = "sculli:3".parse::<EstimatorSpec>().unwrap_err();
        assert!(err.contains("takes no argument"), "{err}");
        let err = "mc:x".parse::<EstimatorSpec>().unwrap_err();
        assert!(err.contains("bad argument"), "{err}");
        assert!("mc:0".parse::<EstimatorSpec>().is_err());
        assert!("dodin:1".parse::<EstimatorSpec>().is_err());
        assert!("spelde:0".parse::<EstimatorSpec>().is_err());
        assert!(EstimatorSpec::Mc { trials: 0 }.validate().is_err());
        assert!(EstimatorSpec::Dodin { atoms: 1 }.validate().is_err());
    }

    #[test]
    fn families_list_is_sorted_and_complete() {
        let mut sorted = ESTIMATOR_FAMILIES.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, ESTIMATOR_FAMILIES);
        assert_eq!(EstimatorSpec::all_default().len(), ESTIMATOR_FAMILIES.len());
    }
}
