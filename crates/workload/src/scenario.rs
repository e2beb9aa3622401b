//! User-facing correlated-failure scenario specs.
//!
//! A [`ScenarioSpec`] is the declarative, cache-stable form that sweep
//! specs carry (`scenarios = ["rack:4:0.05:2"]`); resolving it against
//! a concrete DAG produces the per-node
//! [`stochdag_core::ScenarioModel`] the estimators consume. The
//! canonical string id round-trips through `FromStr`/`Display` and is
//! what cache keys, sweep row labels, and telemetry use, so two spec
//! files writing the same scenario always share cells.
//!
//! Two correlated families (plus the explicit i.i.d. baseline):
//!
//! - `rack:G:q:m` — tasks are striped into `G` racks by node id
//!   (`node i → rack i mod G`); each rack is independently *hot* with
//!   probability `q` per Monte-Carlo trial, and hot members' failure
//!   hazard is multiplied by `m`.
//! - `bursty:W:frac:m:seed` — the topological order is cut into `W`
//!   equal windows; a seeded, deterministic choice marks
//!   `round(frac·W)` of them as bursts, and every task scheduled
//!   inside a burst window carries hazard multiplier `m`.
//!
//! Which estimators support which scenarios is decided by the engine
//! at spec-validation time (Monte Carlo and the first-order pair);
//! everything else receives a structured
//! [`stochdag_core::UnsupportedScenario`] error instead of a silently
//! wrong answer.

use crate::error::WorkloadError;
use std::fmt;
use std::str::FromStr;
use stochdag_core::ScenarioModel;
use stochdag_dag::{stable_mix64, topological_order, Dag};

/// Declarative correlated-failure scenario, carried by sweep specs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ScenarioSpec {
    /// The i.i.d. baseline — identical to not specifying a scenario.
    Iid,
    /// Rack-correlated: `groups` racks striped over node ids, each hot
    /// with probability `prob`, hot hazard multiplier `hazard`.
    Rack {
        /// Number of racks (≥ 1).
        groups: usize,
        /// Per-trial probability a rack is hot, in `[0, 1]`.
        prob: f64,
        /// Hazard multiplier for hot-rack members (≥ 1, finite).
        hazard: f64,
    },
    /// Bursty/temporal: the topo order is cut into `windows` equal
    /// windows and a seeded choice of `round(frac·windows)` of them
    /// carries hazard multiplier `hazard`.
    Bursty {
        /// Number of windows over the topological order (≥ 1).
        windows: usize,
        /// Fraction of windows that burst, in `[0, 1]`.
        frac: f64,
        /// Hazard multiplier inside burst windows (≥ 1, finite).
        hazard: f64,
        /// Seed for the deterministic window choice.
        seed: u64,
    },
}

impl ScenarioSpec {
    /// Validate ranges; the canonical id of a valid spec is stable.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        let err = |msg: String| Err(WorkloadError::Scenario(msg));
        match *self {
            ScenarioSpec::Iid => Ok(()),
            ScenarioSpec::Rack {
                groups,
                prob,
                hazard,
            } => {
                if groups == 0 {
                    return err("rack scenario needs at least one group".into());
                }
                if !(0.0..=1.0).contains(&prob) {
                    return err(format!("rack probability {prob} must be in [0, 1]"));
                }
                if !hazard.is_finite() || hazard < 1.0 {
                    return err(format!("rack hazard {hazard} must be finite and >= 1"));
                }
                Ok(())
            }
            ScenarioSpec::Bursty {
                windows,
                frac,
                hazard,
                ..
            } => {
                if windows == 0 {
                    return err("bursty scenario needs at least one window".into());
                }
                if !(0.0..=1.0).contains(&frac) {
                    return err(format!("bursty fraction {frac} must be in [0, 1]"));
                }
                if !hazard.is_finite() || hazard < 1.0 {
                    return err(format!("bursty hazard {hazard} must be finite and >= 1"));
                }
                Ok(())
            }
        }
    }

    /// Whether this is the i.i.d. baseline.
    pub fn is_iid(&self) -> bool {
        matches!(self, ScenarioSpec::Iid)
    }

    /// Resolve against a concrete graph into the per-node
    /// [`ScenarioModel`] the estimators consume. Deterministic: the
    /// same spec and graph always produce the same model.
    pub fn resolve(&self, dag: &Dag) -> Result<ScenarioModel, WorkloadError> {
        self.validate()?;
        let n = dag.node_count();
        match *self {
            ScenarioSpec::Iid => Ok(ScenarioModel::Iid),
            ScenarioSpec::Rack {
                groups,
                prob,
                hazard,
            } => Ok(ScenarioModel::GroupHazard {
                group_of: (0..n).map(|i| (i % groups) as u32).collect(),
                n_groups: groups.min(n.max(1)),
                group_prob: prob,
                hazard,
            }),
            ScenarioSpec::Bursty {
                windows,
                frac,
                hazard,
                seed,
            } => {
                let order = topological_order(dag).map_err(WorkloadError::Graph)?;
                // Seeded, deterministic burst-window choice: rank the
                // windows by a mixed hash of (seed, window) and mark
                // the top `round(frac·W)` as bursts.
                let k = ((frac * windows as f64).round() as usize).min(windows);
                let mut ranked: Vec<usize> = (0..windows).collect();
                ranked.sort_by_key(|&w| stable_mix64(seed ^ stable_mix64(w as u64 + 1)));
                let mut burst = vec![false; windows];
                for &w in ranked.iter().take(k) {
                    burst[w] = true;
                }
                let mut hazards = vec![1.0f64; n];
                for (pos, node) in order.iter().enumerate() {
                    // Equal-width windows over topo positions.
                    let w = (pos * windows) / n.max(1);
                    if burst[w.min(windows - 1)] {
                        hazards[node.index()] = hazard;
                    }
                }
                Ok(ScenarioModel::NodeHazard { hazard: hazards })
            }
        }
    }
}

/// Canonical id: `iid`, `rack:G:q:m`, `bursty:W:frac:m:seed`. Floats
/// render via Rust's shortest-round-trip `Display`, so parsing a
/// canonical id re-renders it byte-identically.
impl fmt::Display for ScenarioSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ScenarioSpec::Iid => write!(f, "iid"),
            ScenarioSpec::Rack {
                groups,
                prob,
                hazard,
            } => write!(f, "rack:{groups}:{prob}:{hazard}"),
            ScenarioSpec::Bursty {
                windows,
                frac,
                hazard,
                seed,
            } => write!(f, "bursty:{windows}:{frac}:{hazard}:{seed}"),
        }
    }
}

impl FromStr for ScenarioSpec {
    type Err = WorkloadError;

    fn from_str(s: &str) -> Result<ScenarioSpec, WorkloadError> {
        let err = |msg: String| Err(WorkloadError::Scenario(msg));
        let mut parts = s.split(':');
        let family = parts.next().unwrap_or("");
        let rest: Vec<&str> = parts.collect();
        let spec = match family {
            "iid" => {
                if !rest.is_empty() {
                    return err(format!("iid takes no arguments, got {s:?}"));
                }
                ScenarioSpec::Iid
            }
            "rack" => {
                if rest.len() != 3 {
                    return err(format!(
                        "rack scenario must be rack:GROUPS:PROB:HAZARD, got {s:?}"
                    ));
                }
                ScenarioSpec::Rack {
                    groups: parse_field(rest[0], s, "GROUPS")?,
                    prob: parse_field(rest[1], s, "PROB")?,
                    hazard: parse_field(rest[2], s, "HAZARD")?,
                }
            }
            "bursty" => {
                if rest.len() != 4 {
                    return err(format!(
                        "bursty scenario must be bursty:WINDOWS:FRAC:HAZARD:SEED, got {s:?}"
                    ));
                }
                ScenarioSpec::Bursty {
                    windows: parse_field(rest[0], s, "WINDOWS")?,
                    frac: parse_field(rest[1], s, "FRAC")?,
                    hazard: parse_field(rest[2], s, "HAZARD")?,
                    seed: parse_field(rest[3], s, "SEED")?,
                }
            }
            other => {
                return err(format!(
                    "unknown scenario family {other:?} (expected iid, rack, or bursty) in {s:?}"
                ))
            }
        };
        spec.validate()?;
        Ok(spec)
    }
}

fn parse_field<T: FromStr>(raw: &str, spec: &str, what: &str) -> Result<T, WorkloadError> {
    raw.parse().map_err(|_| {
        WorkloadError::Scenario(format!("bad {what} field {raw:?} in scenario {spec:?}"))
    })
}

serde::codec!(display ScenarioSpec);

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    fn chain(n: usize) -> Dag {
        let mut g = Dag::new();
        let mut prev = None;
        for _ in 0..n {
            let v = g.add_node(1.0);
            if let Some(p) = prev {
                g.add_edge(p, v);
            }
            prev = Some(v);
        }
        g
    }

    #[test]
    fn canonical_ids_round_trip() {
        for id in [
            "iid",
            "rack:4:0.05:2",
            "bursty:3:0.25:2:7",
            "rack:8:0.5:1.5",
        ] {
            let spec: ScenarioSpec = id.parse().unwrap();
            assert_eq!(spec.to_string(), id, "canonical id must be a fixed point");
            let spec2: ScenarioSpec = spec.to_string().parse().unwrap();
            assert_eq!(spec, spec2);
        }
    }

    #[test]
    fn serde_round_trips_as_a_string() {
        let spec: ScenarioSpec = "rack:4:0.05:2".parse().unwrap();
        let v = spec.serialize();
        assert_eq!(v.as_str(), Some("rack:4:0.05:2"));
        assert_eq!(ScenarioSpec::deserialize(&v).unwrap(), spec);
    }

    #[test]
    fn bad_specs_are_actionable() {
        for (s, needle) in [
            ("rack:0:0.1:2", "at least one group"),
            ("rack:4:1.5:2", "[0, 1]"),
            ("rack:4:0.1:0.5", ">= 1"),
            ("rack:4:0.1", "rack:GROUPS:PROB:HAZARD"),
            ("bursty:0:0.5:2:1", "at least one window"),
            ("bursty:2:0.5:2", "bursty:WINDOWS:FRAC:HAZARD:SEED"),
            ("pancake:1", "unknown scenario family"),
            ("rack:four:0.1:2", "GROUPS"),
            ("iid:1", "no arguments"),
        ] {
            let err = s.parse::<ScenarioSpec>().unwrap_err();
            assert!(err.to_string().contains(needle), "{s}: {err}");
        }
    }

    #[test]
    fn rack_resolution_stripes_groups_over_node_ids() {
        let g = chain(5);
        let spec: ScenarioSpec = "rack:2:0.1:3".parse().unwrap();
        match spec.resolve(&g).unwrap() {
            ScenarioModel::GroupHazard {
                group_of,
                n_groups,
                group_prob,
                hazard,
            } => {
                assert_eq!(group_of, vec![0, 1, 0, 1, 0]);
                assert_eq!(n_groups, 2);
                assert_eq!(group_prob, 0.1);
                assert_eq!(hazard, 3.0);
            }
            other => panic!("expected GroupHazard, got {other:?}"),
        }
    }

    #[test]
    fn bursty_resolution_is_deterministic_and_covers_the_fraction() {
        let g = chain(12);
        let spec: ScenarioSpec = "bursty:4:0.5:2:7".parse().unwrap();
        let a = spec.resolve(&g).unwrap();
        let b = spec.resolve(&g).unwrap();
        assert_eq!(a, b, "resolution must be deterministic");
        match a {
            ScenarioModel::NodeHazard { hazard } => {
                let hot = hazard.iter().filter(|&&h| h > 1.0).count();
                // 2 of 4 windows over 12 tasks ⇒ 6 hot tasks.
                assert_eq!(hot, 6, "{hazard:?}");
            }
            other => panic!("expected NodeHazard, got {other:?}"),
        }
    }

    #[test]
    fn bursty_seeds_pick_different_windows() {
        let g = chain(40);
        let a = ScenarioSpec::Bursty {
            windows: 8,
            frac: 0.25,
            hazard: 2.0,
            seed: 1,
        }
        .resolve(&g)
        .unwrap();
        let b = ScenarioSpec::Bursty {
            windows: 8,
            frac: 0.25,
            hazard: 2.0,
            seed: 2,
        }
        .resolve(&g)
        .unwrap();
        assert_ne!(
            a, b,
            "different seeds should usually pick different windows"
        );
    }

    #[test]
    fn iid_resolves_to_iid() {
        let g = chain(3);
        assert_eq!(ScenarioSpec::Iid.resolve(&g).unwrap(), ScenarioModel::Iid);
    }

    #[test]
    fn resolved_models_validate_against_the_graph() {
        let g = chain(6);
        for id in ["rack:3:0.2:2", "bursty:2:0.5:4:11"] {
            let spec: ScenarioSpec = id.parse().unwrap();
            let model = spec.resolve(&g).unwrap();
            model.validate(g.node_count()).unwrap();
        }
    }
}
