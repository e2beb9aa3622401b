//! Name-addressable estimator registry.
//!
//! Every estimator in `stochdag-core` behind an object-safe handle
//! ([`BoxedEstimator`]), addressed by a typed [`EstimatorSpec`]. The
//! registry is the factory seam between a campaign's declarative spec
//! and concrete estimator instances: the runner calls
//! [`EstimatorRegistry::build`] once per (DAG × estimator) group with
//! the cell's deterministic seed.
//!
//! String spellings (`"first-order"`, `"dodin:64"`, `"mc:10000"`)
//! parse through [`EstimatorRegistry::parse`]; the canonical id —
//! [`EstimatorSpec`]'s `Display`, defaults spelled out — is the
//! identity used in cache keys and result rows, byte-compatible with
//! the stringly-typed registry this one replaced.

use crate::error::EngineError;
use std::collections::BTreeMap;
use stochdag_core::{
    BoxedEstimator, CorLcaEstimator, CovarianceNormalEstimator, DodinEstimator, EstimatorSpec,
    ExactEstimator, FirstOrderEstimator, MonteCarloEstimator, SculliEstimator,
    SecondOrderEstimator, SpeldeEstimator,
};

type Builder = fn(&EstimatorSpec, u64) -> BoxedEstimator;

/// One registry entry.
struct Entry {
    build: Builder,
    about: &'static str,
}

/// The estimator registry (see module docs).
pub struct EstimatorRegistry {
    entries: BTreeMap<&'static str, Entry>,
}

impl EstimatorRegistry {
    /// Registry with every estimator in `stochdag-core`.
    pub fn standard() -> EstimatorRegistry {
        let mut entries: BTreeMap<&'static str, Entry> = BTreeMap::new();
        let mut add = |name: &'static str, about: &'static str, build: Builder| {
            entries.insert(name, Entry { build, about });
        };
        add(
            "first-order",
            "the paper's O(V+E) first-order approximation",
            |_, _| Box::new(FirstOrderEstimator::fast()),
        );
        add(
            "first-order-naive",
            "first-order via per-task longest-path recomputation",
            |_, _| Box::new(FirstOrderEstimator::naive()),
        );
        add(
            "second-order",
            "O(lambda^2)-exact second-order extension",
            |_, _| Box::new(SecondOrderEstimator),
        );
        add(
            "sculli",
            "Sculli's independent-normal propagation",
            |_, _| Box::new(SculliEstimator),
        );
        add(
            "corlca",
            "Canon-Jeannot canonical-ancestor correlation heuristic",
            |_, _| Box::new(CorLcaEstimator),
        );
        add(
            "normal-cov",
            "full covariance-propagating normal estimator",
            |_, _| Box::new(CovarianceNormalEstimator),
        );
        add(
            "dodin",
            "Dodin forward surrogate; arg = support-atom cap",
            |spec, _| {
                let atoms = spec.arg().expect("dodin has an atom cap");
                Box::new(DodinEstimator::scalable().with_max_atoms(atoms))
            },
        );
        add(
            "dodin-dup",
            "faithful Dodin duplication engine; arg = support-atom cap",
            |spec, _| {
                let atoms = spec.arg().expect("dodin-dup has an atom cap");
                Box::new(DodinEstimator::new().with_max_atoms(atoms))
            },
        );
        add(
            "spelde",
            "Spelde path-based bound; arg = number of dominant paths",
            |spec, _| {
                let paths = spec.arg().expect("spelde has a path count");
                Box::new(SpeldeEstimator::new(paths))
            },
        );
        add(
            "exact",
            "exhaustive 2-state oracle (<= 24 tasks)",
            |_, _| Box::new(ExactEstimator),
        );
        add(
            "mc",
            "Monte Carlo with the cell's deterministic seed; arg = trials",
            |spec, seed| {
                let trials = spec.arg().expect("mc has a trial count");
                Box::new(MonteCarloEstimator::new(trials).with_seed(seed))
            },
        );
        EstimatorRegistry { entries }
    }

    /// Registered base names, sorted.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.entries.keys().copied()
    }

    /// One-line description of a base name.
    pub fn about(&self, name: &str) -> Option<&'static str> {
        self.entries.get(name).map(|e| e.about)
    }

    /// Parse a spec string into a typed [`EstimatorSpec`], rejecting
    /// families this registry does not carry. The round trip
    /// `parse(s)?.to_string()` is the canonical id.
    pub fn parse(&self, spec: &str) -> Result<EstimatorSpec, EngineError> {
        let parsed: EstimatorSpec = spec.parse().map_err(EngineError::spec)?;
        if !self.entries.contains_key(parsed.family()) {
            return Err(EngineError::spec(format!(
                "unknown estimator {:?} (known: {})",
                parsed.family(),
                self.entries.keys().copied().collect::<Vec<_>>().join(", ")
            )));
        }
        Ok(parsed)
    }

    /// Build an estimator from a typed spec and a per-cell seed.
    pub fn build(&self, spec: &EstimatorSpec, seed: u64) -> Result<BoxedEstimator, EngineError> {
        spec.validate().map_err(EngineError::spec)?;
        let entry = self
            .entries
            .get(spec.family())
            .ok_or_else(|| EngineError::spec(format!("unknown estimator {:?}", spec.family())))?;
        Ok((entry.build)(spec, seed))
    }
}

impl Default for EstimatorRegistry {
    fn default() -> Self {
        EstimatorRegistry::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stochdag_core::{Estimator, FailureModel};
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
        let reg = EstimatorRegistry::standard();
        let g = diamond();
        let m = FailureModel::new(0.01);
        let d_g = 5.0;
        for name in reg.names().collect::<Vec<_>>() {
            let spec = if name == "mc" { "mc:500" } else { name };
            let spec = reg.parse(spec).unwrap_or_else(|e| panic!("{name}: {e}"));
            let est = reg
                .build(&spec, 7)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let v = est.expected_makespan(&g, &m);
            assert!(
                v >= d_g - 1e-9 && v.is_finite(),
                "{name}: estimate {v} below failure-free makespan"
            );
        }
    }

    #[test]
    fn registry_covers_exactly_the_spec_families() {
        let reg = EstimatorRegistry::standard();
        let names: Vec<&str> = reg.names().collect();
        assert_eq!(
            names,
            stochdag_core::ESTIMATOR_FAMILIES,
            "registry and EstimatorSpec enumerate the same closed set"
        );
        for spec in EstimatorSpec::all_default() {
            reg.build(&spec, 1)
                .unwrap_or_else(|e| panic!("{spec}: {e}"));
        }
    }

    #[test]
    fn parse_fills_defaults_into_canonical_ids() {
        let reg = EstimatorRegistry::standard();
        let canon = |s: &str| reg.parse(s).unwrap().to_string();
        assert_eq!(canon("first-order"), "first-order");
        assert_eq!(canon("dodin"), "dodin:128");
        assert_eq!(canon("dodin:64"), "dodin:64");
        assert_eq!(canon("mc:5000"), "mc:5000");
        assert_eq!(canon("spelde"), "spelde:16");
    }

    #[test]
    fn bad_specs_are_rejected() {
        let reg = EstimatorRegistry::standard();
        assert!(reg.parse("nope").is_err());
        assert!(reg.parse("sculli:3").is_err());
        assert!(reg.parse("mc:x").is_err());
        assert!(reg.parse("mc:0").is_err());
        assert!(reg.parse("dodin:1").is_err());
        assert!(
            reg.build(&EstimatorSpec::Mc { trials: 0 }, 1).is_err(),
            "typed specs validate at build time too"
        );
    }

    #[test]
    fn mc_is_seed_deterministic() {
        let reg = EstimatorRegistry::standard();
        let g = diamond();
        let m = FailureModel::new(0.05);
        let spec = reg.parse("mc:2000").unwrap();
        let a = reg.build(&spec, 11).unwrap().expected_makespan(&g, &m);
        let b = reg.build(&spec, 11).unwrap().expected_makespan(&g, &m);
        let c = reg.build(&spec, 12).unwrap().expected_makespan(&g, &m);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn registry_lists_descriptions() {
        let reg = EstimatorRegistry::standard();
        assert!(reg.about("first-order").is_some());
        assert!(reg.about("nope").is_none());
        assert!(reg.names().count() >= 10);
    }
}
