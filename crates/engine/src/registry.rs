//! The estimator factory of earlier releases, kept for embedders.
//!
//! [`EstimatorSpec`] is the closed set of estimator families and
//! [`EstimatorSpec::build`] constructs each one; campaigns call it
//! directly, once per (DAG × estimator) group with the cell's
//! deterministic seed. [`EstimatorRegistry`] keeps the three calls
//! embedders and benchmark harnesses make — [`standard`], [`parse`],
//! [`build`] — with their errors as [`EngineError`]s. It holds nothing:
//! the set of families cannot be extended.
//!
//! String spellings (`"first-order"`, `"dodin:64"`, `"mc:10000"`)
//! parse through [`EstimatorSpec`]'s `FromStr`; the canonical id —
//! its `Display`, defaults spelled out — is the identity used in cache
//! keys and result rows, byte-compatible with the stringly-typed
//! registry of the first releases.
//!
//! [`standard`]: EstimatorRegistry::standard
//! [`parse`]: EstimatorRegistry::parse
//! [`build`]: EstimatorRegistry::build

use crate::error::EngineError;
use stochdag_core::{BoxedEstimator, EstimatorSpec};

/// The estimator factory (see module docs): a zero-sized handle over
/// [`EstimatorSpec`]'s `FromStr`, `validate` and `build`.
#[derive(Clone, Copy, Debug)]
pub struct EstimatorRegistry;

impl EstimatorRegistry {
    /// The registry: every estimator family in `stochdag-core`.
    pub fn standard() -> EstimatorRegistry {
        EstimatorRegistry
    }

    /// Parse a spec string into a typed [`EstimatorSpec`] (its
    /// `FromStr`). The round trip `parse(s)?.to_string()` is the
    /// canonical id.
    pub fn parse(&self, spec: &str) -> Result<EstimatorSpec, EngineError> {
        spec.parse().map_err(EngineError::spec)
    }

    /// Build an estimator from a typed spec and a per-cell seed,
    /// rejecting an out-of-range knob (a hand-built
    /// `EstimatorSpec::Mc { trials: 0 }`) instead of panicking.
    pub fn build(&self, spec: &EstimatorSpec, seed: u64) -> Result<BoxedEstimator, EngineError> {
        spec.validate().map_err(EngineError::spec)?;
        Ok(spec.build(seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
