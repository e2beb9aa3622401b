//! The distribution kernels against the historical push-then-sort
//! implementation.
//!
//! `convolve` was rewritten from "materialize all n·m pairs,
//! stable-sort, fold" into a k-way sorted merge. Its contract is
//! *bit*-identity — the same `f64` additions in the same order — so the
//! reference implementation below reproduces the legacy kernel verbatim
//! and the comparison is on raw bits, not within a tolerance.
//!
//! `max_independent` became one linear merge that computes each atom
//! from the operands' running CDFs (`F_max = F_X·F_Y`), which rounds
//! differently from summing the cross product's pair products: it must
//! reproduce the legacy support exactly and its probabilities within a
//! few ulps.

use proptest::prelude::*;
use stochdag_dist::DiscreteDist;

/// The pre-rewrite kernel: row-major pair stream, stable sort by value
/// (`total_cmp`), then fold equal values left to right, skipping zero
/// probabilities.
fn legacy_op(
    xs: &DiscreteDist,
    ys: &DiscreteDist,
    op: impl Fn(f64, f64) -> f64,
) -> Vec<(f64, f64)> {
    let mut atoms = Vec::with_capacity(xs.len() * ys.len());
    for &(vx, px) in xs.atoms() {
        for &(vy, py) in ys.atoms() {
            atoms.push((op(vx, vy), px * py));
        }
    }
    atoms.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut merged: Vec<(f64, f64)> = Vec::with_capacity(atoms.len());
    for (v, p) in atoms {
        if p == 0.0 {
            continue;
        }
        match merged.last_mut() {
            Some(last) if last.0 == v => last.1 += p,
            _ => merged.push((v, p)),
        }
    }
    merged
}

fn assert_bits_eq(got: &DiscreteDist, want: &[(f64, f64)]) {
    assert_eq!(got.len(), want.len(), "atom counts differ");
    for (i, (&(gv, gp), &(wv, wp))) in got.atoms().iter().zip(want).enumerate() {
        assert_eq!(gv.to_bits(), wv.to_bits(), "value bits differ at atom {i}");
        assert_eq!(
            gp.to_bits(),
            wp.to_bits(),
            "probability bits differ at atom {i}"
        );
    }
}

/// A random distribution whose support values are drawn from a coarse
/// grid (multiples of 0.25), so cross products collide on equal values
/// often — the interesting path for the fold step.
fn arb_dist() -> impl Strategy<Value = DiscreteDist> {
    proptest::collection::vec((0u32..64, 1u32..100), 1..12).prop_map(|pairs| {
        let total: f64 = pairs.iter().map(|&(_, w)| w as f64).sum();
        let atoms: Vec<(f64, f64)> = pairs
            .iter()
            .map(|&(v, w)| (v as f64 * 0.25, w as f64 / total))
            .collect();
        DiscreteDist::from_atoms(atoms)
    })
}

proptest! {
    #[test]
    fn convolve_matches_legacy_bit_for_bit(x in arb_dist(), y in arb_dist()) {
        assert_bits_eq(&x.convolve(&y), &legacy_op(&x, &y, |a, b| a + b));
    }

    #[test]
    fn max_independent_matches_legacy_within_tolerance(x in arb_dist(), y in arb_dist()) {
        let got = x.max_independent(&y);
        let want = legacy_op(&x, &y, |a, b| a.max(b));
        assert_eq!(got.len(), want.len(), "atom counts differ");
        for (i, (&(gv, gp), &(wv, wp))) in got.atoms().iter().zip(&want).enumerate() {
            assert_eq!(gv.to_bits(), wv.to_bits(), "support value differs at atom {i}");
            assert!((gp - wp).abs() <= 1e-15, "atom {i}: p {gp} vs legacy {wp}");
        }
        let legacy_mean: f64 = want.iter().map(|&(v, p)| v * p).sum();
        let rel = (got.mean() - legacy_mean).abs() / legacy_mean.abs().max(f64::MIN_POSITIVE);
        assert!(rel <= 1e-14, "mean {} vs legacy {legacy_mean} (rel {rel})", got.mean());
    }

    #[test]
    fn max_independent_cdf_is_product_of_cdfs(x in arb_dist(), y in arb_dist()) {
        let got = x.max_independent(&y);
        let mut cdf = 0.0;
        for &(v, p) in got.atoms() {
            cdf += p;
            let want = x.cdf(v) * y.cdf(v);
            assert!((cdf - want).abs() <= 1e-15, "F({v}) = {cdf}, F_X·F_Y = {want}");
        }
    }

    #[test]
    fn from_sorted_atoms_matches_from_atoms(d in arb_dist()) {
        // A constructed support is sorted, so the sort-free constructor
        // must reproduce `from_atoms` exactly, merges and all.
        let fast = DiscreteDist::from_sorted_atoms(d.atoms().to_vec());
        assert_bits_eq(&fast, d.atoms());
    }

    #[test]
    fn reduce_support_in_place_matches_allocating(d in arb_dist(), cap in 1usize..8) {
        let reference = d.reduce_support(cap);
        let mut inplace = d.clone();
        inplace.reduce_support_in_place(cap);
        assert_bits_eq(&inplace, reference.atoms());
    }
}
