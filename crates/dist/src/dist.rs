//! Finite discrete distributions over `f64` values.

/// One row of the implicit `n × m` operand cross product of a
/// convolution: the next not-yet-emitted element is `xs[row] + ys[j]`,
/// memoized in `v`.
#[derive(Clone, Copy, Debug)]
struct RowCursor {
    v: f64,
    row: u32,
    j: u32,
}

impl RowCursor {
    /// Heap order: smaller value first; ties broken by row index so the
    /// merged stream reproduces the stable sort of the row-major pair
    /// stream exactly (bit-identical accumulation order).
    #[inline]
    fn before(&self, other: &RowCursor) -> bool {
        match self.v.total_cmp(&other.v) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Equal => self.row < other.row,
            std::cmp::Ordering::Greater => false,
        }
    }
}

/// Restore the min-heap property downward from `i`.
fn sift_down(heap: &mut [RowCursor], mut i: usize) {
    loop {
        let l = 2 * i + 1;
        if l >= heap.len() {
            return;
        }
        let r = l + 1;
        let child = if r < heap.len() && heap[r].before(&heap[l]) {
            r
        } else {
            l
        };
        if heap[child].before(&heap[i]) {
            heap.swap(child, i);
            i = child;
        } else {
            return;
        }
    }
}

/// A finite discrete distribution: sorted support values with strictly
/// positive probabilities summing to 1 (up to rounding).
///
/// The in-place operations the series-parallel machinery needs —
/// convolution (sum of independent variables), independent maximum, and
/// mean-preserving support coarsening — are all closed over this
/// representation.
#[derive(Clone, Debug, PartialEq)]
pub struct DiscreteDist {
    /// `(value, probability)` pairs, sorted by value, probabilities > 0.
    atoms: Vec<(f64, f64)>,
}

impl DiscreteDist {
    /// Point mass at `v`.
    pub fn point(v: f64) -> DiscreteDist {
        assert!(v.is_finite(), "support value must be finite, got {v}");
        DiscreteDist {
            atoms: vec![(v, 1.0)],
        }
    }

    /// Build from `(value, probability)` pairs: sorts, merges equal
    /// values, drops zero-probability atoms.
    ///
    /// # Panics
    /// Panics on empty/invalid input or probabilities far from summing
    /// to 1.
    pub fn from_atoms(mut atoms: Vec<(f64, f64)>) -> DiscreteDist {
        assert!(!atoms.is_empty(), "a distribution needs at least one atom");
        for &(v, p) in &atoms {
            assert!(v.is_finite(), "support value must be finite, got {v}");
            assert!(
                p.is_finite() && p >= 0.0,
                "probability must be in [0, 1], got {p}"
            );
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
        assert!(!merged.is_empty(), "all atoms had zero probability");
        let total: f64 = merged.iter().map(|&(_, p)| p).sum();
        assert!(
            (total - 1.0).abs() < 1e-6,
            "probabilities sum to {total}, expected 1"
        );
        DiscreteDist { atoms: merged }
    }

    /// The `(value, probability)` atoms, sorted by value.
    #[inline]
    pub fn atoms(&self) -> &[(f64, f64)] {
        &self.atoms
    }

    /// Number of support atoms.
    #[inline]
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Whether the support is empty (never true for a constructed
    /// distribution; present for API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Whether this is a point mass.
    #[inline]
    pub fn is_point(&self) -> bool {
        self.atoms.len() == 1
    }

    /// Expectation.
    pub fn mean(&self) -> f64 {
        self.atoms.iter().map(|&(v, p)| v * p).sum()
    }

    /// Variance.
    pub fn variance(&self) -> f64 {
        let m = self.mean();
        self.atoms
            .iter()
            .map(|&(v, p)| p * (v - m) * (v - m))
            .sum::<f64>()
            .max(0.0)
    }

    /// Smallest support value.
    pub fn min_value(&self) -> f64 {
        self.atoms.first().expect("non-empty").0
    }

    /// Largest support value.
    pub fn max_value(&self) -> f64 {
        self.atoms.last().expect("non-empty").0
    }

    /// Total probability mass (≈ 1; drifts only by accumulated rounding).
    pub fn total_prob(&self) -> f64 {
        self.atoms.iter().map(|&(_, p)| p).sum()
    }

    /// `q`-quantile: the smallest support value `v` with
    /// `P(X ≤ v) ≥ q`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        let mut acc = 0.0;
        for &(v, p) in &self.atoms {
            acc += p;
            if acc >= q {
                return v;
            }
        }
        self.max_value()
    }

    /// `P(X ≤ x)`.
    pub fn cdf(&self, x: f64) -> f64 {
        self.atoms
            .iter()
            .take_while(|&&(v, _)| v <= x)
            .map(|&(_, p)| p)
            .sum()
    }

    /// Build from `(value, probability)` pairs already sorted by value,
    /// skipping the `O(n log n)` sort of [`DiscreteDist::from_atoms`].
    /// Zero-probability atoms are still dropped and equal values are
    /// still merged, in place.
    ///
    /// Sortedness, finiteness, and the sum-to-one condition are checked
    /// only under `debug_assertions`; release builds trust the caller
    /// (this is the fast constructor for generators like `two_state`
    /// that emit sorted supports by construction).
    pub fn from_sorted_atoms(mut atoms: Vec<(f64, f64)>) -> DiscreteDist {
        debug_assert!(!atoms.is_empty(), "a distribution needs at least one atom");
        debug_assert!(
            atoms.windows(2).all(|w| w[0].0.total_cmp(&w[1].0).is_le()),
            "atoms must be sorted by value"
        );
        debug_assert!(
            atoms
                .iter()
                .all(|&(v, p)| v.is_finite() && p.is_finite() && p >= 0.0),
            "atoms must have finite values and probabilities in [0, 1]"
        );
        let mut w = 0usize;
        for r in 0..atoms.len() {
            let (v, p) = atoms[r];
            if p == 0.0 {
                continue;
            }
            if w > 0 && atoms[w - 1].0 == v {
                atoms[w - 1].1 += p;
            } else {
                atoms[w] = (v, p);
                w += 1;
            }
        }
        atoms.truncate(w);
        debug_assert!(!atoms.is_empty(), "all atoms had zero probability");
        debug_assert!(
            (atoms.iter().map(|&(_, p)| p).sum::<f64>() - 1.0).abs() < 1e-6,
            "probabilities must sum to 1"
        );
        DiscreteDist { atoms }
    }

    /// Distribution of `X + Y` for independent `X` (self), `Y` (other).
    ///
    /// The historical kernel pushed all `n·m` pairs `(xᵢ + yⱼ, pᵢ·qⱼ)`
    /// in row-major order, stable-sorted them by value (`total_cmp`),
    /// and folded equal values left to right. Because each operand
    /// support is strictly increasing and `+` is monotone, every row
    /// `i` of the cross product is already non-decreasing in `j` — so a
    /// k-way merge of the `n` rows through a min-heap keyed by
    /// `(value, row)` emits the elements in exactly the stable-sorted
    /// order (row index breaks value ties the way a stable sort of the
    /// row-major stream does, and equal values within a row are
    /// consecutive). The same skip-zeros/fold-equal accumulation over
    /// that stream therefore performs the identical sequence of `f64`
    /// additions and yields a bit-identical result in `O(nm log n)`,
    /// with an `n`-cursor heap in place of the `n·m` pair buffer.
    pub fn convolve(&self, other: &DiscreteDist) -> DiscreteDist {
        let xs = &self.atoms;
        let ys = &other.atoms;
        let (n, m) = (xs.len(), ys.len());
        let mut out: Vec<(f64, f64)> = Vec::with_capacity(n * m);
        let push = |v: f64, p: f64, out: &mut Vec<(f64, f64)>| {
            if p == 0.0 {
                return;
            }
            match out.last_mut() {
                Some(last) if last.0 == v => last.1 += p,
                _ => out.push((v, p)),
            }
        };
        if n == 1 {
            // One row: the row-major stream is already sorted.
            let (vx, px) = xs[0];
            for &(vy, py) in ys {
                push(vx + vy, px * py, &mut out);
            }
        } else if m == 1 {
            // One column: non-decreasing in the row index.
            let (vy, py) = ys[0];
            for &(vx, px) in xs {
                push(vx + vy, px * py, &mut out);
            }
        } else {
            let mut heap: Vec<RowCursor> = (0..n as u32)
                .map(|row| RowCursor {
                    v: xs[row as usize].0 + ys[0].0,
                    row,
                    j: 0,
                })
                .collect();
            for i in (0..n / 2).rev() {
                sift_down(&mut heap, i);
            }
            while let Some(&top) = heap.first() {
                let px = xs[top.row as usize].1;
                let py = ys[top.j as usize].1;
                push(top.v, px * py, &mut out);
                let j = top.j + 1;
                if (j as usize) < m {
                    heap[0].j = j;
                    heap[0].v = xs[top.row as usize].0 + ys[j as usize].0;
                } else {
                    let last = heap.pop().expect("heap is non-empty");
                    if let Some(slot) = heap.first_mut() {
                        *slot = last;
                    } else {
                        break;
                    }
                }
                sift_down(&mut heap, 0);
            }
        }
        debug_assert!(!out.is_empty());
        DiscreteDist { atoms: out }
    }

    /// Distribution of `max(X, Y)` for independent `X`, `Y`.
    ///
    /// `F_max = F_X·F_Y`, so one linear merge over the union of the two
    /// supports gives every atom directly:
    /// `P(max = v) = P(X = v)·P(Y ≤ v) + P(X < v)·P(Y = v)`, from running
    /// sums of the operands' probabilities (no subtraction), in
    /// `O(n + m)`. Values below the larger of the two minima get
    /// probability 0 and are skipped, so the support is exactly the set
    /// of pairwise maxima.
    pub fn max_independent(&self, other: &DiscreteDist) -> DiscreteDist {
        let (xs, ys) = (&self.atoms, &other.atoms);
        let mut out: Vec<(f64, f64)> = Vec::with_capacity(xs.len() + ys.len());
        let (mut i, mut j) = (0, 0);
        // P(X < v) and P(Y < v) for the next support value v.
        let (mut below_x, mut below_y) = (0.0, 0.0);
        while i < xs.len() || j < ys.len() {
            // Support values are finite, so ∞ marks an exhausted operand.
            let vx = xs.get(i).map_or(f64::INFINITY, |a| a.0);
            let vy = ys.get(j).map_or(f64::INFINITY, |a| a.0);
            let v = vx.min(vy);
            let px = if vx == v { xs[i].1 } else { 0.0 };
            let py = if vy == v { ys[j].1 } else { 0.0 };
            i += usize::from(vx == v);
            j += usize::from(vy == v);
            let p = px * (below_y + py) + below_x * py;
            below_x += px;
            below_y += py;
            if p != 0.0 {
                out.push((v, p));
            }
        }
        debug_assert!(!out.is_empty());
        DiscreteDist { atoms: out }
    }

    /// Coarsen the support to at most `max_atoms` atoms by repeatedly
    /// merging the adjacent pair whose merge introduces the least
    /// variance distortion (`p₁p₂/(p₁+p₂)·(v₂−v₁)²`), replacing the
    /// pair by its probability-weighted mean. The overall mean is
    /// preserved exactly (up to rounding); the support shrinks inward.
    pub fn reduce_support(&self, max_atoms: usize) -> DiscreteDist {
        let mut d = self.clone();
        d.reduce_support_in_place(max_atoms);
        d
    }

    /// In-place [`reduce_support`](DiscreteDist::reduce_support):
    /// allocation-free, and in particular a plain length check when the
    /// support is already within budget (the common case in capped
    /// series-parallel evaluation).
    pub fn reduce_support_in_place(&mut self, max_atoms: usize) {
        assert!(max_atoms >= 1, "need at least one atom");
        let atoms = &mut self.atoms;
        while atoms.len() > max_atoms {
            let mut best = 0usize;
            let mut best_cost = f64::INFINITY;
            for i in 0..atoms.len() - 1 {
                let (v1, p1) = atoms[i];
                let (v2, p2) = atoms[i + 1];
                let cost = p1 * p2 / (p1 + p2) * (v2 - v1) * (v2 - v1);
                if cost < best_cost {
                    best_cost = cost;
                    best = i;
                }
            }
            let (v1, p1) = atoms[best];
            let (v2, p2) = atoms[best + 1];
            let p = p1 + p2;
            atoms[best] = ((p1 * v1 + p2 * v2) / p, p);
            atoms.remove(best + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two(a: f64, p: f64) -> DiscreteDist {
        DiscreteDist::from_atoms(vec![(a, p), (2.0 * a, 1.0 - p)])
    }

    #[test]
    fn point_mass_basics() {
        let d = DiscreteDist::point(3.0);
        assert!(d.is_point());
        assert_eq!(d.mean(), 3.0);
        assert_eq!(d.variance(), 0.0);
        assert_eq!(d.min_value(), 3.0);
        assert_eq!(d.max_value(), 3.0);
        assert_eq!(d.quantile(0.5), 3.0);
    }

    #[test]
    fn from_atoms_sorts_and_merges() {
        let d = DiscreteDist::from_atoms(vec![(2.0, 0.25), (1.0, 0.5), (2.0, 0.25)]);
        assert_eq!(d.len(), 2);
        assert_eq!(d.atoms(), &[(1.0, 0.5), (2.0, 0.5)]);
    }

    #[test]
    fn convolution_of_two_state() {
        // {1: .9, 2: .1} + {1: .9, 2: .1} = {2: .81, 3: .18, 4: .01}.
        let d = two(1.0, 0.9).convolve(&two(1.0, 0.9));
        assert_eq!(d.len(), 3);
        assert!((d.cdf(2.0) - 0.81).abs() < 1e-15);
        assert!((d.mean() - 2.2).abs() < 1e-15);
    }

    #[test]
    fn max_of_iid_two_state() {
        // max{1 w.p. .9, 2 w.p. .1}²: P(1) = .81, P(2) = .19.
        let d = two(1.0, 0.9).max_independent(&two(1.0, 0.9));
        assert_eq!(d.len(), 2);
        assert!((d.mean() - (0.81 + 2.0 * 0.19)).abs() < 1e-15);
    }

    #[test]
    fn convolve_with_point_shifts() {
        let d = two(1.0, 0.5).convolve(&DiscreteDist::point(10.0));
        assert_eq!(d.atoms(), &[(11.0, 0.5), (12.0, 0.5)]);
    }

    #[test]
    fn max_with_dominant_point() {
        let d = two(1.0, 0.5).max_independent(&DiscreteDist::point(10.0));
        assert!(d.is_point());
        assert_eq!(d.mean(), 10.0);
    }

    #[test]
    fn reduce_support_preserves_mean() {
        // Binomial-ish support from repeated convolutions.
        let a = two(0.15, 0.999);
        let mut big = a.clone();
        for _ in 0..7 {
            big = big.convolve(&a);
        }
        let before = big.mean();
        for cap in [64, 16, 4, 2, 1] {
            let red = big.reduce_support(cap);
            assert!(red.len() <= cap);
            assert!(
                (red.mean() - before).abs() < 1e-12 * (1.0 + before.abs()),
                "cap {cap}: {} vs {before}",
                red.mean()
            );
        }
    }

    #[test]
    fn reduce_support_noop_when_small() {
        let d = two(1.0, 0.5);
        assert_eq!(d.reduce_support(10), d);
    }

    #[test]
    fn quantiles_walk_the_cdf() {
        let d = DiscreteDist::from_atoms(vec![(1.0, 0.2), (2.0, 0.5), (5.0, 0.3)]);
        assert_eq!(d.quantile(0.0), 1.0);
        assert_eq!(d.quantile(0.2), 1.0);
        assert_eq!(d.quantile(0.21), 2.0);
        assert_eq!(d.quantile(0.7), 2.0);
        assert_eq!(d.quantile(0.71), 5.0);
        assert_eq!(d.quantile(1.0), 5.0);
    }

    #[test]
    fn variance_matches_closed_form() {
        let d = two(1.0, 0.9);
        assert!((d.variance() - 0.09).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "sum to")]
    fn bad_mass_rejected() {
        DiscreteDist::from_atoms(vec![(1.0, 0.5), (2.0, 0.2)]);
    }
}
