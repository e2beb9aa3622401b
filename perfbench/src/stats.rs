//! Order statistics over timing samples.

/// Linear-interpolated quantile `q ∈ [0, 1]` of `samples` (any order).
/// Panics on an empty slice: every caller measures at least once.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The highest of p99/p90/p50 that has at least ten samples beyond it,
/// as `(percentile, value)`; `None` below twenty samples. A tail
/// percentile read off fewer samples than that is noise.
pub fn tail_percentile(samples: &[f64]) -> Option<(u32, f64)> {
    [99u32, 90, 50].into_iter().find_map(|p| {
        let beyond = samples.len() as f64 * (1.0 - f64::from(p) / 100.0);
        (beyond >= 10.0 - 1e-9).then(|| (p, quantile(samples, f64::from(p) / 100.0)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
    }

    #[test]
    fn p90_only_with_ten_samples_beyond_it() {
        let ramp = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail_percentile(&ramp(19)), None);
        assert_eq!(tail_percentile(&ramp(20)).map(|t| t.0), Some(50));
        assert_eq!(tail_percentile(&ramp(99)).map(|t| t.0), Some(50));
        let (p, value) = tail_percentile(&ramp(100)).expect("100 samples");
        assert_eq!(p, 90);
        assert!((value - 89.1).abs() < 1e-9);
        assert_eq!(tail_percentile(&ramp(999)).map(|t| t.0), Some(90));
        assert_eq!(tail_percentile(&ramp(1000)).map(|t| t.0), Some(99));
    }
}
