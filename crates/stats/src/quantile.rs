//! Quantiles and the percentile split points used for discretization.
//!
//! The paper's beam search (§III) forms numeric conditions `x ≥ q` / `x ≤ q`
//! at "four split points (1/5–4/5 percentiles)". [`percentile_split_points`]
//! produces exactly those, deduplicated when the empirical distribution has
//! heavy ties (e.g. ordinal bioindicator levels 0/1/3/5).

/// Linear-interpolation quantile (type-7, the R/NumPy default) of `xs` at
/// probability `p ∈ [0, 1]`.
///
/// Sorts a copy; for repeated use sort once and call
/// [`quantile_sorted`].
pub fn quantile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile: empty slice");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("quantile: NaN in data"));
    quantile_sorted(&v, p)
}

/// Quantile of an already ascending-sorted slice.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile_sorted: empty slice");
    assert!((0.0..=1.0).contains(&p), "quantile: p must be in [0,1]");
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let h = p * (n - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = h - lo as f64;
        sorted[lo] + frac * (sorted[hi] - sorted[lo])
    }
}

/// The `k` equally spaced interior percentile split points of `xs`
/// (`k = 4` gives the paper's 20/40/60/80th percentiles), deduplicated and
/// excluding values equal to the sample min or max (conditions there would
/// be trivially true/false).
///
/// NaN values (missing cells) are left out, so the split points describe
/// the observed values only; a NaN row then satisfies no `x ≥ q` / `x ≤ q`
/// condition. An all-NaN column has no split points.
pub fn percentile_split_points(xs: &[f64], k: usize) -> Vec<f64> {
    assert!(k >= 1, "percentile_split_points: k must be >= 1");
    let mut v: Vec<f64> = xs.iter().copied().filter(|x| !x.is_nan()).collect();
    if v.is_empty() {
        return Vec::new();
    }
    v.sort_by(f64::total_cmp);
    let (min, max) = (v[0], v[v.len() - 1]);
    let mut out = Vec::with_capacity(k);
    for i in 1..=k {
        let p = i as f64 / (k + 1) as f64;
        let q = quantile_sorted(&v, p);
        if q > min && q < max && out.last().is_none_or(|&last| q > last) {
            out.push(q);
        }
    }
    out
}

/// Median convenience wrapper.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_of_linear_data() {
        let xs: Vec<f64> = (0..=100).map(|i| i as f64).collect();
        assert!((quantile(&xs, 0.0) - 0.0).abs() < 1e-12);
        assert!((quantile(&xs, 0.5) - 50.0).abs() < 1e-12);
        assert!((quantile(&xs, 1.0) - 100.0).abs() < 1e-12);
        assert!((quantile(&xs, 0.25) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = vec![1.0, 2.0, 3.0, 4.0];
        // h = 0.5 * 3 = 1.5 → between 2.0 and 3.0
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn single_element() {
        assert_eq!(quantile(&[7.0], 0.3), 7.0);
    }

    #[test]
    fn split_points_match_paper_percentiles() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let sp = percentile_split_points(&xs, 4);
        assert_eq!(sp.len(), 4);
        // 20/40/60/80th percentiles of 1..=100 under type-7.
        assert!((sp[0] - 20.8).abs() < 1e-9);
        assert!((sp[1] - 40.6).abs() < 1e-9);
        assert!((sp[2] - 60.4).abs() < 1e-9);
        assert!((sp[3] - 80.2).abs() < 1e-9);
    }

    #[test]
    fn split_points_dedup_on_ties() {
        // Ordinal data with massive ties: levels 0, 0, 0, ..., 5.
        let mut xs = vec![0.0; 80];
        xs.extend(vec![3.0; 15]);
        xs.extend(vec![5.0; 5]);
        let sp = percentile_split_points(&xs, 4);
        // Most percentiles collapse onto 0 (= min, excluded); remaining
        // splits must be strictly increasing and interior.
        for w in sp.windows(2) {
            assert!(w[0] < w[1]);
        }
        for &q in &sp {
            assert!(q > 0.0 && q < 5.0);
        }
    }

    #[test]
    fn constant_column_yields_no_splits() {
        let xs = vec![2.0; 50];
        assert!(percentile_split_points(&xs, 4).is_empty());
    }

    #[test]
    fn split_points_skip_a_nan_value() {
        let clean: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let mut xs = clean.clone();
        xs.insert(37, f64::NAN);
        assert_eq!(
            percentile_split_points(&xs, 4),
            percentile_split_points(&clean, 4)
        );
    }

    #[test]
    fn all_nan_column_yields_no_splits() {
        assert!(percentile_split_points(&[f64::NAN; 20], 4).is_empty());
    }

    #[test]
    fn median_works() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
