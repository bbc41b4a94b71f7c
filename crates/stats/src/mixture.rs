//! Zhang (2005) three-moment approximation of χ²-type mixtures.
//!
//! The variance statistic of a spread pattern is a positive linear
//! combination of independent χ²₁ variables (paper Eq. 17):
//!
//! ```text
//! g = Σᵢ aᵢ cᵢ,   cᵢ ~ χ²₁ iid,  aᵢ = w′Σᵢw / |I| ≥ 0.
//! ```
//!
//! No closed form exists for the density of `g`; Zhang's approximation
//! matches the first three cumulants with an affine image of a χ²
//! variable, `g ≈ α χ²_m + β`, using (paper Eq. 18):
//!
//! ```text
//! α = Σa³ / Σa²,   β = Σa − (Σa²)² / Σa³,   m = (Σa²)³ / (Σa³)².
//! ```
//!
//! The information content of a spread pattern is then `−log p(ĝ)` under
//! this approximation (paper Eq. 19, with the printed `+α` corrected to the
//! `+log α` Jacobian term of the affine map — see DESIGN.md).

use crate::chi2::ChiSquared;

/// Moment-matched approximation `g ≈ α χ²_m + β` of `Σ aᵢ χ²₁`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Chi2MixtureApprox {
    /// Scale of the χ² component.
    pub alpha: f64,
    /// Location shift.
    pub beta: f64,
    /// Real-valued degrees of freedom.
    pub m: f64,
}

impl Chi2MixtureApprox {
    /// Builds the approximation from mixture coefficients.
    ///
    /// Coefficients must be non-negative with at least one strictly
    /// positive entry; zero coefficients are skipped (they contribute
    /// nothing to any moment).
    pub fn from_coefficients(coeffs: impl IntoIterator<Item = f64>) -> Self {
        let (mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0);
        for a in coeffs {
            debug_assert!(a >= -1e-15, "mixture coefficient must be non-negative");
            let a = a.max(0.0);
            s1 += a;
            s2 += a * a;
            s3 += a * a * a;
        }
        Self::from_power_sums(s1, s2, s3)
    }

    /// Builds the approximation from pre-accumulated power sums
    /// `s1 = Σa`, `s2 = Σa²`, `s3 = Σa³`. This is the hot path for the
    /// model layer, which accumulates per-cell contributions
    /// `n_g · (w′Σ_g w/|I|)^p` without materializing per-point vectors.
    pub fn from_power_sums(s1: f64, s2: f64, s3: f64) -> Self {
        assert!(
            s1 > 0.0 && s2 > 0.0 && s3 > 0.0,
            "chi2 mixture needs at least one positive coefficient"
        );
        let alpha = s3 / s2;
        let beta = s1 - s2 * s2 / s3;
        let m = s2 * s2 * s2 / (s3 * s3);
        Self { alpha, beta, m }
    }

    /// Mean of the approximating distribution (= Σa, exactly the mixture
    /// mean by construction).
    pub fn mean(&self) -> f64 {
        self.alpha * self.m + self.beta
    }

    /// Variance (= 2Σa², exactly the mixture variance by construction).
    pub fn variance(&self) -> f64 {
        2.0 * self.alpha * self.alpha * self.m
    }

    /// Log-density of the approximation at `g`.
    ///
    /// Returns −∞ outside the support `g > β`.
    pub fn ln_pdf(&self, g: f64) -> f64 {
        let x = (g - self.beta) / self.alpha;
        if x <= 0.0 {
            return f64::NEG_INFINITY;
        }
        ChiSquared::new(self.m).ln_pdf(x) - self.alpha.ln()
    }

    /// CDF of the approximation at `g`.
    pub fn cdf(&self, g: f64) -> f64 {
        let x = (g - self.beta) / self.alpha;
        ChiSquared::new(self.m).cdf(x)
    }

    /// Negative log-density, i.e. the information content of observing `g`
    /// (paper Eq. 19). Every `g ≤ β + 1e-12·α`, however far below the
    /// support's edge β, is lifted to `β + 1e-12·α` and scored there, so
    /// all such `g` share one IC, set by the constant `1e-12` rather than
    /// by the data. (Numerically equal-coefficient mixtures have β exactly
    /// at the edge.) ROADMAP.md item 2 replaces this clamp with an IC that
    /// is valid on the whole support.
    pub fn information_content(&self, g: f64) -> f64 {
        let edge = self.beta + self.alpha * 1e-12;
        let g = if g <= edge { edge } else { g };
        -self.ln_pdf(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256pp;

    #[test]
    fn equal_coefficients_recover_plain_chi2() {
        // Σ_{i=1..k} a·χ²₁ = a·χ²_k exactly; Zhang must reproduce it.
        let k = 7;
        let a = 0.5;
        let approx = Chi2MixtureApprox::from_coefficients(std::iter::repeat_n(a, k));
        assert!((approx.alpha - a).abs() < 1e-12);
        assert!(approx.beta.abs() < 1e-12);
        assert!((approx.m - k as f64).abs() < 1e-12);
    }

    #[test]
    fn moments_match_mixture_exactly() {
        let coeffs = [0.2, 1.5, 0.9, 3.0, 0.01];
        let approx = Chi2MixtureApprox::from_coefficients(coeffs.iter().copied());
        let mean: f64 = coeffs.iter().sum();
        let var: f64 = 2.0 * coeffs.iter().map(|a| a * a).sum::<f64>();
        assert!((approx.mean() - mean).abs() < 1e-12);
        assert!((approx.variance() - var).abs() < 1e-12);
    }

    #[test]
    fn power_sum_and_coefficient_paths_agree() {
        let coeffs = [0.3, 0.3, 0.7, 1.1];
        let a = Chi2MixtureApprox::from_coefficients(coeffs.iter().copied());
        let s1: f64 = coeffs.iter().sum();
        let s2: f64 = coeffs.iter().map(|c| c * c).sum();
        let s3: f64 = coeffs.iter().map(|c| c * c * c).sum();
        let b = Chi2MixtureApprox::from_power_sums(s1, s2, s3);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_coefficients_are_ignored() {
        let a = Chi2MixtureApprox::from_coefficients([1.0, 0.0, 2.0, 0.0]);
        let b = Chi2MixtureApprox::from_coefficients([1.0, 2.0]);
        assert!((a.m - b.m).abs() < 1e-12);
        assert!((a.alpha - b.alpha).abs() < 1e-12);
        assert!((a.beta - b.beta).abs() < 1e-12);
    }

    #[test]
    fn cdf_against_monte_carlo() {
        // Draw the true mixture and compare empirical CDF with Zhang's.
        let coeffs = [1.0, 0.5, 0.25, 2.0];
        let approx = Chi2MixtureApprox::from_coefficients(coeffs.iter().copied());
        let mut rng = Xoshiro256pp::seed_from_u64(1234);
        let n = 200_000;
        let mut samples: Vec<f64> = (0..n)
            .map(|_| {
                coeffs
                    .iter()
                    .map(|&a| {
                        let z = rng.normal();
                        a * z * z
                    })
                    .sum()
            })
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // Zhang's approximation matches three moments; it is tight in the
        // body and upper tail but its support starts at β > 0, so the lower
        // tail is only qualitatively right — mirror that in the tolerances.
        for &(q, tol) in &[
            (0.1, 0.06),
            (0.25, 0.03),
            (0.5, 0.02),
            (0.75, 0.02),
            (0.9, 0.02),
            (0.99, 0.01),
        ] {
            let emp = samples[(q * n as f64) as usize];
            let approx_p = approx.cdf(emp);
            assert!(
                (approx_p - q).abs() < tol,
                "quantile {q}: Zhang CDF gives {approx_p}"
            );
        }
    }

    #[test]
    fn information_content_is_finite_at_the_mean() {
        let approx = Chi2MixtureApprox::from_coefficients([0.4, 0.4, 0.8]);
        let ic = approx.information_content(approx.mean());
        assert!(ic.is_finite());
        // Surprising observations carry more information than the mean.
        assert!(approx.information_content(approx.mean() * 6.0) > ic);
    }

    #[test]
    fn information_content_clamps_at_support_edge() {
        let approx = Chi2MixtureApprox::from_coefficients([1.0, 1.0, 1.0]);
        // β = 0 here; a tiny negative observation must not produce NaN/∞.
        let ic = approx.information_content(-1e-13);
        assert!(ic.is_finite());
    }

    #[test]
    #[should_panic(expected = "positive coefficient")]
    fn all_zero_coefficients_rejected() {
        Chi2MixtureApprox::from_coefficients([0.0, 0.0]);
    }
}
