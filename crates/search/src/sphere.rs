//! Spread-direction search: maximize the spread SI over the unit sphere
//! (paper Eq. 21).
//!
//! The paper optimizes `w` with Manopt's sphere-manifold gradient solver;
//! this module is the standalone replacement: projected gradient ascent
//! with retraction to the sphere, an analytic gradient of the Zhang-
//! approximated information content, Armijo backtracking, and multi-start
//! (random directions plus the extreme generalized eigenvectors of the
//! subgroup scatter against the model covariance — the directions where the
//! observed-to-expected variance ratio is most extreme, which is exactly
//! the surprise the IC rewards).
//!
//! A 2-sparse variant optimizes the direction on every coordinate pair and
//! keeps the best (used in the socio-economics case study §III-C "to
//! increase interpretability").

use crate::eval::{EvalConfig, Evaluator};
use sisd_core::{DlParams, Intention, SpreadPattern};
use sisd_data::{BitSet, Dataset};
use sisd_linalg::{Cholesky, Matrix, SymEigen};
use sisd_model::{BackgroundModel, Covariance};
use sisd_stats::special::{digamma, ln_gamma};
use sisd_stats::Xoshiro256pp;
use std::sync::Arc;

/// Configuration of the sphere optimizer.
#[derive(Debug, Clone)]
pub struct SphereConfig {
    /// Number of random restarts on top of the eigenvector seeds.
    pub random_starts: usize,
    /// Gradient-ascent iteration cap per start.
    pub max_iters: usize,
    /// Stop when the tangent gradient norm falls below this.
    pub grad_tol: f64,
    /// RNG seed for the random restarts.
    pub seed: u64,
}

impl Default for SphereConfig {
    fn default() -> Self {
        Self {
            random_starts: 6,
            max_iters: 300,
            grad_tol: 1e-9,
            seed: 2018,
        }
    }
}

/// Outcome of a direction search.
#[derive(Debug, Clone)]
pub struct SphereResult {
    /// The optimized unit direction.
    pub w: Vec<f64>,
    /// Information content at `w`.
    pub ic: f64,
    /// Total gradient-ascent iterations across starts.
    pub iterations: usize,
}

/// The spread-IC objective for a fixed subgroup, with analytic gradient.
struct SpreadObjective {
    /// `(count within I, Σ_g)` per intersecting parameter cell, holding
    /// the cell's covariance object.
    cells: Vec<(f64, Arc<Covariance>)>,
    /// `|I|`.
    m: f64,
    /// Subgroup scatter matrix `Ŝ` (so `ĝ(w) = wᵀŜw`).
    scatter: Matrix,
    dy: usize,
}

impl SpreadObjective {
    fn new(model: &BackgroundModel, data: &Dataset, ext: &BitSet) -> Self {
        let mut cells = Vec::new();
        for cell in model.cells() {
            let c = cell.ext.intersection_count(ext);
            if c > 0 {
                cells.push((c as f64, Arc::clone(&cell.cov)));
            }
        }
        let m = ext.count() as f64;
        assert!(m > 0.0, "SpreadObjective: empty extension");
        Self {
            cells,
            m,
            scatter: data.target_scatter(ext),
            dy: data.dy(),
        }
    }

    /// IC and its Euclidean gradient at `w` (‖w‖ = 1 assumed).
    fn ic_and_grad(&self, w: &[f64]) -> (f64, Vec<f64>) {
        let dy = self.dy;
        let mf = self.m;

        // Per-cell quantities and power sums.
        let (mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0);
        let mut grad_s1 = vec![0.0; dy];
        let mut grad_s2 = vec![0.0; dy];
        let mut grad_s3 = vec![0.0; dy];
        for (c, cov) in &self.cells {
            let u = cov.sigma().mul_vec(w);
            let a = sisd_linalg::dot(w, &u) / mf;
            s1 += c * a;
            s2 += c * a * a;
            s3 += c * a * a * a;
            // ∇a = (2/m) Σw = (2/m) u.
            sisd_linalg::axpy(c * 2.0 / mf, &u, &mut grad_s1);
            sisd_linalg::axpy(c * 4.0 * a / mf, &u, &mut grad_s2);
            sisd_linalg::axpy(c * 6.0 * a * a / mf, &u, &mut grad_s3);
        }

        let alpha = s3 / s2;
        let beta = s1 - s2 * s2 / s3;
        let mdf = s2 * s2 * s2 / (s3 * s3);

        // ∇α = (s2 ∇s3 − s3 ∇s2)/s2².
        let mut grad_alpha = vec![0.0; dy];
        sisd_linalg::axpy(1.0 / s2, &grad_s3, &mut grad_alpha);
        sisd_linalg::axpy(-s3 / (s2 * s2), &grad_s2, &mut grad_alpha);
        // ∇β = ∇s1 − (2 s2/s3) ∇s2 + (s2²/s3²) ∇s3.
        let mut grad_beta = grad_s1.clone();
        sisd_linalg::axpy(-2.0 * s2 / s3, &grad_s2, &mut grad_beta);
        sisd_linalg::axpy(s2 * s2 / (s3 * s3), &grad_s3, &mut grad_beta);
        // ∇m = 3 s2²/s3² ∇s2 − 2 s2³/s3³ ∇s3.
        let mut grad_mdf = vec![0.0; dy];
        sisd_linalg::axpy(3.0 * s2 * s2 / (s3 * s3), &grad_s2, &mut grad_mdf);
        sisd_linalg::axpy(
            -2.0 * s2 * s2 * s2 / (s3 * s3 * s3),
            &grad_s3,
            &mut grad_mdf,
        );

        // Observed statistic and its gradient.
        let v = self.scatter.mul_vec(w);
        let g_obs = sisd_linalg::dot(w, &v);

        let x_raw = (g_obs - beta) / alpha;
        let x = x_raw.max(1e-12);
        let clamped = x_raw <= 1e-12;

        // IC = ln α + (m/2) ln 2 + ln Γ(m/2) − (m/2 − 1) ln x + x/2.
        let ic = alpha.ln() + 0.5 * mdf * (2.0_f64).ln() + ln_gamma(0.5 * mdf)
            - (0.5 * mdf - 1.0) * x.ln()
            + 0.5 * x;

        // ∇x = (∇ĝ − ∇β)/α − (x/α) ∇α  (zero under clamping).
        let mut grad_x = vec![0.0; dy];
        if !clamped {
            sisd_linalg::axpy(2.0 / alpha, &v, &mut grad_x);
            sisd_linalg::axpy(-1.0 / alpha, &grad_beta, &mut grad_x);
            sisd_linalg::axpy(-x / alpha, &grad_alpha, &mut grad_x);
        }

        let mut grad = vec![0.0; dy];
        sisd_linalg::axpy(1.0 / alpha, &grad_alpha, &mut grad);
        let mdf_coeff = 0.5 * (2.0_f64).ln() + 0.5 * digamma(0.5 * mdf) - 0.5 * x.ln();
        sisd_linalg::axpy(mdf_coeff, &grad_mdf, &mut grad);
        sisd_linalg::axpy(-(0.5 * mdf - 1.0) / x + 0.5, &grad_x, &mut grad);

        (ic, grad)
    }

    /// IC only (used by the 2-sparse grid).
    fn ic(&self, w: &[f64]) -> f64 {
        self.ic_and_grad(w).0
    }

    /// Model-average covariance over the extension, `Σ̄ = Σ c_g Σ_g / |I|`.
    fn mean_cov(&self) -> Matrix {
        let mut out = Matrix::zeros(self.dy, self.dy);
        for (c, cov) in &self.cells {
            for (o, s) in out.as_mut_slice().iter_mut().zip(cov.sigma().as_slice()) {
                *o += c / self.m * s;
            }
        }
        out
    }
}

/// Projected gradient ascent from one start; returns `(w, ic, iters)`.
fn ascend(obj: &SpreadObjective, start: &[f64], cfg: &SphereConfig) -> (Vec<f64>, f64, usize) {
    let mut w = start.to_vec();
    sisd_linalg::normalize(&mut w);
    let (mut ic, mut grad) = obj.ic_and_grad(&w);
    let mut step = 0.1;
    let mut iters = 0;
    for _ in 0..cfg.max_iters {
        iters += 1;
        // Tangent projection: g_t = ∇ − (∇·w) w.
        let radial = sisd_linalg::dot(&grad, &w);
        let mut tangent = grad.clone();
        sisd_linalg::axpy(-radial, &w, &mut tangent);
        let tnorm = sisd_linalg::norm2(&tangent);
        // A NaN gradient (from a NaN target value) points nowhere: stop
        // rather than step to a NaN direction.
        if tnorm.is_nan() || tnorm < cfg.grad_tol * (1.0 + ic.abs()) {
            break;
        }
        // Backtracking line search with retraction.
        let mut accepted = false;
        let mut t = step;
        for _ in 0..40 {
            let mut cand = w.clone();
            sisd_linalg::axpy(t, &tangent, &mut cand);
            sisd_linalg::normalize(&mut cand);
            let (cand_ic, cand_grad) = obj.ic_and_grad(&cand);
            if cand_ic > ic + 1e-4 * t * tnorm * tnorm {
                w = cand;
                ic = cand_ic;
                grad = cand_grad;
                step = (t * 1.7).min(1e3);
                accepted = true;
                break;
            }
            t *= 0.5;
        }
        if !accepted {
            break;
        }
    }
    (w, ic, iters)
}

/// Seed directions: extreme generalized eigenvectors of `(Ŝ, Σ̄)` — the
/// directions whose observed/expected variance ratio is largest and
/// smallest — plus random unit vectors.
fn seeds(obj: &SpreadObjective, cfg: &SphereConfig) -> Vec<Vec<f64>> {
    let dy = obj.dy;
    let mut out = Vec::new();

    if let Ok(chol) = Cholesky::new(&obj.mean_cov()) {
        // B = L⁻¹ Ŝ L⁻ᵀ, symmetric; eigenvectors v map back as w ∝ L⁻ᵀ v.
        let mut b = Matrix::zeros(dy, dy);
        // C = L⁻¹ Ŝ (column-wise solves on Ŝ's columns = rows by symmetry).
        let mut c = Matrix::zeros(dy, dy);
        for j in 0..dy {
            let col: Vec<f64> = (0..dy).map(|i| obj.scatter[(i, j)]).collect();
            let sol = chol.solve_lower(&col);
            for i in 0..dy {
                c[(i, j)] = sol[i];
            }
        }
        // B = C L⁻ᵀ ⇒ Bᵀ = L⁻¹ Cᵀ; B symmetric, so solve on C's rows.
        for i in 0..dy {
            let row: Vec<f64> = c.row(i).to_vec();
            let sol = chol.solve_lower(&row);
            for j in 0..dy {
                b[(i, j)] = sol[j];
            }
        }
        b.symmetrize();
        let eig = SymEigen::new(&b, 1e-10, 60);
        for &j in &[0, dy - 1] {
            let v = eig.vector(j);
            let mut w = chol.solve_lower_transpose(&v);
            if sisd_linalg::normalize(&mut w) > 0.0 {
                out.push(w);
            }
        }
    }

    let mut rng = Xoshiro256pp::seed_from_u64(cfg.seed);
    for _ in 0..cfg.random_starts {
        let mut w = vec![0.0; dy];
        rng.fill_normal(&mut w);
        if sisd_linalg::normalize(&mut w) > 0.0 {
            out.push(w);
        }
    }
    if out.is_empty() {
        let mut w = vec![0.0; dy];
        w[0] = 1.0;
        out.push(w);
    }
    out
}

/// Maximizes the spread IC over the full unit sphere.
pub fn optimize_direction(
    model: &BackgroundModel,
    data: &Dataset,
    ext: &BitSet,
    cfg: &SphereConfig,
) -> SphereResult {
    let obj = SpreadObjective::new(model, data, ext);
    let mut best: Option<(Vec<f64>, f64)> = None;
    let mut total_iters = 0;
    for start in seeds(&obj, cfg) {
        let (w, ic, iters) = ascend(&obj, &start, cfg);
        total_iters += iters;
        if best.as_ref().is_none_or(|(_, b)| ic > *b) {
            best = Some((w, ic));
        }
    }
    let (w, ic) = best.expect("at least one seed");
    SphereResult {
        w,
        ic,
        iterations: total_iters,
    }
}

/// Maximizes the spread IC over 2-sparse directions (all coordinate pairs),
/// the interpretability-constrained variant of §III-C. With one target
/// column the only unit directions are `±1`, both 2-sparse and of equal IC,
/// so the result is `w = [1]`.
pub fn optimize_direction_two_sparse(
    model: &BackgroundModel,
    data: &Dataset,
    ext: &BitSet,
    _cfg: &SphereConfig,
) -> SphereResult {
    let obj = SpreadObjective::new(model, data, ext);
    let dy = data.dy();
    if dy == 1 {
        let w = vec![1.0];
        let ic = obj.ic(&w);
        return SphereResult {
            w,
            ic,
            iterations: 1,
        };
    }
    let mut best: Option<(Vec<f64>, f64)> = None;
    let mut evals = 0;
    const GRID: usize = 48;
    for i in 0..dy {
        for j in (i + 1)..dy {
            // IC(w) = IC(−w): the angle domain is [0, π).
            let mut best_theta = 0.0;
            let mut best_ic = f64::NEG_INFINITY;
            for k in 0..GRID {
                let theta = std::f64::consts::PI * k as f64 / GRID as f64;
                let mut w = vec![0.0; dy];
                w[i] = theta.cos();
                w[j] = theta.sin();
                let ic = obj.ic(&w);
                evals += 1;
                if ic > best_ic {
                    best_ic = ic;
                    best_theta = theta;
                }
            }
            // Golden-section refinement around the best grid cell.
            let span = std::f64::consts::PI / GRID as f64;
            let (mut lo, mut hi) = (best_theta - span, best_theta + span);
            let phi = 0.5 * (5.0_f64.sqrt() - 1.0);
            let eval = |theta: f64, obj: &SpreadObjective| {
                let mut w = vec![0.0; dy];
                w[i] = theta.cos();
                w[j] = theta.sin();
                obj.ic(&w)
            };
            for _ in 0..40 {
                let m1 = hi - phi * (hi - lo);
                let m2 = lo + phi * (hi - lo);
                if eval(m1, &obj) > eval(m2, &obj) {
                    hi = m2;
                } else {
                    lo = m1;
                }
                evals += 2;
            }
            let theta = 0.5 * (lo + hi);
            let mut w = vec![0.0; dy];
            w[i] = theta.cos();
            w[j] = theta.sin();
            let ic = obj.ic(&w);
            if best.as_ref().is_none_or(|(_, b)| ic > *b) {
                best = Some((w, ic));
            }
        }
    }
    let (w, ic) = best.expect("dy >= 2 guarantees at least one pair");
    SphereResult {
        w,
        ic,
        iterations: evals,
    }
}

/// Convenience: run the direction search and package a full
/// [`SpreadPattern`] with scores for the given (already-assimilated)
/// location subgroup.
pub fn mine_spread_pattern(
    model: &BackgroundModel,
    data: &Dataset,
    intention: &Intention,
    ext: &BitSet,
    dl: &DlParams,
    cfg: &SphereConfig,
    two_sparse: bool,
) -> SpreadPattern {
    let result = if two_sparse {
        optimize_direction_two_sparse(model, data, ext, cfg)
    } else {
        optimize_direction(model, data, ext, cfg)
    };
    let score = Evaluator::gaussian(data, model, *dl, EvalConfig::default())
        .score_spread(intention, ext, &result.w)
        .expect("extension is non-empty by construction");
    SpreadPattern {
        intention: intention.clone(),
        extension: ext.clone(),
        w: result.w,
        observed_variance: score.observed,
        score,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sisd_data::datasets::synthetic_paper;

    /// Builds the model/subgroup fixture: cluster 0 of the synthetic data,
    /// with its location pattern already assimilated (the paper's two-step
    /// protocol).
    fn fixture() -> (Dataset, BackgroundModel, BitSet) {
        let (data, truth) = synthetic_paper(42);
        let mut model = BackgroundModel::from_empirical(&data).unwrap();
        let ext = truth.cluster_extensions[0].clone();
        let mean = data.target_mean(&ext);
        model.assimilate_location(&ext, mean).unwrap();
        (data, model, ext)
    }

    #[test]
    fn analytic_gradient_matches_finite_differences() {
        let (data, model, ext) = fixture();
        let obj = SpreadObjective::new(&model, &data, &ext);
        let mut w = vec![0.6, -0.8];
        sisd_linalg::normalize(&mut w);
        let (_, grad) = obj.ic_and_grad(&w);
        let h = 1e-6;
        for j in 0..2 {
            let mut wp = w.clone();
            wp[j] += h;
            let mut wm = w.clone();
            wm[j] -= h;
            let fd = (obj.ic(&wp) - obj.ic(&wm)) / (2.0 * h);
            assert!(
                (grad[j] - fd).abs() < 1e-4 * (1.0 + fd.abs()),
                "component {j}: analytic {} vs fd {}",
                grad[j],
                fd
            );
        }
    }

    #[test]
    fn optimizer_finds_the_anisotropy_direction() {
        let (data, model, ext) = fixture();
        let cfg = SphereConfig::default();
        let res = optimize_direction(&model, &data, &ext, &cfg);
        assert!((sisd_linalg::norm2(&res.w) - 1.0).abs() < 1e-9);
        // The optimum must beat both coordinate axes.
        let obj = SpreadObjective::new(&model, &data, &ext);
        assert!(res.ic >= obj.ic(&[1.0, 0.0]) - 1e-9);
        assert!(res.ic >= obj.ic(&[0.0, 1.0]) - 1e-9);
        // And a brute-force angular sweep should not beat it meaningfully.
        let mut brute = f64::NEG_INFINITY;
        for k in 0..360 {
            let th = std::f64::consts::PI * k as f64 / 360.0;
            brute = brute.max(obj.ic(&[th.cos(), th.sin()]));
        }
        assert!(
            res.ic > brute - 1e-3,
            "optimizer {} vs brute force {}",
            res.ic,
            brute
        );
    }

    #[test]
    fn two_sparse_matches_full_search_in_2d() {
        // In 2 target dimensions every direction is 2-sparse, so both
        // optimizers must agree.
        let (data, model, ext) = fixture();
        let cfg = SphereConfig::default();
        let full = optimize_direction(&model, &data, &ext, &cfg);
        let sparse = optimize_direction_two_sparse(&model, &data, &ext, &cfg);
        assert!(
            (full.ic - sparse.ic).abs() < 1e-3,
            "{} vs {}",
            full.ic,
            sparse.ic
        );
    }

    #[test]
    fn spread_pattern_records_low_variance_direction() {
        let (data, model, ext) = fixture();
        let p = mine_spread_pattern(
            &model,
            &data,
            &Intention::empty(),
            &ext,
            &DlParams::default(),
            &SphereConfig::default(),
            false,
        );
        // The cluster is strongly anisotropic: along the minor axis the
        // observed variance is far below the (full-data) expectation.
        assert!(
            p.variance_ratio() < 0.5 || p.variance_ratio() > 2.0,
            "ratio {} not surprising",
            p.variance_ratio()
        );
        assert!(p.score.si > 0.0);
    }

    #[test]
    fn iterations_are_counted() {
        let (data, model, ext) = fixture();
        let res = optimize_direction(&model, &data, &ext, &SphereConfig::default());
        assert!(res.iterations > 0);
    }
}
