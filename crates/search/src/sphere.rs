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
//! The line search scores each trial point by its IC alone; the gradient
//! is built only at the points the ascent accepts (its start, and each
//! accepted trial), from the per-cell products, `Ŝw` and the scalars the
//! trial's IC evaluation left behind. One workspace of buffers serves a
//! whole direction search, so an ascent step allocates nothing. The
//! gradient at an accepted point has the bits of the formula evaluated
//! there from scratch.
//!
//! A 2-sparse variant optimizes the direction on every coordinate pair and
//! keeps the best (used in the socio-economics case study §III-C "to
//! increase interpretability"); it needs no gradient at all.

use crate::eval::{EvalConfig, Evaluator};
use sisd_core::{DlParams, Intention, SpreadPattern};
use sisd_data::{BitSet, Dataset};
use sisd_linalg::{axpy, dot, norm2, normalize, Cholesky, Matrix, SymEigen};
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

/// Outcome of a direction search, with the work it took.
#[derive(Debug, Clone)]
pub struct SphereResult {
    /// The optimized unit direction.
    pub w: Vec<f64>,
    /// Information content at `w`.
    pub ic: f64,
    /// Total gradient-ascent iterations across starts. The 2-sparse
    /// search counts its grid and golden-section points here.
    pub iterations: usize,
    /// Starts searched: seed directions of the full search, coordinate
    /// pairs of the 2-sparse one.
    pub starts: usize,
    /// IC evaluations: each start's first point and every line-search
    /// trial (every point of the 2-sparse search).
    pub evaluations: usize,
    /// Gradients assembled: one per start and one per accepted step, so
    /// `evaluations − gradients` trial points were rejected. The 2-sparse
    /// search assembles none.
    pub gradients: usize,
    /// Starts that ended on the iteration cap (`SphereConfig::max_iters`)
    /// rather than on the gradient test or a failed line search.
    pub capped_starts: usize,
}

impl SphereResult {
    /// A result with no start searched yet, its `w` sized for `dy`.
    fn empty(dy: usize) -> Self {
        Self {
            w: vec![0.0; dy],
            ic: f64::NAN,
            iterations: 0,
            starts: 0,
            evaluations: 0,
            gradients: 0,
            capped_starts: 0,
        }
    }

    /// Counts a finished start ending at `w` with IC `ic`, and keeps it
    /// when it is the first start or beats the best one so far.
    fn offer(&mut self, w: &[f64], ic: f64) {
        if self.starts == 0 || ic > self.ic {
            self.w.copy_from_slice(w);
            self.ic = ic;
        }
        self.starts += 1;
    }
}

/// The spread-IC objective for a fixed subgroup. [`SpreadObjective::ic`]
/// scores a direction and leaves what its gradient needs in a [`Point`];
/// [`SpreadObjective::grad`] assembles the gradient from it.
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

/// The last direction [`SpreadObjective::ic`] scored, as its gradient
/// reads it, plus the gradient's scratch vectors.
struct Point {
    /// Cell `g`'s `u_g = Σ_g w`, at `u[g·dy..(g + 1)·dy]`.
    u: Vec<f64>,
    /// Cell `g`'s `a_g = wᵀu_g / |I|`.
    a: Vec<f64>,
    /// `Ŝw`.
    v: Vec<f64>,
    s2: f64,
    s3: f64,
    alpha: f64,
    /// The degrees of freedom `m` of the χ² fit.
    mdf: f64,
    /// The standardized statistic `x`, clamped to at least 1e-12.
    x: f64,
    /// Whether `x` was clamped (its gradient is then zero).
    clamped: bool,
    /// `∇s₁`, overwritten by `∇β`.
    grad_s1: Vec<f64>,
    grad_s2: Vec<f64>,
    grad_s3: Vec<f64>,
    grad_alpha: Vec<f64>,
    grad_mdf: Vec<f64>,
    grad_x: Vec<f64>,
}

impl Point {
    fn new(obj: &SpreadObjective) -> Self {
        let dy = obj.dy;
        Self {
            u: vec![0.0; obj.cells.len() * dy],
            a: vec![0.0; obj.cells.len()],
            v: vec![0.0; dy],
            s2: 0.0,
            s3: 0.0,
            alpha: 0.0,
            mdf: 0.0,
            x: 0.0,
            clamped: false,
            grad_s1: vec![0.0; dy],
            grad_s2: vec![0.0; dy],
            grad_s3: vec![0.0; dy],
            grad_alpha: vec![0.0; dy],
            grad_mdf: vec![0.0; dy],
            grad_x: vec![0.0; dy],
        }
    }
}

/// The buffers of one full-sphere direction search: the scored point, the
/// ascent's position and trial, and the tangent and gradient there.
struct Workspace {
    at: Point,
    w: Vec<f64>,
    cand: Vec<f64>,
    tangent: Vec<f64>,
    grad: Vec<f64>,
}

impl Workspace {
    fn new(obj: &SpreadObjective) -> Self {
        let dy = obj.dy;
        Self {
            at: Point::new(obj),
            w: vec![0.0; dy],
            cand: vec![0.0; dy],
            tangent: vec![0.0; dy],
            grad: vec![0.0; dy],
        }
    }
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

    /// IC at `w` (‖w‖ = 1 assumed), leaving in `p` what
    /// [`SpreadObjective::grad`] reads.
    fn ic(&self, w: &[f64], p: &mut Point) -> f64 {
        let mf = self.m;

        // Per-cell quantities and power sums.
        let (mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0);
        let per_cell = p.u.chunks_exact_mut(self.dy).zip(&mut p.a);
        for ((c, cov), (u, a_g)) in self.cells.iter().zip(per_cell) {
            cov.sigma().mul_vec_into(w, u);
            let a = dot(w, u) / mf;
            *a_g = a;
            s1 += c * a;
            s2 += c * a * a;
            s3 += c * a * a * a;
        }

        let alpha = s3 / s2;
        let beta = s1 - s2 * s2 / s3;
        let mdf = s2 * s2 * s2 / (s3 * s3);

        // Observed statistic.
        self.scatter.mul_vec_into(w, &mut p.v);
        let g_obs = dot(w, &p.v);

        let x_raw = (g_obs - beta) / alpha;
        let x = x_raw.max(1e-12);
        p.clamped = x_raw <= 1e-12;
        (p.s2, p.s3, p.alpha, p.mdf, p.x) = (s2, s3, alpha, mdf, x);

        // IC = ln α + (m/2) ln 2 + ln Γ(m/2) − (m/2 − 1) ln x + x/2.
        alpha.ln() + 0.5 * mdf * (2.0_f64).ln() + ln_gamma(0.5 * mdf) - (0.5 * mdf - 1.0) * x.ln()
            + 0.5 * x
    }

    /// Euclidean gradient of the IC into `grad`, at the direction `p`'s
    /// last [`SpreadObjective::ic`] call scored.
    fn grad(&self, p: &mut Point, grad: &mut [f64]) {
        let mf = self.m;
        let (s2, s3, alpha, mdf, x) = (p.s2, p.s3, p.alpha, p.mdf, p.x);

        // ∇a = (2/m) Σw = (2/m) u.
        p.grad_s1.fill(0.0);
        p.grad_s2.fill(0.0);
        p.grad_s3.fill(0.0);
        let per_cell = p.u.chunks_exact(self.dy).zip(&p.a);
        for ((c, _), (u, &a)) in self.cells.iter().zip(per_cell) {
            axpy(c * 2.0 / mf, u, &mut p.grad_s1);
            axpy(c * 4.0 * a / mf, u, &mut p.grad_s2);
            axpy(c * 6.0 * a * a / mf, u, &mut p.grad_s3);
        }

        // ∇α = (s2 ∇s3 − s3 ∇s2)/s2².
        p.grad_alpha.fill(0.0);
        axpy(1.0 / s2, &p.grad_s3, &mut p.grad_alpha);
        axpy(-s3 / (s2 * s2), &p.grad_s2, &mut p.grad_alpha);
        // ∇β = ∇s1 − (2 s2/s3) ∇s2 + (s2²/s3²) ∇s3, in ∇s1's buffer.
        let grad_beta = &mut p.grad_s1;
        axpy(-2.0 * s2 / s3, &p.grad_s2, grad_beta);
        axpy(s2 * s2 / (s3 * s3), &p.grad_s3, grad_beta);
        // ∇m = 3 s2²/s3² ∇s2 − 2 s2³/s3³ ∇s3.
        p.grad_mdf.fill(0.0);
        axpy(3.0 * s2 * s2 / (s3 * s3), &p.grad_s2, &mut p.grad_mdf);
        axpy(
            -2.0 * s2 * s2 * s2 / (s3 * s3 * s3),
            &p.grad_s3,
            &mut p.grad_mdf,
        );

        // ∇x = (∇ĝ − ∇β)/α − (x/α) ∇α  (zero under clamping).
        p.grad_x.fill(0.0);
        if !p.clamped {
            axpy(2.0 / alpha, &p.v, &mut p.grad_x);
            axpy(-1.0 / alpha, &p.grad_s1, &mut p.grad_x);
            axpy(-x / alpha, &p.grad_alpha, &mut p.grad_x);
        }

        grad.fill(0.0);
        axpy(1.0 / alpha, &p.grad_alpha, grad);
        let mdf_coeff = 0.5 * (2.0_f64).ln() + 0.5 * digamma(0.5 * mdf) - 0.5 * x.ln();
        axpy(mdf_coeff, &p.grad_mdf, grad);
        axpy(-(0.5 * mdf - 1.0) / x + 0.5, &p.grad_x, grad);
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

/// Projected gradient ascent from the unit start in `ws.w`; leaves the end
/// point in `ws.w`, adds its work to `counts` and returns its IC.
fn ascend(
    obj: &SpreadObjective,
    cfg: &SphereConfig,
    ws: &mut Workspace,
    counts: &mut SphereResult,
) -> f64 {
    let Workspace {
        at,
        w,
        cand,
        tangent,
        grad,
    } = ws;
    let mut ic = obj.ic(w, at);
    obj.grad(at, grad);
    counts.evaluations += 1;
    counts.gradients += 1;
    let mut step = 0.1;
    let mut capped = true;
    for _ in 0..cfg.max_iters {
        counts.iterations += 1;
        // Tangent projection: g_t = ∇ − (∇·w) w.
        let radial = dot(grad, w);
        tangent.copy_from_slice(grad);
        axpy(-radial, w, tangent);
        let tnorm = norm2(tangent);
        // A NaN gradient (from a NaN target value) points nowhere: stop
        // rather than step to a NaN direction.
        if tnorm.is_nan() || tnorm < cfg.grad_tol * (1.0 + ic.abs()) {
            capped = false;
            break;
        }
        // Backtracking line search with retraction: a trial needs its IC
        // only, and the accepted one its gradient too.
        let mut accepted = false;
        let mut t = step;
        for _ in 0..40 {
            cand.copy_from_slice(w);
            axpy(t, tangent, cand);
            normalize(cand);
            let cand_ic = obj.ic(cand, at);
            counts.evaluations += 1;
            if cand_ic > ic + 1e-4 * t * tnorm * tnorm {
                std::mem::swap(w, cand);
                ic = cand_ic;
                obj.grad(at, grad);
                counts.gradients += 1;
                step = (t * 1.7).min(1e3);
                accepted = true;
                break;
            }
            t *= 0.5;
        }
        if !accepted {
            capped = false;
            break;
        }
    }
    if capped {
        counts.capped_starts += 1;
    }
    ic
}

/// Seed directions: extreme generalized eigenvectors of `(Ŝ, Σ̄)` — the
/// directions whose observed/expected variance ratio is largest and
/// smallest — plus random unit vectors.
fn seeds(obj: &SpreadObjective, cfg: &SphereConfig) -> Vec<Vec<f64>> {
    let dy = obj.dy;
    let mut out = Vec::new();

    if let Ok(chol) = Cholesky::new(&obj.mean_cov()) {
        // B = L⁻¹ Ŝ L⁻ᵀ, symmetric; eigenvectors v map back as w ∝ L⁻ᵀ v.
        // First C = L⁻¹ Ŝ, solving on Ŝ's columns one at a time in `col`.
        let mut b = Matrix::zeros(dy, dy);
        let mut col = vec![0.0; dy];
        for j in 0..dy {
            for (i, x) in col.iter_mut().enumerate() {
                *x = obj.scatter[(i, j)];
            }
            chol.solve_lower_in_place(&mut col);
            for (i, &x) in col.iter().enumerate() {
                b[(i, j)] = x;
            }
        }
        // B = C L⁻ᵀ ⇒ Bᵀ = L⁻¹ Cᵀ; B symmetric, so solve on C's rows in
        // place, which turns C into B.
        for i in 0..dy {
            chol.solve_lower_in_place(b.row_mut(i));
        }
        b.symmetrize();
        let eig = SymEigen::new(&b, 1e-10, 60);
        for &j in &[0, dy - 1] {
            let v = eig.vector(j);
            let mut w = chol.solve_lower_transpose(&v);
            if normalize(&mut w) > 0.0 {
                out.push(w);
            }
        }
    }

    let mut rng = Xoshiro256pp::seed_from_u64(cfg.seed);
    for _ in 0..cfg.random_starts {
        let mut w = vec![0.0; dy];
        rng.fill_normal(&mut w);
        if normalize(&mut w) > 0.0 {
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
    let mut ws = Workspace::new(&obj);
    let mut result = SphereResult::empty(obj.dy);
    for start in seeds(&obj, cfg) {
        ws.w.copy_from_slice(&start);
        normalize(&mut ws.w);
        let ic = ascend(&obj, cfg, &mut ws, &mut result);
        result.offer(&ws.w, ic);
    }
    result
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
    let mut at = Point::new(&obj);
    let dy = data.dy();
    let mut result = SphereResult::empty(dy);
    if dy == 1 {
        let ic = obj.ic(&[1.0], &mut at);
        result.offer(&[1.0], ic);
        result.iterations = 1;
        result.evaluations = 1;
        return result;
    }
    // Every point of the pair (i, j) is zero outside i and j.
    let mut w = vec![0.0; dy];
    const GRID: usize = 48;
    const GOLDEN_STEPS: usize = 40;
    for i in 0..dy {
        for j in (i + 1)..dy {
            let mut ic_at = |theta: f64| {
                w[i] = theta.cos();
                w[j] = theta.sin();
                result.evaluations += 1;
                obj.ic(&w, &mut at)
            };
            // IC(w) = IC(−w): the angle domain is [0, π).
            let mut best_theta = 0.0;
            let mut best_ic = f64::NEG_INFINITY;
            for k in 0..GRID {
                let theta = std::f64::consts::PI * k as f64 / GRID as f64;
                let ic = ic_at(theta);
                if ic > best_ic {
                    best_ic = ic;
                    best_theta = theta;
                }
            }
            // Golden-section refinement around the best grid cell.
            let span = std::f64::consts::PI / GRID as f64;
            let (mut lo, mut hi) = (best_theta - span, best_theta + span);
            let phi = 0.5 * (5.0_f64.sqrt() - 1.0);
            for _ in 0..GOLDEN_STEPS {
                let m1 = hi - phi * (hi - lo);
                let m2 = lo + phi * (hi - lo);
                if ic_at(m1) > ic_at(m2) {
                    hi = m2;
                } else {
                    lo = m1;
                }
            }
            let ic = ic_at(0.5 * (lo + hi));
            result.iterations += GRID + 2 * GOLDEN_STEPS;
            result.offer(&w, ic);
            w[i] = 0.0;
            w[j] = 0.0;
        }
    }
    result
}

/// The full-sphere or the 2-sparse direction search.
pub(crate) fn search_direction(
    model: &BackgroundModel,
    data: &Dataset,
    ext: &BitSet,
    cfg: &SphereConfig,
    two_sparse: bool,
) -> SphereResult {
    if two_sparse {
        optimize_direction_two_sparse(model, data, ext, cfg)
    } else {
        optimize_direction(model, data, ext, cfg)
    }
}

/// Packages direction `w` as a scored [`SpreadPattern`] of the given
/// (already-assimilated) location subgroup.
pub(crate) fn spread_pattern(
    model: &BackgroundModel,
    data: &Dataset,
    intention: &Intention,
    ext: &BitSet,
    dl: &DlParams,
    w: Vec<f64>,
) -> SpreadPattern {
    let score = Evaluator::gaussian(data, model, *dl, EvalConfig::default())
        .score_spread(intention, ext, &w)
        .expect("extension is non-empty by construction");
    SpreadPattern {
        intention: intention.clone(),
        extension: ext.clone(),
        w,
        observed_variance: score.observed,
        score,
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
    let result = search_direction(model, data, ext, cfg, two_sparse);
    spread_pattern(model, data, intention, ext, dl, result.w)
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

    /// The IC alone, through a fresh point.
    fn ic(obj: &SpreadObjective, w: &[f64]) -> f64 {
        obj.ic(w, &mut Point::new(obj))
    }

    #[test]
    fn analytic_gradient_matches_finite_differences() {
        let (data, model, ext) = fixture();
        let obj = SpreadObjective::new(&model, &data, &ext);
        let mut w = vec![0.6, -0.8];
        normalize(&mut w);
        let mut at = Point::new(&obj);
        let mut grad = vec![0.0; 2];
        obj.ic(&w, &mut at);
        obj.grad(&mut at, &mut grad);
        let h = 1e-6;
        for j in 0..2 {
            let mut wp = w.clone();
            wp[j] += h;
            let mut wm = w.clone();
            wm[j] -= h;
            let fd = (ic(&obj, &wp) - ic(&obj, &wm)) / (2.0 * h);
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
        assert!((norm2(&res.w) - 1.0).abs() < 1e-9);
        // The optimum must beat both coordinate axes.
        let obj = SpreadObjective::new(&model, &data, &ext);
        assert!(res.ic >= ic(&obj, &[1.0, 0.0]) - 1e-9);
        assert!(res.ic >= ic(&obj, &[0.0, 1.0]) - 1e-9);
        // And a brute-force angular sweep should not beat it meaningfully.
        let mut brute = f64::NEG_INFINITY;
        for k in 0..360 {
            let th = std::f64::consts::PI * k as f64 / 360.0;
            brute = brute.max(ic(&obj, &[th.cos(), th.sin()]));
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
        let cfg = SphereConfig::default();
        let res = optimize_direction(&model, &data, &ext, &cfg);
        assert!(res.iterations > 0);
        // Two eigenvector seeds and the random starts.
        assert_eq!(res.starts, 2 + cfg.random_starts);
        assert!(res.capped_starts <= res.starts);
        // A start's first point and each accepted step take a gradient.
        // Every accepted step ends one iteration, and each start has at
        // most one more, the one that stops it before the cap.
        assert!(res.gradients <= res.evaluations);
        let accepted = res.gradients - res.starts;
        assert!(accepted <= res.iterations && res.iterations <= accepted + res.starts);

        let sparse = optimize_direction_two_sparse(&model, &data, &ext, &cfg);
        assert_eq!((sparse.starts, sparse.gradients), (1, 0));
        assert_eq!(sparse.evaluations, sparse.iterations + 1);
    }
}
