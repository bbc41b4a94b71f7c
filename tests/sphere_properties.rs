//! Property-based tests of the spread-direction machinery: the optimizer's
//! output must be a unit vector no worse than canonical directions, the IC
//! must be sign-symmetric and rotation-consistent, and the 2-sparse variant
//! must match the full search when `dy = 2`. The full search must also
//! return, bit for bit, what a reference ascent returns that evaluates the
//! objective and its gradient together at every trial point.

mod common;

use proptest::prelude::*;
use sisd::core::{spread_si, DlParams, Intention};
use sisd::data::datasets::synthetic_paper;
use sisd::data::{BitSet, Column, Dataset};
use sisd::linalg::Matrix;
use sisd::model::BackgroundModel;
use sisd::search::{optimize_direction, optimize_direction_two_sparse, SphereConfig};
use sisd::stats::Xoshiro256pp;

/// Random 3-target dataset with an anisotropic planted subgroup.
fn dataset(seed: u64) -> (Dataset, BitSet) {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let n = 90;
    let flag: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
    let mut targets = Matrix::zeros(n, 3);
    for i in 0..n {
        if flag[i] {
            // Elongated cluster: big variance on axis 0, tiny on axis 2.
            targets[(i, 0)] = 2.0 + 1.5 * rng.normal();
            targets[(i, 1)] = -1.0 + 0.5 * rng.normal();
            targets[(i, 2)] = 1.0 + 0.05 * rng.normal();
        } else {
            for j in 0..3 {
                targets[(i, j)] = rng.normal();
            }
        }
    }
    let data = Dataset::new(
        "sphere-prop",
        vec!["flag".into()],
        vec![Column::binary(&flag)],
        vec!["t0".into(), "t1".into(), "t2".into()],
        targets,
    );
    let ext = BitSet::from_fn(n, |i| i % 3 == 0);
    (data, ext)
}

fn assimilated(seed: u64) -> (Dataset, BackgroundModel, BitSet) {
    let (data, ext) = dataset(seed);
    let mut model = BackgroundModel::from_empirical(&data).unwrap();
    let mean = data.target_mean(&ext);
    model.assimilate_location(&ext, mean).unwrap();
    (data, model, ext)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn optimum_is_unit_norm_and_beats_axes(seed in 0u64..300) {
        let (data, model, ext) = assimilated(seed);
        let cfg = SphereConfig { random_starts: 4, ..SphereConfig::default() };
        let res = optimize_direction(&model, &data, &ext, &cfg);
        prop_assert!((sisd::linalg::norm2(&res.w) - 1.0).abs() < 1e-9);
        let dl = DlParams::default();
        let intent = Intention::empty();
        let best = spread_si(&model, &data, &intent, &ext, &res.w, &dl).unwrap().ic;
        for j in 0..3 {
            let mut axis = vec![0.0; 3];
            axis[j] = 1.0;
            let axis_ic = spread_si(&model, &data, &intent, &ext, &axis, &dl).unwrap().ic;
            prop_assert!(best >= axis_ic - 1e-6, "axis {j} beats optimum: {axis_ic} > {best}");
        }
    }

    #[test]
    fn ic_is_sign_symmetric(seed in 0u64..300, a in -1.0f64..1.0, b in -1.0f64..1.0, c in -1.0f64..1.0) {
        let (data, model, ext) = assimilated(seed);
        let mut w = vec![a, b, c];
        if sisd::linalg::normalize(&mut w) == 0.0 {
            w = vec![1.0, 0.0, 0.0];
        }
        let neg: Vec<f64> = w.iter().map(|v| -v).collect();
        let dl = DlParams::default();
        let intent = Intention::empty();
        let p = spread_si(&model, &data, &intent, &ext, &w, &dl).unwrap();
        let q = spread_si(&model, &data, &intent, &ext, &neg, &dl).unwrap();
        prop_assert!((p.ic - q.ic).abs() < 1e-9);
        prop_assert!((p.observed - q.observed).abs() < 1e-12);
    }

    #[test]
    fn multistart_is_monotone_in_restarts(seed in 0u64..100) {
        // More restarts can only improve (or tie) the best IC found.
        let (data, model, ext) = assimilated(seed);
        let few = optimize_direction(&model, &data, &ext, &SphereConfig {
            random_starts: 1, seed: 9, ..SphereConfig::default()
        });
        let many = optimize_direction(&model, &data, &ext, &SphereConfig {
            random_starts: 8, seed: 9, ..SphereConfig::default()
        });
        prop_assert!(many.ic >= few.ic - 1e-9, "{} < {}", many.ic, few.ic);
    }
}

#[test]
fn two_sparse_never_beats_full_search() {
    // The 2-sparse feasible set is a subset of the sphere, so its optimum
    // is at most the full optimum (up to optimizer tolerance).
    for seed in [1u64, 5, 11] {
        let (data, model, ext) = assimilated(seed);
        let cfg = SphereConfig::default();
        let full = optimize_direction(&model, &data, &ext, &cfg);
        let sparse = optimize_direction_two_sparse(&model, &data, &ext, &cfg);
        assert!(
            sparse.ic <= full.ic + 1e-3,
            "seed {seed}: sparse {} > full {}",
            sparse.ic,
            full.ic
        );
        // And the sparse direction has at most two non-zero coordinates.
        let nz = sparse.w.iter().filter(|v| v.abs() > 1e-9).count();
        assert!(nz <= 2);
    }
}

#[test]
fn planted_low_variance_axis_is_found() {
    // Axis 2 has within-subgroup sd 0.05 vs background ≈ 1: the optimizer
    // must put dominant weight there.
    let (data, model, ext) = assimilated(3);
    let res = optimize_direction(&model, &data, &ext, &SphereConfig::default());
    assert!(
        res.w[2].abs() > 0.9,
        "expected axis-2 dominance, got {:?}",
        res.w
    );
}

/// The direction search as a reference: the objective allocates its
/// vectors and returns the IC and its gradient together at every point,
/// trial points of the line search included. Built on public API only.
mod reference {
    use sisd::data::{BitSet, Dataset};
    use sisd::linalg::{axpy, dot, norm2, normalize, Cholesky, Matrix, SymEigen};
    use sisd::model::BackgroundModel;
    use sisd::search::SphereConfig;
    use sisd::stats::special::{digamma, ln_gamma};
    use sisd::stats::Xoshiro256pp;

    /// What a search returned and the work it did.
    pub struct Outcome {
        pub w: Vec<f64>,
        pub ic: f64,
        pub iterations: usize,
        pub starts: usize,
        /// Objective (and gradient) evaluations.
        pub evaluations: usize,
        /// Line-search trials accepted.
        pub accepted: usize,
    }

    struct Objective {
        cells: Vec<(f64, Matrix)>,
        m: f64,
        scatter: Matrix,
        dy: usize,
    }

    impl Objective {
        fn new(model: &BackgroundModel, data: &Dataset, ext: &BitSet) -> Self {
            let mut cells = Vec::new();
            for cell in model.cells() {
                let c = cell.ext.intersection_count(ext);
                if c > 0 {
                    cells.push((c as f64, cell.cov.sigma().clone()));
                }
            }
            Self {
                cells,
                m: ext.count() as f64,
                scatter: data.target_scatter(ext),
                dy: data.dy(),
            }
        }

        fn ic_and_grad(&self, w: &[f64]) -> (f64, Vec<f64>) {
            let dy = self.dy;
            let mf = self.m;
            let (mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0);
            let mut grad_s1 = vec![0.0; dy];
            let mut grad_s2 = vec![0.0; dy];
            let mut grad_s3 = vec![0.0; dy];
            for (c, sigma) in &self.cells {
                let u = sigma.mul_vec(w);
                let a = dot(w, &u) / mf;
                s1 += c * a;
                s2 += c * a * a;
                s3 += c * a * a * a;
                axpy(c * 2.0 / mf, &u, &mut grad_s1);
                axpy(c * 4.0 * a / mf, &u, &mut grad_s2);
                axpy(c * 6.0 * a * a / mf, &u, &mut grad_s3);
            }
            let alpha = s3 / s2;
            let beta = s1 - s2 * s2 / s3;
            let mdf = s2 * s2 * s2 / (s3 * s3);
            let mut grad_alpha = vec![0.0; dy];
            axpy(1.0 / s2, &grad_s3, &mut grad_alpha);
            axpy(-s3 / (s2 * s2), &grad_s2, &mut grad_alpha);
            let mut grad_beta = grad_s1.clone();
            axpy(-2.0 * s2 / s3, &grad_s2, &mut grad_beta);
            axpy(s2 * s2 / (s3 * s3), &grad_s3, &mut grad_beta);
            let mut grad_mdf = vec![0.0; dy];
            axpy(3.0 * s2 * s2 / (s3 * s3), &grad_s2, &mut grad_mdf);
            axpy(
                -2.0 * s2 * s2 * s2 / (s3 * s3 * s3),
                &grad_s3,
                &mut grad_mdf,
            );
            let v = self.scatter.mul_vec(w);
            let g_obs = dot(w, &v);
            let x_raw = (g_obs - beta) / alpha;
            let x = x_raw.max(1e-12);
            let clamped = x_raw <= 1e-12;
            let ic = alpha.ln() + 0.5 * mdf * (2.0_f64).ln() + ln_gamma(0.5 * mdf)
                - (0.5 * mdf - 1.0) * x.ln()
                + 0.5 * x;
            let mut grad_x = vec![0.0; dy];
            if !clamped {
                axpy(2.0 / alpha, &v, &mut grad_x);
                axpy(-1.0 / alpha, &grad_beta, &mut grad_x);
                axpy(-x / alpha, &grad_alpha, &mut grad_x);
            }
            let mut grad = vec![0.0; dy];
            axpy(1.0 / alpha, &grad_alpha, &mut grad);
            let mdf_coeff = 0.5 * (2.0_f64).ln() + 0.5 * digamma(0.5 * mdf) - 0.5 * x.ln();
            axpy(mdf_coeff, &grad_mdf, &mut grad);
            axpy(-(0.5 * mdf - 1.0) / x + 0.5, &grad_x, &mut grad);
            (ic, grad)
        }

        fn mean_cov(&self) -> Matrix {
            let mut out = Matrix::zeros(self.dy, self.dy);
            for (c, sigma) in &self.cells {
                for (o, s) in out.as_mut_slice().iter_mut().zip(sigma.as_slice()) {
                    *o += c / self.m * s;
                }
            }
            out
        }
    }

    fn ascend(
        obj: &Objective,
        start: &[f64],
        cfg: &SphereConfig,
        out: &mut Outcome,
    ) -> (Vec<f64>, f64) {
        let mut w = start.to_vec();
        normalize(&mut w);
        let (mut ic, mut grad) = obj.ic_and_grad(&w);
        out.evaluations += 1;
        let mut step = 0.1;
        for _ in 0..cfg.max_iters {
            out.iterations += 1;
            let radial = dot(&grad, &w);
            let mut tangent = grad.clone();
            axpy(-radial, &w, &mut tangent);
            let tnorm = norm2(&tangent);
            if tnorm.is_nan() || tnorm < cfg.grad_tol * (1.0 + ic.abs()) {
                break;
            }
            let mut accepted = false;
            let mut t = step;
            for _ in 0..40 {
                let mut cand = w.clone();
                axpy(t, &tangent, &mut cand);
                normalize(&mut cand);
                let (cand_ic, cand_grad) = obj.ic_and_grad(&cand);
                out.evaluations += 1;
                if cand_ic > ic + 1e-4 * t * tnorm * tnorm {
                    w = cand;
                    ic = cand_ic;
                    grad = cand_grad;
                    step = (t * 1.7).min(1e3);
                    accepted = true;
                    out.accepted += 1;
                    break;
                }
                t *= 0.5;
            }
            if !accepted {
                break;
            }
        }
        (w, ic)
    }

    fn seeds(obj: &Objective, cfg: &SphereConfig) -> Vec<Vec<f64>> {
        let dy = obj.dy;
        let mut out = Vec::new();
        if let Ok(chol) = Cholesky::new(&obj.mean_cov()) {
            let mut b = Matrix::zeros(dy, dy);
            let mut c = Matrix::zeros(dy, dy);
            for j in 0..dy {
                let col: Vec<f64> = (0..dy).map(|i| obj.scatter[(i, j)]).collect();
                let sol = chol.solve_lower(&col);
                for i in 0..dy {
                    c[(i, j)] = sol[i];
                }
            }
            for i in 0..dy {
                let sol = chol.solve_lower(c.row(i));
                for j in 0..dy {
                    b[(i, j)] = sol[j];
                }
            }
            b.symmetrize();
            let eig = SymEigen::new(&b, 1e-10, 60);
            for &j in &[0, dy - 1] {
                let mut w = chol.solve_lower_transpose(&eig.vector(j));
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

    pub fn optimize_direction(
        model: &BackgroundModel,
        data: &Dataset,
        ext: &BitSet,
        cfg: &SphereConfig,
    ) -> Outcome {
        let obj = Objective::new(model, data, ext);
        let mut out = Outcome {
            w: Vec::new(),
            ic: f64::NAN,
            iterations: 0,
            starts: 0,
            evaluations: 0,
            accepted: 0,
        };
        for start in seeds(&obj, cfg) {
            let (w, ic) = ascend(&obj, &start, cfg, &mut out);
            if out.starts == 0 || ic > out.ic {
                out.w = w;
                out.ic = ic;
            }
            out.starts += 1;
        }
        out
    }
}

/// Asserts that `optimize_direction` returns the reference's direction,
/// IC and iteration count bit for bit, and counts the reference's work:
/// its evaluations, and a gradient per start and per accepted trial.
fn assert_matches_reference(
    data: &Dataset,
    model: &BackgroundModel,
    ext: &BitSet,
    cfg: &SphereConfig,
) -> sisd::search::SphereResult {
    let got = optimize_direction(model, data, ext, cfg);
    let want = reference::optimize_direction(model, data, ext, cfg);
    let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&got.w),
        bits(&want.w),
        "w: {:?} vs {:?}",
        got.w,
        want.w
    );
    assert_eq!(
        got.ic.to_bits(),
        want.ic.to_bits(),
        "ic: {} vs {}",
        got.ic,
        want.ic
    );
    assert_eq!(got.iterations, want.iterations);
    assert_eq!(got.starts, want.starts);
    assert_eq!(got.evaluations, want.evaluations);
    assert_eq!(got.gradients, want.starts + want.accepted);
    got
}

#[test]
fn full_search_has_the_reference_bits_on_the_synthetic_fixture() {
    let (data, truth) = synthetic_paper(42);
    let mut model = BackgroundModel::from_empirical(&data).unwrap();
    let ext = truth.cluster_extensions[0].clone();
    model
        .assimilate_location(&ext, data.target_mean(&ext))
        .unwrap();
    assert_eq!(data.dy(), 2);
    assert_matches_reference(&data, &model, &ext, &SphereConfig::default());
}

#[test]
fn full_search_has_the_reference_bits_on_water_after_spread_steps() {
    let (data, model, ext) = common::water_after_three_steps();
    assert_eq!(data.dy(), 16);
    // The subgroup's rows fall in cells holding several covariance
    // objects, so the objective sums over distinct Σ_g.
    let mut ids: Vec<u64> = model
        .cells()
        .iter()
        .filter(|cell| cell.ext.intersection_count(&ext) > 0)
        .map(|cell| cell.cov.id())
        .collect();
    ids.sort_unstable();
    ids.dedup();
    assert!(ids.len() > 1, "one covariance object: {ids:?}");
    let got = assert_matches_reference(&data, &model, &ext, &common::water_config().sphere);
    // Starts that end on the cap accept a step on their last iteration.
    assert!(got.capped_starts > 0);
}
