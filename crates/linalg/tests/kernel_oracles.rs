//! Bit-for-bit oracles for the scoring kernels of `Cholesky`.
//!
//! `solve_lower_in_place` solves rows in blocks so that independent
//! subtraction chains overlap, and `log_det` is a stored field instead of a
//! fresh sum per call. Neither may move a single output bit. This file
//! keeps the textbook loops they replaced and pins every path against them
//! with `to_bits` equality: forward substitution for every `n` up to 130
//! (so every `n mod 8` occurs several times) on well- and ill-conditioned
//! factors, the lane kernel `inv_quad_forms` lane by lane against the
//! one-vector solve, and the stored log-determinant from every
//! constructor.

use sisd_linalg::{Cholesky, Matrix};

/// Deterministic uniform stream in `[0, 1)` (splitmix64).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn between(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next()
    }

    fn vector(&mut self, n: usize, scale: f64) -> Vec<f64> {
        (0..n).map(|_| self.between(-scale, scale)).collect()
    }
}

/// The row-oriented forward substitution: `b[i] -= L_ik b[k]` for
/// ascending `k`, then the division by `L_ii`.
fn row_forward_substitution(l: &Matrix, b: &mut [f64]) {
    let n = l.rows();
    for i in 0..n {
        for k in 0..i {
            b[i] -= l[(i, k)] * b[k];
        }
        b[i] /= l[(i, i)];
    }
}

/// The row-oriented backward substitution `Lᵀ x = z`.
fn row_back_substitution(l: &Matrix, z: &mut [f64]) {
    let n = l.rows();
    for i in (0..n).rev() {
        for k in (i + 1)..n {
            z[i] -= l[(k, i)] * z[k];
        }
        z[i] /= l[(i, i)];
    }
}

/// `2 Σ ln L_ii` in index order, from the factor as it stands.
fn fresh_log_det(ch: &Cholesky) -> f64 {
    let l = ch.factor();
    let mut s = 0.0;
    for i in 0..l.rows() {
        s += l[(i, i)].ln();
    }
    2.0 * s
}

fn assert_same_bits(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i}: {g} vs {w}");
    }
}

/// A factor with diagonal in `[1, 2]` and small off-diagonal entries.
fn well_conditioned(n: usize, rng: &mut Rng) -> Cholesky {
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..i {
            l[(i, j)] = rng.between(-1.0, 1.0) / (n as f64).sqrt();
        }
        l[(i, i)] = rng.between(1.0, 2.0);
    }
    Cholesky::from_factor(l).expect("valid factor")
}

/// A factor whose diagonal spans sixteen orders of magnitude, with
/// off-diagonal entries up to the size of their row's pivot: condition
/// numbers far beyond anything a model covariance reaches, while every
/// solve stays finite (the solution grows at most like `2ⁿ`).
fn ill_conditioned(n: usize, rng: &mut Rng) -> Cholesky {
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        let pivot = 10f64.powf(rng.between(-8.0, 8.0));
        for j in 0..i {
            l[(i, j)] = pivot * rng.between(-1.0, 1.0);
        }
        l[(i, i)] = pivot;
    }
    Cholesky::from_factor(l).expect("valid factor")
}

/// An SPD matrix `B Bᵀ + n I`, factorized by `Cholesky::new`.
fn factorized(n: usize, rng: &mut Rng) -> (Matrix, Cholesky) {
    let mut b = Matrix::zeros(n, n);
    b.as_mut_slice()
        .iter_mut()
        .for_each(|v| *v = rng.between(-1.0, 1.0));
    let mut a = b.mul_mat(&b.transpose());
    a.add_diag(n as f64);
    let ch = Cholesky::new(&a).expect("SPD");
    (a, ch)
}

/// Every factor the solve oracles run against at dimension `n`.
fn factors(n: usize, rng: &mut Rng) -> Vec<(&'static str, Cholesky)> {
    let mut out = vec![
        ("well-conditioned", well_conditioned(n, rng)),
        ("ill-conditioned", ill_conditioned(n, rng)),
    ];
    if matches!(n % 8, 0 | 7) || n == 124 {
        out.push(("factorized", factorized(n, rng).1));
    }
    out
}

#[test]
fn blocked_forward_substitution_matches_the_row_loop() {
    let mut rng = Rng(1);
    for n in 1..=130 {
        for (kind, ch) in factors(n, &mut rng) {
            for scale in [1.0, 1e-3, 1e6] {
                let b = rng.vector(n, scale);
                let mut want = b.clone();
                row_forward_substitution(ch.factor(), &mut want);
                assert!(want.iter().all(|v| v.is_finite()), "n={n} {kind}");
                let mut got = b.clone();
                ch.solve_lower_in_place(&mut got);
                assert_same_bits(&got, &want, &format!("solve_lower_in_place n={n} {kind}"));
                assert_same_bits(
                    &ch.solve_lower(&b),
                    &want,
                    &format!("solve_lower n={n} {kind}"),
                );
            }
        }
    }
}

#[test]
fn solve_in_place_matches_the_row_loops() {
    let mut rng = Rng(2);
    for n in 1..=130 {
        for (kind, ch) in factors(n, &mut rng) {
            let b = rng.vector(n, 10.0);
            let mut want = b.clone();
            row_forward_substitution(ch.factor(), &mut want);
            row_back_substitution(ch.factor(), &mut want);
            let mut got = b.clone();
            ch.solve_in_place(&mut got);
            assert_same_bits(&got, &want, &format!("solve_in_place n={n} {kind}"));
            assert_same_bits(&ch.solve(&b), &want, &format!("solve n={n} {kind}"));
        }
    }
}

#[test]
fn inv_quad_form_matches_the_row_loop_and_dot() {
    let mut rng = Rng(3);
    for n in 1..=130 {
        for (kind, ch) in factors(n, &mut rng) {
            let b = rng.vector(n, 5.0);
            let mut z = b.clone();
            row_forward_substitution(ch.factor(), &mut z);
            let want = sisd_linalg::dot(&z, &z);
            let got = ch.inv_quad_form(&b);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "inv_quad_form n={n} {kind}: {got} vs {want}"
            );
        }
    }
}

const LANES: usize = Cholesky::LANES;

/// Interleaves `vectors` (at most `LANES`, all of length `n`) the way
/// `inv_quad_forms` takes them; missing lanes are zero.
fn interleave(vectors: &[Vec<f64>], n: usize) -> Vec<f64> {
    let mut b = vec![0.0; LANES * n];
    for (l, v) in vectors.iter().enumerate() {
        for (i, &x) in v.iter().enumerate() {
            b[i * LANES + l] = x;
        }
    }
    b
}

/// Lane `l` of an interleaved buffer.
fn lane(b: &[f64], l: usize) -> Vec<f64> {
    b[l..].iter().step_by(LANES).copied().collect()
}

/// Solves `vectors` through `inv_quad_forms` and asserts that each live
/// lane's output has the bits of `inv_quad_form` on its own vector and its
/// solved entries the bits of `solve_lower_in_place`.
fn assert_lanes_match_one_vector_solves(ch: &Cholesky, vectors: &[Vec<f64>], what: &str) {
    let n = ch.dim();
    let mut b = interleave(vectors, n);
    let mut out = [f64::NAN; LANES];
    ch.inv_quad_forms(&mut b, &mut out);
    for (l, v) in vectors.iter().enumerate() {
        let want = ch.inv_quad_form(v);
        assert_eq!(
            out[l].to_bits(),
            want.to_bits(),
            "{what} lane {l}: {} vs {want}",
            out[l]
        );
        let mut z = v.clone();
        ch.solve_lower_in_place(&mut z);
        assert_same_bits(&lane(&b, l), &z, &format!("{what} lane {l} solved"));
    }
}

#[test]
fn inv_quad_forms_match_inv_quad_form_lane_by_lane() {
    let mut rng = Rng(6);
    let scales = [1.0, 1e-3, 1e6, 5.0, 1e-9, 2.5e3, 0.7, 1e12];
    for n in 1..=130 {
        for (kind, ch) in factors(n, &mut rng) {
            let full: Vec<Vec<f64>> = scales.iter().map(|&s| rng.vector(n, s)).collect();
            assert_lanes_match_one_vector_solves(&ch, &full, &format!("n={n} {kind}"));
            // Runs with fewer live lanes, zeros in the rest.
            for live in 1..LANES {
                assert_lanes_match_one_vector_solves(
                    &ch,
                    &full[..live],
                    &format!("n={n} {kind} live={live}"),
                );
            }
        }
    }
}

#[test]
fn a_non_finite_or_negative_zero_lane_leaves_the_others_alone() {
    let mut rng = Rng(7);
    for n in [1usize, 2, 5, 8, 13, 64, 124, 130] {
        for (kind, ch) in factors(n, &mut rng) {
            let clean: Vec<Vec<f64>> = (0..LANES).map(|_| rng.vector(n, 3.0)).collect();
            let mut b = interleave(&clean, n);
            let mut want = [0.0; LANES];
            ch.inv_quad_forms(&mut b, &mut want);
            for odd in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0] {
                for victim in [0, 3, LANES - 1] {
                    let mut vectors = clean.clone();
                    vectors[victim][n / 2] = odd;
                    if odd == 0.0 {
                        vectors[victim].iter_mut().for_each(|v| *v = -0.0);
                    }
                    let what = format!("n={n} {kind} lane {victim} = {odd}");
                    assert_lanes_match_one_vector_solves(&ch, &vectors, &what);
                    let mut b = interleave(&vectors, n);
                    let mut got = [0.0; LANES];
                    ch.inv_quad_forms(&mut b, &mut got);
                    for l in (0..LANES).filter(|&l| l != victim) {
                        assert_eq!(got[l].to_bits(), want[l].to_bits(), "{what}: lane {l}");
                    }
                }
            }
        }
    }
}

fn assert_log_det_fresh(ch: &Cholesky, what: &str) {
    let want = fresh_log_det(ch);
    assert_eq!(
        ch.log_det().to_bits(),
        want.to_bits(),
        "{what}: stored log_det {} vs fresh {want}",
        ch.log_det()
    );
}

#[test]
fn stored_log_det_is_the_fresh_sum_for_every_constructor() {
    let mut rng = Rng(4);
    for n in [1usize, 2, 5, 8, 16, 17, 64, 124] {
        let (a, ch) = factorized(n, &mut rng);
        assert_log_det_fresh(&ch, &format!("new n={n}"));
        let (jittered, _) = Cholesky::new_with_jitter(&a, 4).expect("SPD");
        assert_log_det_fresh(&jittered, &format!("new_with_jitter n={n}"));
        let rebuilt = Cholesky::from_factor(ch.factor().clone()).expect("valid");
        assert_log_det_fresh(&rebuilt, &format!("from_factor n={n}"));
        assert_eq!(rebuilt.log_det().to_bits(), ch.log_det().to_bits());
    }
}

#[test]
fn stored_log_det_survives_ill_conditioned_factors() {
    let mut rng = Rng(5);
    for n in [1usize, 9, 33, 130] {
        let ch = ill_conditioned(n, &mut rng);
        assert_log_det_fresh(&ch, &format!("ill-conditioned from_factor n={n}"));
    }
}
