//! Cholesky factorization of symmetric positive-definite matrices.
//!
//! The information content of a location pattern (paper Eq. 13) needs
//! `log |Σ|` and `Σ⁻¹ r` for the covariance of a subgroup mean; both come out
//! of one LLᵀ factorization. The model updates (Thm. 1) additionally need
//! linear solves against sums of covariances. All of that lives here.
//!
//! Scoring solves many residuals against one factor: on a location-only
//! model every candidate of a beam level shares it. So besides the
//! one-vector [`Cholesky::inv_quad_form`] there is a lane kernel,
//! [`Cholesky::inv_quad_forms`], that runs [`Cholesky::LANES`] forward
//! substitutions in one pass over the factor, each lane with exactly the
//! operations of the one-vector form, so each lane's result has its bits.
//! Like `sisd_data::kernels`, it has a portable body and an AVX2 twin
//! compiled from the same source, picked by a cached runtime probe.

use crate::Matrix;

/// Error returned when a matrix is not (numerically) positive definite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CholeskyError {
    /// Pivot index at which the factorization broke down.
    pub pivot: usize,
}

impl std::fmt::Display for CholeskyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "matrix is not positive definite (pivot {} not positive)",
            self.pivot
        )
    }
}

impl std::error::Error for CholeskyError {}

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// Lower-triangular factor, stored dense (upper part zeroed).
    l: Matrix,
    /// `log |A|`, computed by `log_det_of` when `l` is built, so that
    /// scoring a candidate against a shared factor costs no logarithms.
    log_det: f64,
}

/// `2 Σ ln L_ii`, summed in index order.
fn log_det_of(l: &Matrix) -> f64 {
    let mut s = 0.0;
    for i in 0..l.rows() {
        s += l[(i, i)].ln();
    }
    2.0 * s
}

impl Cholesky {
    /// Factorizes a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read, so slight asymmetry from
    /// floating-point drift is harmless.
    pub fn new(a: &Matrix) -> Result<Self, CholeskyError> {
        assert!(a.is_square(), "Cholesky: matrix must be square");
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(CholeskyError { pivot: i });
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(Self::with_factor(l))
    }

    fn with_factor(l: Matrix) -> Self {
        let log_det = log_det_of(&l);
        Self { l, log_det }
    }

    /// Factorizes with an escalating diagonal jitter; used by the model layer
    /// where covariance matrices can become near-singular after many
    /// assimilated patterns. Returns the factorization and the jitter used.
    pub fn new_with_jitter(a: &Matrix, max_tries: usize) -> Result<(Self, f64), CholeskyError> {
        match Self::new(a) {
            Ok(c) => return Ok((c, 0.0)),
            Err(e) if max_tries == 0 => return Err(e),
            Err(_) => {}
        }
        let scale = {
            let n = a.rows();
            let mut s: f64 = 0.0;
            for i in 0..n {
                s = s.max(a[(i, i)].abs());
            }
            if s == 0.0 {
                1.0
            } else {
                s
            }
        };
        let mut jitter = scale * 1e-12;
        let mut last = CholeskyError { pivot: 0 };
        for _ in 0..max_tries {
            let mut aj = a.clone();
            aj.add_diag(jitter);
            match Self::new(&aj) {
                Ok(c) => return Ok((c, jitter)),
                Err(e) => last = e,
            }
            jitter *= 100.0;
        }
        Err(last)
    }

    /// Rebuilds a factorization from a given factor matrix (see
    /// [`Cholesky::factor`]) without renormalizing any bits; the kernel
    /// oracles build their ill-conditioned fixtures with it. Validates the
    /// invariants every other method relies on: square shape, a strictly
    /// zeroed upper triangle, and finite positive diagonal pivots. The
    /// failing row is reported as the error's pivot.
    pub fn from_factor(l: Matrix) -> Result<Self, CholeskyError> {
        if !l.is_square() {
            return Err(CholeskyError { pivot: 0 });
        }
        let n = l.rows();
        for i in 0..n {
            let d = l[(i, i)];
            if !(d.is_finite() && d > 0.0) {
                return Err(CholeskyError { pivot: i });
            }
            for j in 0..n {
                let v = l[(i, j)];
                if (j > i && v != 0.0) || !v.is_finite() {
                    return Err(CholeskyError { pivot: i });
                }
            }
        }
        Ok(Self::with_factor(l))
    }

    /// Dimension of the factored matrix.
    #[inline]
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// The lower-triangular factor `L`.
    #[inline]
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// `log |A| = 2 Σ log L_ii`, stored with the factor: every constructor
    /// computes it, so this is a field read with the bits of a fresh sum.
    #[inline]
    pub fn log_det(&self) -> f64 {
        self.log_det
    }

    /// Solves `L z = b` (forward substitution).
    pub fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        let mut z = b.to_vec();
        self.solve_lower_in_place(&mut z);
        z
    }

    /// Forward substitution without allocating: overwrites `b` with `L⁻¹ b`.
    ///
    /// Rows are solved in blocks of 8 (then 4, 2 and 1 for the last few),
    /// so a block's subtraction chains run side by side instead of one
    /// after another. Every `b[i]` still takes `b[i] -= L_ik · b[k]` for
    /// `k = 0, 1, …, i − 1` in that order and is then divided by `L_ii`:
    /// the result is bit-identical to the textbook row-by-row loop.
    pub fn solve_lower_in_place(&self, b: &mut [f64]) {
        let n = self.dim();
        assert_eq!(b.len(), n, "solve_lower: dimension mismatch");
        let mut i0 = 0;
        while n - i0 >= 8 {
            self.solve_lower_block::<8>(b, i0);
            i0 += 8;
        }
        if n - i0 >= 4 {
            self.solve_lower_block::<4>(b, i0);
            i0 += 4;
        }
        if n - i0 >= 2 {
            self.solve_lower_block::<2>(b, i0);
            i0 += 2;
        }
        if n - i0 == 1 {
            self.solve_lower_block::<1>(b, i0);
        }
    }

    /// Forward substitution of rows `i0..i0 + R`, with `b[..i0]` solved.
    #[inline(always)]
    fn solve_lower_block<const R: usize>(&self, b: &mut [f64], i0: usize) {
        let n = self.dim();
        let l = self.l.as_slice();
        let rows: [&[f64]; R] = std::array::from_fn(|r| &l[(i0 + r) * n..][..=i0 + r]);
        let mut acc: [f64; R] = std::array::from_fn(|r| b[i0 + r]);
        // The solved prefix: R independent chains advance together over k.
        for (k, &bk) in b[..i0].iter().enumerate() {
            for (a, row) in acc.iter_mut().zip(&rows) {
                *a -= row[k] * bk;
            }
        }
        // The triangle inside the block, one row after the other.
        for (r, (&a, row)) in acc.iter().zip(&rows).enumerate() {
            let i = i0 + r;
            let mut v = a;
            for (&lik, &bk) in row[i0..i].iter().zip(&b[i0..i]) {
                v -= lik * bk;
            }
            b[i] = v / row[i];
        }
    }

    /// Solves `Lᵀ x = z` (backward substitution).
    pub fn solve_lower_transpose(&self, z: &[f64]) -> Vec<f64> {
        let mut x = z.to_vec();
        self.solve_lower_transpose_in_place(&mut x);
        x
    }

    /// Backward substitution without allocating: overwrites `z` with `L⁻ᵀ z`.
    pub fn solve_lower_transpose_in_place(&self, z: &mut [f64]) {
        let n = self.dim();
        assert_eq!(z.len(), n, "solve_lower_transpose: dimension mismatch");
        for i in (0..n).rev() {
            for k in (i + 1)..n {
                z[i] -= self.l[(k, i)] * z[k];
            }
            z[i] /= self.l[(i, i)];
        }
    }

    /// Solves `A x = b`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }

    /// Solves `A x = b` without allocating: overwrites `b` with `A⁻¹ b`.
    pub fn solve_in_place(&self, b: &mut [f64]) {
        self.solve_lower_in_place(b);
        self.solve_lower_transpose_in_place(b);
    }

    /// Mahalanobis-style quadratic form `bᵀ A⁻¹ b`, computed stably as
    /// `‖L⁻¹ b‖²`.
    pub fn inv_quad_form(&self, b: &[f64]) -> f64 {
        let z = self.solve_lower(b);
        crate::dot(&z, &z)
    }

    /// Right-hand sides [`Cholesky::inv_quad_forms`] solves in one pass.
    pub const LANES: usize = 8;

    /// [`Cholesky::inv_quad_form`] of [`Cholesky::LANES`] right-hand sides
    /// at once: `out[l] = ‖L⁻¹ b_l‖²`, and `b` is left holding each
    /// `L⁻¹ b_l`.
    ///
    /// `b` is lane-interleaved: entry `i` of lane `l` is `b[LANES · i + l]`,
    /// so the eight lanes of one entry sit side by side and one pass over
    /// the factor advances all of them. Each lane takes exactly the steps
    /// of [`Cholesky::solve_lower_in_place`] followed by
    /// [`crate::dot`]`(z, z)` — every `b[i] -= L_ik · b[k]` (a multiply,
    /// then a subtraction) for ascending `k`, the division by `L_ii`, then
    /// the sum of squares in index order from `0.0` — so `out[l]` has the
    /// bits of `inv_quad_form(b_l)`. Lanes never mix: a NaN, an infinity
    /// or a zero in one lane leaves the others' bits alone, and a caller
    /// with fewer than eight vectors fills the spare lanes with anything
    /// and ignores their outputs.
    ///
    /// # Panics
    /// Panics if `b.len() != LANES · dim()`.
    pub fn inv_quad_forms(&self, b: &mut [f64], out: &mut [f64; Self::LANES]) {
        let n = self.dim();
        assert_eq!(
            b.len(),
            Self::LANES * n,
            "inv_quad_forms: dimension mismatch"
        );
        let (rows, _) = b.as_chunks_mut::<{ Cholesky::LANES }>();
        #[cfg(target_arch = "x86_64")]
        if avx2() {
            // SAFETY: AVX2 support verified by the cached runtime probe.
            unsafe { inv_quad_forms_avx2(self.l.as_slice(), rows, out) };
            return;
        }
        inv_quad_forms_body(self.l.as_slice(), rows, out)
    }

    /// Dense inverse `A⁻¹` (column-by-column solve). Only used on the small
    /// (≤ dy) matrices of the model layer, never per data point.
    pub fn inverse(&self) -> Matrix {
        let n = self.dim();
        let mut inv = Matrix::zeros(n, n);
        let mut e = vec![0.0; n];
        for j in 0..n {
            e[j] = 1.0;
            let col = self.solve(&e);
            e[j] = 0.0;
            for i in 0..n {
                inv[(i, j)] = col[i];
            }
        }
        inv.symmetrize();
        inv
    }

    /// Samples `x = μ + L u` transformation helper: multiplies the factor by
    /// a vector of standard normals to produce a draw from `N(0, A)`.
    #[allow(clippy::needless_range_loop)] // triangular access pattern
    pub fn mul_factor(&self, u: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(u.len(), n, "mul_factor: dimension mismatch");
        let mut out = vec![0.0; n];
        for i in 0..n {
            let mut acc = 0.0;
            for k in 0..=i {
                acc += self.l[(i, k)] * u[k];
            }
            out[i] = acc;
        }
        out
    }
}

/// One entry of every lane of [`Cholesky::inv_quad_forms`].
type Lanes = [f64; Cholesky::LANES];

/// Portable body of [`Cholesky::inv_quad_forms`] over the row-major factor
/// `l` and the interleaved right-hand sides `rows` (`rows[i][lane]`); the
/// AVX2 twin instantiates this same source, where each [`Lanes`] operation
/// becomes two 256-bit instructions.
///
/// Rows are solved in blocks of 4 (then 2 and 1), the shape of
/// `solve_lower_block`: a block's rows advance together over the solved
/// prefix, which gives 4 × 8 independent subtraction chains, then solve
/// the triangle inside the block one row after the other.
#[inline(always)]
fn inv_quad_forms_body(l: &[f64], rows: &mut [Lanes], out: &mut Lanes) {
    let n = rows.len();
    let mut i0 = 0;
    while n - i0 >= 4 {
        forward_lanes_block::<4>(l, rows, i0);
        i0 += 4;
    }
    if n - i0 >= 2 {
        forward_lanes_block::<2>(l, rows, i0);
        i0 += 2;
    }
    if n - i0 == 1 {
        forward_lanes_block::<1>(l, rows, i0);
    }
    // `dot(z, z)` per lane: the squares added in index order from `0.0`.
    let mut acc: Lanes = [0.0; Cholesky::LANES];
    for z in rows.iter() {
        for (a, &v) in acc.iter_mut().zip(z) {
            *a += v * v;
        }
    }
    *out = acc;
}

/// Forward substitution of rows `i0..i0 + R` of every lane, with the rows
/// before `i0` solved: the lane form of `Cholesky::solve_lower_block`.
#[inline(always)]
fn forward_lanes_block<const R: usize>(l: &[f64], rows: &mut [Lanes], i0: usize) {
    let n = rows.len();
    let factor: [&[f64]; R] = std::array::from_fn(|r| &l[(i0 + r) * n..][..=i0 + r]);
    let mut acc: [Lanes; R] = std::array::from_fn(|r| rows[i0 + r]);
    // The solved prefix: R rows × 8 lanes of independent chains over k.
    for (k, zk) in rows[..i0].iter().enumerate() {
        for (a, row) in acc.iter_mut().zip(&factor) {
            let lik = row[k];
            for (a, &z) in a.iter_mut().zip(zk) {
                *a -= lik * z;
            }
        }
    }
    // The triangle inside the block, one row after the other.
    for (r, (a, row)) in acc.iter_mut().zip(&factor).enumerate() {
        let i = i0 + r;
        for (&lik, zk) in row[i0..i].iter().zip(&rows[i0..i]) {
            for (a, &z) in a.iter_mut().zip(zk) {
                *a -= lik * z;
            }
        }
        let lii = row[i];
        rows[i] = a.map(|v| v / lii);
    }
}

/// The AVX2 instantiation of [`inv_quad_forms_body`]. Only `avx2` is
/// enabled, not `fma`: a fused multiply-subtract would round once where
/// the scalar solve rounds twice.
///
/// # Safety
/// The caller must have verified AVX2 support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn inv_quad_forms_avx2(l: &[f64], rows: &mut [Lanes], out: &mut Lanes) {
    inv_quad_forms_body(l, rows, out)
}

/// Whether this CPU runs [`inv_quad_forms_avx2`], probed once per process.
#[cfg(target_arch = "x86_64")]
static AVX2: std::sync::OnceLock<bool> = std::sync::OnceLock::new();

/// Cached CPU-feature probe: one `OnceLock` read after the first call.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn avx2() -> bool {
    *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = B Bᵀ + I for a fixed B, guaranteed SPD.
        Matrix::from_rows(&[&[4.0, 2.0, 0.6], &[2.0, 5.0, 1.0], &[0.6, 1.0, 3.0]])
    }

    #[test]
    fn factor_reconstructs_matrix() {
        let a = spd3();
        let ch = Cholesky::new(&a).unwrap();
        let l = ch.factor();
        let recon = l.mul_mat(&l.transpose());
        for i in 0..3 {
            for j in 0..3 {
                assert!((recon[(i, j)] - a[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn from_factor_roundtrips_bits_and_rejects_invalid() {
        let ch = Cholesky::new(&spd3()).unwrap();
        let rebuilt = Cholesky::from_factor(ch.factor().clone()).unwrap();
        assert_eq!(rebuilt.factor().as_slice(), ch.factor().as_slice());

        let mut bad = ch.factor().clone();
        bad[(1, 1)] = -1.0; // non-positive pivot
        assert_eq!(Cholesky::from_factor(bad).unwrap_err().pivot, 1);
        let mut bad = ch.factor().clone();
        bad[(0, 2)] = 0.5; // nonzero upper triangle
        assert!(Cholesky::from_factor(bad).is_err());
        let mut bad = ch.factor().clone();
        bad[(2, 0)] = f64::NAN;
        assert_eq!(Cholesky::from_factor(bad).unwrap_err().pivot, 2);
        assert!(Cholesky::from_factor(Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn solve_matches_direct() {
        let a = spd3();
        let ch = Cholesky::new(&a).unwrap();
        let b = vec![1.0, -2.0, 0.5];
        let x = ch.solve(&b);
        let ax = a.mul_vec(&x);
        for (l, r) in ax.iter().zip(&b) {
            assert!((l - r).abs() < 1e-10);
        }
    }

    #[test]
    fn log_det_of_diagonal() {
        let a = Matrix::from_diag(&[2.0, 3.0, 4.0]);
        let ch = Cholesky::new(&a).unwrap();
        assert!((ch.log_det() - (24.0_f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn inv_quad_form_matches_solve() {
        let a = spd3();
        let ch = Cholesky::new(&a).unwrap();
        let b = vec![1.0, 2.0, 3.0];
        let x = ch.solve(&b);
        let direct = crate::dot(&b, &x);
        assert!((ch.inv_quad_form(&b) - direct).abs() < 1e-10);
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = spd3();
        let inv = Cholesky::new(&a).unwrap().inverse();
        let prod = a.mul_mat(&inv);
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((prod[(i, j)] - expect).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn non_spd_is_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // indefinite
        let err = Cholesky::new(&a).unwrap_err();
        assert_eq!(err.pivot, 1);
        assert!(err.to_string().contains("not positive definite"));
    }

    #[test]
    fn jitter_recovers_semidefinite() {
        // Rank-one matrix: PSD but singular.
        let mut a = Matrix::zeros(2, 2);
        a.rank_one_update(1.0, &[1.0, 1.0], &[1.0, 1.0]);
        assert!(Cholesky::new(&a).is_err());
        let (ch, jitter) = Cholesky::new_with_jitter(&a, 8).unwrap();
        assert!(jitter > 0.0);
        assert_eq!(ch.dim(), 2);
    }

    #[test]
    fn in_place_solves_match_allocating_solves() {
        let a = spd3();
        let ch = Cholesky::new(&a).unwrap();
        let b = [1.0, -2.0, 0.5];
        let mut x = b.to_vec();
        ch.solve_in_place(&mut x);
        assert_eq!(x, ch.solve(&b));
        let mut z = b.to_vec();
        ch.solve_lower_in_place(&mut z);
        assert_eq!(z, ch.solve_lower(&b));
        let mut y = b.to_vec();
        ch.solve_lower_transpose_in_place(&mut y);
        assert_eq!(y, ch.solve_lower_transpose(&b));
    }

    /// Eight deterministic right-hand sides of length `n`, lane-interleaved,
    /// one scale per lane.
    fn interleaved_rhs(n: usize) -> Vec<f64> {
        let scales = [1.0, 1e-3, 1e6, 0.5, 7.0, 1e-8, 3e3, 2.0];
        (0..n * Cholesky::LANES)
            .map(|e| scales[e % Cholesky::LANES] * ((e as f64) * 0.37 + 0.1).sin())
            .collect()
    }

    #[test]
    fn lane_kernel_bodies_match_the_one_vector_solve() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 16, 33, 124] {
            let mut a = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    a[(i, j)] = ((i * 7 + j * 3) as f64 * 0.61).cos() / n as f64;
                }
            }
            let mut a = a.mul_mat(&a.transpose());
            a.add_diag(1.0);
            let ch = Cholesky::new(&a).unwrap();
            let b = interleaved_rhs(n);
            let lanes = Cholesky::LANES;
            let mut want_z = vec![0.0; b.len()];
            let mut want = [0.0; Cholesky::LANES];
            for lane in 0..lanes {
                let v: Vec<f64> = (0..n).map(|i| b[i * lanes + lane]).collect();
                want[lane] = ch.inv_quad_form(&v);
                for (i, z) in ch.solve_lower(&v).into_iter().enumerate() {
                    want_z[i * lanes + lane] = z;
                }
            }
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let run = |body: &dyn Fn(&mut [Lanes], &mut Lanes)| {
                let mut z = b.clone();
                let mut out = [f64::NAN; Cholesky::LANES];
                body(z.as_chunks_mut().0, &mut out);
                assert_eq!(bits(&out), bits(&want), "n={n}");
                assert_eq!(bits(&z), bits(&want_z), "n={n}");
            };
            let l = ch.factor().as_slice();
            run(&|rows, out| inv_quad_forms_body(l, rows, out));
            run(&|rows, out| ch.inv_quad_forms(rows.as_flattened_mut(), out));
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 support verified just above.
                run(&|rows, out| unsafe { inv_quad_forms_avx2(l, rows, out) });
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn lane_kernel_dispatch_is_cached_in_a_oncelock() {
        let ch = Cholesky::new(&spd3()).unwrap();
        let mut b = interleaved_rhs(3);
        ch.inv_quad_forms(&mut b, &mut [0.0; Cholesky::LANES]);
        let cached = AVX2.get().expect("the first call populates the OnceLock");
        assert_eq!(*cached, std::arch::is_x86_feature_detected!("avx2"));
        assert_eq!(avx2(), *cached);
    }

    #[test]
    #[should_panic(expected = "inv_quad_forms: dimension mismatch")]
    fn lane_kernel_rejects_a_short_buffer() {
        let ch = Cholesky::new(&spd3()).unwrap();
        let mut b = vec![0.0; 3 * Cholesky::LANES - 1];
        ch.inv_quad_forms(&mut b, &mut [0.0; Cholesky::LANES]);
    }

    #[test]
    fn mul_factor_consistency() {
        let a = spd3();
        let ch = Cholesky::new(&a).unwrap();
        let u = vec![1.0, 2.0, 3.0];
        let direct = ch.factor().mul_vec(&u);
        assert_eq!(ch.mul_factor(&u), direct);
    }
}
