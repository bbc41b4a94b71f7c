//! Row-major dense matrices.

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Sub, SubAssign};

/// A dense row-major matrix of `f64`.
///
/// The background-model code mostly works with symmetric positive-definite
/// covariance matrices, but the type itself is general. Storage is one
/// `Vec<f64>` with room for seven values more than the `rows * cols` it
/// holds, which start at its first 64-byte boundary.
///
/// The scoring kernels stream the target matrix a row at a time with
/// 32-byte loads. From a base that is not 32-byte aligned, every other load
/// of a 124-column row spans two cache lines, and a mammals (`dy = 124`)
/// beam search ran 10–20% slower on a 2-vCPU Xeon. A `Vec` starts wherever
/// the heap happens to put it, so without the offset any change to what was
/// allocated before a matrix could move step times.
pub struct Matrix {
    rows: usize,
    cols: usize,
    /// Index of the first value in `data`: its first 64-byte boundary.
    start: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let data = vec![0.0; rows * cols + 7];
        // The allocation is 8-byte aligned, so its first 64-byte boundary
        // is at most seven values in.
        let start = data.as_ptr().addr().wrapping_neg() % 64 / 8;
        Self {
            rows,
            cols,
            start,
            data,
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates an `n × n` diagonal matrix from `diag`.
    pub fn from_diag(diag: &[f64]) -> Self {
        let mut m = Self::zeros(diag.len(), diag.len());
        for (i, &v) in diag.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    /// Builds a matrix from a row-major data vector (copied into aligned
    /// storage).
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_vec: bad data length");
        let mut m = Self::zeros(rows, cols);
        m.as_mut_slice().copy_from_slice(&data);
        m
    }

    /// Builds a matrix from nested row slices (convenient in tests).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "from_rows: ragged rows");
            data.extend_from_slice(row);
        }
        Self::from_vec(r, c, data)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Raw row-major data slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data[self.start..self.start + self.rows * self.cols]
    }

    /// Mutable raw row-major data slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data[self.start..self.start + self.rows * self.cols]
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.as_slice()[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        let cols = self.cols;
        &mut self.as_mut_slice()[i * cols..(i + 1) * cols]
    }

    /// Transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix–vector product `A x`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "mul_vec: dimension mismatch");
        let mut out = vec![0.0; self.rows];
        self.mul_vec_into(x, &mut out);
        out
    }

    /// Matrix–vector product into a caller-provided buffer.
    pub fn mul_vec_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "mul_vec_into: dimension mismatch");
        assert_eq!(out.len(), self.rows, "mul_vec_into: bad output length");
        for (i, o) in out.iter_mut().enumerate() {
            *o = crate::dot(self.row(i), x);
        }
    }

    /// Quadratic form `xᵀ A x` (requires a square matrix).
    #[allow(clippy::needless_range_loop)] // x[i] pairs with row(i)
    pub fn quad_form(&self, x: &[f64]) -> f64 {
        assert!(self.is_square(), "quad_form: matrix must be square");
        assert_eq!(x.len(), self.rows, "quad_form: dimension mismatch");
        let mut acc = 0.0;
        for i in 0..self.rows {
            acc += x[i] * crate::dot(self.row(i), x);
        }
        acc
    }

    /// Bilinear form `xᵀ A y`.
    #[allow(clippy::needless_range_loop)] // x[i] pairs with row(i)
    pub fn bilinear(&self, x: &[f64], y: &[f64]) -> f64 {
        assert_eq!(x.len(), self.rows, "bilinear: x dimension mismatch");
        assert_eq!(y.len(), self.cols, "bilinear: y dimension mismatch");
        let mut acc = 0.0;
        for i in 0..self.rows {
            acc += x[i] * crate::dot(self.row(i), y);
        }
        acc
    }

    /// Matrix product `A B`.
    pub fn mul_mat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "mul_mat: inner dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                let brow = other.row(k);
                let orow = out.row_mut(i);
                for (o, b) in orow.iter_mut().zip(brow) {
                    *o += aik * b;
                }
            }
        }
        out
    }

    /// In-place scaling `A ← alpha A`.
    pub fn scale(&mut self, alpha: f64) {
        for v in self.as_mut_slice() {
            *v *= alpha;
        }
    }

    /// Rank-one update `A ← A + alpha x yᵀ`.
    #[allow(clippy::needless_range_loop)] // x[i] pairs with row_mut(i)
    pub fn rank_one_update(&mut self, alpha: f64, x: &[f64], y: &[f64]) {
        assert_eq!(x.len(), self.rows, "rank_one_update: x dimension mismatch");
        assert_eq!(y.len(), self.cols, "rank_one_update: y dimension mismatch");
        for i in 0..self.rows {
            let xi = alpha * x[i];
            let row = self.row_mut(i);
            for (r, yj) in row.iter_mut().zip(y) {
                *r += xi * yj;
            }
        }
    }

    /// Adds `alpha` to the diagonal (Tikhonov jitter).
    pub fn add_diag(&mut self, alpha: f64) {
        assert!(self.is_square(), "add_diag: matrix must be square");
        for i in 0..self.rows {
            self[(i, i)] += alpha;
        }
    }

    /// Symmetrizes in place: `A ← (A + Aᵀ)/2`. Cheap insurance against
    /// floating-point drift in covariance updates.
    pub fn symmetrize(&mut self) {
        assert!(self.is_square(), "symmetrize: matrix must be square");
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let m = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = m;
                self[(j, i)] = m;
            }
        }
    }

    /// Maximum absolute entry, useful in convergence tests.
    pub fn max_abs(&self) -> f64 {
        self.as_slice().iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.as_slice().iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Extracts the `k × k` principal submatrix given by `idx` (used by the
    /// 2-sparse spread optimizer to restrict covariances to attribute pairs).
    pub fn principal_submatrix(&self, idx: &[usize]) -> Matrix {
        assert!(self.is_square(), "principal_submatrix: must be square");
        let k = idx.len();
        let mut out = Matrix::zeros(k, k);
        for (a, &i) in idx.iter().enumerate() {
            for (b, &j) in idx.iter().enumerate() {
                out[(a, b)] = self[(i, j)];
            }
        }
        out
    }
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        let mut m = Self::zeros(self.rows, self.cols);
        m.as_mut_slice().copy_from_slice(self.as_slice());
        m
    }
}

impl PartialEq for Matrix {
    fn eq(&self, other: &Self) -> bool {
        (self.rows, self.cols) == (other.rows, other.cols) && self.as_slice() == other.as_slice()
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.as_slice()[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        let cols = self.cols;
        &mut self.as_mut_slice()[i * cols + j]
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        let mut out = self.clone();
        out += rhs;
        out
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        let mut out = self.clone();
        out -= rhs;
        out
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        for (a, b) in self.as_mut_slice().iter_mut().zip(rhs.as_slice()) {
            *a += b;
        }
    }
}

impl SubAssign<&Matrix> for Matrix {
    fn sub_assign(&mut self, rhs: &Matrix) {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        for (a, b) in self.as_mut_slice().iter_mut().zip(rhs.as_slice()) {
            *a -= b;
        }
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, alpha: f64) -> Matrix {
        let mut out = self.clone();
        out.scale(alpha);
        out
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:10.4} ", self[(i, j)])?;
            }
            writeln!(f, "{}]", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_starts_on_a_cache_line() {
        let on_line = |m: &Matrix| m.as_slice().as_ptr().addr().is_multiple_of(64);
        // Allocations of many sizes, kept alive so the heap hands out
        // every offset.
        let mut kept = Vec::new();
        for len in 0..40 {
            let m = Matrix::from_vec(1, len, (0..len).map(|v| v as f64).collect());
            assert!(on_line(&m) && on_line(&m.clone()), "1 x {len}");
            assert_eq!(m.clone(), m);
            assert_eq!(m.as_slice().len(), len);
            kept.push((m, vec![0u8; len]));
        }
    }

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        let id = Matrix::identity(3);
        assert_eq!(id[(2, 2)], 1.0);
        assert_eq!(id[(0, 2)], 0.0);
        let d = Matrix::from_diag(&[5.0, 6.0]);
        assert_eq!(d[(1, 1)], 6.0);
        assert_eq!(d[(0, 1)], 0.0);
    }

    #[test]
    fn mat_vec_products() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.mul_vec(&[1.0, 1.0]), vec![3.0, 7.0]);
        assert!((m.quad_form(&[1.0, 2.0]) - (1.0 + 4.0 + 6.0 + 16.0)).abs() < 1e-12);
        assert!((m.bilinear(&[1.0, 0.0], &[0.0, 1.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mat_mat_product_matches_hand_calc() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.mul_mat(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn rank_one_and_diag_updates() {
        let mut a = Matrix::zeros(2, 2);
        a.rank_one_update(2.0, &[1.0, 2.0], &[3.0, 4.0]);
        assert_eq!(a.as_slice(), &[6.0, 8.0, 12.0, 16.0]);
        a.add_diag(1.0);
        assert_eq!(a[(0, 0)], 7.0);
        assert_eq!(a[(1, 1)], 17.0);
    }

    #[test]
    fn symmetrize_fixes_drift() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0], &[2.2, 1.0]]);
        a.symmetrize();
        assert!((a[(0, 1)] - 2.1).abs() < 1e-12);
        assert_eq!(a[(0, 1)], a[(1, 0)]);
    }

    #[test]
    fn arithmetic_operators() {
        let a = Matrix::identity(2);
        let b = Matrix::from_diag(&[2.0, 3.0]);
        let c = &a + &b;
        assert_eq!(c[(0, 0)], 3.0);
        let d = &c - &a;
        assert_eq!(d[(1, 1)], 3.0);
        let e = &d * 2.0;
        assert_eq!(e[(1, 1)], 6.0);
        let mut f = e.clone();
        f += &a;
        assert_eq!(f[(0, 0)], 5.0);
        f -= &a;
        assert_eq!(f[(0, 0)], 4.0);
    }

    #[test]
    fn submatrix_extraction() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]]);
        let s = a.principal_submatrix(&[0, 2]);
        assert_eq!(s.as_slice(), &[1.0, 3.0, 7.0, 9.0]);
    }

    #[test]
    fn norms() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, -4.0]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
        assert_eq!(a.max_abs(), 4.0);
    }
}
