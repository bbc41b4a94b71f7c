//! Symmetric eigendecomposition via the cyclic Jacobi method.
//!
//! Used in two places: seeding the spread-direction optimizer with the top
//! eigenvectors of a subgroup's scatter matrix (§II-D of the paper turns the
//! spread search into a dimensionality-reduction-style problem with many
//! local optima, so good starting points matter), and generating anisotropic
//! synthetic clusters from a covariance spectrum.
//!
//! Jacobi is `O(d³)` per sweep and unconditionally stable; with `d ≤ 124`
//! it converges in a handful of sweeps.

use crate::Matrix;

/// Eigenvalues and eigenvectors of a symmetric matrix.
#[derive(Debug, Clone)]
pub struct SymEigen {
    /// Eigenvalues in descending order, any NaN last.
    pub values: Vec<f64>,
    /// Eigenvectors as matrix columns, `vectors.col(j)` pairs with
    /// `values[j]`. Stored row-major; use [`SymEigen::vector`] for access.
    pub vectors: Matrix,
}

impl SymEigen {
    /// Decomposes a symmetric matrix. Only the lower triangle is trusted.
    ///
    /// `tol` bounds the off-diagonal Frobenius mass at convergence relative
    /// to the matrix norm; `1e-12` is a good default.
    pub fn new(a: &Matrix, tol: f64, max_sweeps: usize) -> Self {
        assert!(a.is_square(), "SymEigen: matrix must be square");
        let n = a.rows();
        let mut m = a.clone();
        m.symmetrize();
        let mut v = Matrix::identity(n);
        let norm = m.frobenius_norm().max(1e-300);

        for _sweep in 0..max_sweeps {
            let mut off = 0.0;
            for i in 0..n {
                for j in (i + 1)..n {
                    off += m[(i, j)] * m[(i, j)];
                }
            }
            if off.sqrt() <= tol * norm {
                break;
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = m[(p, q)];
                    if apq.abs() <= tol * norm * 1e-3 {
                        continue;
                    }
                    let app = m[(p, p)];
                    let aqq = m[(q, q)];
                    let theta = (aqq - app) / (2.0 * apq);
                    let t = if theta >= 0.0 {
                        1.0 / (theta + (1.0 + theta * theta).sqrt())
                    } else {
                        -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;
                    // Apply the rotation G(p, q, θ) on both sides of m and
                    // accumulate it into v.
                    for k in 0..n {
                        let mkp = m[(k, p)];
                        let mkq = m[(k, q)];
                        m[(k, p)] = c * mkp - s * mkq;
                        m[(k, q)] = s * mkp + c * mkq;
                    }
                    for k in 0..n {
                        let mpk = m[(p, k)];
                        let mqk = m[(q, k)];
                        m[(p, k)] = c * mpk - s * mqk;
                        m[(q, k)] = s * mpk + c * mqk;
                    }
                    for k in 0..n {
                        let vkp = v[(k, p)];
                        let vkq = v[(k, q)];
                        v[(k, p)] = c * vkp - s * vkq;
                        v[(k, q)] = s * vkp + c * vkq;
                    }
                }
            }
        }

        // Sort by descending eigenvalue, NaN last (a NaN input entry spreads
        // to the diagonal), permuting eigenvector columns. `+ 0.0` turns
        // -0.0 into 0.0, so the two still tie and keep their index order.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| {
            let (a, b) = (m[(i, i)] + 0.0, m[(j, j)] + 0.0);
            a.is_nan().cmp(&b.is_nan()).then(b.total_cmp(&a))
        });
        let mut values = Vec::with_capacity(n);
        let mut vectors = Matrix::zeros(n, n);
        for (newj, &oldj) in order.iter().enumerate() {
            values.push(m[(oldj, oldj)]);
            for i in 0..n {
                vectors[(i, newj)] = v[(i, oldj)];
            }
        }
        Self { values, vectors }
    }

    /// Eigenvector `j` (descending eigenvalue order) as an owned vector.
    pub fn vector(&self, j: usize) -> Vec<f64> {
        let n = self.vectors.rows();
        (0..n).map(|i| self.vectors[(i, j)]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_matrix_eigen() {
        let a = Matrix::from_diag(&[1.0, 5.0, 3.0]);
        let e = SymEigen::new(&a, 1e-12, 50);
        assert!((e.values[0] - 5.0).abs() < 1e-10);
        assert!((e.values[1] - 3.0).abs() < 1e-10);
        assert!((e.values[2] - 1.0).abs() < 1e-10);
        // Top eigenvector must be ±e2.
        let v = e.vector(0);
        assert!(v[1].abs() > 1.0 - 1e-8);
    }

    #[test]
    fn reconstruction() {
        let a = Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, 0.2], &[0.5, 0.2, 2.0]]);
        let e = SymEigen::new(&a, 1e-14, 100);
        // A = V diag(λ) Vᵀ
        let n = 3;
        let mut recon = Matrix::zeros(n, n);
        for j in 0..n {
            let v = e.vector(j);
            recon.rank_one_update(e.values[j], &v, &v);
        }
        for i in 0..n {
            for j in 0..n {
                assert!(
                    (recon[(i, j)] - a[(i, j)]).abs() < 1e-8,
                    "mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a = Matrix::from_rows(&[&[2.0, -1.0, 0.0], &[-1.0, 2.0, -1.0], &[0.0, -1.0, 2.0]]);
        let e = SymEigen::new(&a, 1e-14, 100);
        for i in 0..3 {
            for j in 0..3 {
                let d = crate::dot(&e.vector(i), &e.vector(j));
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((d - expect).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn trace_is_preserved() {
        let a = Matrix::from_rows(&[&[3.0, 1.2], &[1.2, -1.0]]);
        let e = SymEigen::new(&a, 1e-14, 100);
        let tr: f64 = e.values.iter().sum();
        assert!((tr - 2.0).abs() < 1e-10);
    }

    #[test]
    fn rank_one_spectrum() {
        // xxᵀ with ‖x‖² = 14 has eigenvalues {14, 0, 0}.
        let mut a = Matrix::zeros(3, 3);
        a.rank_one_update(1.0, &[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]);
        let e = SymEigen::new(&a, 1e-14, 100);
        assert!((e.values[0] - 14.0).abs() < 1e-8);
        assert!(e.values[1].abs() < 1e-8);
        assert!(e.values[2].abs() < 1e-8);
    }

    #[test]
    fn nan_eigenvalues_sort_last_and_signed_zeros_tie() {
        let e = SymEigen::new(&Matrix::from_diag(&[1.0, f64::NAN, 3.0]), 1e-12, 50);
        assert_eq!(e.values[..2], [3.0, 1.0]);
        assert!(e.values[2].is_nan());
        // -0.0 and 0.0 are equal eigenvalues: they keep their index order.
        let e = SymEigen::new(&Matrix::from_diag(&[-0.0, 0.0, 2.0]), 1e-12, 50);
        let bits: Vec<u64> = e.values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            bits,
            [2.0f64.to_bits(), (-0.0f64).to_bits(), 0.0f64.to_bits()]
        );
    }
}
