//! Parameter cells: maximal row sets sharing `(μ, Σ)`.
//!
//! After `t` assimilated patterns, two rows have identical background
//! parameters iff they are covered by exactly the same subset of pattern
//! extensions (paper footnote 2). The model keeps this partition explicit:
//! each [`Cell`] owns its extension bitset and mean, and shares a
//! [`Covariance`] object — Σ, its id and a lazily built Cholesky factor of
//! Σ — with the cells split from the same parent.

use sisd_data::BitSet;
use sisd_linalg::{Cholesky, Matrix};
use std::sync::{Arc, OnceLock};

/// One covariance value of the partition: its id, the matrix Σ and a
/// factor of Σ built on first use. Σ never changes inside an object (the
/// fields are private): a spread tilt gives each tilted cell a fresh object
/// with a fresh id, so the factor is a pure function of Σ, and cells hold
/// one id exactly when they hold one object (and share its factor).
#[derive(Debug)]
pub struct Covariance {
    id: u64,
    sigma: Matrix,
    /// `None` inside the lock means the factorization failed (numerically
    /// indefinite Σ), which callers surface as an error.
    chol: OnceLock<Option<Cholesky>>,
}

impl Covariance {
    /// A covariance object whose factor is built on first use.
    pub fn new(id: u64, sigma: Matrix) -> Self {
        assert!(sigma.is_square(), "Covariance: Σ must be square");
        Self {
            id,
            sigma,
            chol: OnceLock::new(),
        }
    }

    /// A covariance object holding `chol`, a factor of Σ with the bits
    /// [`Covariance::chol`] would build, so that no call builds it again.
    pub(crate) fn with_factor(id: u64, sigma: Matrix, chol: Cholesky) -> Self {
        Self {
            chol: OnceLock::from(Some(chol)),
            ..Self::new(id, sigma)
        }
    }

    /// Whether the factor has been built (or given) yet.
    #[cfg(test)]
    pub(crate) fn has_factor(&self) -> bool {
        self.chol.get().is_some()
    }

    /// Identifier of the covariance value (its `cov_id`). Evaluators use it
    /// to detect the common "all cells share Σ" case and reuse one factor.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The covariance matrix Σ.
    pub fn sigma(&self) -> &Matrix {
        &self.sigma
    }

    /// The Cholesky factor of Σ (`Cholesky::new_with_jitter(Σ, 8)`), built
    /// on the first call and shared afterwards; `None` when even the
    /// jittered factorization fails. Safe to call concurrently from shared
    /// references: the factor is built at most once.
    pub fn chol(&self) -> Option<&Cholesky> {
        self.chol
            .get_or_init(|| {
                Cholesky::new_with_jitter(&self.sigma, 8)
                    .ok()
                    .map(|(c, _)| c)
            })
            .as_ref()
    }
}

/// One cell of the parameter partition.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Rows belonging to this cell.
    pub ext: BitSet,
    /// Cached population count of `ext`.
    pub count: usize,
    /// Mean vector shared by all rows of the cell.
    pub mu: Vec<f64>,
    /// The cell's covariance object. `Arc`-shared so that cell splits and
    /// model clones alias one Σ and one factor instead of copying them.
    pub cov: Arc<Covariance>,
}

impl Cell {
    /// Creates a cell holding the covariance object `cov`.
    pub fn new(ext: BitSet, mu: Vec<f64>, cov: Arc<Covariance>) -> Self {
        assert_eq!(mu.len(), cov.sigma().rows(), "Cell: μ/Σ dimension mismatch");
        let count = ext.count();
        Self {
            ext,
            count,
            mu,
            cov,
        }
    }

    /// Target dimensionality.
    pub fn dy(&self) -> usize {
        self.mu.len()
    }

    /// `wᵀ Σ w` for a direction `w`.
    pub fn sigma_quad(&self, w: &[f64]) -> f64 {
        self.cov.sigma().quad_form(w)
    }

    /// Splits this cell against an extension: returns `(inside, outside)`
    /// halves, `None` on either side when empty. The mean is copied; both
    /// halves share the covariance object.
    pub fn split(&self, pattern_ext: &BitSet) -> (Option<Cell>, Option<Cell>) {
        let inside = self.ext.and(pattern_ext);
        let n_in = inside.count();
        if n_in == 0 {
            return (None, Some(self.clone()));
        }
        if n_in == self.count {
            return (Some(self.clone()), None);
        }
        let outside = self.ext.minus(pattern_ext);
        let mk = |ext: BitSet| Cell::new(ext, self.mu.clone(), Arc::clone(&self.cov));
        (Some(mk(inside)), Some(mk(outside)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(indices: &[usize]) -> Cell {
        cell_with(indices, Matrix::identity(2))
    }

    fn cell_with(indices: &[usize], sigma: Matrix) -> Cell {
        Cell::new(
            BitSet::from_indices(10, indices.iter().copied()),
            vec![0.0, 0.0],
            Arc::new(Covariance::new(0, sigma)),
        )
    }

    #[test]
    fn split_both_sides() {
        let c = cell(&[0, 1, 2, 3]);
        let pat = BitSet::from_indices(10, [2, 3, 4]);
        let (ins, out) = c.split(&pat);
        let (ins, out) = (ins.unwrap(), out.unwrap());
        assert_eq!(ins.ext.to_indices(), vec![2, 3]);
        assert_eq!(out.ext.to_indices(), vec![0, 1]);
        assert!(Arc::ptr_eq(&ins.cov, &c.cov) && Arc::ptr_eq(&out.cov, &c.cov));
    }

    #[test]
    fn split_fully_inside_or_outside() {
        let c = cell(&[0, 1]);
        let all = BitSet::full(10);
        let (ins, out) = c.split(&all);
        assert_eq!(ins.unwrap().ext.to_indices(), vec![0, 1]);
        assert!(out.is_none());
        let none = BitSet::empty(10);
        let (ins, out) = cell(&[0, 1]).split(&none);
        assert!(ins.is_none());
        assert_eq!(out.unwrap().count, 2);
    }

    #[test]
    fn chol_is_cached_and_invalidated() {
        let c = cell(&[0, 1]);
        let first = c.cov.chol().expect("identity factors");
        assert!((first.log_det() - 0.0).abs() < 1e-12);
        assert!(std::ptr::eq(first, c.cov.chol().unwrap()), "factored once");
        // Both halves of a split hold the parent's factor.
        let (ins, out) = c.split(&BitSet::from_indices(10, [0]));
        assert!(std::ptr::eq(ins.unwrap().cov.chol().unwrap(), first));
        assert!(std::ptr::eq(out.unwrap().cov.chol().unwrap(), first));
        // A new Σ comes in a new object, whose factor is built from it.
        let mut sigma = c.cov.sigma().clone();
        sigma.add_diag(3.0);
        let tilted = Covariance::new(1, sigma);
        let ld = tilted.chol().expect("diagonal factors").log_det();
        assert!((ld - 16.0f64.ln()).abs() < 1e-12);
        assert!(
            std::ptr::eq(first, c.cov.chol().unwrap()),
            "the old object keeps its factor"
        );
    }

    #[test]
    fn chol_works_from_shared_references_across_threads() {
        let c = cell(&[0, 1, 2]);
        let dets: Vec<f64> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..4)
                .map(|_| s.spawn(|| c.cov.chol().expect("factorable").log_det()))
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("thread"))
                .collect()
        });
        assert_eq!(dets.len(), 4);
        for ld in dets {
            assert!((ld - 0.0).abs() < 1e-12);
        }
    }

    #[test]
    fn quad_and_mul() {
        let c = cell_with(&[0], Matrix::from_diag(&[2.0, 3.0]));
        let w = [1.0, 1.0];
        assert!((c.sigma_quad(&w) - 5.0).abs() < 1e-12);
        assert_eq!(c.cov.sigma().mul_vec(&w), vec![2.0, 3.0]);
    }
}
