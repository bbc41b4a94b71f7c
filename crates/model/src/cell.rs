//! Parameter cells: maximal row sets sharing `(μ, Σ)`.
//!
//! After `t` assimilated patterns, two rows have identical background
//! parameters iff they are covered by exactly the same subset of pattern
//! extensions (paper footnote 2). The model keeps this partition explicit:
//! each [`Cell`] owns its extension bitset, mean, covariance, and a lazily
//! initialized, thread-safe Cholesky factor of the covariance.

use sisd_data::BitSet;
use sisd_linalg::{Cholesky, Matrix};
use std::sync::{Arc, OnceLock};

/// One cell of the parameter partition.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Rows belonging to this cell.
    pub ext: BitSet,
    /// Cached population count of `ext`.
    pub count: usize,
    /// Mean vector shared by all rows of the cell.
    pub mu: Vec<f64>,
    /// Covariance matrix shared by all rows of the cell.
    pub sigma: Matrix,
    /// Identifier of the covariance *value*: cells split from a common
    /// parent keep the parent's id, and only spread updates mint new ids.
    /// Evaluators use this to detect the common "all cells share Σ" case
    /// and reuse one Cholesky factorization.
    pub cov_id: u64,
    /// Lazily-initialized factor of `sigma`. `None` inside the lock means
    /// the factorization failed (numerically indefinite covariance), which
    /// callers surface as an error rather than retrying or panicking.
    /// `Arc`-shared so that cell splits and model clones alias the factor
    /// instead of deep-copying it; in-place factor updates copy-on-write.
    chol: OnceLock<Option<Arc<Cholesky>>>,
}

impl Cell {
    /// Creates a cell; the Cholesky factor is computed on first use.
    pub fn new(ext: BitSet, mu: Vec<f64>, sigma: Matrix, cov_id: u64) -> Self {
        assert_eq!(mu.len(), sigma.rows(), "Cell: μ/Σ dimension mismatch");
        assert!(sigma.is_square(), "Cell: Σ must be square");
        let count = ext.count();
        Self {
            ext,
            count,
            mu,
            sigma,
            cov_id,
            chol: OnceLock::new(),
        }
    }

    /// Target dimensionality.
    pub fn dy(&self) -> usize {
        self.mu.len()
    }

    /// The Cholesky factor of Σ, computing and caching it on first call.
    /// Safe to call concurrently from shared references: the factor is
    /// computed at most once and shared afterwards.
    ///
    /// Falls back to a jittered factorization if Σ has drifted to the
    /// positive-semidefinite boundary after many rank-one downdates;
    /// returns `None` when even the jittered factorization fails.
    pub fn chol(&self) -> Option<&Cholesky> {
        self.chol
            .get_or_init(|| {
                Cholesky::new_with_jitter(&self.sigma, 8)
                    .ok()
                    .map(|(c, _)| Arc::new(c))
            })
            .as_deref()
    }

    /// Invalidates the cached factor (call after mutating `sigma`).
    pub fn invalidate_chol(&mut self) {
        self.chol = OnceLock::new();
    }

    /// Snapshot view of the lazy factor cache, without triggering a
    /// factorization: `None` = never computed, `Some(None)` = computed but
    /// failed, `Some(Some(_))` = cached factor. Incrementally maintained
    /// factors can differ bitwise from a fresh factorization of `sigma`,
    /// so snapshots must carry this state for bit-identical restores.
    pub(crate) fn factor_state(&self) -> Option<Option<&Cholesky>> {
        self.chol.get().map(|o| o.as_deref())
    }

    /// Restores the factor cache to a previously snapshotted state. A
    /// factor object several cells shared is restored shared.
    pub(crate) fn set_factor_state(&mut self, state: Option<Option<Arc<Cholesky>>>) {
        self.chol = OnceLock::new();
        if let Some(opt) = state {
            let _ = self.chol.set(opt);
        }
    }

    /// Applies the rank-one modification `Σ ← Σ + α u uᵀ` to the *cached
    /// factor* in O(dy²), instead of invalidating it and paying a fresh
    /// O(dy³) factorization on next use. Call after applying the same
    /// modification to `sigma` itself.
    ///
    /// If no factor has been computed yet, nothing happens (it stays lazy).
    /// If the guarded downdate detects loss of positive definiteness — or a
    /// previous factorization attempt had failed — the cache is reset, so
    /// the next access falls back to the jittered refactorization.
    pub fn update_factor_scaled(&mut self, alpha: f64, u: &[f64]) {
        let reset = match self.chol.get_mut() {
            None => false,
            // Copy-on-write: splits/clones may still alias this factor.
            Some(Some(chol)) => Arc::make_mut(chol).update_scaled(alpha, u).is_err(),
            // A previously failed factorization may succeed now that Σ
            // changed; allow the retry.
            Some(None) => true,
        };
        if reset {
            self.chol = OnceLock::new();
        }
    }

    /// `wᵀ Σ w` for a direction `w`.
    pub fn sigma_quad(&self, w: &[f64]) -> f64 {
        self.sigma.quad_form(w)
    }

    /// `Σ w`.
    pub fn sigma_mul(&self, w: &[f64]) -> Vec<f64> {
        self.sigma.mul_vec(w)
    }

    /// Splits this cell against an extension: returns `(inside, outside)`
    /// halves, `None` on either side when empty. Parameters are copied, the
    /// `cov_id` is retained on both halves.
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
        let mk = |ext: BitSet| {
            let mut c = Cell::new(ext, self.mu.clone(), self.sigma.clone(), self.cov_id);
            // Share the already-computed factor when available.
            c.chol = self.chol.clone();
            c
        };
        (Some(mk(inside)), Some(mk(outside)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(indices: &[usize]) -> Cell {
        Cell::new(
            BitSet::from_indices(10, indices.iter().copied()),
            vec![0.0, 0.0],
            Matrix::identity(2),
            0,
        )
    }

    #[test]
    fn split_both_sides() {
        let c = cell(&[0, 1, 2, 3]);
        let pat = BitSet::from_indices(10, [2, 3, 4]);
        let (ins, out) = c.split(&pat);
        assert_eq!(ins.unwrap().ext.to_indices(), vec![2, 3]);
        assert_eq!(out.unwrap().ext.to_indices(), vec![0, 1]);
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
        let mut c = cell(&[0]);
        let ld = c.chol().expect("identity factors").log_det();
        assert!((ld - 0.0).abs() < 1e-12);
        c.sigma = Matrix::from_diag(&[4.0, 4.0]);
        c.invalidate_chol();
        let ld2 = c.chol().expect("diagonal factors").log_det();
        assert!((ld2 - (16.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn chol_works_from_shared_references_across_threads() {
        let c = cell(&[0, 1, 2]);
        let pool = sisd_par::PoolHandle::global();
        let dets = pool.run_map(4, 4, |_| c.chol().expect("factorable").log_det());
        for ld in dets {
            assert!((ld - 0.0).abs() < 1e-12);
        }
    }

    #[test]
    fn factor_update_tracks_sigma_modification() {
        let mut c = cell(&[0, 1]);
        c.sigma = Matrix::from_rows(&[&[2.0, 0.5], &[0.5, 1.0]]);
        c.invalidate_chol();
        let ld_before = c.chol().expect("factorable").log_det();
        // Apply Σ ← Σ + 0.4·uuᵀ to the matrix and the factor in lockstep.
        let u = [0.6, -0.3];
        c.sigma.rank_one_update(0.4, &u, &u);
        c.update_factor_scaled(0.4, &u);
        let fresh = Cholesky::new(&c.sigma).unwrap();
        let ld_after = c.chol().expect("still factorable").log_det();
        assert!(ld_after != ld_before);
        assert!((ld_after - fresh.log_det()).abs() < 1e-12);
        // A downdate that destroys positive definiteness resets the cache
        // instead of keeping a corrupt factor.
        let big = [10.0, 0.0];
        c.update_factor_scaled(-1.0, &big);
        assert!(c.chol().is_some(), "lazy refactorization takes over");
    }

    #[test]
    fn quad_and_mul() {
        let mut c = cell(&[0]);
        c.sigma = Matrix::from_diag(&[2.0, 3.0]);
        let w = [1.0, 1.0];
        assert!((c.sigma_quad(&w) - 5.0).abs() < 1e-12);
        assert_eq!(c.sigma_mul(&w), vec![2.0, 3.0]);
    }
}
