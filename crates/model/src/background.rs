//! The background distribution itself.

use crate::cell::Cell;
use crate::constraint::Constraint;
use crate::solver::{solve_spread_lambda, SpreadCellStat};
use sisd_data::{BitSet, Dataset};
use sisd_linalg::{Cholesky, Matrix};
use sisd_obs::{Metric, ObsHandle};

/// Documented tolerance at which warm-started (incremental) refits agree
/// with a cold refit replayed from the base prior.
///
/// Both paths converge to the *same* I-projection — the constraint families
/// are linear in distribution space, so the projection of the prior onto
/// their intersection is unique (Csiszár) — but they take different
/// iteration paths and stop at a finite tolerance, so scores agree only to
/// roughly `convergence_tol × conditioning`, not bitwise. Tests and the
/// bench-parity gate pin agreement at this constant with refits converged
/// to `1e-9`; exactness claims elsewhere (batched vs lone scoring, any
/// thread count) remain bit-identical and are unaffected by warm
/// starting.
pub const WARM_COLD_SCORE_TOL: f64 = 1e-6;

/// Errors surfaced by model operations.
#[derive(Debug)]
pub enum ModelError {
    /// A constraint refers to an empty extension.
    EmptyExtension,
    /// Dimension mismatch between the model and an argument.
    Dimension { expected: usize, got: usize },
    /// The spread multiplier equation could not be solved.
    SpreadSolve(String),
    /// The prior covariance is not positive definite.
    BadPrior,
    /// A score came out NaN or infinite, e.g. from a NaN target value.
    NonFinite,
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::EmptyExtension => write!(f, "pattern extension is empty"),
            ModelError::Dimension { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            ModelError::SpreadSolve(m) => write!(f, "spread multiplier solve failed: {m}"),
            ModelError::BadPrior => write!(f, "prior covariance is not positive definite"),
            ModelError::NonFinite => write!(f, "score is not finite"),
        }
    }
}

impl std::error::Error for ModelError {}

/// Sufficient statistics of the subgroup-mean distribution for one
/// extension, as needed by the location information content (Eq. 13).
#[derive(Debug, Clone, Default)]
pub struct LocationStats {
    /// `|I|`.
    pub count: usize,
    /// Model mean of the subgroup mean, `μ_I = Σ_{i∈I} μᵢ / |I|`.
    pub mean: Vec<f64>,
    /// `log |Cov(f_I)|` with `Cov(f_I) = Σ_{i∈I} Σᵢ / |I|²` (the variance
    /// of a mean of independent Gaussians; see DESIGN.md on the paper's
    /// `1/|I|` typo).
    pub log_det_cov: f64,
    /// Mahalanobis distance `(ŷ_I − μ_I)ᵀ Cov(f_I)⁻¹ (ŷ_I − μ_I)` of the
    /// observed subgroup mean.
    pub mahalanobis: f64,
}

/// Reusable buffers of [`BackgroundModel::location_stats_with`]: the
/// statistics it returns plus its working vectors. Start from
/// `LocationScratch::default()`; the buffers grow on first use and are
/// reused by every later call.
#[derive(Debug, Clone, Default)]
pub struct LocationScratch {
    stats: LocationStats,
    resid: Vec<f64>,
    sig: Vec<(u64, u32, u32)>,
}

/// One candidate of [`BackgroundModel::location_stats_run`]: its cell-count
/// signature and its observed mean.
pub type LocationCandidate<'a> = (&'a [(usize, usize)], &'a [f64]);

/// Reusable buffers of [`BackgroundModel::location_stats_run`]: one
/// [`LocationScratch`] per slot of a run and the run's residuals,
/// interleaved for [`Cholesky::inv_quad_forms`]. Start from
/// `LocationRun::default()`; the buffers grow on first use.
#[derive(Debug, Clone, Default)]
pub struct LocationRun {
    slots: Vec<LocationScratch>,
    lanes: Vec<f64>,
}

/// The factor a prepared candidate's Mahalanobis term solves against.
enum LocationFactor<'m> {
    /// Every intersected cell has one covariance `Σ`: the cells' factor of
    /// it, with `Cov(f_I) = Σ/|I|`.
    Cell(&'m Cholesky),
    /// The mixture `Σ_g c_g Σ_g / |I|²`, built for this candidate.
    Mixed(Cholesky),
}

impl LocationFactor<'_> {
    fn chol(&self) -> &Cholesky {
        match self {
            LocationFactor::Cell(chol) => chol,
            LocationFactor::Mixed(chol) => chol,
        }
    }

    /// The Mahalanobis term of a candidate of `count` rows from
    /// `q = ‖L⁻¹r‖²`: `rᵀCov⁻¹r = |I| · rᵀΣ⁻¹r` against a cell factor.
    #[inline(always)]
    fn mahalanobis(&self, q: f64, count: usize) -> f64 {
        match self {
            LocationFactor::Cell(_) => count as f64 * q,
            LocationFactor::Mixed(_) => q,
        }
    }

    /// Solves the residual `scratch` was prepared with alone — `r'A⁻¹r` as
    /// `‖L⁻¹r‖²`, in place in the residual buffer — and stores the
    /// Mahalanobis term.
    #[inline(always)]
    fn solve(&self, scratch: &mut LocationScratch) {
        let LocationScratch { stats, resid, .. } = scratch;
        self.chol().solve_lower_in_place(resid);
        stats.mahalanobis = self.mahalanobis(sisd_linalg::dot(resid, resid), stats.count);
    }
}

/// Convergence statistics of one [`BackgroundModel::refit`] call. Deep
/// interactive sessions accumulate many overlapping constraints; these
/// counters let callers observe how much re-projection work each
/// assimilation triggers instead of guessing from wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[must_use = "refit statistics should be inspected or explicitly discarded"]
pub struct RefitStats {
    /// Full passes over the stored constraints (0 when the model was
    /// already within tolerance).
    pub cycles: usize,
    /// Individual constraint re-projections applied across all passes
    /// (numerically-unimprovable spread constraints that were skipped are
    /// not counted).
    pub constraints_updated: usize,
}

impl std::fmt::Display for RefitStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} cycle{}, {} re-projection{}",
            self.cycles,
            if self.cycles == 1 { "" } else { "s" },
            self.constraints_updated,
            if self.constraints_updated == 1 {
                ""
            } else {
                "s"
            },
        )
    }
}

/// Sufficient statistics for the spread information content (Eqs. 17–19).
#[derive(Debug, Clone)]
pub struct SpreadStats {
    /// `|I|`.
    pub count: usize,
    /// Power sums `(Σa, Σa², Σa³)` of the mixture coefficients
    /// `aᵢ = wᵀΣᵢw / |I|`.
    pub power_sums: (f64, f64, f64),
    /// Model expectation of the variance statistic,
    /// `E[g] = Σ_{i∈I} (wᵀΣᵢw + (wᵀ(c−μᵢ))²)/|I|`.
    pub expected: f64,
}

/// Per-constraint incremental-projection state: everything a stored
/// constraint's re-projection can reuse between refit cycles and across
/// assimilations instead of recomputing from whole-dataset scans.
///
/// The member-cell list stays valid as long as the cell partition does not
/// change (every stored constraint's extension is a union of cells, and
/// refinement only splits); it is rebuilt lazily when
/// `BackgroundModel::partition_epoch` moves. The cached Cholesky factor of
/// `S = Σ_{g∈members} n_g Σ_g` survives even refinement — splitting a cell
/// preserves the per-`cov_id` aggregated counts the factor was built from —
/// and is maintained through spread updates by O(dy²) rank-one sweeps (see
/// `project_spread_at`).
#[derive(Debug, Clone)]
pub(crate) struct ProjectionState {
    /// Indices of cells fully inside the constraint's extension.
    pub(crate) members: Vec<u32>,
    /// Total row count over the members (= the extension's popcount).
    pub(crate) m: usize,
    /// Partition epoch at which `members` was computed; `u64::MAX` forces
    /// the first build.
    pub(crate) epoch: u64,
    /// Cached factor of `S = Σ_{g∈members} n_g Σ_g` (location constraints
    /// only). `None` means "build fresh on next projection" — the fallback
    /// after a failed downdate or a too-large rank-k maintenance batch.
    pub(crate) chol: Option<Cholesky>,
    /// Accumulated dual solution (Lagrange multipliers λ) of this
    /// constraint's location projections — the warm-start state a resumed
    /// refit continues from (the model's means embed `Σλ` already, so
    /// re-projection solves only for the *residual* multiplier).
    pub(crate) dual: Vec<f64>,
    /// Accumulated spread multiplier, the scalar analogue of `dual`.
    pub(crate) spread_dual: f64,
}

impl Default for ProjectionState {
    fn default() -> Self {
        Self {
            members: Vec::new(),
            m: 0,
            epoch: u64::MAX,
            chol: None,
            dual: Vec::new(),
            spread_dual: 0.0,
        }
    }
}

impl ProjectionState {
    /// Forgets everything derived from the current parameters (cold
    /// restart): membership, cached factor, and accumulated duals.
    fn reset(&mut self) {
        self.members.clear();
        self.m = 0;
        self.epoch = u64::MAX;
        self.chol = None;
        self.dual.clear();
        self.spread_dual = 0.0;
    }
}

/// Reusable scratch buffers of the projection hot path. One instance lives
/// on the model; every per-update allocation that used to happen inside
/// `project_location`/`project_spread`/`violation` now reuses these (pinned
/// by the counting-allocator test in `tests/alloc_counts.rs`).
#[derive(Debug, Clone)]
pub(crate) struct ProjectionScratch {
    /// dy-sized vector buffers: current E[f_I], solve right-hand side /
    /// solution (aliased), and per-cell mean shift.
    mu_bar: Vec<f64>,
    rhs: Vec<f64>,
    shift: Vec<f64>,
    /// Covariance-sum accumulator for fresh constraint-factor builds.
    s_sum: Matrix,
    /// Per-`cov_id` aggregation buffer: `(cov_id, rows, representative
    /// cell)`.
    agg: Vec<(u64, u32, u32)>,
    /// Per-cell marks used when deduplicating membership lists.
    mark: Vec<bool>,
    /// Per-cycle constraint violations (start-of-cycle residuals).
    violations: Vec<f64>,
    /// Per-constraint "residual may have moved" flags: inside a refit,
    /// only constraints disturbed since their last residual computation
    /// (overlap-adjacent to a projected constraint) are recomputed.
    dirty: Vec<bool>,
    /// Spread-projection buffers: per-live-cell solver statistics, live
    /// member indices, tilt coefficients `α_g`, and a flat arena of the
    /// `u = Σw` vectors (dy entries per live cell).
    stats: Vec<SpreadCellStat>,
    live: Vec<u32>,
    alphas: Vec<f64>,
    us: Vec<f64>,
}

impl Default for ProjectionScratch {
    fn default() -> Self {
        Self {
            mu_bar: Vec::new(),
            rhs: Vec::new(),
            shift: Vec::new(),
            s_sum: Matrix::zeros(0, 0),
            agg: Vec::new(),
            mark: Vec::new(),
            violations: Vec::new(),
            dirty: Vec::new(),
            stats: Vec::new(),
            live: Vec::new(),
            alphas: Vec::new(),
            us: Vec::new(),
        }
    }
}

/// The evolving FORSIED background distribution (paper Eq. 4): independent
/// per-row multivariate normals whose parameters are shared within cells.
#[derive(Debug, Clone)]
pub struct BackgroundModel {
    pub(crate) n: usize,
    pub(crate) dy: usize,
    pub(crate) cells: Vec<Cell>,
    pub(crate) cell_of_row: Vec<u32>,
    pub(crate) constraints: Vec<Constraint>,
    /// Incremental-projection state, parallel to `constraints`.
    pub(crate) proj: Vec<ProjectionState>,
    /// Constraint-overlap adjacency, parallel to `constraints`: `adj[i]`
    /// lists the constraints whose extensions share at least one row with
    /// constraint `i` — exactly the residuals a projection of `i` can
    /// disturb. Extensions are immutable, so this only ever grows.
    pub(crate) adj: Vec<Vec<u32>>,
    pub(crate) next_cov_id: u64,
    /// Bumped whenever the cell partition changes (refinement or a cold
    /// reset); staleness signal for cached membership lists.
    pub(crate) partition_epoch: u64,
    /// The prior the model was constructed with; `refit_cold` replays the
    /// constraint history from here.
    pub(crate) base_mu: Vec<f64>,
    pub(crate) base_sigma: Matrix,
    pub(crate) scratch: ProjectionScratch,
    /// Metrics destination for refit/projection work. Disabled by default;
    /// never affects the numbers the model produces.
    pub(crate) obs: ObsHandle,
}

impl BackgroundModel {
    /// Initial MaxEnt background distribution (paper Eq. 3): every row is
    /// `N(mu, sigma)`.
    pub fn new(n: usize, mu: Vec<f64>, sigma: Matrix) -> Result<Self, ModelError> {
        if sigma.rows() != mu.len() || !sigma.is_square() {
            return Err(ModelError::Dimension {
                expected: mu.len(),
                got: sigma.rows(),
            });
        }
        Cholesky::new_with_jitter(&sigma, 4).map_err(|_| ModelError::BadPrior)?;
        let dy = mu.len();
        let cell = Cell::new(BitSet::full(n), mu.clone(), sigma.clone(), 0);
        Ok(Self {
            n,
            dy,
            cells: vec![cell],
            cell_of_row: vec![0; n],
            constraints: Vec::new(),
            proj: Vec::new(),
            adj: Vec::new(),
            next_cov_id: 1,
            partition_epoch: 0,
            base_mu: mu,
            base_sigma: sigma,
            scratch: ProjectionScratch::default(),
            obs: ObsHandle::disabled(),
        })
    }

    /// Routes the model's refit/projection counters to `obs`. Observability
    /// is purely additive: the model's outputs are bit-identical with any
    /// handle, enabled or not.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    /// The metrics handle the model reports to (disabled by default).
    pub fn obs(&self) -> ObsHandle {
        self.obs
    }

    /// Initial model with prior mean/covariance set to the dataset's
    /// empirical values — the setup used in every experiment of the paper.
    pub fn from_empirical(dataset: &Dataset) -> Result<Self, ModelError> {
        let mu = dataset.target_mean_all();
        let mut sigma = dataset.target_covariance_all();
        // Guard against degenerate empirical covariances (constant targets).
        if Cholesky::new(&sigma).is_err() {
            let scale = (0..sigma.rows()).map(|i| sigma[(i, i)]).fold(0.0, f64::max);
            sigma.add_diag((scale * 1e-8).max(1e-12));
        }
        Self::new(dataset.n(), mu, sigma)
    }

    /// Number of rows.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Target dimensionality.
    pub fn dy(&self) -> usize {
        self.dy
    }

    /// The parameter cells.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Number of parameter cells (grows with assimilated patterns).
    pub fn n_cells(&self) -> usize {
        self.cells.len()
    }

    /// Constraints assimilated so far.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Constraint epoch: the number of assimilated constraints.
    pub fn constraint_epoch(&self) -> usize {
        self.constraints.len()
    }

    /// Mean vector of row `i`.
    pub fn row_mean(&self, i: usize) -> &[f64] {
        &self.cells[self.cell_of_row[i] as usize].mu
    }

    /// Covariance matrix of row `i`.
    pub fn row_cov(&self, i: usize) -> &Matrix {
        &self.cells[self.cell_of_row[i] as usize].sigma
    }

    /// Splits cells so that each is fully inside or outside `ext`.
    fn refine(&mut self, ext: &BitSet) {
        let mut new_cells = Vec::with_capacity(self.cells.len() + 4);
        let mut split_any = false;
        for cell in self.cells.drain(..) {
            // Cells fully inside or outside `ext` move over untouched
            // (no parameter clones, no factor copies).
            let inside = cell.ext.intersection_count(ext);
            if inside == 0 || inside == cell.count {
                new_cells.push(cell);
                continue;
            }
            split_any = true;
            let (inside, outside) = cell.split(ext);
            if let Some(c) = inside {
                new_cells.push(c);
            }
            if let Some(c) = outside {
                new_cells.push(c);
            }
        }
        self.cells = new_cells;
        // If `ext` was already a union of cells, indices are unchanged and
        // the row map and cached membership lists all stay valid.
        if !split_any {
            return;
        }
        for (idx, cell) in self.cells.iter().enumerate() {
            for row in cell.ext.iter() {
                self.cell_of_row[row] = idx as u32;
            }
        }
        // Cached membership lists are now stale; cached constraint factors
        // are NOT — splitting a cell preserves the per-cov_id aggregated
        // counts every factor was built from.
        self.partition_epoch += 1;
    }

    /// The cell of every row: entry `i` indexes [`BackgroundModel::cells`]
    /// for row `i`. Read-only view of the partition, for callers that walk
    /// a candidate's rows once (see [`sisd_data::kernels::count_cells`])
    /// instead of intersecting it with every cell.
    pub fn cell_of_row(&self) -> &[u32] {
        &self.cell_of_row
    }

    /// Indices and in-extension counts of cells intersecting `ext`, in
    /// ascending cell order — the **cell-count signature** of a candidate
    /// extension. After `refine(ext)` the count is either 0 or the full
    /// cell size, but statistics queries run on arbitrary candidate
    /// extensions. One walk over the extension's rows, whatever the
    /// number of cells.
    pub fn cell_counts(&self, ext: &BitSet) -> Vec<(usize, usize)> {
        assert_eq!(ext.len(), self.n, "cell_counts: extension length mismatch");
        let mut dense = vec![0usize; self.cells.len()];
        sisd_data::kernels::count_cells(ext.words(), &self.cell_of_row, &mut dense);
        dense
            .into_iter()
            .enumerate()
            .filter(|&(_, c)| c > 0)
            .collect()
    }

    // ------------------------------------------------------------------
    // Statistics queries (used by SI evaluation — hot path)
    // ------------------------------------------------------------------

    /// Location statistics of an arbitrary candidate extension, evaluated
    /// against an observed subgroup mean `observed`.
    ///
    /// Runs from a shared reference: per-cell Cholesky factors initialize
    /// lazily and thread-safely inside the cells, so concurrent evaluation
    /// needs no warm-up protocol.
    ///
    /// Fast path: while no spread pattern has been assimilated all cells
    /// share one covariance value, so `Cov(f_I) = Σ/|I|` and one cached
    /// Cholesky factorization serves every candidate.
    pub fn location_stats(
        &self,
        ext: &BitSet,
        observed: &[f64],
    ) -> Result<LocationStats, ModelError> {
        self.location_stats_for_counts(&self.cell_counts(ext), observed)
    }

    /// [`BackgroundModel::location_stats`] over a precomputed cell-count
    /// signature. Allocates its result and working buffers;
    /// [`BackgroundModel::location_stats_with`] is the same computation
    /// through caller-owned buffers.
    ///
    /// `counts` is the candidate's cell-count signature on this model in
    /// its current state: `(cell, rows)` for every cell the extension
    /// intersects, in ascending cell order, exactly as
    /// [`BackgroundModel::cell_counts`] returns it or as the nonzero
    /// entries of [`sisd_data::kernels::count_cells`] over
    /// [`BackgroundModel::cell_of_row`] read in cell order. The order
    /// matters: the model mean adds the cells in it.
    pub fn location_stats_for_counts(
        &self,
        counts: &[(usize, usize)],
        observed: &[f64],
    ) -> Result<LocationStats, ModelError> {
        let mut scratch = LocationScratch::default();
        self.location_stats_with(counts, observed, &mut scratch)?;
        Ok(scratch.stats)
    }

    /// [`BackgroundModel::location_stats_for_counts`] writing into
    /// `scratch`, whose buffers are reused from call to call: this is the
    /// entry point of `sisd-search`'s evaluation engine, which scores
    /// thousands of candidates per beam level through one scratch and
    /// allocates nothing per candidate once the buffers have grown (but
    /// for the factor of a mixed-covariance candidate, built per call).
    /// Same arithmetic, same bits, same contract on `counts`.
    ///
    /// This is the one-candidate case of
    /// [`BackgroundModel::location_stats_run`]: the same preparation (count,
    /// model mean, residual, log-determinant and factor), then the residual
    /// solved alone.
    pub fn location_stats_with<'s>(
        &self,
        counts: &[(usize, usize)],
        observed: &[f64],
        scratch: &'s mut LocationScratch,
    ) -> Result<&'s LocationStats, ModelError> {
        self.prepare_location(counts, observed, scratch)?
            .solve(scratch);
        Ok(&scratch.stats)
    }

    /// [`BackgroundModel::location_stats_with`] for a run of up to
    /// [`Cholesky::LANES`] candidates, each a `(counts, observed)` pair
    /// under the same contract: `each(slot, outcome)` receives, in slot
    /// order, exactly the statistics (every bit) or the error
    /// `location_stats_with` gives that candidate alone.
    ///
    /// Every candidate is prepared first, in slot order. When every
    /// prepared candidate then holds the same factor object — on a model
    /// whose cells share one covariance, the cells' common factor — the
    /// run's residuals are solved together in one pass over it
    /// ([`Cholesky::inv_quad_forms`]); otherwise each is solved alone.
    /// Factors are compared by identity, not by `cov_id`: incrementally
    /// updated factors of one covariance id can differ in their bits.
    ///
    /// # Panics
    /// Panics if the run holds more than [`Cholesky::LANES`] candidates.
    pub fn location_stats_run(
        &self,
        run: &[LocationCandidate<'_>],
        scratch: &mut LocationRun,
        mut each: impl FnMut(usize, Result<&LocationStats, ModelError>),
    ) {
        const LANES: usize = Cholesky::LANES;
        assert!(
            run.len() <= LANES,
            "location_stats_run: a run holds at most {LANES} candidates"
        );
        let LocationRun { slots, lanes } = scratch;
        if slots.len() < run.len() {
            slots.resize_with(run.len(), LocationScratch::default);
        }
        let mut prepared: [Option<Result<LocationFactor<'_>, ModelError>>; LANES] =
            Default::default();
        for ((&(counts, observed), slot), prep) in run.iter().zip(&mut *slots).zip(&mut prepared) {
            *prep = Some(self.prepare_location(counts, observed, slot));
        }
        let mut factors = prepared.iter().flatten().flatten();
        let shared = factors
            .next()
            .map(LocationFactor::chol)
            .filter(|first| factors.all(|f| std::ptr::eq(f.chol(), *first)));
        match shared {
            Some(chol) => {
                lanes.clear();
                lanes.resize(LANES * self.dy, 0.0);
                for (lane, (slot, prep)) in slots.iter().zip(&prepared).enumerate() {
                    if let Some(Ok(_)) = prep {
                        for (z, &r) in lanes[lane..].iter_mut().step_by(LANES).zip(&slot.resid) {
                            *z = r;
                        }
                    }
                }
                let mut forms = [0.0; LANES];
                chol.inv_quad_forms(lanes, &mut forms);
                for ((slot, prep), q) in slots.iter_mut().zip(&prepared).zip(forms) {
                    if let Some(Ok(factor)) = prep {
                        slot.stats.mahalanobis = factor.mahalanobis(q, slot.stats.count);
                    }
                }
            }
            None => {
                for (slot, prep) in slots.iter_mut().zip(&prepared) {
                    if let Some(Ok(factor)) = prep {
                        factor.solve(slot);
                    }
                }
            }
        }
        for (j, (slot, outcome)) in slots.iter().zip(prepared.into_iter().flatten()).enumerate() {
            each(j, outcome.map(|_| &slot.stats));
        }
    }

    /// Everything of a candidate's location statistics but the solve:
    /// `scratch.stats` gets the count, the model mean and the
    /// log-determinant, `scratch.resid` the residual `observed − mean`, and
    /// the factor its Mahalanobis term solves against is returned.
    #[inline(always)]
    fn prepare_location<'m>(
        &'m self,
        counts: &[(usize, usize)],
        observed: &[f64],
        scratch: &mut LocationScratch,
    ) -> Result<LocationFactor<'m>, ModelError> {
        if observed.len() != self.dy {
            return Err(ModelError::Dimension {
                expected: self.dy,
                got: observed.len(),
            });
        }
        let m: usize = counts.iter().map(|&(_, c)| c).sum();
        if m == 0 {
            return Err(ModelError::EmptyExtension);
        }
        let mf = m as f64;

        let LocationScratch { stats, resid, sig } = scratch;
        let mean = &mut stats.mean;
        mean.clear();
        mean.resize(self.dy, 0.0);
        for &(g, c) in counts {
            sisd_linalg::axpy(c as f64 / mf, &self.cells[g].mu, mean);
        }
        resid.clear();
        resid.extend_from_slice(observed);
        sisd_linalg::sub_assign(resid, mean);

        let single_cov = counts
            .iter()
            .all(|&(g, _)| self.cells[g].cov_id == self.cells[counts[0].0].cov_id);

        let (log_det_cov, factor) = if single_cov {
            // Cov = Σ/|I| → log|Cov| = log|Σ| − dy·log|I|;
            // r'Cov⁻¹r = |I| · r'Σ⁻¹r.
            let g0 = counts[0].0;
            let chol = self.cells[g0].chol().ok_or(ModelError::BadPrior)?;
            let ld = chol.log_det() - self.dy as f64 * mf.ln();
            (ld, LocationFactor::Cell(chol))
        } else {
            // Dense: Cov = Σ_g c_g Σ_g / |I|², factorized per candidate.
            // The accumulation is a pure function of the *canonical*
            // covariance-value signature (sorted by cov_id, counts
            // aggregated as exact integers), so different cell partitions
            // that induce the same signature get identical bits.
            sig.clear();
            sig.extend(
                counts
                    .iter()
                    .map(|&(g, c)| (self.cells[g].cov_id, c as u32, g as u32)),
            );
            sig.sort_unstable_by_key(|&(id, _, _)| id);
            sig.dedup_by(|b, a| {
                if a.0 == b.0 {
                    a.1 += b.1;
                    true
                } else {
                    false
                }
            });
            let mut cov = Matrix::zeros(self.dy, self.dy);
            for &(_, c, g) in sig.iter() {
                let w = c as f64 / (mf * mf);
                let sg = &self.cells[g as usize].sigma;
                for (o, s) in cov.as_mut_slice().iter_mut().zip(sg.as_slice()) {
                    *o += w * s;
                }
            }
            let (chol, _) = Cholesky::new_with_jitter(&cov, 8).map_err(|_| ModelError::BadPrior)?;
            (chol.log_det(), LocationFactor::Mixed(chol))
        };

        stats.count = m;
        stats.log_det_cov = log_det_cov;
        Ok(factor)
    }

    /// Per-target-attribute marginal `(mean, sd)` of the subgroup-mean
    /// statistic `f_I` — the model bands of the paper's Fig. 5 / Fig. 8a.
    pub fn location_marginals(&self, ext: &BitSet) -> Result<Vec<(f64, f64)>, ModelError> {
        let counts = self.cell_counts(ext);
        let m: usize = counts.iter().map(|&(_, c)| c).sum();
        if m == 0 {
            return Err(ModelError::EmptyExtension);
        }
        let mf = m as f64;
        let mut out = vec![(0.0, 0.0); self.dy];
        for &(g, c) in &counts {
            let cell = &self.cells[g];
            for (j, o) in out.iter_mut().enumerate() {
                o.0 += c as f64 / mf * cell.mu[j];
                o.1 += c as f64 / (mf * mf) * cell.sigma[(j, j)];
            }
        }
        for o in &mut out {
            o.1 = o.1.sqrt();
        }
        Ok(out)
    }

    /// `Ok` when every vector has `dy` entries, otherwise a
    /// [`ModelError::Dimension`] that reports the length of the first one
    /// that does not.
    fn expect_dy(&self, vectors: &[&[f64]]) -> Result<(), ModelError> {
        match vectors.iter().find(|v| v.len() != self.dy) {
            Some(v) => Err(ModelError::Dimension {
                expected: self.dy,
                got: v.len(),
            }),
            None => Ok(()),
        }
    }

    /// Spread statistics of a candidate extension for direction `w` and
    /// centering vector `center` (normally the empirical subgroup mean).
    pub fn spread_stats(
        &self,
        ext: &BitSet,
        w: &[f64],
        center: &[f64],
    ) -> Result<SpreadStats, ModelError> {
        self.expect_dy(&[w, center])?;
        let counts = self.cell_counts(ext);
        let m: usize = counts.iter().map(|&(_, c)| c).sum();
        if m == 0 {
            return Err(ModelError::EmptyExtension);
        }
        let mf = m as f64;
        let (mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0);
        let mut expected = 0.0;
        for &(g, c) in &counts {
            let cell = &self.cells[g];
            let s = cell.sigma_quad(w);
            let a = s / mf;
            let cf = c as f64;
            s1 += cf * a;
            s2 += cf * a * a;
            s3 += cf * a * a * a;
            let d = sisd_linalg::dot(w, center) - sisd_linalg::dot(w, &cell.mu);
            expected += cf * (s + d * d) / mf;
        }
        Ok(SpreadStats {
            count: m,
            power_sums: (s1, s2, s3),
            expected,
        })
    }

    // ------------------------------------------------------------------
    // Assimilation (Theorems 1 and 2)
    // ------------------------------------------------------------------

    /// Rebuilds constraint `i`'s member-cell list if the partition moved
    /// since it was last computed. Stored constraints are unions of cells
    /// (refinement guarantees it and never merges), so membership is exact.
    fn refresh_membership(&mut self, i: usize) {
        if self.proj[i].epoch == self.partition_epoch {
            return;
        }
        let ext = self.constraints[i].ext();
        let proj = &mut self.proj[i];
        let mark = &mut self.scratch.mark;
        mark.clear();
        mark.resize(self.cells.len(), false);
        proj.members.clear();
        let mut m = 0usize;
        for row in ext.iter() {
            let g = self.cell_of_row[row] as usize;
            if !mark[g] {
                mark[g] = true;
                proj.members.push(g as u32);
                m += self.cells[g].count;
            }
        }
        debug_assert_eq!(m, ext.count(), "stored constraint must be a union of cells");
        proj.m = m;
        proj.epoch = self.partition_epoch;
    }

    /// Start-of-cycle residual of stored constraint `i`, computed from the
    /// cached member-cell list in O(|members|·dy) instead of scanning every
    /// cell against the extension bitset.
    fn violation_at(&mut self, i: usize) -> f64 {
        self.refresh_membership(i);
        let proj = &self.proj[i];
        let cells = &self.cells;
        let scratch = &mut self.scratch;
        let mf = proj.m as f64;
        match &self.constraints[i] {
            Constraint::Location { target, .. } => {
                scratch.mu_bar.clear();
                scratch.mu_bar.resize(self.dy, 0.0);
                for &g in &proj.members {
                    let cell = &cells[g as usize];
                    sisd_linalg::axpy(cell.count as f64 / mf, &cell.mu, &mut scratch.mu_bar);
                }
                scratch
                    .mu_bar
                    .iter()
                    .zip(target)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0, f64::max)
            }
            Constraint::Spread {
                w, center, value, ..
            } => {
                let wc = sisd_linalg::dot(w, center);
                let mut expected = 0.0;
                for &g in &proj.members {
                    let cell = &cells[g as usize];
                    let s = cell.sigma_quad(w);
                    let d = wc - sisd_linalg::dot(w, &cell.mu);
                    expected += cell.count as f64 * (s + d * d) / mf;
                }
                (expected - value).abs()
            }
        }
    }

    /// Builds the Cholesky factor of `S = Σ_{g∈members} n_g Σ_g` for a
    /// location constraint, aggregating per `cov_id` in sorted order. That
    /// makes the result a pure function of the covariance-value signature,
    /// which is why an already-built factor can survive partition
    /// refinements untouched: splitting cells changes the member list but
    /// not the aggregated signature, so a rebuild would reproduce the same
    /// bits.
    fn build_member_factor(
        cells: &[Cell],
        members: &[u32],
        agg: &mut Vec<(u64, u32, u32)>,
        s_sum: &mut Matrix,
        dy: usize,
    ) -> Result<Cholesky, ModelError> {
        agg.clear();
        for &g in members {
            let cell = &cells[g as usize];
            agg.push((cell.cov_id, cell.count as u32, g));
        }
        agg.sort_unstable_by_key(|&(id, _, _)| id);
        agg.dedup_by(|b, a| {
            if a.0 == b.0 {
                a.1 += b.1;
                true
            } else {
                false
            }
        });
        if s_sum.rows() != dy || s_sum.cols() != dy {
            *s_sum = Matrix::zeros(dy, dy);
        } else {
            s_sum.as_mut_slice().fill(0.0);
        }
        for &(_, c, g) in agg.iter() {
            let weight = c as f64;
            let sg = &cells[g as usize].sigma;
            for (o, s) in s_sum.as_mut_slice().iter_mut().zip(sg.as_slice()) {
                *o += weight * s;
            }
        }
        Cholesky::new_with_jitter(s_sum, 8)
            .map(|(chol, _)| chol)
            .map_err(|_| ModelError::BadPrior)
    }

    /// Exact I-projection onto stored location constraint `i` (Thm. 1),
    /// warm-started: the member list, the factor of `S = Σ n_g Σ_g`, and
    /// the accumulated dual survive across refit cycles and assimilations,
    /// so a re-projection is one O(dy²) triangular solve plus
    /// O(|members|·dy²) mean shifts — the O(dy³) factorization is paid only
    /// when no valid factor exists yet.
    fn project_location_at(&mut self, i: usize) -> Result<(), ModelError> {
        self.refresh_membership(i);
        let Constraint::Location { target, .. } = &self.constraints[i] else {
            unreachable!("project_location_at called on a spread constraint");
        };
        let dy = self.dy;
        let proj = &mut self.proj[i];
        let cells = &mut self.cells;
        let scratch = &mut self.scratch;
        if proj.m == 0 {
            return Err(ModelError::EmptyExtension);
        }
        let mf = proj.m as f64;
        // Current E[f_I] over the member cells.
        scratch.mu_bar.clear();
        scratch.mu_bar.resize(dy, 0.0);
        for &g in &proj.members {
            let cell = &cells[g as usize];
            sisd_linalg::axpy(cell.count as f64 / mf, &cell.mu, &mut scratch.mu_bar);
        }
        // Solve S λ = |I| (target − E[f_I]) against the warm factor.
        scratch.rhs.clear();
        scratch.rhs.extend_from_slice(target);
        sisd_linalg::sub_assign(&mut scratch.rhs, &scratch.mu_bar);
        sisd_linalg::scale(mf, &mut scratch.rhs);
        if proj.chol.is_none() {
            self.obs.incr(Metric::ModelFactorRebuilds);
            proj.chol = Some(Self::build_member_factor(
                cells,
                &proj.members,
                &mut scratch.agg,
                &mut scratch.s_sum,
                dy,
            )?);
        } else {
            self.obs.incr(Metric::ModelFactorReuses);
        }
        let chol = proj.chol.as_ref().expect("factor just ensured");
        chol.solve_in_place(&mut scratch.rhs); // rhs now holds λ
        if proj.dual.len() != dy {
            proj.dual.clear();
            proj.dual.resize(dy, 0.0);
        }
        sisd_linalg::add_assign(&mut proj.dual, &scratch.rhs);
        // μ_g ← μ_g + Σ_g λ on every member cell. While all members share
        // one covariance value (typical until a spread pattern tilts them
        // apart) the shift is computed once and broadcast in O(dy) per
        // cell instead of O(dy²).
        scratch.shift.clear();
        scratch.shift.resize(dy, 0.0);
        let g0 = proj.members[0] as usize;
        let shared_cov = proj
            .members
            .iter()
            .all(|&g| cells[g as usize].cov_id == cells[g0].cov_id);
        if shared_cov {
            cells[g0]
                .sigma
                .mul_vec_into(&scratch.rhs, &mut scratch.shift);
            for &g in &proj.members {
                sisd_linalg::add_assign(&mut cells[g as usize].mu, &scratch.shift);
            }
        } else {
            for &g in &proj.members {
                let cell = &mut cells[g as usize];
                cell.sigma.mul_vec_into(&scratch.rhs, &mut scratch.shift);
                sisd_linalg::add_assign(&mut cell.mu, &scratch.shift);
            }
        }
        Ok(())
    }

    /// Exact I-projection onto stored spread constraint `i` (Thm. 2). Each
    /// tilted cell's covariance change `α u uᵀ` is applied to the cell's
    /// own cached factor in O(dy²) (instead of invalidating it), and
    /// propagated into the cached `S`-factors of the location constraints
    /// containing the cell as a guarded rank-k update/downdate.
    fn project_spread_at(&mut self, i: usize) -> Result<(), ModelError> {
        self.refresh_membership(i);
        let Constraint::Spread {
            w, center, value, ..
        } = &self.constraints[i]
        else {
            unreachable!("project_spread_at called on a location constraint");
        };
        let value = *value;
        let dy = self.dy;
        let m = self.proj[i].m;
        if m == 0 {
            return Err(ModelError::EmptyExtension);
        }
        let cells = &mut self.cells;
        let scratch = &mut self.scratch;
        let members = &self.proj[i].members;
        let wc = sisd_linalg::dot(w, center);
        scratch.stats.clear();
        for &g in members {
            let cell = &cells[g as usize];
            scratch.stats.push(SpreadCellStat {
                n: cell.count as f64,
                s: cell.sigma_quad(w).max(0.0),
                d: wc - sisd_linalg::dot(w, &cell.mu),
            });
        }
        // Cells whose variance along w has (numerically) collapsed cannot
        // be tilted further; their expected contribution n·d² is a constant
        // that moves into the target of the solve over the live cells.
        let s_scale = scratch.stats.iter().fold(0.0_f64, |acc, st| acc.max(st.s));
        let s_floor = s_scale * 1e-12;
        let mut frozen_contribution = 0.0;
        scratch.live.clear();
        let mut kept = 0usize;
        for (k, &g) in members.iter().enumerate() {
            let st = scratch.stats[k];
            if st.s <= s_floor {
                frozen_contribution += st.n * st.d * st.d;
            } else {
                scratch.live.push(g);
                scratch.stats[kept] = st;
                kept += 1;
            }
        }
        scratch.stats.truncate(kept);
        if scratch.stats.is_empty() {
            return Err(ModelError::SpreadSolve(
                "constraint unimprovable: no cell has variance along w".into(),
            ));
        }
        // When the frozen cells alone already exceed the demanded value the
        // exact projection does not exist; clamp to the closest feasible
        // target (live cells shrink toward zero) instead of failing — the
        // residual violation is visible through `max_violation`.
        let target = (m as f64 * value - frozen_contribution).max(m as f64 * value * 1e-6);
        let lambda =
            solve_spread_lambda(&scratch.stats, target).map_err(ModelError::SpreadSolve)?;
        if lambda.abs() < 1e-14 {
            return Ok(());
        }
        let obs = self.obs;
        self.proj[i].spread_dual += lambda;
        obs.add(Metric::ModelCellRankUpdates, scratch.live.len() as u64);

        scratch.alphas.clear();
        scratch.us.clear();
        for (k, &g) in scratch.live.iter().enumerate() {
            let st = scratch.stats[k];
            let q = 1.0 + lambda * st.s;
            let alpha = -lambda / q;
            let cell = &mut cells[g as usize];
            // u = Σw, shared by both updates; kept in the arena for the
            // constraint-factor maintenance below.
            let base = scratch.us.len();
            scratch.us.resize(base + dy, 0.0);
            cell.sigma.mul_vec_into(w, &mut scratch.us[base..]);
            let u = &scratch.us[base..base + dy];
            // μ ← μ + (λ d / q) Σw          (Eq. 10)
            sisd_linalg::axpy(lambda * st.d / q, u, &mut cell.mu);
            // Σ ← Σ − (λ/q) (Σw)(Σw)ᵀ       (Eq. 11)
            cell.sigma.rank_one_update(alpha, u, u);
            cell.sigma.symmetrize();
            cell.cov_id = self.next_cov_id;
            self.next_cov_id += 1;
            // Keep the cell's own factor current in O(dy²) instead of
            // invalidating it into a fresh O(dy³) factorization.
            cell.update_factor_scaled(alpha, u);
            scratch.alphas.push(alpha);
        }

        // Rank-k maintenance of cached location-constraint factors: a
        // tilted cell g contributes Δ(n_g Σ_g) = n_g α_g u_g u_gᵀ to the
        // `S`-factor of every location constraint containing it. Small
        // batches are applied as guarded O(dy²) sweeps; large batches
        // (k > max(1, dy/3)) or failed downdates drop the factor instead —
        // at that size a fresh factorization is cheaper (and always safe).
        let k_max = (dy / 3).max(1);
        for (j, constraint) in self.constraints.iter().enumerate() {
            let Constraint::Location { ext: ext_j, .. } = constraint else {
                continue;
            };
            let proj_j = &mut self.proj[j];
            if proj_j.chol.is_none() {
                continue;
            }
            let affected = scratch
                .live
                .iter()
                .filter(|&&g| !cells[g as usize].ext.is_disjoint(ext_j))
                .count();
            if affected == 0 {
                continue;
            }
            if affected > k_max {
                proj_j.chol = None;
                obs.incr(Metric::RefitDowndateFallbacks);
                continue;
            }
            for (k, &g) in scratch.live.iter().enumerate() {
                let cell = &cells[g as usize];
                if cell.ext.is_disjoint(ext_j) {
                    continue;
                }
                let u = &scratch.us[k * dy..(k + 1) * dy];
                let scaled = cell.count as f64 * scratch.alphas[k];
                let ok = proj_j
                    .chol
                    .as_mut()
                    .expect("checked above")
                    .update_scaled(scaled, u)
                    .is_ok();
                if !ok {
                    proj_j.chol = None;
                    obs.incr(Metric::RefitDowndateFallbacks);
                    break;
                }
            }
        }
        Ok(())
    }

    /// Assimilates a location pattern: refines the cell partition, projects
    /// onto the new constraint, and stores it for future re-projection.
    /// Follow with [`BackgroundModel::refit`] when earlier patterns overlap.
    pub fn assimilate_location(
        &mut self,
        ext: &BitSet,
        target: Vec<f64>,
    ) -> Result<(), ModelError> {
        if ext.count() == 0 {
            return Err(ModelError::EmptyExtension);
        }
        if target.len() != self.dy {
            return Err(ModelError::Dimension {
                expected: self.dy,
                got: target.len(),
            });
        }
        self.refine(ext);
        self.constraints.push(Constraint::Location {
            ext: ext.clone(),
            target,
        });
        self.proj.push(ProjectionState::default());
        let i = self.constraints.len() - 1;
        if let Err(e) = self.project_location_at(i) {
            self.constraints.pop();
            self.proj.pop();
            return Err(e);
        }
        self.adjacency_push_last();
        Ok(())
    }

    /// Assimilates a spread pattern (direction `w`, centring vector
    /// `center = ŷ_I`, communicated variance `value`).
    pub fn assimilate_spread(
        &mut self,
        ext: &BitSet,
        w: Vec<f64>,
        center: Vec<f64>,
        value: f64,
    ) -> Result<(), ModelError> {
        if ext.count() == 0 {
            return Err(ModelError::EmptyExtension);
        }
        self.expect_dy(&[&w, &center])?;
        self.refine(ext);
        self.constraints.push(Constraint::Spread {
            ext: ext.clone(),
            w,
            center,
            value,
        });
        self.proj.push(ProjectionState::default());
        let i = self.constraints.len() - 1;
        if let Err(e) = self.project_spread_at(i) {
            self.constraints.pop();
            self.proj.pop();
            return Err(e);
        }
        self.adjacency_push_last();
        Ok(())
    }

    /// Registers the newest stored constraint in the overlap-adjacency
    /// lists. Called only after a successful assimilation, so `adj` always
    /// has one entry per stored constraint.
    fn adjacency_push_last(&mut self) {
        let i = self.constraints.len() - 1;
        debug_assert_eq!(self.adj.len(), i, "adjacency out of sync");
        let ext_i = self.constraints[i].ext();
        let mut list = Vec::new();
        for (j, c) in self.constraints[..i].iter().enumerate() {
            if !c.ext().is_disjoint(ext_i) {
                list.push(j as u32);
                self.adj[j].push(i as u32);
            }
        }
        self.adj.push(list);
    }

    /// Violation of one stored constraint under the current parameters:
    /// `‖E[f_I] − target‖_∞` for location, `|E[g] − v̂|` for spread.
    pub fn violation(&self, constraint: &Constraint) -> f64 {
        match constraint {
            Constraint::Location { ext, target } => {
                let counts = self.cell_counts(ext);
                let m: f64 = counts.iter().map(|&(_, c)| c as f64).sum();
                let mut mean = vec![0.0; self.dy];
                for &(g, c) in &counts {
                    sisd_linalg::axpy(c as f64 / m, &self.cells[g].mu, &mut mean);
                }
                mean.iter()
                    .zip(target)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0, f64::max)
            }
            Constraint::Spread {
                ext,
                w,
                center,
                value,
            } => {
                let st = self
                    .spread_stats(ext, w, center)
                    .expect("stored constraint has non-empty extension");
                (st.expected - value).abs()
            }
        }
    }

    /// Maximum violation across all stored constraints.
    pub fn max_violation(&self) -> f64 {
        self.constraints
            .iter()
            .map(|c| self.violation(c))
            .fold(0.0, f64::max)
    }

    /// Cyclic coordinate descent, warm-started: resumes from the current
    /// parameters (whose means already embed the accumulated dual
    /// solutions) and re-projects until the maximum violation is at most
    /// `tol` or `max_cycles` full passes have run. Returns the convergence
    /// statistics — deep interactive sessions (many overlapping assimilated
    /// patterns) watch [`RefitStats::cycles`] grow to observe the cost of
    /// staying converged.
    ///
    /// Incremental machinery (versus [`BackgroundModel::refit_cold`]):
    /// violations come from cached member-cell lists instead of all-cells
    /// bitset scans, constraints already within `tol` at the start of a
    /// cycle are skipped (residual-driven scheduling), and each location
    /// re-projection reuses its cached `S`-factor, so a pass costs
    /// O(Σ|members|·dy²) instead of O(t·cells + t·dy³).
    ///
    /// Convergence is guaranteed (Csiszár's cyclic I-projection theorem for
    /// linear families); with little overlap between extensions it takes
    /// one or two passes, matching the paper's observation.
    pub fn refit(&mut self, tol: f64, max_cycles: usize) -> Result<RefitStats, ModelError> {
        let obs = self.obs;
        obs.incr(Metric::RefitRuns);
        let _refit_span = obs.span(Metric::RefitNs);
        let mut residuals_recomputed = 0u64;
        let t = self.constraints.len();
        debug_assert_eq!(self.adj.len(), t, "adjacency out of sync");
        let mut violations = std::mem::take(&mut self.scratch.violations);
        let mut dirty = std::mem::take(&mut self.scratch.dirty);
        violations.clear();
        violations.resize(t, f64::INFINITY);
        dirty.clear();
        dirty.resize(t, true);
        let mut last_violation = f64::INFINITY;
        let mut constraints_updated = 0usize;
        let mut cycles = max_cycles;
        let mut result: Result<(), ModelError> = Ok(());
        'cycles: for cycle in 0..max_cycles {
            // Residuals: recompute only constraints disturbed since their
            // last computation (a cached value is bit-identical to a fresh
            // one — none of its member cells moved).
            let mut max_v = 0.0f64;
            for i in 0..t {
                if dirty[i] {
                    violations[i] = self.violation_at(i);
                    dirty[i] = false;
                    residuals_recomputed += 1;
                }
                max_v = max_v.max(violations[i]);
            }
            if max_v <= tol {
                cycles = cycle;
                break;
            }
            // Stalled (e.g. an unimprovable spread constraint): stop early
            // rather than burning the full cycle budget.
            if cycle > 0 && max_v > last_violation * 0.999 {
                cycles = cycle;
                break;
            }
            last_violation = max_v;
            for i in 0..t {
                // Residual-driven scheduling: a constraint already within
                // tolerance at the start of the cycle is not re-projected.
                // A later projection this cycle may disturb it again; the
                // next cycle's fresh residuals catch that.
                if violations[i] <= tol {
                    continue;
                }
                if matches!(self.constraints[i], Constraint::Location { .. }) {
                    if let Err(e) = self.project_location_at(i) {
                        result = Err(e);
                        break 'cycles;
                    }
                    constraints_updated += 1;
                    for &j in &self.adj[i] {
                        dirty[j as usize] = true;
                    }
                    // The location projection is exact; only an
                    // overlap-adjacent projection later in the cycle can
                    // disturb it again (and will set the flag back).
                    violations[i] = 0.0;
                    dirty[i] = false;
                } else {
                    // A spread constraint can become numerically
                    // unimprovable when later patterns collapse the
                    // variance along its direction; skip it rather than
                    // aborting the whole refit (other constraints can
                    // still be converged). Skips are not counted as
                    // updates and touch no cell, so residuals stay valid.
                    match self.project_spread_at(i) {
                        Ok(()) => {
                            constraints_updated += 1;
                            for &j in &self.adj[i] {
                                dirty[j as usize] = true;
                            }
                            // Spread projections clamp when the target is
                            // infeasible, so the own-residual must be
                            // re-measured rather than assumed zero.
                            dirty[i] = true;
                        }
                        Err(ModelError::SpreadSolve(_)) => {}
                        Err(e) => {
                            result = Err(e);
                            break 'cycles;
                        }
                    }
                }
            }
        }
        self.scratch.violations = violations;
        self.scratch.dirty = dirty;
        obs.add(Metric::RefitCycles, cycles as u64);
        obs.add(Metric::RefitConstraintsUpdated, constraints_updated as u64);
        obs.add(Metric::RefitResidualsRecomputed, residuals_recomputed);
        obs.set(Metric::RefitLastCycles, cycles as u64);
        obs.set(
            Metric::RefitLastConstraintsUpdated,
            constraints_updated as u64,
        );
        result.map(|()| RefitStats {
            cycles,
            constraints_updated,
        })
    }

    /// Cold refit: resets the parameters to the base prior, replays every
    /// stored constraint (refinement + one projection each, in assimilation
    /// order, duals zeroed), then runs the cyclic [`BackgroundModel::refit`]
    /// to convergence. This is what the warm-started path avoids; both
    /// converge to the *same* unique I-projection, with scores agreeing to
    /// [`WARM_COLD_SCORE_TOL`] — the oracle used by the warm-start parity
    /// tests and the bench gate. Returns the stats of the final cyclic
    /// phase (the replay projections are not counted).
    pub fn refit_cold(&mut self, tol: f64, max_cycles: usize) -> Result<RefitStats, ModelError> {
        self.obs.incr(Metric::RefitColdRuns);
        self.cells.clear();
        self.cells.push(Cell::new(
            BitSet::full(self.n),
            self.base_mu.clone(),
            self.base_sigma.clone(),
            0,
        ));
        self.cell_of_row.fill(0);
        self.next_cov_id = 1;
        self.partition_epoch += 1;
        for p in &mut self.proj {
            p.reset();
        }
        for i in 0..self.constraints.len() {
            let ext = self.constraints[i].ext().clone();
            self.refine(&ext);
            if matches!(self.constraints[i], Constraint::Location { .. }) {
                self.project_location_at(i)?;
            } else {
                match self.project_spread_at(i) {
                    Ok(()) | Err(ModelError::SpreadSolve(_)) => {}
                    Err(e) => return Err(e),
                }
            }
        }
        self.refit(tol, max_cycles)
    }

    /// KL divergence `KL(self ‖ other)` summed over rows. Both models must
    /// have identical shape. Used in tests and diagnostics (the projections
    /// minimize exactly this quantity toward the *previous* model).
    pub fn kl_divergence_from(&self, other: &BackgroundModel) -> f64 {
        assert_eq!(self.n, other.n, "kl: row count mismatch");
        assert_eq!(self.dy, other.dy, "kl: dimension mismatch");
        let d = self.dy as f64;
        // Cache per (cell_self, cell_other) pair.
        let mut cache: std::collections::HashMap<(u32, u32), f64> =
            std::collections::HashMap::new();
        let mut total = 0.0;
        for i in 0..self.n {
            let key = (self.cell_of_row[i], other.cell_of_row[i]);
            let kl = *cache.entry(key).or_insert_with(|| {
                let a = &self.cells[key.0 as usize];
                let b = &other.cells[key.1 as usize];
                let chol_b = Cholesky::new_with_jitter(&b.sigma, 8)
                    .expect("covariance factorable")
                    .0;
                let inv_b = chol_b.inverse();
                // tr(Σb⁻¹ Σa)
                let mut tr = 0.0;
                for r in 0..self.dy {
                    tr += sisd_linalg::dot(inv_b.row(r), {
                        // column r of Σa == row r (symmetry)
                        a.sigma.row(r)
                    });
                }
                let diff = sisd_linalg::sub(&b.mu, &a.mu);
                let maha = chol_b.inv_quad_form(&diff);
                let chol_a = Cholesky::new_with_jitter(&a.sigma, 8)
                    .expect("covariance factorable")
                    .0;
                0.5 * (tr + maha - d + chol_b.log_det() - chol_a.log_det())
            });
            total += kl;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny deterministic dataset: 8 rows, 2 targets.
    fn toy_model() -> (BackgroundModel, BitSet) {
        let n = 8;
        let mu = vec![0.0, 0.0];
        let sigma = Matrix::from_rows(&[&[2.0, 0.5], &[0.5, 1.0]]);
        let model = BackgroundModel::new(n, mu, sigma).unwrap();
        let ext = BitSet::from_indices(n, [0, 1, 2]);
        (model, ext)
    }

    #[test]
    fn initial_model_is_uniform() {
        let (model, _) = toy_model();
        assert_eq!(model.n_cells(), 1);
        for i in 0..model.n() {
            assert_eq!(model.row_mean(i), &[0.0, 0.0]);
            assert_eq!(model.row_cov(i)[(0, 0)], 2.0);
        }
    }

    #[test]
    fn location_update_enforces_constraint_exactly() {
        let (mut model, ext) = toy_model();
        let target = vec![1.5, -0.5];
        model.assimilate_location(&ext, target.clone()).unwrap();
        assert_eq!(model.n_cells(), 2);
        // Inside rows moved to the target mean, outside rows unchanged.
        #[allow(clippy::needless_range_loop)]
        for i in 0..3 {
            for j in 0..2 {
                assert!((model.row_mean(i)[j] - target[j]).abs() < 1e-12);
            }
        }
        for i in 3..8 {
            assert_eq!(model.row_mean(i), &[0.0, 0.0]);
        }
        assert!(model.max_violation() < 1e-12);
    }

    #[test]
    fn location_update_leaves_covariances_alone() {
        let (mut model, ext) = toy_model();
        let before = model.row_cov(0).clone();
        model.assimilate_location(&ext, vec![3.0, 3.0]).unwrap();
        assert_eq!(model.row_cov(0), &before);
        assert_eq!(model.row_cov(7), &before);
    }

    #[test]
    fn spread_update_enforces_constraint_exactly() {
        let (mut model, ext) = toy_model();
        let mut w = vec![1.0, 1.0];
        sisd_linalg::normalize(&mut w);
        let center = vec![0.0, 0.0];
        // Current E[g] per row = w'Σw (d = 0) = (2 + 1 + 2·0.5)/2 = 2.0.
        let st = model.spread_stats(&ext, &w, &center).unwrap();
        assert!((st.expected - 2.0).abs() < 1e-12);
        // Demand variance 0.8 along w.
        model
            .assimilate_spread(&ext, w.clone(), center.clone(), 0.8)
            .unwrap();
        let st2 = model.spread_stats(&ext, &w, &center).unwrap();
        assert!((st2.expected - 0.8).abs() < 1e-9, "E[g] = {}", st2.expected);
        // Covariance along w shrank; orthogonal direction less affected.
        let cov = model.row_cov(0);
        assert!(cov.quad_form(&w) < 2.0);
    }

    #[test]
    fn spread_update_can_inflate_variance() {
        let (mut model, ext) = toy_model();
        let mut w = vec![1.0, 0.0];
        sisd_linalg::normalize(&mut w);
        let center = vec![0.0, 0.0];
        model
            .assimilate_spread(&ext, w.clone(), center.clone(), 5.0)
            .unwrap();
        let st = model.spread_stats(&ext, &w, &center).unwrap();
        assert!((st.expected - 5.0).abs() < 1e-9);
        assert!(model.row_cov(0)[(0, 0)] > 2.0);
        // Outside rows untouched.
        assert_eq!(model.row_cov(7)[(0, 0)], 2.0);
    }

    #[test]
    fn covariance_stays_positive_definite_after_extreme_shrink() {
        let (mut model, ext) = toy_model();
        let mut w = vec![0.3, 0.7];
        sisd_linalg::normalize(&mut w);
        model
            .assimilate_spread(&ext, w.clone(), vec![0.0, 0.0], 1e-6)
            .unwrap();
        let cov = model.row_cov(0);
        assert!(Cholesky::new_with_jitter(cov, 8).is_ok());
        assert!(cov.quad_form(&w) > 0.0);
    }

    #[test]
    fn overlapping_patterns_converge_under_refit() {
        let (mut model, _) = toy_model();
        let ext_a = BitSet::from_indices(8, [0, 1, 2, 3]);
        let ext_b = BitSet::from_indices(8, [2, 3, 4, 5]);
        model.assimilate_location(&ext_a, vec![1.0, 0.0]).unwrap();
        model.assimilate_location(&ext_b, vec![-1.0, 0.5]).unwrap();
        // The second projection disturbed the first constraint.
        assert!(model.max_violation() > 1e-6);
        let stats = model.refit(1e-10, 500).unwrap();
        assert!(model.max_violation() < 1e-10, "stats = {stats:?}");
        // Convergence took at least one pass touching both constraints.
        // (Residual-driven scheduling skips constraints already within
        // tolerance, so per-cycle update counts need not be multiples of
        // the constraint count.)
        assert!(stats.cycles >= 1);
        assert!(stats.constraints_updated >= 2);
        assert!(stats.constraints_updated <= stats.cycles * model.constraints().len());
        // Already converged: a second refit reports zero work.
        let again = model.refit(1e-10, 500).unwrap();
        assert_eq!(again, RefitStats::default());
    }

    #[test]
    fn refit_cold_agrees_with_warm_refit() {
        let (mut model, _) = toy_model();
        let ext_a = BitSet::from_indices(8, [0, 1, 2, 3]);
        let ext_b = BitSet::from_indices(8, [2, 3, 4, 5]);
        let ext_c = BitSet::from_indices(8, [1, 2, 5, 6]);
        model.assimilate_location(&ext_a, vec![1.0, 0.0]).unwrap();
        let _ = model.refit(1e-10, 500).unwrap();
        model.assimilate_location(&ext_b, vec![-1.0, 0.5]).unwrap();
        let _ = model.refit(1e-10, 500).unwrap();
        model.assimilate_location(&ext_c, vec![0.3, -0.4]).unwrap();
        let _ = model.refit(1e-10, 500).unwrap();

        let mut cold = model.clone();
        let cold_stats = cold.refit_cold(1e-10, 500).unwrap();
        assert!(cold.max_violation() < 1e-9, "cold stats = {cold_stats:?}");
        // Same unique I-projection, warm vs replay-from-prior.
        for i in 0..8 {
            for (a, b) in model.row_mean(i).iter().zip(cold.row_mean(i)) {
                assert!(
                    (a - b).abs() < WARM_COLD_SCORE_TOL,
                    "row {i}: warm {a} vs cold {b}"
                );
            }
        }
        // Warm continuation after the cold replay is already converged.
        let warm_after = cold.refit(1e-9, 500).unwrap();
        assert_eq!(warm_after, RefitStats::default());
    }

    #[test]
    fn spread_updates_keep_warm_location_factors_valid() {
        // A spread projection tilts member-cell covariances; the cached
        // location S-factors must be maintained (or dropped) so that the
        // next location re-projection still solves the *current* system —
        // pinned by demanding full re-convergence to a tight tolerance.
        let (mut model, _) = toy_model();
        let ext_a = BitSet::from_indices(8, [0, 1, 2, 3]);
        let ext_b = BitSet::from_indices(8, [2, 3, 4, 5]);
        model.assimilate_location(&ext_a, vec![1.0, 0.0]).unwrap();
        let _ = model.refit(1e-10, 500).unwrap();
        let mut w = vec![1.0, 1.0];
        sisd_linalg::normalize(&mut w);
        model
            .assimilate_spread(&ext_b, w, vec![0.0, 0.0], 0.6)
            .unwrap();
        let stats = model.refit(1e-10, 500).unwrap();
        assert!(
            model.max_violation() < 1e-9,
            "violation {} after {stats:?}",
            model.max_violation()
        );
    }

    #[test]
    fn cells_partition_rows() {
        let (mut model, _) = toy_model();
        let ext_a = BitSet::from_indices(8, [0, 1, 2, 3]);
        let ext_b = BitSet::from_indices(8, [2, 3, 4, 5]);
        model.assimilate_location(&ext_a, vec![1.0, 0.0]).unwrap();
        model.assimilate_location(&ext_b, vec![-1.0, 0.5]).unwrap();
        // Partition: {0,1}, {2,3}, {4,5}, {6,7}.
        assert_eq!(model.n_cells(), 4);
        let mut covered = BitSet::empty(8);
        let mut total = 0;
        for cell in model.cells() {
            assert!(covered.is_disjoint(&cell.ext), "cells overlap");
            covered = covered.or(&cell.ext);
            total += cell.count;
        }
        assert_eq!(total, 8);
        assert_eq!(covered.count(), 8);
    }

    #[test]
    fn location_stats_fast_and_dense_paths_agree() {
        let (mut model, ext) = toy_model();
        // Make covariances heterogeneous via a spread update on part of the data.
        let spread_ext = BitSet::from_indices(8, [0, 1]);
        let mut w = vec![1.0, 0.0];
        sisd_linalg::normalize(&mut w);
        model
            .assimilate_spread(&spread_ext, w, vec![0.0, 0.0], 0.5)
            .unwrap();

        // Candidate extension straddling both covariance values → dense path.
        let observed = vec![0.7, 0.3];
        let stats = model.location_stats(&ext, &observed).unwrap();

        // Recompute densely by hand.
        let mf = 3.0;
        let mut cov = Matrix::zeros(2, 2);
        let mut mean = vec![0.0, 0.0];
        for i in [0usize, 1, 2] {
            sisd_linalg::axpy(1.0 / mf, model.row_mean(i), &mut mean);
            let rc = model.row_cov(i).clone();
            for (o, s) in cov.as_mut_slice().iter_mut().zip(rc.as_slice()) {
                *o += s / (mf * mf);
            }
        }
        let chol = Cholesky::new(&cov).unwrap();
        let resid = sisd_linalg::sub(&observed, &mean);
        assert!((stats.log_det_cov - chol.log_det()).abs() < 1e-9);
        assert!((stats.mahalanobis - chol.inv_quad_form(&resid)).abs() < 1e-9);

        // Homogeneous candidate → fast path; verify against dense formula.
        let ext_h = BitSet::from_indices(8, [4, 5, 6]);
        let stats_h = model.location_stats(&ext_h, &observed).unwrap();
        let base = Matrix::from_rows(&[&[2.0, 0.5], &[0.5, 1.0]]);
        let mut cov_h = base.clone();
        cov_h.scale(1.0 / 3.0);
        let chol_h = Cholesky::new(&cov_h).unwrap();
        assert!((stats_h.log_det_cov - chol_h.log_det()).abs() < 1e-9);
        let resid_h = observed.clone(); // means are zero there
        assert!((stats_h.mahalanobis - chol_h.inv_quad_form(&resid_h)).abs() < 1e-9);
    }

    #[test]
    fn location_stats_runs_concurrently_from_shared_references() {
        let (mut model, _) = toy_model();
        let spread_ext = BitSet::from_indices(8, [0, 1]);
        let mut w = vec![1.0, 0.0];
        sisd_linalg::normalize(&mut w);
        model
            .assimilate_spread(&spread_ext, w, vec![0.0, 0.0], 0.5)
            .unwrap();
        let observed = vec![0.4, -0.2];
        let candidates: Vec<BitSet> = (0..4)
            .map(|k| BitSet::from_indices(8, [k, k + 1, k + 4]))
            .collect();
        let serial: Vec<_> = candidates
            .iter()
            .map(|c| model.location_stats(c, &observed).unwrap())
            .collect();
        let shared = &model;
        let obs = observed.as_slice();
        let pool = sisd_par::PoolHandle::global();
        let concurrent: Vec<_> =
            pool.run_items(&candidates, 4, |c| shared.location_stats(c, obs).unwrap());
        for (a, b) in serial.iter().zip(&concurrent) {
            assert_eq!(a.log_det_cov, b.log_det_cov);
            assert_eq!(a.mahalanobis, b.mahalanobis);
        }
    }

    #[test]
    fn marginals_match_location_stats() {
        let (mut model, ext) = toy_model();
        model.assimilate_location(&ext, vec![1.0, 1.0]).unwrap();
        let marg = model.location_marginals(&ext).unwrap();
        assert_eq!(marg.len(), 2);
        assert!((marg[0].0 - 1.0).abs() < 1e-12);
        // sd of mean over 3 rows with Σ00 = 2: sqrt(2/3).
        assert!((marg[0].1 - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn kl_divergence_properties() {
        let (model, ext) = toy_model();
        // KL to itself is zero.
        assert!(model.kl_divergence_from(&model).abs() < 1e-10);
        // Updating increases divergence from the original.
        let mut updated = model.clone();
        updated.assimilate_location(&ext, vec![2.0, 2.0]).unwrap();
        let kl = updated.kl_divergence_from(&model);
        assert!(kl > 0.1, "kl = {kl}");
    }

    #[test]
    fn spread_power_sums_match_definition() {
        let (model, ext) = toy_model();
        let mut w = vec![0.6, 0.8];
        sisd_linalg::normalize(&mut w);
        let st = model.spread_stats(&ext, &w, &[0.0, 0.0]).unwrap();
        let s = model.row_cov(0).quad_form(&w);
        let a = s / 3.0;
        assert!((st.power_sums.0 - 3.0 * a).abs() < 1e-12);
        assert!((st.power_sums.1 - 3.0 * a * a).abs() < 1e-12);
        assert!((st.power_sums.2 - 3.0 * a * a * a).abs() < 1e-12);
        assert_eq!(st.count, 3);
    }

    #[test]
    fn errors_are_reported() {
        let (mut model, _) = toy_model();
        let empty = BitSet::empty(8);
        assert!(matches!(
            model.assimilate_location(&empty, vec![0.0, 0.0]),
            Err(ModelError::EmptyExtension)
        ));
        let ext = BitSet::from_indices(8, [0]);
        assert!(matches!(
            model.assimilate_location(&ext, vec![0.0]),
            Err(ModelError::Dimension { .. })
        ));
        let bad = BackgroundModel::new(4, vec![0.0], Matrix::from_diag(&[-1.0]));
        assert!(matches!(bad, Err(ModelError::BadPrior)));
    }

    /// The `got` of a [`ModelError::Dimension`].
    fn got_len<T>(outcome: Result<T, ModelError>) -> usize {
        match outcome {
            Err(ModelError::Dimension { expected: 2, got }) => got,
            Err(e) => panic!("expected a dimension error, got {e:?}"),
            Ok(_) => panic!("expected a dimension error"),
        }
    }

    #[test]
    fn spread_stats_reports_the_length_that_mismatches() {
        let (model, ext) = toy_model();
        assert_eq!(got_len(model.spread_stats(&ext, &[1.0, 0.0], &[0.0; 5])), 5);
        assert_eq!(got_len(model.spread_stats(&ext, &[1.0], &[0.0, 0.0])), 1);
        assert_eq!(got_len(model.spread_stats(&ext, &[1.0; 3], &[0.0; 4])), 3);
    }

    #[test]
    fn assimilate_spread_reports_the_length_that_mismatches() {
        let (mut model, ext) = toy_model();
        let w = vec![1.0, 0.0];
        assert_eq!(
            got_len(model.assimilate_spread(&ext, w.clone(), vec![0.0; 5], 0.8)),
            5
        );
        assert_eq!(
            got_len(model.assimilate_spread(&ext, vec![1.0], vec![0.0; 2], 0.8)),
            1
        );
        assert!(model.constraints().is_empty());
        model.assimilate_spread(&ext, w, vec![0.0; 2], 0.8).unwrap();
    }

    /// A candidate of [`BackgroundModel::location_stats_run`]: its
    /// cell-count signature and its observed mean.
    type RunCandidate = (Vec<(usize, usize)>, Vec<f64>);

    /// Statistics or error, comparable bit for bit.
    type StatsBits = Result<(usize, Vec<u64>, u64, u64), String>;

    fn stats_bits(outcome: Result<&LocationStats, ModelError>) -> StatsBits {
        outcome
            .map(|s| {
                (
                    s.count,
                    s.mean.iter().map(|v| v.to_bits()).collect(),
                    s.log_det_cov.to_bits(),
                    s.mahalanobis.to_bits(),
                )
            })
            .map_err(|e| format!("{e:?}"))
    }

    /// Rows with probability `density`, from a splitmix64 stream.
    fn random_ext(n: usize, seed: u64, density: f64) -> BitSet {
        let mut state = seed;
        BitSet::from_fn(n, |_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64 > 1.0 - density
        })
    }

    /// `k` candidates over random extensions, observed means their own.
    fn random_candidates(
        model: &BackgroundModel,
        data: &Dataset,
        seed: u64,
        k: usize,
    ) -> Vec<RunCandidate> {
        (0..k as u64)
            .map(|s| {
                let ext = random_ext(data.n(), seed * 1000 + s, 0.1 + 0.05 * (s % 8) as f64);
                (model.cell_counts(&ext), data.target_mean(&ext))
            })
            .collect()
    }

    /// Scores every run through `location_stats_run` and every candidate
    /// alone through `location_stats_with`, and asserts that every slot got
    /// the lone call's bits or error.
    fn assert_runs_match_lone_calls(model: &BackgroundModel, runs: &[Vec<RunCandidate>]) {
        let mut lone = LocationScratch::default();
        let mut scratch = LocationRun::default();
        for (r, run) in runs.iter().enumerate() {
            let items: Vec<LocationCandidate<'_>> = run
                .iter()
                .map(|(counts, observed)| (counts.as_slice(), observed.as_slice()))
                .collect();
            let mut got = Vec::new();
            model.location_stats_run(&items, &mut scratch, |slot, outcome| {
                got.push((slot, stats_bits(outcome)))
            });
            assert_eq!(got.len(), run.len(), "run {r}");
            for (j, ((slot, bits), (counts, observed))) in got.into_iter().zip(run).enumerate() {
                assert_eq!(slot, j, "run {r}");
                let want = stats_bits(model.location_stats_with(counts, observed, &mut lone));
                assert_eq!(bits, want, "run {r} slot {j}");
            }
        }
    }

    /// Runs of every length from 1 to 8 over `pool`, then runs that mix in
    /// an empty signature, a wrong-length mean and non-finite observed
    /// values.
    fn runs_over(pool: &[RunCandidate], dy: usize) -> Vec<Vec<RunCandidate>> {
        let mut runs: Vec<Vec<RunCandidate>> = (1..=8).map(|k| pool[..k].to_vec()).collect();
        let mut faulty = pool[..8].to_vec();
        faulty[1].0.clear();
        faulty[4].1.push(0.0);
        faulty[6].1[dy - 1] = f64::NAN;
        runs.push(faulty);
        let mut extremes = pool[..8].to_vec();
        extremes[0].1[0] = f64::INFINITY;
        extremes[3].1[0] = f64::NEG_INFINITY;
        extremes[5].1.iter_mut().for_each(|v| *v = -0.0);
        runs.push(extremes);
        runs
    }

    #[test]
    fn location_runs_match_lone_calls_on_a_single_covariance_model() {
        use sisd_data::datasets::german_socio_synthetic;
        let (data, _) = german_socio_synthetic(3);
        let mut model = BackgroundModel::from_empirical(&data).unwrap();
        // Factor the prior before the partition splits, as a search does,
        // so that every cell holds that one factor object.
        model
            .location_stats(&BitSet::full(data.n()), &data.target_mean_all())
            .unwrap();
        for seed in 1..=3 {
            let ext = random_ext(data.n(), seed, 0.3);
            model
                .assimilate_location(&ext, data.target_mean(&ext))
                .unwrap();
        }
        assert!(model.n_cells() >= 4, "{} cells", model.n_cells());
        let first = model.cells()[0].chol().unwrap();
        assert!(model
            .cells()
            .iter()
            .all(|c| std::ptr::eq(c.chol().unwrap(), first)));
        let pool = random_candidates(&model, &data, 7, 16);
        let mut runs = runs_over(&pool, data.dy());
        runs.push(pool[8..].to_vec());
        assert_runs_match_lone_calls(&model, &runs);
    }

    #[test]
    fn location_runs_match_lone_calls_on_a_mixed_covariance_model() {
        use sisd_data::datasets::water_quality_synthetic;
        let data = water_quality_synthetic(5);
        let dy = data.dy();
        let mut model = BackgroundModel::from_empirical(&data).unwrap();
        let loc = random_ext(data.n(), 11, 0.4);
        model
            .assimilate_location(&loc, data.target_mean(&loc))
            .unwrap();
        let spread = random_ext(data.n(), 12, 0.3);
        let mut w = vec![0.0; dy];
        w[0] = 0.6;
        w[1] = 0.8;
        let center = data.target_mean(&spread);
        let expected = model.spread_stats(&spread, &w, &center).unwrap().expected;
        model
            .assimilate_spread(&spread, w, center, 0.5 * expected)
            .unwrap();
        let mut ids: Vec<u64> = model.cells().iter().map(|c| c.cov_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert!(ids.len() >= 2, "cov_ids {ids:?}");

        // Straddling extensions: distinct mixtures, each its own factor.
        let distinct = random_candidates(&model, &data, 9, 16);
        assert!(distinct.iter().all(|(counts, _)| {
            counts
                .iter()
                .any(|&(g, _)| model.cells()[g].cov_id != model.cells()[counts[0].0].cov_id)
        }));
        // One extension under eight observed means: one mixture, built
        // anew for each of them.
        let ext = random_ext(data.n(), 13, 0.25);
        let counts = model.cell_counts(&ext);
        let shared: Vec<RunCandidate> = (0..8)
            .map(|s| {
                let mut observed = data.target_mean(&ext);
                observed.iter_mut().for_each(|v| *v += 0.1 * s as f64);
                (counts.clone(), observed)
            })
            .collect();
        // Rows of one cell only: the cell's own factor.
        let cell = model.cells().iter().max_by_key(|c| c.count).expect("cells");
        let inside: Vec<RunCandidate> = (0..8)
            .map(|s| {
                let sub = cell.ext.and(&random_ext(data.n(), 20 + s, 0.5));
                (model.cell_counts(&sub), data.target_mean(&sub))
            })
            .collect();
        let mixed: Vec<RunCandidate> = (0..8)
            .map(|j| match j % 3 {
                0 => shared[j].clone(),
                1 => distinct[j].clone(),
                _ => inside[j].clone(),
            })
            .collect();
        let mut runs = runs_over(&distinct, dy);
        runs.extend(runs_over(&shared, dy));
        runs.extend(runs_over(&inside, dy));
        runs.push(distinct[8..].to_vec());
        runs.push(mixed);
        assert_runs_match_lone_calls(&model, &runs);
    }

    #[test]
    #[should_panic(expected = "a run holds at most 8 candidates")]
    fn location_runs_hold_at_most_eight_candidates() {
        let (model, ext) = toy_model();
        let counts = model.cell_counts(&ext);
        let run = vec![(counts.as_slice(), [0.0, 0.0].as_slice()); 9];
        model.location_stats_run(&run, &mut LocationRun::default(), |_, _| {});
    }

    #[test]
    fn from_empirical_matches_dataset_moments() {
        use sisd_data::datasets::synthetic_paper;
        let (d, _) = synthetic_paper(1);
        let model = BackgroundModel::from_empirical(&d).unwrap();
        let mu = d.target_mean_all();
        #[allow(clippy::needless_range_loop)]
        for i in [0usize, 100, 600] {
            for j in 0..2 {
                assert!((model.row_mean(i)[j] - mu[j]).abs() < 1e-12);
            }
        }
        let cov = d.target_covariance_all();
        assert!((model.row_cov(0)[(0, 1)] - cov[(0, 1)]).abs() < 1e-12);
    }
}
