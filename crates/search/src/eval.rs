//! The unified candidate-evaluation engine.
//!
//! Every search strategy in this crate — Gaussian beam ([`crate::beam`]),
//! Bernoulli beam ([`crate::binary_beam`]), branch-and-bound
//! ([`crate::branch_bound`]), and the spread-direction search
//! ([`crate::sphere`]) — scores its candidates through one [`Evaluator`].
//! The engine owns the three concerns the strategies used to re-implement
//! separately:
//!
//! * **Ownership and cache validity.** An [`Evaluator`] borrows the
//!   background model *immutably* for its whole lifetime, so the borrow
//!   checker guarantees the model cannot change while any factorization is
//!   cached: per-cell Cholesky factors initialize lazily (and thread-
//!   safely) inside the model's cells, and a candidate whose rows mix
//!   covariance values gets its mixture factored for it alone. There is no
//!   warm-up protocol and no panic path for a missing factor.
//! * **One row walk per candidate, or per 64 siblings.** On the Gaussian
//!   backend a candidate's cell-count signature and its target row sum
//!   come from a single walk over its rows
//!   ([`sisd_data::kernels::count_cells_sum_rows`] over the model's
//!   row-to-cell map), so a candidate costs `O(|I| · dy)` however many
//!   cells the partition has. On single-target data a beam level instead
//!   walks each parent's rows once per block of 64 conditions
//!   ([`sisd_data::kernels::count_cells_sum_lanes`]), which yields the
//!   counts and sums of all the parent's children through that block, the
//!   same integers and bits. The signature feeds the model statistics; the
//!   sum becomes the observed mean — except for a candidate that is exactly
//!   a union of parameter cells, whose mean is assembled from precomputed
//!   per-cell target sums.
//! * **One forward substitution per eight candidates.** On data with more
//!   than one target column a beam level hands its walked children to the
//!   model in runs of up to eight
//!   ([`sisd_model::BackgroundModel::location_stats_run`]). When every
//!   candidate of a run solves against the same factor object — on a
//!   location-only model, the cells' one factor — their Mahalanobis terms
//!   come from one pass over it ([`sisd_linalg::Cholesky::inv_quad_forms`])
//!   instead of eight, with each candidate's bits.
//! * **Deterministic parallelism.** [`Evaluator::score_all`] splits a
//!   batch into contiguous chunks, scores them on the persistent
//!   `sisd-par` worker pool, and merges in chunk order. Each candidate's
//!   arithmetic is independent of every other's, so the results are
//!   **bit-identical at any thread count** — searches may be parallelized
//!   without changing their output.
//!
//! Scoring runs through a per-chunk workspace (per-cell and per-lane
//! counts, the signature, the observed mean, the run of children waiting
//! for their statistics and the model's statistics buffers), so a
//! candidate allocates nothing of its own; the beam loop below scores its
//! children from the frontier's borrowed parent and mask words — siblings
//! together on single-target data, otherwise each child's words ANDed into
//! one per-chunk buffer just before it is walked, and on the Gaussian
//! backend its statistics solved with up to seven neighbours' — into
//! compact records, and builds a pattern only for what the top-k log or
//! the next beam keeps. `score_all`, `try_score_all*` and
//! `score_location` score one candidate at a time, the path the parity
//! suites compare the beam against.

use crate::refine::{generate_conditions, RefineConfig};
use crate::BeamConfig;
use sisd_core::SisdError;
use sisd_core::{
    location_ic_of_stats, spread_si, Condition, Intention, LocationPattern, LocationScore,
    SisdResult, SpreadScore,
};
use sisd_data::bitset::WORD_BITS;
use sisd_data::kernels::{self, LANES};
use sisd_data::{BitSet, Dataset};
use sisd_frontier::{ChildBatch, FrontierBuilder, FrontierConfig, MaskMatrix, ParentSpec};
use sisd_linalg::Cholesky;
use sisd_model::{
    BackgroundModel, BinaryBackgroundModel, LocationCandidate, LocationRun, LocationScratch,
    ModelError,
};
use sisd_obs::{Metric, ObsHandle};
use sisd_par::PoolHandle;
use std::collections::HashSet;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Engine configuration, threaded from the application surface
/// ([`crate::MinerConfig`], the experiment binaries' `--threads` flags)
/// down to every strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalConfig {
    /// Worker threads for batch candidate evaluation. `1` keeps scoring on
    /// the calling thread; results are identical either way.
    pub threads: usize,
    /// The persistent worker pool every parallel stage runs on (the
    /// process-global pool by default), so one engine — and one
    /// [`crate::Miner`] — reuses the same workers across levels, searches,
    /// and assimilations instead of spawning threads per call. Serial
    /// engines never touch it; results are identical for any pool.
    pub pool: PoolHandle,
    /// Metrics/tracing destination for the engine and every subsystem it
    /// drives (frontier, model, pool gauges). Disabled by default; an
    /// enabled handle **never changes any result bit** — it only counts.
    pub obs: ObsHandle,
}

impl Default for EvalConfig {
    fn default() -> Self {
        Self {
            threads: 1,
            pool: PoolHandle::global(),
            obs: ObsHandle::disabled(),
        }
    }
}

impl EvalConfig {
    /// Config with the given worker-thread count (floored at 1).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            ..Self::default()
        }
    }

    /// Sets the worker pool (e.g. a dedicated [`sisd_par::WorkerPool`]
    /// for a benchmark that must not share the global one). Results are
    /// identical for any pool.
    pub fn with_pool(mut self, pool: PoolHandle) -> Self {
        self.pool = pool;
        self
    }

    /// Sets the metrics/tracing destination. Results are bit-identical
    /// with any handle; the counters are purely additive.
    pub fn with_obs(mut self, obs: ObsHandle) -> Self {
        self.obs = obs;
        self
    }
}

/// One candidate subgroup awaiting evaluation.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The candidate's description.
    pub intention: Intention,
    /// The rows it covers.
    pub ext: BitSet,
}

/// A scored candidate: everything a strategy needs to log, rank, or expand
/// it without touching the dataset again.
#[derive(Debug, Clone)]
pub struct Scored {
    /// The candidate's description.
    pub intention: Intention,
    /// The rows it covers.
    pub ext: BitSet,
    /// Observed subgroup target mean (computed once, here).
    pub observed_mean: Vec<f64>,
    /// The SI breakdown.
    pub score: LocationScore,
}

impl Scored {
    /// Repackages as the user-facing pattern record.
    pub fn into_pattern(self) -> LocationPattern {
        LocationPattern {
            intention: self.intention,
            extension: self.ext,
            observed_mean: self.observed_mean,
            score: self.score,
        }
    }
}

/// The model backend a candidate is scored against.
enum Backend<'a> {
    /// The paper's Gaussian background distribution.
    Gaussian(Gaussian<'a>),
    /// The Bernoulli MaxEnt model for 0/1 targets (§V extension).
    Bernoulli { model: &'a BinaryBackgroundModel },
}

/// The Gaussian backend.
struct Gaussian<'a> {
    model: &'a BackgroundModel,
    /// Per-cell sums of the dataset's target rows, aligned with
    /// `model.cells()`; built on first use.
    cell_sums: OnceLock<Vec<Vec<f64>>>,
}

impl Gaussian<'_> {
    /// One walk over the rows `ext` selects: the candidate's cell-count
    /// signature into `ws.signature` and its target row sum into `ws.mean`.
    fn walk(&self, data: &Dataset, ext: &[u64], ws: &mut Workspace) {
        ws.mean.fill(0.0);
        kernels::count_cells_sum_rows(
            ext,
            self.model.cell_of_row(),
            &mut ws.cell_rows,
            data.targets().as_slice(),
            &mut ws.mean,
        );
        ws.signature.clear();
        for (g, c) in ws.cell_rows.iter_mut().enumerate() {
            if *c > 0 {
                ws.signature.push((g, *c));
                *c = 0;
            }
        }
    }

    /// Turns the target row sum in `mean` of the candidate with cell-count
    /// signature `signature` into its observed mean: that sum over the row
    /// count — the same bits as [`Dataset::target_mean`] — unless every
    /// intersected cell lies wholly inside the candidate; then it is
    /// assembled from per-cell target sums, the case for re-scored
    /// assimilated subgroups and any candidate aligned with the constraint
    /// partition.
    #[inline]
    fn observed_mean(
        &self,
        data: &Dataset,
        signature: &[(usize, usize)],
        mean: &mut [f64],
    ) -> Result<(), ModelError> {
        let m: usize = signature.iter().map(|&(_, c)| c).sum();
        if m == 0 {
            return Err(ModelError::EmptyExtension);
        }
        let cells = self.model.cells();
        if signature.iter().all(|&(g, c)| c == cells[g].count) {
            let sums = self.cell_sums.get_or_init(|| {
                cells
                    .iter()
                    .map(|cell| {
                        let mut s = vec![0.0; data.dy()];
                        kernels::sum_rows(data.targets().as_slice(), cell.ext.words(), &mut s);
                        s
                    })
                    .collect()
            });
            mean.fill(0.0);
            for &(g, _) in signature {
                sisd_linalg::add_assign(mean, &sums[g]);
            }
        }
        sisd_linalg::scale(1.0 / m as f64, mean);
        Ok(())
    }

    /// The IC of the candidate whose cell-count signature is in
    /// `ws.signature` and whose target row sum is in `ws.mean`, which is
    /// left holding its observed mean ([`Gaussian::observed_mean`]).
    fn ic(&self, data: &Dataset, ws: &mut Workspace) -> SisdResult<f64> {
        let Workspace {
            signature,
            mean,
            stats,
            ..
        } = ws;
        self.observed_mean(data, signature, mean)?;
        let stats = self.model.location_stats_with(signature, mean, stats)?;
        Ok(location_ic_of_stats(stats, self.model.dy()))
    }
}

/// Children of a beam level waiting for their model statistics: up to
/// [`RUN`] consecutive children of one scoring range, walked one by one on
/// `dy > 1` data, then handed together to
/// [`BackgroundModel::location_stats_run`], which solves their residuals in
/// one pass over the factor when they all hold the same one.
#[derive(Default)]
struct ChildRun {
    /// How many slots are filled.
    len: usize,
    /// Each slot's child index in its batch.
    children: [usize; RUN],
    /// Each slot's cell-count signature ([`RUN`] buffers, swapped with
    /// [`Workspace::signature`] rather than copied).
    signatures: Vec<Vec<(usize, usize)>>,
    /// Each slot's observed mean ([`RUN`] buffers of `dy`, swapped with
    /// [`Workspace::mean`]).
    means: Vec<Vec<f64>>,
    /// The model statistics and their working vectors.
    stats: LocationRun,
}

/// Children a [`ChildRun`] holds: the right-hand sides one pass over a
/// factor solves.
const RUN: usize = Cholesky::LANES;

/// Everything the scoring core writes while it scores one candidate,
/// allocated once per chunk of candidates and reused for each of them.
struct Workspace {
    /// Rows of the current candidate in each parameter cell (Gaussian);
    /// all zero between candidates.
    cell_rows: Vec<usize>,
    /// The nonzero entries of `cell_rows` in cell order: the candidate's
    /// cell-count signature.
    signature: Vec<(usize, usize)>,
    /// The current candidate's observed target mean.
    mean: Vec<f64>,
    /// The model statistics and their working vectors (Gaussian).
    stats: LocationScratch,
    /// The current candidate's extension, refilled from its words for the
    /// Bernoulli model, which takes a [`BitSet`].
    ext: BitSet,
    /// A sibling walk's per-lane counts, [`LANES`] per parameter cell
    /// (sibling lanes only); all zero between walks.
    lane_counts: Vec<u32>,
    /// The cells the current sibling walk's parent covers, ascending.
    touched: Vec<usize>,
    /// The children walked but not yet solved (Gaussian, `dy > 1`).
    run: ChildRun,
}

impl Workspace {
    /// Makes `touched` the cells that `ext` covers, in cell order.
    fn touch_cells(&mut self, ext: &[u64], cell_of_row: &[u32]) {
        kernels::count_cells(ext, cell_of_row, &mut self.cell_rows);
        self.touched.clear();
        for (g, c) in self.cell_rows.iter_mut().enumerate() {
            if *c > 0 {
                self.touched.push(g);
                *c = 0;
            }
        }
    }

    /// Makes `signature` the nonzero counts of sibling lane `lane` over the
    /// touched cells, in cell order. Branch-free: whether a sibling has
    /// rows in a cell is a coin flip that a branch would mispredict.
    fn lane_signature(&mut self, lane: usize) {
        self.signature.clear();
        self.signature.resize(self.touched.len(), (0, 0));
        let mut len = 0;
        for &g in &self.touched {
            let c = self.lane_counts[g * LANES + lane] as usize;
            self.signature[len] = (g, c);
            len += usize::from(c > 0);
        }
        self.signature.truncate(len);
    }

    /// Zeroes the lane counts of the touched cells, the only ones a walk
    /// over the touched cells' parent writes.
    fn clear_lanes(&mut self) {
        for &g in &self.touched {
            self.lane_counts[g * LANES..(g + 1) * LANES].fill(0);
        }
    }
}

/// The scored children of one beam level, kept compact: a record per
/// successfully scored child, and one flat buffer of observed means
/// holding only the records the top-k log might keep (see
/// [`LevelRec::mean`]). Buffers are cleared, not freed, between levels.
#[derive(Default)]
struct LevelScores {
    recs: Vec<LevelRec>,
    means: Vec<f64>,
}

/// One scored child: which frontier batch and which child of it, its
/// score, and the slot of its observed mean in [`LevelScores::means`].
#[derive(Debug, Clone, Copy)]
struct LevelRec {
    batch: usize,
    child: usize,
    score: LocationScore,
    /// Slot `s` holds `means[s * dy..(s + 1) * dy]`; [`NO_MEAN`] when the
    /// child's SI could not enter the top-k log, so its mean was dropped.
    mean: usize,
}

/// [`LevelRec::mean`] of a child whose mean was not kept.
const NO_MEAN: usize = usize::MAX;

impl LevelScores {
    /// Empties the buffers, with room for `children` records. Reserving
    /// the exact size up front keeps a large level from doubling its
    /// record buffer (and briefly holding both copies).
    fn reset(&mut self, children: usize) {
        self.recs.clear();
        self.means.clear();
        self.recs.reserve_exact(children);
    }

    /// Appends `other`'s records and means, moving its mean slots past
    /// this level's.
    fn append(&mut self, other: &LevelScores, dy: usize) {
        let base = self.means.len() / dy.max(1);
        self.recs.extend(other.recs.iter().map(|&rec| LevelRec {
            mean: if rec.mean == NO_MEAN {
                NO_MEAN
            } else {
                base + rec.mean
            },
            ..rec
        }));
        self.means.extend_from_slice(&other.means);
    }
}

/// Files `item`, of SI `si`, into `items` — sorted by SI descending, ties
/// in arrival order, at most `k` long — and returns whether it got in:
/// the admission rule of the top-k log, shared by the log itself and by
/// the scoring loop's filter on which means to keep.
fn admit<T>(items: &mut Vec<T>, k: usize, si: f64, si_of: impl Fn(&T) -> f64, item: T) -> bool {
    let pos = items.partition_point(|q| si_of(q) >= si);
    if pos >= k {
        return false;
    }
    items.insert(pos, item);
    items.truncate(k);
    true
}

/// The candidate-evaluation engine. See the module docs for the contract;
/// construct one per (dataset, model state) and score everything through
/// it.
pub struct Evaluator<'a> {
    data: &'a Dataset,
    dl: sisd_core::DlParams,
    threads: usize,
    pool: PoolHandle,
    backend: Backend<'a>,
    /// Metrics destination for batch scoring (and, via
    /// [`Evaluator::publish_stats`], the pool gauges).
    obs: ObsHandle,
    /// Batch-scored candidates dropped for a reason *other* than an empty
    /// extension — i.e. numeric model breakdown (`BadPrior`). Zero in
    /// healthy runs; see [`Evaluator::numeric_failures`].
    numeric_failures: AtomicUsize,
}

impl<'a> Evaluator<'a> {
    /// Engine over the Gaussian background model.
    pub fn gaussian(
        data: &'a Dataset,
        model: &'a BackgroundModel,
        dl: sisd_core::DlParams,
        cfg: EvalConfig,
    ) -> Self {
        Self {
            data,
            dl,
            threads: cfg.threads.max(1),
            pool: cfg.pool,
            backend: Backend::Gaussian(Gaussian {
                model,
                cell_sums: OnceLock::new(),
            }),
            obs: cfg.obs,
            numeric_failures: AtomicUsize::new(0),
        }
    }

    /// Engine over the Bernoulli background model.
    pub fn bernoulli(
        data: &'a Dataset,
        model: &'a BinaryBackgroundModel,
        dl: sisd_core::DlParams,
        cfg: EvalConfig,
    ) -> Self {
        Self {
            data,
            dl,
            threads: cfg.threads.max(1),
            pool: cfg.pool,
            backend: Backend::Bernoulli { model },
            obs: cfg.obs,
            numeric_failures: AtomicUsize::new(0),
        }
    }

    /// The dataset candidates are drawn from.
    pub fn data(&self) -> &'a Dataset {
        self.data
    }

    /// Description-length parameters in force.
    pub fn dl_params(&self) -> &sisd_core::DlParams {
        &self.dl
    }

    /// Worker threads used by [`Evaluator::score_all`].
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The metrics/tracing handle the engine reports to.
    pub fn obs(&self) -> ObsHandle {
        self.obs
    }

    /// Samples the point-in-time worker-pool utilization gauges into the
    /// metrics registry. Cheap; a
    /// disabled handle makes it a no-op. Called at the end of every beam
    /// run and by [`crate::Miner::search_report`], so the gauges are fresh
    /// whenever a report is read.
    pub fn publish_stats(&self) {
        let obs = self.obs;
        if !obs.enabled() {
            return;
        }
        // Resolving a global handle would *create* the global pool; only
        // report pools this engine could actually have touched.
        if !self.pool.is_global() || self.threads > 1 {
            let pool = self.pool.get();
            obs.set(Metric::PoolWorkers, pool.workers() as u64);
            obs.set(Metric::PoolJobs, pool.jobs_run());
            obs.set(Metric::PoolTasks, pool.tasks_run());
            obs.set(Metric::PoolQueueWaitNs, pool.queue_wait_ns());
        }
    }

    /// Candidates dropped from batch scoring for a reason other than an
    /// empty extension (numeric model breakdown — e.g. a cell covariance
    /// that no longer factorizes). An empty-extension skip is expected
    /// search behavior; anything counted here means the background model
    /// is degraded and results may be incomplete. Zero in healthy runs.
    pub fn numeric_failures(&self) -> usize {
        self.numeric_failures.load(Ordering::Relaxed)
    }

    /// Records a batch-path scoring failure, distinguishing expected
    /// empty-extension skips from numeric breakdown.
    fn note_failure(&self, e: &SisdError) {
        if !matches!(e, SisdError::Model(ModelError::EmptyExtension)) {
            self.numeric_failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The Gaussian backend on single-target data: the one case in which a
    /// beam level scores its children as sibling lanes
    /// ([`kernels::count_cells_sum_lanes`]), 64 siblings per walk over
    /// their parent's rows. With more target columns the per-child walk
    /// already fills its SIMD lanes with a row's columns, while sibling
    /// lanes would walk the parent once per column; the Bernoulli model
    /// has no row walk.
    fn sibling_lanes(&self) -> Option<&Gaussian<'a>> {
        match &self.backend {
            Backend::Gaussian(gaussian) if self.data.dy() == 1 => Some(gaussian),
            _ => None,
        }
    }

    /// A fresh scoring workspace shaped for this engine's backend.
    fn workspace(&self) -> Workspace {
        let (cells, n) = match &self.backend {
            Backend::Gaussian(Gaussian { model, .. }) => (model.n_cells(), 0),
            Backend::Bernoulli { .. } => (0, self.data.n()),
        };
        let lanes = if self.sibling_lanes().is_some() {
            cells * LANES
        } else {
            0
        };
        let dy = self.data.dy();
        let run = match &self.backend {
            Backend::Gaussian(_) if dy > 1 => ChildRun {
                signatures: vec![Vec::new(); RUN],
                means: vec![vec![0.0; dy]; RUN],
                ..ChildRun::default()
            },
            _ => ChildRun::default(),
        };
        Workspace {
            cell_rows: vec![0; cells],
            signature: Vec::new(),
            mean: vec![0.0; dy],
            stats: LocationScratch::default(),
            ext: BitSet::empty(n),
            lane_counts: vec![0; lanes],
            touched: Vec::new(),
            run,
        }
    }

    /// Observed mean and SI breakdown of one candidate of the given
    /// description arity, from its extension's words — the scoring core
    /// every entry point shares. Leaves the observed mean in `ws.mean`.
    ///
    /// On the Gaussian backend one walk over the candidate's rows yields
    /// its cell-count signature and its target row sum, from which
    /// [`Gaussian::ic`] takes the model statistics.
    fn score_words(
        &self,
        arity: usize,
        ext: &[u64],
        ws: &mut Workspace,
    ) -> SisdResult<LocationScore> {
        let ic = match &self.backend {
            Backend::Gaussian(gaussian) => {
                gaussian.walk(self.data, ext, ws);
                gaussian.ic(self.data, ws)?
            }
            Backend::Bernoulli { model } => {
                ws.ext.copy_from_words(ext);
                if ws.ext.count() == 0 {
                    return Err(ModelError::EmptyExtension.into());
                }
                ws.mean.copy_from_slice(&self.data.target_mean(&ws.ext));
                model.location_ic(&ws.ext, &ws.mean)?
            }
        };
        self.location_score(arity, ic)
    }

    /// The SI breakdown of a candidate of the given description arity and
    /// information content. A NaN or infinite SI (say, from a NaN target
    /// value) is rejected as [`ModelError::NonFinite`], so the batch paths
    /// count it as a numeric failure and no ranking ever sees it.
    fn location_score(&self, arity: usize, ic: f64) -> SisdResult<LocationScore> {
        let dl = self.dl.location_dl(arity);
        let si = ic / dl;
        if !si.is_finite() {
            return Err(ModelError::NonFinite.into());
        }
        Ok(LocationScore { ic, dl, si })
    }

    /// A score for the batch paths: a failure is noted (see
    /// [`Evaluator::numeric_failures`]) and comes back as `None`.
    fn noted(&self, score: SisdResult<LocationScore>) -> Option<LocationScore> {
        score.map_err(|e| self.note_failure(&e)).ok()
    }

    /// [`Evaluator::score_words`] for the batch paths, through
    /// [`Evaluator::noted`].
    fn score_or_note(
        &self,
        arity: usize,
        ext: &[u64],
        ws: &mut Workspace,
    ) -> Option<LocationScore> {
        self.noted(self.score_words(arity, ext, ws))
    }

    /// Scores one location candidate through the same IC formula as
    /// `sisd_core::location_si` (the one-off path). The two agree to
    /// last-ulp rounding, not bit-for-bit: for cell-aligned extensions the
    /// engine aggregates the observed mean from per-cell sums, a different
    /// summation order than `Dataset::target_mean`. Bit-identity is
    /// guaranteed *within* the engine at any thread count.
    pub fn score_location(&self, intention: &Intention, ext: &BitSet) -> SisdResult<Scored> {
        let mut ws = self.workspace();
        let score = self.score_words(intention.len(), ext.words(), &mut ws)?;
        Ok(Scored {
            intention: intention.clone(),
            ext: ext.clone(),
            observed_mean: ws.mean,
            score,
        })
    }

    /// Scores a spread candidate (direction `w`, centred on the subgroup's
    /// empirical mean). Only meaningful on the Gaussian backend; the
    /// Bernoulli model has no spread-pattern syntax.
    pub fn score_spread(
        &self,
        intention: &Intention,
        ext: &BitSet,
        w: &[f64],
    ) -> SisdResult<SpreadScore> {
        match &self.backend {
            Backend::Gaussian(Gaussian { model, .. }) => {
                Ok(spread_si(model, self.data, intention, ext, w, &self.dl)?)
            }
            Backend::Bernoulli { .. } => Err(ModelError::SpreadSolve(
                "spread patterns require the Gaussian background model".into(),
            )
            .into()),
        }
    }

    /// Smallest batch share worth a worker: handing a chunk to the pool
    /// and collecting it costs microseconds, so batches are split into at
    /// most `len / MIN_CHUNK` workers (capped at `threads`) and small
    /// batches run inline. Chunking never affects the scores — only where
    /// they are computed.
    const MIN_CHUNK: usize = 16;

    /// Workers a batch of `len` candidates is split over (1: inline).
    fn workers_for(&self, len: usize) -> usize {
        self.threads.min(len.div_ceil(Self::MIN_CHUNK))
    }

    /// Scores a batch, returning one entry per input candidate in input
    /// order (`None` where scoring failed, e.g. an empty extension).
    ///
    /// With `threads > 1` the batch is split into contiguous chunks of at
    /// least `Evaluator::MIN_CHUNK` candidates, scored on the persistent
    /// worker pool, and merged in chunk order; each candidate's arithmetic
    /// is independent, so the output is bit-identical at any thread count.
    /// Parallelism pays off on wide batches of expensive scores (beam
    /// levels at high `dy`); per-node strategies over cheap scores (e.g.
    /// single-target branch-and-bound) see little benefit.
    pub fn try_score_all(&self, candidates: &[Candidate]) -> Vec<Option<Scored>> {
        let obs = self.obs;
        obs.incr(Metric::EvalBatches);
        let _score_span = obs.span(Metric::EvalScoreNs);
        let score_chunk = |chunk: &[Candidate]| -> Vec<Option<Scored>> {
            let mut ws = self.workspace();
            chunk
                .iter()
                .map(|c| {
                    let score = self.score_or_note(c.intention.len(), c.ext.words(), &mut ws)?;
                    Some(Scored {
                        intention: c.intention.clone(),
                        ext: c.ext.clone(),
                        observed_mean: ws.mean.clone(),
                        score,
                    })
                })
                .collect()
        };
        let workers = self.workers_for(candidates.len());
        let out: Vec<Option<Scored>> = if workers <= 1 {
            score_chunk(candidates)
        } else {
            self.pool
                .run_chunked(candidates.len(), workers, |_, chunk| {
                    score_chunk(&candidates[chunk])
                })
                .into_iter()
                .flatten()
                .collect()
        };
        if obs.enabled() {
            obs.add(
                Metric::EvalScored,
                out.iter().filter(|s| s.is_some()).count() as u64,
            );
        }
        out
    }

    /// [`Evaluator::try_score_all`] with failed candidates dropped (order
    /// preserved) — the shape level-wise searches consume.
    pub fn score_all(&self, candidates: &[Candidate]) -> Vec<Scored> {
        self.try_score_all(candidates)
            .into_iter()
            .flatten()
            .collect()
    }

    /// [`Evaluator::try_score_all`] taking the batch by value: every
    /// candidate's intention and extension **move** into its `Scored` slot
    /// instead of being cloned (same scores, same order, same threading
    /// contract), so an extension allocated once for a candidate is the
    /// allocation its final `LocationPattern` owns.
    pub fn try_score_all_owned(&self, candidates: Vec<Candidate>) -> Vec<Option<Scored>> {
        let obs = self.obs;
        obs.incr(Metric::EvalBatches);
        let _score_span = obs.span(Metric::EvalScoreNs);
        let score_part = |part: Vec<Candidate>| -> Vec<Option<Scored>> {
            let mut ws = self.workspace();
            part.into_iter()
                .map(|c| {
                    let score = self.score_or_note(c.intention.len(), c.ext.words(), &mut ws)?;
                    Some(Scored {
                        intention: c.intention,
                        ext: c.ext,
                        observed_mean: ws.mean.clone(),
                        score,
                    })
                })
                .collect()
        };
        let workers = self.workers_for(candidates.len());
        let out: Vec<Option<Scored>> = if workers <= 1 {
            score_part(candidates)
        } else {
            // Split the owned batch into contiguous per-worker chunks
            // (struct moves, no deep copies), score on the pool's workers
            // — each chunk is consumed by exactly one task — and merge in
            // chunk order: the exact plan of the borrowing path.
            let chunk_size = candidates.len().div_ceil(workers);
            let mut parts: Vec<Vec<Candidate>> = Vec::with_capacity(workers);
            let mut rest = candidates;
            while rest.len() > chunk_size {
                let tail = rest.split_off(chunk_size);
                parts.push(rest);
                rest = tail;
            }
            parts.push(rest);
            self.pool
                .run_consume(parts, workers, score_part)
                .into_iter()
                .flatten()
                .collect()
        };
        if obs.enabled() {
            obs.add(
                Metric::EvalScored,
                out.iter().filter(|s| s.is_some()).count() as u64,
            );
        }
        out
    }

    /// [`Evaluator::try_score_all_owned`] with failed candidates dropped
    /// (order preserved).
    pub fn score_all_owned(&self, candidates: Vec<Candidate>) -> Vec<Scored> {
        self.try_score_all_owned(candidates)
            .into_iter()
            .flatten()
            .collect()
    }

    /// Scores children `range` of `children`, all of description arity
    /// `arity`, and hands each success to `each(child, score, mean)` in
    /// child order; failures are noted.
    ///
    /// With [`Evaluator::sibling_lanes`], a run of consecutive children of
    /// one parent through one block of [`LANES`] conditions is one group:
    /// [`kernels::count_cells_sum_lanes`] walks the parent's rows once and
    /// reads each row's membership word from the matrix's row-major view,
    /// which yields every child's per-cell counts and target sum. A child's
    /// signature is then its lane's nonzero counts over the cells the
    /// parent covers, in cell order, and [`Gaussian::ic`] scores it — the
    /// same integers and bits the per-child walk produces. Otherwise each
    /// child's words are ANDed from its parent and mask into one buffer
    /// just before it is walked; on the Gaussian backend (`dy > 1`) up to
    /// [`RUN`] walked children then get their model statistics together
    /// ([`Evaluator::solve_run`]).
    fn score_each(
        &self,
        children: &ChildBatch<'_>,
        range: Range<usize>,
        arity: usize,
        ws: &mut Workspace,
        mut each: impl FnMut(usize, LocationScore, &[f64]),
    ) {
        if let Some(gaussian) = self.sibling_lanes() {
            self.score_siblings(gaussian, children, range, arity, ws, each);
            return;
        }
        let mut words = vec![0; children.n().div_ceil(WORD_BITS)];
        let Backend::Gaussian(gaussian) = &self.backend else {
            for child in range {
                children.child_words_into(child, &mut words);
                if let Some(score) = self.score_or_note(arity, &words, ws) {
                    each(child, score, &ws.mean);
                }
            }
            return;
        };
        for child in range {
            children.child_words_into(child, &mut words);
            gaussian.walk(self.data, &words, ws);
            if let Err(e) = gaussian.observed_mean(self.data, &ws.signature, &mut ws.mean) {
                self.note_failure(&e.into());
                continue;
            }
            let run = &mut ws.run;
            run.children[run.len] = child;
            std::mem::swap(&mut run.signatures[run.len], &mut ws.signature);
            std::mem::swap(&mut run.means[run.len], &mut ws.mean);
            run.len += 1;
            if run.len == RUN {
                self.solve_run(gaussian, arity, run, &mut each);
            }
        }
        self.solve_run(gaussian, arity, &mut ws.run, &mut each);
    }

    /// Scores the children waiting in `run` from their signatures and
    /// observed means through [`BackgroundModel::location_stats_run`] —
    /// each child's statistics carry the bits [`Gaussian::ic`] computes for
    /// it alone — hands each success to `each` in slot order, and empties
    /// the run.
    fn solve_run(
        &self,
        gaussian: &Gaussian<'_>,
        arity: usize,
        run: &mut ChildRun,
        each: &mut impl FnMut(usize, LocationScore, &[f64]),
    ) {
        let ChildRun {
            len,
            children,
            signatures,
            means,
            stats,
        } = run;
        if *len == 0 {
            return;
        }
        let items: [LocationCandidate<'_>; RUN] =
            std::array::from_fn(|j| (signatures[j].as_slice(), means[j].as_slice()));
        let dy = self.data.dy();
        gaussian
            .model
            .location_stats_run(&items[..*len], stats, |j, outcome| {
                let score = outcome
                    .map_err(SisdError::from)
                    .and_then(|s| self.location_score(arity, location_ic_of_stats(s, dy)));
                if let Some(score) = self.noted(score) {
                    each(children[j], score, &means[j]);
                }
            });
        *len = 0;
    }

    /// [`Evaluator::score_each`] on single-target data: the sibling walk.
    fn score_siblings(
        &self,
        gaussian: &Gaussian<'_>,
        children: &ChildBatch<'_>,
        range: Range<usize>,
        arity: usize,
        ws: &mut Workspace,
        mut each: impl FnMut(usize, LocationScore, &[f64]),
    ) {
        let cell_of_row = gaussian.model.cell_of_row();
        let targets = self.data.targets().as_slice();
        let metas = children.metas();
        let mut sums = [0.0; LANES];
        // The parent whose covered cells `ws.touched` holds.
        let mut touched_by = None;
        let mut lo = range.start;
        while lo < range.end {
            let (parent, block) = (metas[lo].parent, metas[lo].row / LANES);
            let group = metas[lo..range.end]
                .iter()
                .take_while(|m| m.parent == parent && m.row / LANES == block)
                .count();
            let ext = children.parent_words(parent);
            if touched_by != Some(parent) {
                touched_by = Some(parent);
                ws.touch_cells(ext, cell_of_row);
            }
            let select = metas[lo..lo + group]
                .iter()
                .fold(0u64, |s, m| s | 1 << (m.row % LANES));
            let members = (children.matrix().lane_words(block), select);
            kernels::count_cells_sum_lanes(
                ext,
                members,
                cell_of_row,
                &mut ws.lane_counts,
                targets,
                &mut sums,
            );
            for (child, meta) in (lo..).zip(&metas[lo..lo + group]) {
                let lane = meta.row % LANES;
                ws.lane_signature(lane);
                ws.mean[0] = sums[lane];
                let score = gaussian
                    .ic(self.data, ws)
                    .and_then(|ic| self.location_score(arity, ic));
                if let Some(score) = self.noted(score) {
                    each(child, score, &ws.mean);
                }
            }
            ws.clear_lanes();
            lo += group;
        }
    }

    /// Scores children `range` of frontier batch number `batch`, all of
    /// description arity `arity`, through [`Evaluator::score_each`],
    /// appending one [`LevelRec`] per success to `out`, in child order.
    /// The batch-path contract of [`Evaluator::try_score_all`] holds —
    /// same per-candidate results, chunks merged in order, bit-identical
    /// at any thread count — but nothing is allocated per candidate:
    /// serial scoring reuses `ws`, and each pooled chunk owns one
    /// workspace.
    ///
    /// A child's observed mean is kept only if the top-k log could still
    /// take it: `log` holds the SIs already in the log (descending) and
    /// `top_k` its size, and each chunk files its own children into a copy
    /// of it under the log's rule ([`admit`]). The log itself only ever
    /// sees more entries ahead of a child than its chunk's copy did, so
    /// every child the log takes has its mean kept.
    fn score_children(
        &self,
        (batch, children): (usize, &ChildBatch<'_>),
        range: Range<usize>,
        arity: usize,
        (log, top_k): (&[f64], usize),
        ws: &mut Workspace,
        out: &mut LevelScores,
    ) {
        let obs = self.obs;
        obs.incr(Metric::EvalBatches);
        let _score_span = obs.span(Metric::EvalScoreNs);
        let before = out.recs.len();
        let dy = ws.mean.len();
        let score_range = |range: Range<usize>, ws: &mut Workspace, out: &mut LevelScores| {
            let mut gate = Vec::with_capacity(top_k + 1);
            gate.extend_from_slice(log);
            self.score_each(children, range, arity, ws, |child, score, mean| {
                let mean = if admit(&mut gate, top_k, score.si, |&q| q, score.si) {
                    let slot = out.means.len() / dy.max(1);
                    out.means.extend_from_slice(mean);
                    slot
                } else {
                    NO_MEAN
                };
                out.recs.push(LevelRec {
                    batch,
                    child,
                    score,
                    mean,
                });
            });
        };
        let workers = self.workers_for(range.len());
        if workers <= 1 {
            score_range(range, ws, out);
        } else {
            let lo = range.start;
            let parts = self.pool.run_chunked(range.len(), workers, |_, chunk| {
                let mut part = LevelScores::default();
                part.reset(chunk.len());
                score_range(
                    lo + chunk.start..lo + chunk.end,
                    &mut self.workspace(),
                    &mut part,
                );
                part
            });
            for part in &parts {
                out.append(part, dy);
            }
        }
        if obs.enabled() {
            obs.add(Metric::EvalScored, (out.recs.len() - before) as u64);
        }
    }
}

// ----------------------------------------------------------------------
// The shared level-wise beam loop
// ----------------------------------------------------------------------

/// The description language of a search, evaluated over its dataset:
/// every base condition and its row mask. A standalone search builds it
/// once; a [`crate::Miner`] builds it on its first search and every later
/// search reuses it, since neither the dataset nor the condition settings
/// change under a miner.
#[derive(Debug, Clone)]
pub(crate) struct SearchLanguage {
    pub(crate) conditions: Vec<Condition>,
    /// Every condition mask in one contiguous arena; every level of every
    /// search refines against the same rows.
    pub(crate) masks: MaskMatrix,
}

impl SearchLanguage {
    pub(crate) fn new(data: &Dataset, refine: &RefineConfig) -> Self {
        let conditions = generate_conditions(data, refine);
        let masks = MaskMatrix::evaluate(data, &conditions);
        Self { conditions, masks }
    }
}

/// Conjunctions of up to this many conditions have an inline
/// [`ConjunctionKey`].
const INLINE_ARITY: usize = 4;

/// Canonical dedup key of a conjunction: its condition indices sorted
/// ascending, so `a ∧ b` and `b ∧ a` are one key. Conditions are unique
/// within a search (`generate_conditions` never emits two equal ones), so
/// equal index sets are exactly equal conjunctions. Up to
/// [`INLINE_ARITY`] indices sit inline, padded with `u32::MAX`, and cost
/// no allocation; a longer conjunction spills to an exact owned copy.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum ConjunctionKey {
    Inline([u32; INLINE_ARITY]),
    Spilled(Box<[u32]>),
}

impl ConjunctionKey {
    /// The key of the empty conjunction.
    const ROOT: Self = Self::Inline([u32::MAX; INLINE_ARITY]);

    /// The sorted condition indices.
    fn indices(&self) -> &[u32] {
        match self {
            Self::Inline(key) => {
                let len = key
                    .iter()
                    .position(|&c| c == u32::MAX)
                    .unwrap_or(INLINE_ARITY);
                &key[..len]
            }
            Self::Spilled(key) => key,
        }
    }

    /// The key of this conjunction with condition `row` added.
    fn with(&self, row: usize) -> Self {
        let row = u32::try_from(row).expect("condition index fits in u32");
        let parent = self.indices();
        let (lo, hi) = parent.split_at(parent.partition_point(|&c| c < row));
        if parent.len() < INLINE_ARITY {
            let mut key = [u32::MAX; INLINE_ARITY];
            key[..lo.len()].copy_from_slice(lo);
            key[lo.len()] = row;
            key[lo.len() + 1..=parent.len()].copy_from_slice(hi);
            Self::Inline(key)
        } else {
            Self::Spilled(lo.iter().chain([&row]).chain(hi).copied().collect())
        }
    }
}

/// Canonical key of a whole intention from its condition fingerprints,
/// for tests that check a search log's intentions are unique as
/// unordered condition sets.
#[cfg(test)]
pub(crate) fn intention_key(intention: &Intention) -> Vec<(usize, u8, u64)> {
    use sisd_core::ConditionOp;
    let mut key: Vec<(usize, u8, u64)> = intention
        .conditions()
        .iter()
        .map(|c| match c.op {
            ConditionOp::Ge(t) => (c.attr, 0u8, t.to_bits()),
            ConditionOp::Le(t) => (c.attr, 1u8, t.to_bits()),
            ConditionOp::Eq(l) => (c.attr, 2u8, u64::from(l)),
        })
        .collect();
    key.sort_unstable();
    key
}

/// Where a top-k entry's pattern is.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// Built at an earlier level's end: index into [`TopK::kept`].
    Kept(usize),
    /// Admitted from the level being scored: index of its record.
    Pending(usize),
}

/// Bounded, sorted top-k pattern log over compact entries: a candidate is
/// admitted on its SI alone, and its pattern is built only when its level
/// ends ([`TopK::settle`]) and only if it is still in the log then.
pub(crate) struct TopK {
    k: usize,
    /// Admitted entries by SI descending; ties keep push order.
    items: Vec<(f64, Slot)>,
    /// The settled patterns, in `items` order as of the last settle.
    kept: Vec<LocationPattern>,
}

impl TopK {
    pub(crate) fn new(k: usize) -> Self {
        Self {
            k,
            items: Vec::with_capacity(k + 1),
            kept: Vec::new(),
        }
    }

    /// Offers level record `rec` with SI `si`: it is filed after every
    /// entry of equal or higher SI, and the log is cut back to `k`.
    fn push(&mut self, si: f64, rec: usize) {
        admit(
            &mut self.items,
            self.k,
            si,
            |q| q.0,
            (si, Slot::Pending(rec)),
        );
    }

    /// The SIs in the log, highest first, into `out`.
    fn sis_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.items.iter().map(|q| q.0));
    }

    /// Builds the pattern of every entry still pending with `build(rec)`,
    /// so the log owns all its patterns before the level's storage goes.
    fn settle(&mut self, mut build: impl FnMut(usize) -> LocationPattern) {
        // Entries never reorder and evictions only remove, so the kept
        // indices still referenced ascend along `items`: one forward pass
        // over the old patterns takes them and drops the evicted ones.
        let mut old = std::mem::take(&mut self.kept).into_iter().enumerate();
        self.kept.reserve(self.items.len());
        for (i, (_, slot)) in self.items.iter_mut().enumerate() {
            let pattern = match *slot {
                Slot::Kept(j) => {
                    old.find(|&(at, _)| at == j)
                        .expect("a kept entry's pattern is still held")
                        .1
                }
                Slot::Pending(rec) => build(rec),
            };
            self.kept.push(pattern);
            *slot = Slot::Kept(i);
        }
    }

    /// The log, once every level has been settled.
    pub(crate) fn into_vec(self) -> Vec<LocationPattern> {
        debug_assert!(self.items.iter().all(|e| matches!(e.1, Slot::Kept(_))));
        self.kept
    }
}

/// Outcome of [`run_beam_levels`].
pub(crate) struct BeamLevelsOutcome {
    pub(crate) top: Vec<LocationPattern>,
    pub(crate) evaluated: usize,
    pub(crate) timed_out: bool,
    pub(crate) degraded: usize,
}

/// A frontier parent: a pattern kept from the previous level (or the
/// root).
struct BeamParent {
    intention: Intention,
    ext: BitSet,
    key: ConjunctionKey,
}

/// The level-wise beam search (paper §II-D), generic over the evaluation
/// backend: generate each level's candidates through the batched frontier
/// subsystem (`sisd-frontier` — count-first mask AND + coverage filters
/// over the language's condition bit-matrix on the calling thread,
/// children in serial `(parent, condition)` order), with the
/// canonical-conjunction dedup running as the builder's keep predicate on
/// the support counts — a duplicate conjunction is dropped before it is
/// scored. Dedup still happens after the structural filters, first wins
/// in `(parent, condition)` order (exactly as in the serial nested loop),
/// and it consults the `seen` set only where a duplicate can arise: the
/// parents are distinct conjunctions, so two children `K_p ∪ {r}` and
/// `K_q ∪ {r'}` of different parents can be equal only if `r ∈ K_q`, and
/// a child through a condition in no parent's key is unique. The whole
/// level is then scored through the engine and the `width` best become
/// the next frontier.
///
/// A level allocates `O(width + top_k)`, not `O(candidates)`: children
/// are scored from the `ChildBatch`'s borrowed parent and mask words into
/// compact records (score plus a slot in one flat observed-mean buffer),
/// the dedup key is inline, and the top-k log admits candidates on their
/// SI. An `Intention`, an owned extension and a pattern are built only for
/// a candidate that becomes a next-level parent or is still in the top-k
/// log when its level ends. The log sees the same pushes in the same
/// order as pushing every scored candidate as a pattern, so it is
/// bit-identical to that.
///
/// The wall-clock budget is honoured during both phases of a level:
/// candidate *generation* checks it between frontier-parent slices, and
/// scoring checks it between bounded slices (one thread-round of chunks),
/// so overshoot is limited to one slice of generation plus one slice of
/// scoring. Everything scored before expiry is still logged — a timed-out
/// search reports every candidate it committed to, like the incremental
/// searches it replaced.
pub(crate) fn run_beam_levels(
    ev: &Evaluator<'_>,
    cfg: &BeamConfig,
    language: &SearchLanguage,
    start: Instant,
) -> BeamLevelsOutcome {
    let obs = ev.obs();
    obs.incr(Metric::SearchRuns);
    let data = ev.data();
    let dy = data.dy();
    let SearchLanguage { conditions, masks } = language;
    let builder = FrontierBuilder::new(
        masks,
        FrontierConfig {
            min_support: cfg.min_coverage,
            obs,
        },
    );
    let max_cov =
        ((data.n() as f64 * cfg.max_coverage_fraction).floor() as usize).max(cfg.min_coverage);

    let mut top = TopK::new(cfg.top_k);
    let mut evaluated = 0usize;
    let mut timed_out = false;
    // Keys of one level's conjunctions all have the level's arity, so no
    // key can repeat across levels: the set is cleared (keeping its
    // capacity) per level.
    let mut seen: HashSet<ConjunctionKey> = HashSet::new();
    // `in_a_key[c]`: condition `c` occurs in some parent's key, so a child
    // through it may duplicate another parent's child.
    let mut in_a_key = vec![false; conditions.len()];
    let mut parents = vec![BeamParent {
        intention: Intention::empty(),
        ext: BitSet::full(data.n()),
        key: ConjunctionKey::ROOT,
    }];
    let mut ws = ev.workspace();
    let mut level = LevelScores::default();
    let mut order: Vec<usize> = Vec::new();
    let mut log_sis: Vec<f64> = Vec::with_capacity(cfg.top_k);

    for depth in 1..=cfg.max_depth {
        obs.incr(Metric::SearchLevels);
        let _level_span = obs.span(Metric::SearchLevelNs);
        // The parent's own coverage caps its children: a child covering as
        // many rows as its parent is the same extension with a longer
        // description (dominated), so the per-parent ceiling is one less.
        let specs: Vec<ParentSpec<'_>> = parents
            .iter()
            .map(|p| ParentSpec {
                ext: &p.ext,
                max_support: max_cov.min(p.ext.count().saturating_sub(1)),
            })
            .collect();
        let allowed = |p: usize, row: usize| !parents[p].intention.conflicts_with(&conditions[row]);
        seen.clear();
        in_a_key.fill(false);
        for parent in &parents {
            for &c in parent.key.indices() {
                in_a_key[c as usize] = true;
            }
        }
        let unique = |p: usize, row: usize, seen: &mut HashSet<ConjunctionKey>| {
            !in_a_key[row] || seen.insert(parents[p].key.with(row))
        };
        // Each frontier batch with the index of its first parent; the keep
        // predicate ran the first-wins dedup on the support counts, so the
        // batches hold exactly the survivors.
        let mut batches: Vec<(usize, ChildBatch<'_>)> = Vec::new();
        match cfg.time_budget {
            // No budget: one batch.
            None => {
                let children = builder
                    .refine_with_prune(&specs, allowed, |p, row, _| unique(p, row, &mut seen));
                batches.push((0, children));
            }
            // Budgeted: refine in slices of `threads` parents so the
            // elapsed check runs between slices; a slice, once started,
            // completes (bounded overshoot).
            Some(budget) => {
                let slice = ev.threads().max(1);
                for (s, chunk) in specs.chunks(slice).enumerate() {
                    if start.elapsed() > budget {
                        timed_out = true;
                        break;
                    }
                    let base = s * slice;
                    let children = builder.refine_with_prune(
                        chunk,
                        |p, row| allowed(base + p, row),
                        |p, row, _| unique(base + p, row, &mut seen),
                    );
                    batches.push((base, children));
                }
            }
        }
        drop(specs);
        level.reset(batches.iter().map(|(_, c)| c.len()).sum());
        top.sis_into(&mut log_sis);
        let log = (log_sis.as_slice(), cfg.top_k);
        'scoring: for (b, (_, children)) in batches.iter().enumerate() {
            match cfg.time_budget {
                // No budget: the batch in one go, maximally parallel.
                None => ev.score_children(
                    (b, children),
                    0..children.len(),
                    depth,
                    log,
                    &mut ws,
                    &mut level,
                ),
                // Budgeted: score in slices sized to one full thread-round
                // so the elapsed check runs between slices; a slice, once
                // submitted, completes (bounded overshoot).
                Some(budget) => {
                    let slice = (ev.threads() * Evaluator::MIN_CHUNK).max(64);
                    let mut lo = 0;
                    while lo < children.len() {
                        if start.elapsed() > budget {
                            timed_out = true;
                            break 'scoring;
                        }
                        let hi = children.len().min(lo + slice);
                        ev.score_children((b, children), lo..hi, depth, log, &mut ws, &mut level);
                        lo = hi;
                    }
                }
            }
        }
        evaluated += level.recs.len();
        for (r, rec) in level.recs.iter().enumerate() {
            top.push(rec.score.si, r);
        }
        // The parent and condition a record's child refines.
        let origin = |batch: usize, child: usize| {
            let (base, children) = &batches[batch];
            let meta = children.meta(child);
            (&parents[base + meta.parent], meta.row, children)
        };
        let done = timed_out || level.recs.is_empty();
        // Select the next frontier (when another level follows): by SI
        // descending, ties in scored order — the order a stable sort of
        // the level produced — keeping the `width` best.
        let mut next = Vec::new();
        if !done && depth < cfg.max_depth {
            let recs = &level.recs;
            let by_si = |a: &usize, b: &usize| {
                recs[*b]
                    .score
                    .si
                    .total_cmp(&recs[*a].score.si)
                    .then(a.cmp(b))
            };
            order.clear();
            order.extend(0..recs.len());
            if order.len() > cfg.width {
                order.select_nth_unstable_by(cfg.width, by_si);
                order.truncate(cfg.width);
            }
            order.sort_unstable_by(by_si);
            next = order
                .iter()
                .map(|&r| {
                    let (parent, row, children) = origin(recs[r].batch, recs[r].child);
                    BeamParent {
                        intention: parent.intention.with(conditions[row]),
                        ext: children.child_bitset(recs[r].child),
                        key: parent.key.with(row),
                    }
                })
                .collect();
        }
        // Patterns for the log's entries from this level, while their
        // parents and batches are still here.
        top.settle(|r| {
            let rec = &level.recs[r];
            assert_ne!(
                rec.mean, NO_MEAN,
                "the log took a child whose mean was dropped"
            );
            let (parent, row, children) = origin(rec.batch, rec.child);
            LocationPattern {
                intention: parent.intention.with(conditions[row]),
                extension: children.child_bitset(rec.child),
                observed_mean: level.means[rec.mean * dy..(rec.mean + 1) * dy].to_vec(),
                score: rec.score,
            }
        });
        drop(batches);
        if done {
            break;
        }
        parents = next;
    }
    ev.publish_stats();

    BeamLevelsOutcome {
        top: top.into_vec(),
        evaluated,
        timed_out,
        degraded: ev.numeric_failures(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sisd_core::DlParams;
    use sisd_data::datasets::synthetic_paper;

    fn fixture() -> (Dataset, BackgroundModel) {
        let (data, _) = synthetic_paper(42);
        let model = BackgroundModel::from_empirical(&data).unwrap();
        (data, model)
    }

    fn candidates(data: &Dataset, k: usize) -> Vec<Candidate> {
        use sisd_stats::Xoshiro256pp;
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        (0..k)
            .map(|_| Candidate {
                intention: Intention::empty(),
                ext: BitSet::from_indices(data.n(), rng.sample_indices(data.n(), 30)),
            })
            .collect()
    }

    #[test]
    fn batch_scoring_matches_single_scoring() {
        let (data, model) = fixture();
        let ev = Evaluator::gaussian(&data, &model, DlParams::default(), EvalConfig::default());
        let cands = candidates(&data, 12);
        let batch = ev.score_all(&cands);
        assert_eq!(batch.len(), cands.len());
        for (c, s) in cands.iter().zip(&batch) {
            let single = ev.score_location(&c.intention, &c.ext).unwrap();
            assert_eq!(single.score.si, s.score.si);
            assert_eq!(single.observed_mean, s.observed_mean);
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let (data, mut model) = fixture();
        // Mixed covariances: exercise the dense branch too.
        let half = BitSet::from_indices(data.n(), 0..data.n() / 2);
        let mean = data.target_mean(&half);
        let mut w = vec![1.0, 0.0];
        sisd_linalg::normalize(&mut w);
        let v = data.target_variance_along(&half, &w);
        model.assimilate_spread(&half, w, mean, v).unwrap();

        // Enough candidates that every thread setting splits into several
        // MIN_CHUNK-sized chunks (the pooled path really runs).
        let cands = candidates(&data, 67);
        let serial = {
            let ev = Evaluator::gaussian(&data, &model, DlParams::default(), EvalConfig::default());
            ev.score_all(&cands)
        };
        for threads in [2usize, 4, 7] {
            let ev = Evaluator::gaussian(
                &data,
                &model,
                DlParams::default(),
                EvalConfig::with_threads(threads),
            );
            let parallel = ev.score_all(&cands);
            assert_eq!(parallel.len(), serial.len());
            for (a, b) in parallel.iter().zip(&serial) {
                assert_eq!(a.score.ic.to_bits(), b.score.ic.to_bits(), "t={threads}");
                assert_eq!(a.score.si.to_bits(), b.score.si.to_bits(), "t={threads}");
                assert_eq!(a.observed_mean, b.observed_mean);
            }
        }
    }

    #[test]
    fn owned_scoring_moves_the_extension_allocation() {
        let (data, model) = fixture();
        let ev = Evaluator::gaussian(&data, &model, DlParams::default(), EvalConfig::default());
        let cands = candidates(&data, 5);
        let batch = cands.clone();
        let ptrs: Vec<*const u64> = batch.iter().map(|c| c.ext.words().as_ptr()).collect();
        let scored = ev.score_all_owned(batch);
        assert_eq!(scored.len(), 5);
        // The owned results carry the same scores as the borrowing path.
        let borrowed = ev.score_all(&cands);
        for (a, b) in scored.iter().zip(&borrowed) {
            assert_eq!(a.score.si.to_bits(), b.score.si.to_bits());
        }
        // The extension buffer moves untouched from candidate to scored
        // result to user-facing pattern: one allocation end to end.
        for (s, (c, ptr)) in scored.into_iter().zip(cands.iter().zip(&ptrs)) {
            assert_eq!(s.ext, c.ext, "same extension value");
            assert_eq!(
                s.ext.words().as_ptr(),
                *ptr,
                "owned scoring must move the extension's heap buffer, not clone it"
            );
            let p = s.into_pattern();
            assert_eq!(p.extension.words().as_ptr(), *ptr);
        }
    }

    #[test]
    fn owned_scoring_matches_borrowed_across_threads_and_failures() {
        let (data, model) = fixture();
        let mut cands = candidates(&data, 40);
        cands[7].ext = BitSet::empty(data.n()); // one failing slot
        for threads in [1usize, 3] {
            let ev = Evaluator::gaussian(
                &data,
                &model,
                DlParams::default(),
                EvalConfig::with_threads(threads),
            );
            let owned = ev.try_score_all_owned(cands.clone());
            let borrowed = ev.try_score_all(&cands);
            assert_eq!(owned.len(), borrowed.len());
            for (i, (a, b)) in owned.iter().zip(&borrowed).enumerate() {
                match (a, b) {
                    (Some(x), Some(y)) => {
                        assert_eq!(
                            x.score.si.to_bits(),
                            y.score.si.to_bits(),
                            "t={threads} i={i}"
                        );
                        assert_eq!(x.ext, y.ext);
                    }
                    (None, None) => assert_eq!(i, 7, "only the empty extension may fail"),
                    _ => panic!("owned/borrowed disagree at slot {i} (threads={threads})"),
                }
            }
        }
    }

    #[test]
    fn failed_candidates_keep_their_slot_in_try_score_all() {
        let (data, model) = fixture();
        let ev = Evaluator::gaussian(&data, &model, DlParams::default(), EvalConfig::default());
        let cands = vec![
            Candidate {
                intention: Intention::empty(),
                ext: BitSet::from_indices(data.n(), 0..20),
            },
            Candidate {
                intention: Intention::empty(),
                ext: BitSet::empty(data.n()),
            },
            Candidate {
                intention: Intention::empty(),
                ext: BitSet::from_indices(data.n(), 40..80),
            },
        ];
        let out = ev.try_score_all(&cands);
        assert_eq!(out.len(), 3);
        assert!(out[0].is_some());
        assert!(out[1].is_none(), "empty extension must fail, not panic");
        assert!(out[2].is_some());
        assert_eq!(ev.score_all(&cands).len(), 2);
        // Empty-extension skips are expected behavior, not numeric
        // breakdown — the degradation counter stays clean.
        assert_eq!(ev.numeric_failures(), 0);
    }

    #[test]
    fn cell_aligned_candidates_use_aggregated_means() {
        let (data, mut model) = fixture();
        let ext = BitSet::from_indices(data.n(), 0..40);
        let mean = data.target_mean(&ext);
        model.assimilate_location(&ext, mean.clone()).unwrap();
        let ev = Evaluator::gaussian(&data, &model, DlParams::default(), EvalConfig::default());
        // `ext` is now exactly one parameter cell: the aggregate path runs.
        let s = ev.score_location(&Intention::empty(), &ext).unwrap();
        for (a, b) in s.observed_mean.iter().zip(&mean) {
            assert!((a - b).abs() < 1e-12);
        }
        // A straddling candidate takes the row-scan path; same numbers as
        // the core scoring function either way.
        let straddle = BitSet::from_indices(data.n(), 20..60);
        let s2 = ev.score_location(&Intention::empty(), &straddle).unwrap();
        let reference = sisd_core::location_si(
            &model,
            &data,
            &Intention::empty(),
            &straddle,
            &DlParams::default(),
        )
        .unwrap();
        assert_eq!(s2.score.si, reference.si);
    }

    #[test]
    fn conjunction_keys_ignore_order_and_stay_exact_past_the_inline_arity() {
        let key = |rows: &[usize]| {
            rows.iter()
                .fold(ConjunctionKey::ROOT, |key, &row| key.with(row))
        };
        assert_eq!(ConjunctionKey::ROOT.indices(), &[] as &[u32]);
        assert_eq!(key(&[7, 2, 5]), key(&[5, 7, 2]));
        assert_eq!(key(&[7, 2, 5]).indices(), &[2, 5, 7]);
        assert!(matches!(key(&[1, 2, 3, 4]), ConjunctionKey::Inline(_)));
        assert_ne!(key(&[1, 2, 3]), key(&[1, 2, 4]));
        // Five conditions spill to an owned copy, still order-free.
        let spilled = key(&[9, 0, 4, 6, 2]);
        assert!(matches!(spilled, ConjunctionKey::Spilled(_)));
        assert_eq!(spilled, key(&[2, 4, 6, 9, 0]));
        assert_eq!(spilled.indices(), &[0, 2, 4, 6, 9]);
        assert_ne!(spilled, key(&[9, 0, 4, 6, 3]));
    }

    #[test]
    fn top_k_log_equals_a_stable_sort_of_every_push() {
        use sisd_stats::Xoshiro256pp;
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let pattern = |si: f64, tag: usize| LocationPattern {
            intention: Intention::empty(),
            extension: BitSet::empty(tag + 1),
            observed_mean: vec![],
            score: LocationScore {
                ic: si,
                dl: 1.0,
                si,
            },
        };
        for k in [0usize, 1, 5, 40] {
            let mut top = TopK::new(k);
            let mut pushed: Vec<(f64, usize)> = Vec::new();
            for _level in 0..4 {
                let base = pushed.len();
                // Coarse SIs, so ties across and within levels are common.
                let sis: Vec<f64> = (0..30).map(|_| rng.below(12) as f64).collect();
                for (r, &si) in sis.iter().enumerate() {
                    top.push(si, r);
                    pushed.push((si, base + r));
                }
                top.settle(|r| pattern(sis[r], base + r));
            }
            // Stable sort by SI descending: ties keep push order.
            pushed.sort_by(|a, b| b.0.total_cmp(&a.0));
            pushed.truncate(k);
            let got: Vec<(f64, usize)> = top
                .into_vec()
                .iter()
                .map(|p| (p.score.si, p.extension.len() - 1))
                .collect();
            assert_eq!(got, pushed, "k={k}");
        }
    }

    #[test]
    fn spread_scoring_requires_gaussian_backend() {
        let (data, model) = fixture();
        let ev = Evaluator::gaussian(&data, &model, DlParams::default(), EvalConfig::default());
        let ext = BitSet::from_indices(data.n(), 0..40);
        let mut w = vec![1.0, 1.0];
        sisd_linalg::normalize(&mut w);
        assert!(ev.score_spread(&Intention::empty(), &ext, &w).is_ok());
    }
}
