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
//!   safely) inside the model's cells, and mixed-covariance factorizations
//!   are memoized per **cell-count signature** in a
//!   [`sisd_model::FactorCache`] that lives and dies with the evaluator.
//!   There is no warm-up protocol and no panic path for a missing factor.
//! * **Observed-mean aggregation.** The subgroup mean of a candidate whose
//!   extension is exactly a union of parameter cells is assembled from
//!   precomputed per-cell target sums instead of a full row scan; the cell
//!   intersection counts are computed once per candidate and shared with
//!   the model-statistics query.
//! * **Deterministic parallelism.** [`Evaluator::score_all`] splits a
//!   batch into contiguous chunks, scores them on the persistent
//!   `sisd-par` worker pool, and merges in chunk order. Each candidate's
//!   arithmetic is independent of every other's, so the results are
//!   **bit-identical at any thread count** — searches may be parallelized
//!   without changing their output.

use crate::refine::generate_conditions;
use crate::BeamConfig;
use sisd_core::SisdError;
use sisd_core::{
    location_ic_of_stats, spread_si, Condition, ConditionOp, Intention, LocationPattern,
    LocationScore, SisdResult, SpreadScore,
};
use sisd_data::{BitSet, Dataset};
use sisd_frontier::{FrontierBuilder, FrontierConfig, MaskMatrix, ParentSpec};
use sisd_model::{BackgroundModel, BinaryBackgroundModel, FactorCache, ModelError};
use sisd_obs::{Metric, ObsHandle};
use sisd_par::PoolHandle;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
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
    Gaussian {
        model: &'a BackgroundModel,
        /// Mixed-covariance factorizations memoized by covariance-value
        /// signature. Shared (`Arc`) so a long-lived cache — e.g. the
        /// [`crate::Miner`]'s, surviving across searches and assimilations
        /// of one model lineage — can be plugged in; the default is a
        /// private cache that lives and dies with the evaluator.
        cache: Arc<FactorCache>,
        /// Per-cell sums of the dataset's target rows, aligned with
        /// `model.cells()`; built on first use.
        cell_sums: OnceLock<Vec<Vec<f64>>>,
    },
    /// The Bernoulli MaxEnt model for 0/1 targets (§V extension).
    Bernoulli { model: &'a BinaryBackgroundModel },
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
    /// [`Evaluator::publish_stats`], the cache/pool gauges).
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
        Self::gaussian_with_cache(data, model, dl, cfg, Arc::new(FactorCache::new()))
    }

    /// Engine over the Gaussian background model with an externally-owned
    /// factor cache. Entries are keyed by covariance-value signature and
    /// pinned to one model lineage, so the same cache stays valid across
    /// repeated searches and assimilations of one evolving model; a cache
    /// pinned to a different lineage is bypassed, never corrupted.
    pub fn gaussian_with_cache(
        data: &'a Dataset,
        model: &'a BackgroundModel,
        dl: sisd_core::DlParams,
        cfg: EvalConfig,
        cache: Arc<FactorCache>,
    ) -> Self {
        Self {
            data,
            dl,
            threads: cfg.threads.max(1),
            pool: cfg.pool,
            backend: Backend::Gaussian {
                model,
                cache,
                cell_sums: OnceLock::new(),
            },
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

    /// The worker pool parallel stages run on.
    pub fn pool(&self) -> PoolHandle {
        self.pool
    }

    /// The metrics/tracing handle the engine reports to.
    pub fn obs(&self) -> ObsHandle {
        self.obs
    }

    /// Samples the point-in-time gauges — factor-cache hit/miss/occupancy
    /// and worker-pool utilization — into the metrics registry. Cheap; a
    /// disabled handle makes it a no-op. Called at the end of every beam
    /// run and by [`crate::Miner::search_report`], so the gauges are fresh
    /// whenever a report is read.
    pub fn publish_stats(&self) {
        let obs = self.obs;
        if !obs.enabled() {
            return;
        }
        if let Backend::Gaussian { cache, .. } = &self.backend {
            obs.set(Metric::CacheHits, cache.hits());
            obs.set(Metric::CacheMisses, cache.misses());
            obs.set(Metric::CacheEntries, cache.len() as u64);
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

    /// Observed subgroup mean of `ext`, given its cell-count signature.
    ///
    /// When every intersected cell is *fully* inside the extension the mean
    /// is assembled from per-cell target sums (`O(cells · dy)`) instead of
    /// a row scan (`O(|I| · dy)`) — the case for re-scored assimilated
    /// subgroups and any candidate aligned with the constraint partition.
    fn observed_mean(&self, ext: &BitSet, counts: &[(usize, usize)]) -> Vec<f64> {
        if let Backend::Gaussian {
            model, cell_sums, ..
        } = &self.backend
        {
            let cells = model.cells();
            if !counts.is_empty() && counts.iter().all(|&(g, c)| c == cells[g].count) {
                let sums = cell_sums.get_or_init(|| {
                    cells
                        .iter()
                        .map(|cell| {
                            let mut s = vec![0.0; self.data.dy()];
                            sisd_data::kernels::sum_rows(
                                self.data.targets().as_slice(),
                                cell.ext.words(),
                                &mut s,
                            );
                            s
                        })
                        .collect()
                });
                let m: usize = counts.iter().map(|&(_, c)| c).sum();
                let mut mean = vec![0.0; self.data.dy()];
                for &(g, _) in counts {
                    sisd_linalg::add_assign(&mut mean, &sums[g]);
                }
                sisd_linalg::scale(1.0 / m as f64, &mut mean);
                return mean;
            }
        }
        self.data.target_mean(ext)
    }

    /// Observed mean and SI breakdown of one candidate of the given
    /// description arity — the scoring core shared by the borrowing and
    /// owning entry points. A NaN or infinite SI (say, from a NaN target
    /// value) is rejected as [`ModelError::NonFinite`], so the batch paths
    /// count it as a numeric failure and no ranking ever sees it.
    fn score_parts(&self, arity: usize, ext: &BitSet) -> SisdResult<(Vec<f64>, LocationScore)> {
        if ext.count() == 0 {
            return Err(ModelError::EmptyExtension.into());
        }
        let dl = self.dl.location_dl(arity);
        let (observed_mean, ic) = match &self.backend {
            Backend::Gaussian { model, cache, .. } => {
                let counts = model.cell_counts(ext);
                let observed = self.observed_mean(ext, &counts);
                let stats =
                    model.location_stats_for_counts(&counts, &observed, Some(cache.as_ref()))?;
                let ic = location_ic_of_stats(&stats, model.dy());
                (observed, ic)
            }
            Backend::Bernoulli { model } => {
                let observed = self.data.target_mean(ext);
                let ic = model.location_ic(ext, &observed)?;
                (observed, ic)
            }
        };
        let si = ic / dl;
        if !si.is_finite() {
            return Err(ModelError::NonFinite.into());
        }
        Ok((observed_mean, LocationScore { ic, dl, si }))
    }

    /// Scores one location candidate through the same IC formula as
    /// `sisd_core::location_si` (the one-off path). The two agree to
    /// last-ulp rounding, not bit-for-bit: for cell-aligned extensions the
    /// engine aggregates the observed mean from per-cell sums, a different
    /// summation order than `Dataset::target_mean`. Bit-identity is
    /// guaranteed *within* the engine at any thread count.
    pub fn score_location(&self, intention: &Intention, ext: &BitSet) -> SisdResult<Scored> {
        let (observed_mean, score) = self.score_parts(intention.len(), ext)?;
        Ok(Scored {
            intention: intention.clone(),
            ext: ext.clone(),
            observed_mean,
            score,
        })
    }

    /// [`Evaluator::score_location`] taking the candidate by value: the
    /// intention and extension **move** into the returned [`Scored`]
    /// (and onward into the [`LocationPattern`]) instead of being cloned
    /// per result — an extension materialized once from a frontier batch
    /// is the same heap allocation the final pattern carries.
    fn score_owned(&self, candidate: Candidate) -> Option<Scored> {
        match self.score_parts(candidate.intention.len(), &candidate.ext) {
            Ok((observed_mean, score)) => Some(Scored {
                intention: candidate.intention,
                ext: candidate.ext,
                observed_mean,
                score,
            }),
            Err(e) => {
                self.note_failure(&e);
                None
            }
        }
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
            Backend::Gaussian { model, .. } => {
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
            chunk
                .iter()
                .map(|c| match self.score_location(&c.intention, &c.ext) {
                    Ok(s) => Some(s),
                    Err(e) => {
                        self.note_failure(&e);
                        None
                    }
                })
                .collect()
        };
        let workers = self.threads.min(candidates.len().div_ceil(Self::MIN_CHUNK));
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
    /// contract). This is the batch boundary fix for the frontier arena:
    /// a dedup-surviving extension is allocated once when it leaves the
    /// `ChildBatch` and that allocation is the one the final
    /// `LocationPattern` owns.
    pub fn try_score_all_owned(&self, candidates: Vec<Candidate>) -> Vec<Option<Scored>> {
        let obs = self.obs;
        obs.incr(Metric::EvalBatches);
        let _score_span = obs.span(Metric::EvalScoreNs);
        let workers = self.threads.min(candidates.len().div_ceil(Self::MIN_CHUNK));
        let out: Vec<Option<Scored>> = if workers <= 1 {
            candidates
                .into_iter()
                .map(|c| self.score_owned(c))
                .collect()
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
                .run_consume(parts, workers, |part| {
                    part.into_iter()
                        .map(|c| self.score_owned(c))
                        .collect::<Vec<_>>()
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

    /// [`Evaluator::try_score_all_owned`] with failed candidates dropped
    /// (order preserved).
    pub fn score_all_owned(&self, candidates: Vec<Candidate>) -> Vec<Scored> {
        self.try_score_all_owned(candidates)
            .into_iter()
            .flatten()
            .collect()
    }
}

// ----------------------------------------------------------------------
// The shared level-wise beam loop
// ----------------------------------------------------------------------

/// Canonical fingerprint of one condition, the element of intention keys.
fn condition_fingerprint(c: &Condition) -> (usize, u8, u64) {
    match c.op {
        ConditionOp::Ge(t) => (c.attr, 0u8, t.to_bits()),
        ConditionOp::Le(t) => (c.attr, 1u8, t.to_bits()),
        ConditionOp::Eq(l) => (c.attr, 2u8, u64::from(l)),
    }
}

/// Canonical key of a whole intention: sorted condition fingerprints, so
/// that `a ∧ b` and `b ∧ a` are recognized as the same candidate. Tests
/// pin dedup behavior with it; the production dedup pass keys children
/// via [`intention_key_with`] without building them.
#[cfg(test)]
pub(crate) fn intention_key(intention: &Intention) -> Vec<(usize, u8, u64)> {
    let mut key: Vec<(usize, u8, u64)> = intention
        .conditions()
        .iter()
        .map(condition_fingerprint)
        .collect();
    key.sort_unstable();
    key
}

/// The canonical key of `parent ∧ cond` without materializing the child
/// intention — the beam's dedup pass keys every generated child, but only
/// builds the intention (a conditions-vector clone) for the keepers.
fn intention_key_with(parent: &Intention, cond: &Condition) -> Vec<(usize, u8, u64)> {
    let mut key: Vec<(usize, u8, u64)> = parent
        .conditions()
        .iter()
        .chain(std::iter::once(cond))
        .map(condition_fingerprint)
        .collect();
    key.sort_unstable();
    key
}

/// Bounded, sorted top-k pattern log.
pub(crate) struct TopK {
    k: usize,
    items: Vec<LocationPattern>,
}

impl TopK {
    pub(crate) fn new(k: usize) -> Self {
        Self {
            k,
            items: Vec::with_capacity(k + 1),
        }
    }

    pub(crate) fn push(&mut self, p: LocationPattern) {
        let pos = self.items.partition_point(|q| q.score.si >= p.score.si);
        if pos >= self.k {
            return;
        }
        self.items.insert(pos, p);
        self.items.truncate(self.k);
    }

    pub(crate) fn into_vec(self) -> Vec<LocationPattern> {
        self.items
    }
}

/// Outcome of [`run_beam_levels`].
pub(crate) struct BeamLevelsOutcome {
    pub(crate) top: Vec<LocationPattern>,
    pub(crate) evaluated: usize,
    pub(crate) timed_out: bool,
    pub(crate) degraded: usize,
}

/// The level-wise beam search (paper §II-D), generic over the evaluation
/// backend: generate each level's candidates through the batched frontier
/// subsystem (`sisd-frontier` — count-first mask AND + coverage filters
/// over the condition bit-matrix, parallel on `ev.threads()` workers,
/// children in serial `(parent, condition)` order at any thread count),
/// with the canonical-conjunction dedup running as the builder's keep
/// predicate **between the count pass and materialization** — a duplicate
/// conjunction is dropped on its support count alone and never has its
/// extension words computed. Dedup still happens after the structural
/// filters (so the outcome is independent of which parent reaches a
/// conjunction first, exactly as in the serial nested loop); the whole
/// level is then scored as one batch through the engine and the `width`
/// best become the next frontier.
///
/// Surviving extensions are materialized **once** from the frontier batch
/// and move through scoring into the final patterns (owned batch
/// evaluation). The next frontier *borrows* the `width` best scored
/// results of its level — each scored level is held back from the top-k
/// log until the following level has been generated, then moved in
/// unchanged (same push order as pushing eagerly), so no per-level parent
/// clone exists at all (pinned by `tests/alloc_counts.rs`).
///
/// The wall-clock budget is honoured during both phases of a level:
/// candidate *generation* checks it between frontier-parent slices, and
/// batch *scoring* checks it between bounded slices (one thread-round of
/// chunks), so overshoot is limited to one slice of generation plus one
/// slice of scoring. Everything scored before expiry is still logged — a
/// timed-out search reports every candidate it committed to, like the
/// incremental searches it replaced.
pub(crate) fn run_beam_levels(
    ev: &Evaluator<'_>,
    cfg: &BeamConfig,
    start: Instant,
) -> BeamLevelsOutcome {
    let obs = ev.obs();
    obs.incr(Metric::SearchRuns);
    let data = ev.data();
    let conditions = generate_conditions(data, &cfg.refine);
    // Every condition mask, evaluated once for the whole search into one
    // contiguous arena; every level refines against the same rows.
    let masks = MaskMatrix::evaluate(data, &conditions);
    let builder = FrontierBuilder::new(
        &masks,
        FrontierConfig {
            min_support: cfg.min_coverage,
            threads: ev.threads(),
            pool: ev.pool(),
            obs,
        },
    );
    let max_cov =
        ((data.n() as f64 * cfg.max_coverage_fraction).floor() as usize).max(cfg.min_coverage);

    let mut top = TopK::new(cfg.top_k);
    let mut evaluated = 0usize;
    let mut timed_out = false;
    let mut seen: HashSet<Vec<(usize, u8, u64)>> = HashSet::new();
    // Level 1 refines the root; deeper levels refine the `width` best of
    // the previous level, borrowed from that level's retained scored
    // results (`pending`) via `frontier_idx`.
    let root_intent = Intention::empty();
    let root_ext = BitSet::full(data.n());
    let mut pending: Vec<Scored> = Vec::new();
    let mut frontier_idx: Vec<usize> = Vec::new();

    for depth in 1..=cfg.max_depth {
        obs.incr(Metric::SearchLevels);
        let _level_span = obs.span(Metric::SearchLevelNs);
        let level_parents: Vec<(&Intention, &BitSet)> = if depth == 1 {
            vec![(&root_intent, &root_ext)]
        } else {
            frontier_idx
                .iter()
                .map(|&i| (&pending[i].intention, &pending[i].ext))
                .collect()
        };
        // The parent's own coverage caps its children: a child covering as
        // many rows as its parent is the same extension with a longer
        // description (dominated), so the per-parent ceiling is one less.
        let parents: Vec<ParentSpec<'_>> = level_parents
            .iter()
            .map(|&(_, ext)| ParentSpec {
                ext,
                max_support: max_cov.min(ext.count().saturating_sub(1)),
            })
            .collect();
        let allowed = |p: usize, row: usize| !level_parents[p].0.conflicts_with(&conditions[row]);
        // Sequential post-pass in the deterministic child order: attach
        // intentions and materialize extensions — the batch holds exactly
        // the dedup survivors, because the keep predicate below ran the
        // first-wins signature check on the support counts.
        let mut batch: Vec<Candidate> = Vec::new();
        let push_children =
            |children: &sisd_frontier::ChildBatch, base: usize, batch: &mut Vec<Candidate>| {
                for i in 0..children.len() {
                    let m = children.meta(i);
                    batch.push(Candidate {
                        intention: level_parents[base + m.parent].0.with(conditions[m.row]),
                        ext: children.child_bitset(i),
                    });
                }
            };
        match cfg.time_budget {
            // No budget: one batch, maximally parallel.
            None => {
                let children = builder.refine_with_prune(&parents, allowed, |p, row, _| {
                    seen.insert(intention_key_with(level_parents[p].0, &conditions[row]))
                });
                push_children(&children, 0, &mut batch);
            }
            // Budgeted: refine in slices of one thread-round of parents so
            // the elapsed check runs between slices; a slice, once
            // submitted, completes (bounded overshoot).
            Some(budget) => {
                let slice = ev.threads().max(1);
                for (s, chunk) in parents.chunks(slice).enumerate() {
                    if start.elapsed() > budget {
                        timed_out = true;
                        break;
                    }
                    let base = s * slice;
                    let children = builder.refine_with_prune(
                        chunk,
                        |p, row| allowed(base + p, row),
                        |p, row, _| {
                            seen.insert(intention_key_with(
                                level_parents[base + p].0,
                                &conditions[row],
                            ))
                        },
                    );
                    push_children(&children, base, &mut batch);
                }
            }
        }
        let scored = match cfg.time_budget {
            // No budget: one batch, maximally parallel. Owned scoring:
            // each keeper's extension moves through to its pattern.
            None => ev.score_all_owned(batch),
            // Budgeted: score in slices sized to one full thread-round so
            // the elapsed check runs between slices; a slice, once
            // submitted, completes (bounded overshoot).
            Some(budget) => {
                let slice = (ev.threads() * Evaluator::MIN_CHUNK).max(64);
                let mut out = Vec::with_capacity(batch.len());
                let mut rest = batch;
                while !rest.is_empty() {
                    if start.elapsed() > budget {
                        timed_out = true;
                        break;
                    }
                    let tail = rest.split_off(rest.len().min(slice));
                    out.extend(ev.score_all_owned(rest));
                    rest = tail;
                }
                out
            }
        };
        evaluated += scored.len();
        // The previous level's borrows ended with candidate generation:
        // move its patterns into the log now, unchanged. The push
        // sequence stays level by level in scored order — exactly the
        // sequence eager pushing produced — so the top-k log is
        // bit-identical; holding each level back for one iteration is
        // what lets the next frontier borrow instead of clone.
        for s in pending.drain(..) {
            top.push(s.into_pattern());
        }
        let done = timed_out || scored.is_empty();
        if done {
            for s in scored {
                top.push(s.into_pattern());
            }
            break;
        }
        // Select the next frontier: a stable index sort by SI descending
        // reproduces the old sort-the-level order exactly (ties keep
        // scored order). The keepers are indices into the retained level —
        // no intention or extension is cloned.
        let mut order: Vec<usize> = (0..scored.len()).collect();
        order.sort_by(|&a, &b| scored[b].score.si.total_cmp(&scored[a].score.si));
        order.truncate(cfg.width);
        pending = scored;
        frontier_idx = order;
    }
    // The last level was never followed by another generation pass: flush
    // its retained results into the log.
    for s in pending {
        top.push(s.into_pattern());
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
        // Mixed covariances: exercise the memoized dense branch too.
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
    fn spread_scoring_requires_gaussian_backend() {
        let (data, model) = fixture();
        let ev = Evaluator::gaussian(&data, &model, DlParams::default(), EvalConfig::default());
        let ext = BitSet::from_indices(data.n(), 0..40);
        let mut w = vec![1.0, 1.0];
        sisd_linalg::normalize(&mut w);
        assert!(ev.score_spread(&Intention::empty(), &ext, &w).is_ok());
    }
}
