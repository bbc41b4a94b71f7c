//! The unified candidate-evaluation engine.
//!
//! Every search strategy in this crate — beam ([`crate::beam`]),
//! branch-and-bound ([`crate::branch_bound`]), and the spread-direction
//! search ([`crate::sphere`]) — scores its candidates against the paper's
//! Gaussian background model through one [`Evaluator`]. The engine owns
//! the concerns the strategies used to re-implement separately:
//!
//! * **Ownership and cache validity.** An [`Evaluator`] borrows the
//!   background model *immutably* for its whole lifetime, so the borrow
//!   checker guarantees the model cannot change while any factorization is
//!   cached: each covariance object the model's cells share builds its
//!   Cholesky factor lazily (and thread-safely), and a candidate whose rows mix
//!   covariance values gets its mixture factored for it alone. There is no
//!   warm-up protocol and no panic path for a missing factor.
//! * **One row walk per candidate, or per 64 siblings.** A candidate's
//!   cell-count signature and its target row sum come from a single walk
//!   over its rows
//!   ([`sisd_data::kernels::count_cells_sum_rows`] over the model's
//!   row-to-cell map), so a candidate costs `O(|I| · dy)` however many
//!   cells the partition has. On 0/1 targets the walk only counts cells
//!   ([`sisd_data::kernels::count_cells`]), and each column's sum is the
//!   popcount of the candidate's words ANDed with that column's row of the
//!   dataset's bit matrix ([`Dataset::target_bits`], all columns through
//!   one [`sisd_data::kernels::and_count_many_select`] call): the exact
//!   integer the walk adds up from `+0.0`, so the same bits. On
//!   single-target data a beam level instead
//!   walks each parent's rows once per block of 64 conditions
//!   ([`sisd_data::kernels::count_cells_sum_lanes`]), which yields the
//!   counts and sums of all the parent's children through that block, the
//!   same integers and bits. On 0/1 targets with more than one column a
//!   beam level walks no rows at all: each parent's rows in every cell it
//!   covers and in every target column are compacted once into a block of
//!   ⌈|P| / 64⌉-word rows ([`sisd_data::kernels::compact`]), and each
//!   child's rows, compacted likewise, are AND-popcounted against the
//!   whole block in one call — its cell counts and column sums, the same
//!   integers, over ⌈|P| / 64⌉ words a row instead of ⌈n / 64⌉. The
//!   signature feeds the model statistics; the
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
//!   batch into contiguous chunks, scores the first on the calling thread
//!   and the rest on scoped threads ([`std::thread::scope`]), and merges
//!   in chunk order. Each candidate's arithmetic is independent of every
//!   other's, so the results are **bit-identical at any thread count** —
//!   searches may be parallelized without changing their output.
//!
//! Scoring runs through a per-chunk workspace (per-cell and per-lane
//! counts, the signature, the observed mean, the popcounts of 0/1 targets,
//! a parent's compacted block and a child's compacted row, the run of
//! children waiting for their statistics and the model's statistics
//! buffers), so a candidate allocates nothing of its own; the beam loop
//! below scores its children from the frontier's borrowed parent and mask
//! words — siblings together on single-target data, in their parent's
//! compacted row space on wider 0/1 targets, otherwise each child's words
//! ANDed into one per-chunk buffer just before it is walked — with up to
//! seven neighbours' statistics solved alongside at `dy > 1`, into compact
//! records, and builds a pattern only for what the top-k log or the next
//! beam keeps.
//! `score_all`, `try_score_all*` and `score_location` score one candidate
//! at a time, the path the parity suites compare the beam against.

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
use sisd_model::{BackgroundModel, LocationCandidate, LocationRun, LocationScratch, ModelError};
use sisd_obs::{Metric, ObsHandle};
use std::collections::HashSet;
use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Engine configuration, threaded from the application surface
/// ([`crate::MinerConfig`], the experiment binaries' `--threads` flags)
/// down to every strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalConfig {
    /// Worker threads for batch candidate evaluation, at most 256 of which
    /// are used. `1` keeps scoring on the calling thread; results are
    /// identical either way.
    pub threads: usize,
    /// Metrics/tracing destination for the engine and every subsystem it
    /// drives (frontier, model). Disabled by default; an enabled handle
    /// **never changes any result bit** — it only counts.
    pub obs: ObsHandle,
}

impl Default for EvalConfig {
    fn default() -> Self {
        Self {
            threads: 1,
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
    /// Rows of the current candidate in each parameter cell; all zero
    /// between candidates.
    cell_rows: Vec<usize>,
    /// The nonzero entries of `cell_rows` in cell order: the candidate's
    /// cell-count signature.
    signature: Vec<(usize, usize)>,
    /// The current candidate's observed target mean.
    mean: Vec<f64>,
    /// On 0/1 targets, the current candidate's rows in each bit row it is
    /// counted against: the target columns of the dataset's bit matrix
    /// ([`Dataset::target_bits`]), or a compacted parent's cells and
    /// columns (`block`); room for every cell and column, empty on other
    /// data.
    ones: Vec<usize>,
    /// One `true` per entry of `ones`: the selection that counts them all.
    all_rows: Vec<bool>,
    /// On 0/1 targets at `dy > 1`, the beam parent's rows in each cell it
    /// covers (`touched`) and then in each target column, compacted to the
    /// parent's row space ([`kernels::compact`]): ⌈|P| / 64⌉ words a row.
    block: Vec<u64>,
    /// The current child's rows compacted to its parent's row space.
    compacted: Vec<u64>,
    /// The model statistics and their working vectors.
    stats: LocationScratch,
    /// A sibling walk's per-lane counts, [`LANES`] per parameter cell
    /// (sibling lanes only); all zero between walks.
    lane_counts: Vec<u32>,
    /// The cells the current sibling walk's or compacted parent covers,
    /// ascending.
    touched: Vec<usize>,
    /// The children walked but not yet solved (`dy > 1`).
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
    /// touched cells, in cell order.
    fn lane_signature(&mut self, lane: usize) {
        let counts = &self.lane_counts;
        touched_signature(
            &self.touched,
            |_, g| counts[g * LANES + lane] as usize,
            &mut self.signature,
        );
    }

    /// Zeroes the lane counts of the touched cells, the only ones a walk
    /// over the touched cells' parent writes.
    fn clear_lanes(&mut self) {
        for &g in &self.touched {
            self.lane_counts[g * LANES..(g + 1) * LANES].fill(0);
        }
    }
}

/// Makes `signature` the nonzero entries `(g, count(i, g))` over the
/// touched cells `g = touched[i]`, in cell order. Branch-free: whether a
/// child has rows in a cell is a coin flip that a branch would mispredict.
fn touched_signature(
    touched: &[usize],
    count: impl Fn(usize, usize) -> usize,
    signature: &mut Vec<(usize, usize)>,
) {
    signature.clear();
    signature.resize(touched.len(), (0, 0));
    let mut len = 0;
    for (i, &g) in touched.iter().enumerate() {
        let c = count(i, g);
        signature[len] = (g, c);
        len += usize::from(c > 0);
    }
    signature.truncate(len);
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

/// One scored child: which child of the level's batch, its score, and the
/// slot of its observed mean in [`LevelScores::means`].
#[derive(Debug, Clone, Copy)]
struct LevelRec {
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

/// Runs `run` over `parts`: the first part on the calling thread while one
/// scoped thread per further part runs the rest, outputs in part order. A
/// part whose thread the OS refuses to spawn runs on the calling thread
/// after the first, so resource exhaustion costs parallelism, not the
/// search. A panic in a scoped thread is re-raised on the caller with its
/// payload.
fn fork_join<I: Send, O: Send>(
    parts: impl IntoIterator<Item = I>,
    run: impl Fn(I) -> O + Sync,
) -> Vec<O> {
    // Each part waits in a slot until whoever runs it takes it: its thread,
    // or the caller when that thread could not be spawned. The part cannot
    // ride in the thread's closure, because a refused spawn drops it.
    let slots: Vec<Mutex<Option<I>>> = parts.into_iter().map(|p| Mutex::new(Some(p))).collect();
    let Some((first, rest)) = slots.split_first() else {
        return Vec::new();
    };
    let run_slot = |slot: &Mutex<Option<I>>| {
        let part = slot.lock().unwrap_or_else(PoisonError::into_inner).take();
        run(part.expect("each part runs once"))
    };
    let run_slot = &run_slot;
    std::thread::scope(|s| {
        let spawned: Vec<_> = rest
            .iter()
            .map(|slot| {
                std::thread::Builder::new()
                    .spawn_scoped(s, move || run_slot(slot))
                    .ok()
            })
            .collect();
        let mut out = Vec::with_capacity(slots.len());
        out.push(run_slot(first));
        for (slot, thread) in rest.iter().zip(spawned) {
            out.push(match thread {
                Some(t) => t.join().unwrap_or_else(|e| resume_unwind(e)),
                None => run_slot(slot),
            });
        }
        out
    })
}

/// The candidate-evaluation engine. See the module docs for the contract;
/// construct one per (dataset, model state) and score everything through
/// it.
pub struct Evaluator<'a> {
    data: &'a Dataset,
    model: &'a BackgroundModel,
    /// Per-cell sums of the dataset's target rows, aligned with
    /// `model.cells()`; built on first use.
    cell_sums: OnceLock<Vec<Vec<f64>>>,
    dl: sisd_core::DlParams,
    /// Scoring workers: `EvalConfig::threads`, at most
    /// [`Evaluator::MAX_WORKERS`].
    threads: usize,
    /// Metrics destination for batch scoring.
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
            model,
            cell_sums: OnceLock::new(),
            dl,
            threads: cfg.threads.clamp(1, Self::MAX_WORKERS),
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

    /// The metrics/tracing handle the engine reports to.
    pub fn obs(&self) -> ObsHandle {
        self.obs
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

    /// A fresh scoring workspace: per-lane counts on single-target data,
    /// where a beam level scores siblings together, and a [`ChildRun`]
    /// otherwise.
    fn workspace(&self) -> Workspace {
        let cells = self.model.n_cells();
        let dy = self.data.dy();
        let lanes = if dy == 1 { cells * LANES } else { 0 };
        let bit_rows = self.data.target_bits().map_or(0, |_| cells + dy);
        let run = if dy > 1 {
            ChildRun {
                signatures: vec![Vec::new(); RUN],
                means: vec![vec![0.0; dy]; RUN],
                ..ChildRun::default()
            }
        } else {
            ChildRun::default()
        };
        Workspace {
            cell_rows: vec![0; cells],
            signature: Vec::new(),
            mean: vec![0.0; dy],
            ones: vec![0; bit_rows],
            all_rows: vec![true; bit_rows],
            block: Vec::new(),
            compacted: Vec::new(),
            stats: LocationScratch::default(),
            lane_counts: vec![0; lanes],
            touched: Vec::new(),
            run,
        }
    }

    /// The candidate's cell-count signature into `ws.signature` and its
    /// target row sum into `ws.mean`, from one walk over the rows `ext`
    /// selects. On 0/1 targets the walk only counts cells, and column `j`'s
    /// sum is `popcount(ext ∧ column j)` of the dataset's bit matrix: a
    /// walk's sum of 0s and 1s from `+0.0` is an exact integer at every
    /// step (and `+0.0 + −0.0 = +0.0`), so both give the same bits.
    fn walk(&self, ext: &[u64], ws: &mut Workspace) {
        let cell_of_row = self.model.cell_of_row();
        if let Some(bits) = self.data.target_bits() {
            kernels::count_cells(ext, cell_of_row, &mut ws.cell_rows);
            let dy = ws.mean.len();
            let ones = &mut ws.ones[..dy];
            kernels::and_count_many_select(ext, bits, &ws.all_rows[..dy], ones);
            for (sum, &ones) in ws.mean.iter_mut().zip(&*ones) {
                *sum = ones as f64;
            }
        } else {
            ws.mean.fill(0.0);
            kernels::count_cells_sum_rows(
                ext,
                cell_of_row,
                &mut ws.cell_rows,
                self.data.targets().as_slice(),
                &mut ws.mean,
            );
        }
        ws.signature.clear();
        for (g, c) in ws.cell_rows.iter_mut().enumerate() {
            if *c > 0 {
                ws.signature.push((g, *c));
                *c = 0;
            }
        }
    }

    /// Makes `ws.block` the rows of beam parent `ext` in each cell it
    /// covers, in cell order (those cells into `ws.touched`), then in each
    /// target column of the bit matrix `bits`, all compacted to the
    /// parent's row space ([`kernels::compact`]): ⌈|P| / 64⌉ words a row,
    /// at least one, and `ws.compacted` that long.
    fn compact_parent(&self, ext: &[u64], bits: &[u64], ws: &mut Workspace) {
        ws.touch_cells(ext, self.model.cell_of_row());
        let support: usize = ext.iter().map(|w| w.count_ones() as usize).sum();
        let stride = support.div_ceil(WORD_BITS).max(1);
        let cells = self.model.cells();
        let rows = ws.touched.iter().map(|&g| cells[g].ext.words());
        let rows = rows.chain(bits.chunks_exact(ext.len()));
        ws.block
            .resize((ws.touched.len() + self.data.dy()) * stride, 0);
        for (row, out) in rows.zip(ws.block.chunks_exact_mut(stride)) {
            kernels::compact(row, ext, out);
        }
        ws.compacted.resize(stride, 0);
    }

    /// [`Evaluator::walk`] for the child `parent ∧ mask` of the parent
    /// compacted into `ws.block`, on 0/1 targets: the child's rows are
    /// compacted to the parent's row space — they are `mask`'s rows there,
    /// since the child lies inside the parent — and AND-popcounted against
    /// every row of the block in one
    /// [`kernels::and_count_many_select`] call. Compaction keeps every
    /// intersection with the parent's subsets, so a covered cell's count
    /// and a column's popcount are the integers the walk finds, and a
    /// cell the parent does not cover holds none of the child's rows.
    fn walk_compacted(&self, parent: &[u64], mask: &[u64], ws: &mut Workspace) {
        kernels::compact(mask, parent, &mut ws.compacted);
        let cells = ws.touched.len();
        let rows = cells + ws.mean.len();
        let ones = &mut ws.ones[..rows];
        kernels::and_count_many_select(&ws.compacted, &ws.block, &ws.all_rows[..rows], ones);
        touched_signature(&ws.touched, |i, _| ones[i], &mut ws.signature);
        for (sum, &ones) in ws.mean.iter_mut().zip(&ones[cells..]) {
            *sum = ones as f64;
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
                        let mut s = vec![0.0; self.data.dy()];
                        kernels::sum_rows(self.data.targets().as_slice(), cell.ext.words(), &mut s);
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
    /// left holding its observed mean ([`Evaluator::observed_mean`]).
    fn ic(&self, ws: &mut Workspace) -> SisdResult<f64> {
        let Workspace {
            signature,
            mean,
            stats,
            ..
        } = ws;
        self.observed_mean(signature, mean)?;
        let stats = self.model.location_stats_with(signature, mean, stats)?;
        Ok(location_ic_of_stats(stats, self.model.dy()))
    }

    /// Observed mean and SI breakdown of one candidate of the given
    /// description arity, from its extension's words — the scoring core
    /// every entry point shares: [`Evaluator::walk`] yields its cell-count
    /// signature and its target row sum, from which
    /// [`Evaluator::ic`] takes the model statistics. Leaves the observed
    /// mean in `ws.mean`.
    fn score_words(
        &self,
        arity: usize,
        ext: &[u64],
        ws: &mut Workspace,
    ) -> SisdResult<LocationScore> {
        self.walk(ext, ws);
        let ic = self.ic(ws)?;
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
    /// empirical mean).
    pub fn score_spread(
        &self,
        intention: &Intention,
        ext: &BitSet,
        w: &[f64],
    ) -> SisdResult<SpreadScore> {
        spread_si(self.model, self.data, intention, ext, w, &self.dl).map_err(Into::into)
    }

    /// Smallest batch share worth a worker. Batches are split into at most
    /// `len / MIN_CHUNK` workers (capped at `threads`), so a batch of up to
    /// `MIN_CHUNK` candidates runs inline. Every threaded batch spawns and
    /// joins its scoped threads afresh, tens of microseconds per batch, so
    /// callers that score many small batches at `threads > 1`
    /// (branch-and-bound nodes) pay that round per batch and may run
    /// slower than serially, while a beam level pays it once. Chunking
    /// never affects the scores — only where they are computed.
    const MIN_CHUNK: usize = 16;

    /// Most workers an evaluator uses, whatever `EvalConfig::threads`
    /// asks for, so one fork spawns at most `MAX_WORKERS − 1` threads.
    const MAX_WORKERS: usize = 256;

    /// Workers a batch of `len` candidates is split over (1: inline).
    fn workers_for(&self, len: usize) -> usize {
        self.threads.min(len.div_ceil(Self::MIN_CHUNK))
    }

    /// Scores a batch, returning one entry per input candidate in input
    /// order (`None` where scoring failed, e.g. an empty extension): the
    /// batch is copied and scored by [`Evaluator::try_score_all_owned`].
    pub fn try_score_all(&self, candidates: &[Candidate]) -> Vec<Option<Scored>> {
        self.try_score_all_owned(candidates.to_vec())
    }

    /// [`Evaluator::try_score_all`] with failed candidates dropped (order
    /// preserved) — the shape level-wise searches consume.
    pub fn score_all(&self, candidates: &[Candidate]) -> Vec<Scored> {
        self.try_score_all(candidates)
            .into_iter()
            .flatten()
            .collect()
    }

    /// Scores a batch taken by value, returning one entry per input
    /// candidate in input order (`None` where scoring failed, e.g. an empty
    /// extension). Every candidate's intention and extension **move** into
    /// its `Scored` slot, so an extension allocated once for a candidate is
    /// the allocation its final `LocationPattern` owns.
    ///
    /// With `threads > 1` the batch is split into contiguous chunks of at
    /// least `Evaluator::MIN_CHUNK` candidates, scored by the calling
    /// thread and scoped threads ([`std::thread::scope`]), and merged in
    /// chunk order; each candidate's arithmetic is independent, so the
    /// output is bit-identical at any thread count. Parallelism pays off on
    /// wide batches of expensive scores (beam levels at high `dy`);
    /// per-node strategies over cheap scores (e.g. single-target
    /// branch-and-bound) see little benefit.
    pub fn try_score_all_owned(&self, candidates: Vec<Candidate>) -> Vec<Option<Scored>> {
        let obs = self.obs;
        obs.incr(Metric::EvalBatches);
        let _score_span = obs.span(Metric::EvalScoreNs);
        let score_part = |part: Vec<Candidate>| -> Vec<Option<Scored>> {
            let mut ws = self.workspace();
            part.into_iter()
                .map(|c| {
                    let score =
                        self.noted(self.score_words(c.intention.len(), c.ext.words(), &mut ws))?;
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
            // (struct moves, no deep copies), move each into the thread
            // that scores it, and merge in chunk order.
            let chunk_size = candidates.len().div_ceil(workers);
            let mut parts: Vec<Vec<Candidate>> = Vec::with_capacity(workers);
            let mut rest = candidates;
            while rest.len() > chunk_size {
                let tail = rest.split_off(chunk_size);
                parts.push(rest);
                rest = tail;
            }
            parts.push(rest);
            fork_join(parts, score_part).into_iter().flatten().collect()
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
    /// On single-target data a run of consecutive children of one parent
    /// through one block of [`LANES`] conditions is one group:
    /// [`kernels::count_cells_sum_lanes`] walks the parent's rows once and
    /// reads each row's membership word from the matrix's row-major view,
    /// which yields every child's per-cell counts and target sum. A child's
    /// signature is then its lane's nonzero counts over the cells the
    /// parent covers, in cell order, and [`Evaluator::ic`] scores it — the
    /// same integers and bits the per-child walk produces. With more target
    /// columns the per-child walk already fills its SIMD lanes with a row's
    /// columns, while sibling lanes would walk the parent once per column,
    /// so each child's words are ANDed from its parent and mask into one
    /// buffer just before it is walked — on 0/1 targets, its rows are
    /// instead counted in its parent's compacted row space
    /// ([`Evaluator::compact_parent`] once per parent of the range,
    /// [`Evaluator::walk_compacted`] per child) — and up to [`RUN`] walked
    /// children then get their model statistics together
    /// ([`Evaluator::solve_run`]).
    fn score_each(
        &self,
        children: &ChildBatch<'_>,
        range: Range<usize>,
        arity: usize,
        ws: &mut Workspace,
        mut each: impl FnMut(usize, LocationScore, &[f64]),
    ) {
        if self.data.dy() == 1 {
            self.score_siblings(children, range, arity, ws, each);
            return;
        }
        let bits = self.data.target_bits();
        let mut words = vec![0; children.n().div_ceil(WORD_BITS)];
        // The parent whose rows `ws.block` holds compacted.
        let mut compacted = None;
        for child in range {
            if let Some(bits) = bits {
                let meta = children.meta(child);
                let parent = children.parent_words(meta.parent);
                if compacted != Some(meta.parent) {
                    compacted = Some(meta.parent);
                    self.compact_parent(parent, bits, ws);
                }
                self.walk_compacted(parent, children.matrix().row_words(meta.row), ws);
            } else {
                children.child_words_into(child, &mut words);
                self.walk(&words, ws);
            }
            if let Err(e) = self.observed_mean(&ws.signature, &mut ws.mean) {
                self.note_failure(&e.into());
                continue;
            }
            let run = &mut ws.run;
            run.children[run.len] = child;
            std::mem::swap(&mut run.signatures[run.len], &mut ws.signature);
            std::mem::swap(&mut run.means[run.len], &mut ws.mean);
            run.len += 1;
            if run.len == RUN {
                self.solve_run(arity, run, &mut each);
            }
        }
        self.solve_run(arity, &mut ws.run, &mut each);
    }

    /// Scores the children waiting in `run` from their signatures and
    /// observed means through [`BackgroundModel::location_stats_run`] —
    /// each child's statistics carry the bits [`Evaluator::ic`] computes
    /// for it alone — hands each success to `each` in slot order, and
    /// empties the run.
    fn solve_run(
        &self,
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
        self.model
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
        children: &ChildBatch<'_>,
        range: Range<usize>,
        arity: usize,
        ws: &mut Workspace,
        mut each: impl FnMut(usize, LocationScore, &[f64]),
    ) {
        let cell_of_row = self.model.cell_of_row();
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
                let score = self.ic(ws).and_then(|ic| self.location_score(arity, ic));
                if let Some(score) = self.noted(score) {
                    each(child, score, &ws.mean);
                }
            }
            ws.clear_lanes();
            lo += group;
        }
    }

    /// Scores every child of `children`, all of description arity `arity`,
    /// into `out`, replacing what it held: one [`LevelRec`] per success, in
    /// child order, each through [`Evaluator::score_each`]. The whole batch
    /// is one scoring call of the batch metrics (one `eval.batches`, its
    /// wall time in `eval.score_ns`, its successes in `eval.scored`). It
    /// runs on the calling thread or, when wide enough
    /// ([`Evaluator::workers_for`]), in contiguous chunks forked over
    /// scoped threads and merged in order. The batch-path contract of
    /// [`Evaluator::try_score_all_owned`] holds — same per-candidate
    /// results, chunks merged in order, bit-identical at any thread count —
    /// but nothing is allocated per candidate: serial scoring reuses `ws`,
    /// and each forked chunk owns one workspace.
    ///
    /// A child's observed mean is kept only if the top-k log could still
    /// take it: `log` holds the SIs already in the log (descending) and
    /// `top_k` its size, and each chunk files its own children into a copy
    /// of it under the log's rule ([`admit`]). The log itself only ever
    /// sees more entries ahead of a child than its chunk's copy did, so
    /// every child the log takes has its mean kept.
    fn score_children(
        &self,
        children: &ChildBatch<'_>,
        arity: usize,
        (log, top_k): (&[f64], usize),
        ws: &mut Workspace,
        out: &mut LevelScores,
    ) {
        let obs = self.obs;
        obs.incr(Metric::EvalBatches);
        let _score_span = obs.span(Metric::EvalScoreNs);
        let dy = self.data.dy();
        let score_chunk = |chunk: Range<usize>, ws: &mut Workspace, out: &mut LevelScores| {
            let mut gate = Vec::with_capacity(top_k + 1);
            gate.extend_from_slice(log);
            self.score_each(children, chunk, arity, ws, |child, score, mean| {
                let mean = if admit(&mut gate, top_k, score.si, |&q| q, score.si) {
                    let slot = out.means.len() / dy.max(1);
                    out.means.extend_from_slice(mean);
                    slot
                } else {
                    NO_MEAN
                };
                out.recs.push(LevelRec { child, score, mean });
            });
        };
        let len = children.len();
        out.reset(len);
        let workers = self.workers_for(len);
        if workers <= 1 {
            score_chunk(0..len, ws, out);
        } else {
            let chunk_len = len.div_ceil(workers);
            let chunks = (0..len)
                .step_by(chunk_len)
                .map(|lo| lo..len.min(lo + chunk_len));
            let parts = fork_join(chunks, |chunk| {
                let mut part = LevelScores::default();
                part.reset(chunk.len());
                score_chunk(chunk, &mut self.workspace(), &mut part);
                part
            });
            for part in &parts {
                out.append(part, dy);
            }
        }
        if obs.enabled() {
            obs.add(Metric::EvalScored, out.recs.len() as u64);
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
    pub(crate) degraded: usize,
}

/// A frontier parent: a pattern kept from the previous level (or the
/// root).
struct BeamParent {
    intention: Intention,
    ext: BitSet,
    key: ConjunctionKey,
}

/// The level-wise beam search (paper §II-D): generate each level's
/// candidates through the batched frontier
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
/// Each level is one refinement over all its parents and one scoring call
/// over the batch it returns.
pub(crate) fn run_beam_levels(
    ev: &Evaluator<'_>,
    cfg: &BeamConfig,
    language: &SearchLanguage,
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
        // The keep predicate runs the first-wins dedup on the support
        // counts, so the batch holds exactly the survivors.
        let children = builder.refine_with_prune(&specs, allowed, |p, row, _| {
            !in_a_key[row] || seen.insert(parents[p].key.with(row))
        });
        drop(specs);
        top.sis_into(&mut log_sis);
        ev.score_children(&children, depth, (&log_sis, cfg.top_k), &mut ws, &mut level);
        evaluated += level.recs.len();
        for (r, rec) in level.recs.iter().enumerate() {
            top.push(rec.score.si, r);
        }
        // The parent and condition a child refines.
        let origin = |child: usize| {
            let meta = children.meta(child);
            (&parents[meta.parent], meta.row)
        };
        let done = level.recs.is_empty();
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
                    let (parent, row) = origin(recs[r].child);
                    BeamParent {
                        intention: parent.intention.with(conditions[row]),
                        ext: children.child_bitset(recs[r].child),
                        key: parent.key.with(row),
                    }
                })
                .collect();
        }
        // Patterns for the log's entries from this level, while their
        // parents and batch are still here.
        top.settle(|r| {
            let rec = &level.recs[r];
            assert_ne!(
                rec.mean, NO_MEAN,
                "the log took a child whose mean was dropped"
            );
            let (parent, row) = origin(rec.child);
            LocationPattern {
                intention: parent.intention.with(conditions[row]),
                extension: children.child_bitset(rec.child),
                observed_mean: level.means[rec.mean * dy..(rec.mean + 1) * dy].to_vec(),
                score: rec.score,
            }
        });
        drop(children);
        if done {
            break;
        }
        parents = next;
    }
    BeamLevelsOutcome {
        top: top.into_vec(),
        evaluated,
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
    fn fork_join_keeps_part_order_and_reraises_a_worker_panic() {
        let squares = fork_join(0..5u64, |i| i * i);
        assert_eq!(squares, [0, 1, 4, 9, 16]);
        assert!(fork_join(0..0u64, |i| i).is_empty());
        let err = std::panic::catch_unwind(|| {
            fork_join(
                0..3u64,
                |i| if i == 2 { panic!("part two failed") } else { i },
            )
        })
        .expect_err("the scoped thread's panic must reach the caller");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"part two failed"));
    }

    #[test]
    fn worker_fan_out_is_capped_whatever_threads_asks_for() {
        let (data, model) = fixture();
        let ev = Evaluator::gaussian(
            &data,
            &model,
            DlParams::default(),
            EvalConfig::with_threads(usize::MAX),
        );
        assert_eq!(ev.threads, Evaluator::MAX_WORKERS);
        assert_eq!(ev.workers_for(usize::MAX), Evaluator::MAX_WORKERS);
        assert_eq!(ev.workers_for(Evaluator::MIN_CHUNK), 1);
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
        // MIN_CHUNK-sized chunks (the forked path really runs).
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
    fn spread_scoring_succeeds_on_a_subgroup() {
        let (data, model) = fixture();
        let ev = Evaluator::gaussian(&data, &model, DlParams::default(), EvalConfig::default());
        let ext = BitSet::from_indices(data.n(), 0..40);
        let mut w = vec![1.0, 1.0];
        sisd_linalg::normalize(&mut w);
        assert!(ev.score_spread(&Intention::empty(), &ext, &w).is_ok());
    }
}
