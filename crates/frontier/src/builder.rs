//! Deterministic (parallel) frontier refinement.
//!
//! [`FrontierBuilder::refine_parents`] intersects every frontier parent
//! against every allowed row of a [`MaskMatrix`] and emits the children
//! that pass the support filters — the mask-AND + minimum-support half of
//! level-wise candidate generation, batched. Children land in a
//! [`ChildBatch`]: one packed word arena plus per-child metadata, instead
//! of one heap allocation per child, so rejected candidates cost nothing
//! and accepted ones cost an arena append.
//!
//! **Count first, materialize survivors.** Refinement runs in two passes
//! (the count-then-materialize split of frequent-itemset miners):
//!
//! 1. *Count-only* — fused AND+popcounts for every allowed (parent, row)
//!    pair via [`sisd_data::kernels::and_count_many_select`], with **no
//!    store traffic at all**: pass 1 emits one dense support vector in
//!    serial `(parent, row)` order.
//! 2. A **serial filter** applies the support floor/ceiling and a
//!    caller-supplied keep predicate ([`FrontierBuilder::refine_with_prune`]
//!    — dedup signature checks, branch-and-bound optimistic bounds) to the
//!    counts, in `(parent, row)` order.
//! 3. *Materialize* — only the survivors' child words are computed
//!    ([`sisd_data::kernels::and_into`]) and written straight into the
//!    [`ChildBatch`] arena, in the same order.
//!
//! A candidate rejected by a support filter, a dedup check, or a bound
//! predicate therefore never writes a single word. Both passes split into
//! contiguous work items ((parent, row-block) counts; survivor chunks)
//! processed on the persistent worker pool and merged in item order, so
//! the emitted child sequence is **identical at any thread count** —
//! exactly the sequence the serial per-candidate `BitSet::and` loop
//! produced, and bit-identical to the single-pass reference
//! ([`FrontierBuilder::refine_parents_single_pass`]).

use crate::matrix::MaskMatrix;
use sisd_data::{kernels, BitSet};
use sisd_obs::{Metric, ObsHandle};
use sisd_par::PoolHandle;
use std::collections::HashSet;
use std::hash::Hash;

/// Settings of a [`FrontierBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontierConfig {
    /// Children with fewer covered rows are dropped (the search's
    /// minimum-coverage floor).
    pub min_support: usize,
    /// Worker threads for refinement. `1` keeps everything on the calling
    /// thread; results are identical either way.
    pub threads: usize,
    /// The persistent worker pool parallel refinement runs on (the
    /// process-global pool by default). Serial refinement never touches
    /// it; results are identical for any pool.
    pub pool: PoolHandle,
    /// Observability handle refinement counters and spans report into.
    /// Disabled by default; never changes refinement output.
    pub obs: ObsHandle,
}

impl Default for FrontierConfig {
    fn default() -> Self {
        Self {
            min_support: 1,
            threads: 1,
            pool: PoolHandle::global(),
            obs: ObsHandle::disabled(),
        }
    }
}

/// One frontier parent awaiting refinement.
#[derive(Debug, Clone, Copy)]
pub struct ParentSpec<'a> {
    /// The parent's extension.
    pub ext: &'a BitSet,
    /// Children covering more rows than this are dropped. Searches encode
    /// their structural filters here: a beam passes
    /// `min(max_coverage, parent_support − 1)` (which also drops children
    /// equal to their parent), branch-and-bound passes `n` at the root.
    pub max_support: usize,
}

/// Identity and support of one emitted child.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChildMeta {
    /// Index of the parent in the `parents` slice passed to
    /// [`FrontierBuilder::refine_parents`].
    pub parent: usize,
    /// The matrix row (condition index) that was ANDed on.
    pub row: usize,
    /// `|parent ∩ row|` — the child's coverage.
    pub support: usize,
}

/// A batch of emitted children: per-child metadata plus all child
/// extensions packed row-major into one contiguous word arena (the same
/// layout as [`MaskMatrix`]). Materializing an owned [`BitSet`] via
/// [`ChildBatch::child_bitset`] is deferred to the children that survive
/// downstream filters (dedup, time budget), so a level that generates ten
/// thousand candidates performs heap allocations only for the ones it
/// keeps.
#[derive(Debug, Clone)]
pub struct ChildBatch {
    n: usize,
    stride: usize,
    meta: Vec<ChildMeta>,
    words: Vec<u64>,
}

impl ChildBatch {
    fn with_shape(n: usize, stride: usize) -> Self {
        Self {
            n,
            stride,
            meta: Vec::new(),
            words: Vec::new(),
        }
    }

    /// Assembles a batch whose metadata and word arena were produced by
    /// the two-pass (count-first) refinement.
    fn from_parts(n: usize, stride: usize, meta: Vec<ChildMeta>, words: Vec<u64>) -> Self {
        debug_assert_eq!(words.len(), meta.len() * stride);
        Self {
            n,
            stride,
            meta,
            words,
        }
    }

    /// Number of children in the batch.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// True when no child was emitted.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// Bit capacity (dataset row count) of every child extension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Metadata of all children, in emission order.
    pub fn metas(&self) -> &[ChildMeta] {
        &self.meta
    }

    /// Metadata of child `i`.
    pub fn meta(&self, i: usize) -> ChildMeta {
        self.meta[i]
    }

    /// The packed extension words of child `i`.
    pub fn child_words(&self, i: usize) -> &[u64] {
        &self.words[i * self.stride..(i + 1) * self.stride]
    }

    /// Child `i`'s extension materialized as an owned [`BitSet`] (this is
    /// the only allocating accessor — call it for keepers, not rejects).
    pub fn child_bitset(&self, i: usize) -> BitSet {
        BitSet::from_words(self.child_words(i).to_vec(), self.n)
    }

    fn push(&mut self, meta: ChildMeta, child_words: &[u64]) {
        self.meta.push(meta);
        self.words.extend_from_slice(child_words);
    }

    fn append(&mut self, other: &ChildBatch) {
        self.meta.extend_from_slice(&other.meta);
        self.words.extend_from_slice(&other.words);
    }
}

/// Rows per work item: one parent is refined in blocks of this many matrix
/// rows, so a single wide parent (e.g. the root of a level-1 beam) still
/// splits across workers. Small enough to parallelize short condition
/// languages, large enough that an item amortizes its scheduling.
const BLOCK_ROWS: usize = 32;

/// Smallest number of work items worth a worker thread: even with the
/// persistent pool, handing an item to a worker costs a queue round-trip,
/// so small frontiers run inline regardless of the configured thread
/// count.
const MIN_ITEMS_PER_WORKER: usize = 2;

/// Parents per grid-kernel tile in the count pass: each cache-resident
/// row block is ANDed against up to this many parents in one pass
/// ([`kernels::and_count_grid_select`]), instead of re-streaming the
/// block once per parent. Eight parents × a typical 128-word stride is
/// ~8 KiB of parent words — comfortably L1-resident next to the block —
/// while still splitting a wide beam into enough tiles to parallelize.
const PARENT_TILE: usize = 8;

/// Matrix size (words) above which *serial* multi-parent refinement takes
/// the two-pass grid route instead of the fused per-parent loop. The grid
/// kernels cut matrix traffic by up to [`PARENT_TILE`]×, but that only
/// buys wall-clock once the matrix no longer sits in cache between
/// parents; below this bound (≲ 1 MiB of mask words, roughly an L2) the
/// fused loop's single cache-resident pass per parent is faster than the
/// two-pass split's extra count buffer walk. Both routes are bit-identical
/// by the determinism contract, so this is a pure speed knob.
const GRID_MIN_MATRIX_WORDS: usize = 1 << 17;

/// Smallest kernel workload (words ANDed) worth a worker thread. The
/// fused kernels stream several words per nanosecond, so a worker must
/// bring tens of microseconds of word traffic to amortize its spawn+join;
/// below this total the refinement runs inline. In particular,
/// branch-and-bound's per-node refinement (one parent against a small
/// language) stays single-threaded at any configured thread count — its
/// parallelism lives in `score_all`, not here.
const MIN_WORDS_PER_WORKER: usize = 1 << 15;

/// Pass-1 sentinel: the dense count of a `(parent, row)` pair the
/// `allowed` filter rejected. Impossible as a real support (`≤ n`), so the
/// serial filter distinguishes "skipped" from "counted" without consulting
/// `allowed` a second time.
const SKIPPED: usize = usize::MAX;

/// Pass-2 fan-out: writes each survivor's `stride`-word arena slot via
/// `write(meta, out)` — a pure function of the child's metadata —
/// chunking survivors over the pool's workers when the workload clears
/// the worker thresholds. Disjoint output slices and pure per-child
/// writes keep the arena bit-identical at any thread count.
fn materialize_survivors(
    pool: PoolHandle,
    threads: usize,
    stride: usize,
    meta: &[ChildMeta],
    words: &mut [u64],
    write: impl Fn(&ChildMeta, &mut [u64]) + Sync,
) {
    if stride == 0 || meta.is_empty() {
        return;
    }
    debug_assert_eq!(words.len(), meta.len() * stride);
    let workers = threads
        .min(meta.len() / MIN_ITEMS_PER_WORKER)
        .min(words.len() / MIN_WORDS_PER_WORKER)
        .max(1);
    let chunk_size = meta.len().div_ceil(workers);
    pool.run_mut_chunks(words, chunk_size * stride, workers, |c, wc| {
        let mc = &meta[c * chunk_size..meta.len().min((c + 1) * chunk_size)];
        for (m, out) in mc.iter().zip(wc.chunks_exact_mut(stride)) {
            write(m, out);
        }
    });
}

/// Per-refinement tallies of the serial filter, accumulated in locals and
/// reported into the obs registry in one batch — the disabled path pays
/// only dead local increments.
#[derive(Debug, Default, Clone, Copy)]
struct RefineTally {
    /// (parent, row) pairs whose support was actually counted.
    counted: u64,
    /// Pairs rejected by the support floor/ceiling.
    count_pruned: u64,
    /// Pairs rejected by the caller's keep predicate.
    dedup_dropped: u64,
    /// Survivors materialized into the batch.
    materialized: u64,
}

fn record_refine(obs: ObsHandle, tally: RefineTally) {
    if !obs.enabled() {
        return;
    }
    obs.add(Metric::FrontierCandidates, tally.counted);
    obs.add(Metric::FrontierCountPruned, tally.count_pruned);
    obs.add(Metric::FrontierDedupDropped, tally.dedup_dropped);
    obs.add(Metric::FrontierMaterialized, tally.materialized);
}

/// The batched refinement engine over one [`MaskMatrix`]. Cheap to
/// construct (three words); build one wherever a search holds a matrix.
#[derive(Debug, Clone, Copy)]
pub struct FrontierBuilder<'m> {
    matrix: &'m MaskMatrix,
    config: FrontierConfig,
}

impl<'m> FrontierBuilder<'m> {
    /// A builder over `matrix` with the given filters/threading.
    pub fn new(matrix: &'m MaskMatrix, config: FrontierConfig) -> Self {
        Self { matrix, config }
    }

    /// The matrix being refined against.
    pub fn matrix(&self) -> &'m MaskMatrix {
        self.matrix
    }

    /// Refines every parent against every matrix row with
    /// `allowed(parent_idx, row) == true`, returning the children that
    /// pass the support filters, ordered by `(parent, row)` — exactly the
    /// order a serial nested loop over parents and conditions visits them,
    /// at any thread count.
    ///
    /// Runs count-first (see the module docs): supports are computed
    /// without writing any child words, and only the children passing the
    /// filters are materialized into the batch. Output is bit-identical to
    /// [`FrontierBuilder::refine_parents_single_pass`].
    pub fn refine_parents<F>(&self, parents: &[ParentSpec<'_>], allowed: F) -> ChildBatch
    where
        F: Fn(usize, usize) -> bool + Sync,
    {
        self.refine_with_prune(parents, allowed, |_, _, _| true)
    }

    /// [`FrontierBuilder::refine_parents`] with a serial keep predicate
    /// between the count pass and materialization: `keep(parent, row,
    /// support)` is consulted **once per support-passing child, in
    /// `(parent, row)` order, on the calling thread**, and a `false`
    /// return drops the child before any of its words are computed.
    ///
    /// The predicate order makes stateful filters exact: a first-wins
    /// dedup signature check behaves as in the serial nested loop at any
    /// thread count, and a branch-and-bound optimistic-bound predicate
    /// prunes doomed candidates before they are materialized rather than
    /// after they are scored.
    pub fn refine_with_prune<F, P>(
        &self,
        parents: &[ParentSpec<'_>],
        allowed: F,
        mut keep: P,
    ) -> ChildBatch
    where
        F: Fn(usize, usize) -> bool + Sync,
        P: FnMut(usize, usize, usize) -> bool,
    {
        let rows = self.matrix.rows();
        let stride = self.matrix.stride();
        let n = self.matrix.n();
        for p in parents {
            assert_eq!(
                p.ext.len(),
                n,
                "refine_with_prune: parent capacity mismatch"
            );
        }
        if parents.is_empty() || rows == 0 {
            return ChildBatch::with_shape(n, stride);
        }
        let obs = self.config.obs;
        obs.incr(Metric::FrontierRefineCalls);

        let blocks = rows.div_ceil(BLOCK_ROWS);
        let tiles = parents.len().div_ceil(PARENT_TILE);
        let n_items = tiles * blocks;
        let total_words = parents.len() * rows * stride;
        let workers = self
            .config
            .threads
            .min(n_items / MIN_ITEMS_PER_WORKER)
            .min(total_words / MIN_WORDS_PER_WORKER)
            .max(1);
        // On the calling thread the keep predicate can run inline, so the
        // two passes fuse per block: count a cache-resident block, filter
        // on the counts, and materialize its survivors while the rows are
        // still hot — one streaming read of the matrix per parent and one
        // arena write per survivor, with no scratch buffer at all. Serial
        // multi-parent refinement over a matrix too big to stay cached
        // between parents is the exception: it takes the two-pass grid
        // route below, where one block pass serves a whole parent tile
        // instead of re-streaming the matrix once per parent.
        if workers <= 1 && (parents.len() == 1 || rows * stride < GRID_MIN_MATRIX_WORDS) {
            obs.incr(Metric::FrontierFusedDispatch);
            let _fused_span = obs.span(Metric::FrontierFusedNs);
            return self.refine_fused_serial(parents, allowed, keep);
        }
        obs.incr(Metric::FrontierGridDispatch);

        // Pass 1 — count-only: dense per-(parent, row) supports, SKIPPED
        // where `allowed` rejects. Work items are (parent tile × row
        // block) cells of the refinement grid in tile-major order; each
        // item's counts are emitted parent-major within the item, and a
        // cursor walk below scatters them into the parent-major dense
        // vector. Every count is a pure function of its (parent, row)
        // pair, so the tiling never changes a value — only how many times
        // each block streams through the cache.
        let count_span = obs.span(Metric::FrontierCountNs);
        let parent_words: Vec<&[u64]> = parents.iter().map(|s| s.ext.words()).collect();
        let item_cell = |item: usize| {
            let (t, b) = (item / blocks, item % blocks);
            let p0 = t * PARENT_TILE;
            let p1 = parents.len().min(p0 + PARENT_TILE);
            let lo = b * BLOCK_ROWS;
            let hi = rows.min(lo + BLOCK_ROWS);
            (p0, p1, lo, hi)
        };
        let count_items = |items: std::ops::Range<usize>| -> Vec<usize> {
            let mut out = Vec::new();
            let mut select = [false; PARENT_TILE * BLOCK_ROWS];
            for item in items {
                let (p0, p1, lo, hi) = item_cell(item);
                let w = hi - lo;
                for (pi, p) in (p0..p1).enumerate() {
                    for (j, row) in (lo..hi).enumerate() {
                        select[pi * w + j] = allowed(p, row);
                    }
                }
                let cells = (p1 - p0) * w;
                let base = out.len();
                out.resize(base + cells, SKIPPED);
                kernels::and_count_grid_select(
                    &parent_words[p0..p1],
                    self.matrix.block_words(lo, hi),
                    &select[..cells],
                    &mut out[base..],
                );
            }
            out
        };
        // Outputs come back in chunk (= item) order, so scheduling never
        // reorders anything.
        let gathered: Vec<Vec<usize>> =
            self.config
                .pool
                .run_chunked(n_items, workers, |_, items| count_items(items));
        let mut counts = vec![SKIPPED; parents.len() * rows];
        let mut item = 0usize;
        for part in &gathered {
            let mut cursor = 0usize;
            while cursor < part.len() {
                let (p0, p1, lo, hi) = item_cell(item);
                let w = hi - lo;
                for p in p0..p1 {
                    counts[p * rows + lo..p * rows + hi].copy_from_slice(&part[cursor..cursor + w]);
                    cursor += w;
                }
                item += 1;
            }
        }
        drop(count_span);

        // Serial filter in (parent, row) order: support floor/ceiling on
        // the counts, then the caller's keep predicate.
        let mut tally = RefineTally::default();
        let mut meta: Vec<ChildMeta> = Vec::new();
        for (p, spec) in parents.iter().enumerate() {
            for row in 0..rows {
                let support = counts[p * rows + row];
                if support == SKIPPED {
                    continue;
                }
                tally.counted += 1;
                if support < self.config.min_support || support > spec.max_support {
                    tally.count_pruned += 1;
                    continue;
                }
                if !keep(p, row, support) {
                    tally.dedup_dropped += 1;
                    continue;
                }
                meta.push(ChildMeta {
                    parent: p,
                    row,
                    support,
                });
            }
        }
        tally.materialized = meta.len() as u64;
        record_refine(obs, tally);

        // Pass 2 — materialize only the survivors, each into its arena
        // slot (a pure function of its parent and row, so parallel chunks
        // over disjoint slices stay bit-identical).
        let materialize_span = obs.span(Metric::FrontierMaterializeNs);
        let mut words = vec![0u64; meta.len() * stride];
        materialize_survivors(
            self.config.pool,
            self.config.threads,
            stride,
            &meta,
            &mut words,
            |m, out| {
                kernels::and_into(
                    parents[m.parent].ext.words(),
                    self.matrix.row_words(m.row),
                    out,
                )
            },
        );
        drop(materialize_span);
        ChildBatch::from_parts(n, stride, meta, words)
    }

    /// The fused serial form of count-first refinement: per row block,
    /// count (no stores), filter on the counts, and materialize the
    /// block's survivors while its rows are cache-resident. Identical
    /// output to the two-pass form by construction — both visit
    /// `(parent, row)` in serial order and compute each child as the same
    /// pure AND.
    fn refine_fused_serial<F, P>(
        &self,
        parents: &[ParentSpec<'_>],
        allowed: F,
        mut keep: P,
    ) -> ChildBatch
    where
        F: Fn(usize, usize) -> bool,
        P: FnMut(usize, usize, usize) -> bool,
    {
        let rows = self.matrix.rows();
        let stride = self.matrix.stride();
        let mut tally = RefineTally::default();
        let mut meta: Vec<ChildMeta> = Vec::new();
        let mut words: Vec<u64> = Vec::new();
        let mut select = [false; BLOCK_ROWS];
        let mut counts = [0usize; BLOCK_ROWS];
        for (p, spec) in parents.iter().enumerate() {
            let parent_words = spec.ext.words();
            let mut lo = 0usize;
            while lo < rows {
                let hi = rows.min(lo + BLOCK_ROWS);
                for (j, row) in (lo..hi).enumerate() {
                    select[j] = allowed(p, row);
                }
                counts[..hi - lo].fill(SKIPPED);
                kernels::and_count_many_select(
                    parent_words,
                    self.matrix.block_words(lo, hi),
                    &select[..hi - lo],
                    &mut counts[..hi - lo],
                );
                for (j, row) in (lo..hi).enumerate() {
                    let support = counts[j];
                    if support == SKIPPED {
                        continue;
                    }
                    tally.counted += 1;
                    if support < self.config.min_support || support > spec.max_support {
                        tally.count_pruned += 1;
                        continue;
                    }
                    if !keep(p, row, support) {
                        tally.dedup_dropped += 1;
                        continue;
                    }
                    meta.push(ChildMeta {
                        parent: p,
                        row,
                        support,
                    });
                    let base = words.len();
                    words.resize(base + stride, 0);
                    kernels::and_into(parent_words, self.matrix.row_words(row), &mut words[base..]);
                }
                lo = hi;
            }
        }
        tally.materialized = meta.len() as u64;
        record_refine(self.config.obs, tally);
        ChildBatch::from_parts(self.matrix.n(), stride, meta, words)
    }

    /// The single-pass reference: fused AND+store+popcount per allowed
    /// row through a scratch buffer, filters applied inline — the PR 4
    /// refinement path, kept as the bit-exactness oracle for the
    /// count-first implementation (parity proptests and the benches
    /// compare against it) and as the better shape for callers that keep
    /// nearly every child.
    pub fn refine_parents_single_pass<F>(
        &self,
        parents: &[ParentSpec<'_>],
        allowed: F,
    ) -> ChildBatch
    where
        F: Fn(usize, usize) -> bool + Sync,
    {
        let rows = self.matrix.rows();
        let stride = self.matrix.stride();
        if parents.is_empty() || rows == 0 {
            return ChildBatch::with_shape(self.matrix.n(), stride);
        }
        // Work items: contiguous row blocks per parent, in (parent, row)
        // order. Chunking this flat list keeps both axes balanced.
        let blocks_per_parent = rows.div_ceil(BLOCK_ROWS);
        let items: Vec<(usize, usize, usize)> = (0..parents.len())
            .flat_map(|p| {
                (0..blocks_per_parent).map(move |b| {
                    let lo = b * BLOCK_ROWS;
                    (p, lo, rows.min(lo + BLOCK_ROWS))
                })
            })
            .collect();
        let total_words = parents.len() * rows * stride;
        let workers = self
            .config
            .threads
            .min(items.len() / MIN_ITEMS_PER_WORKER)
            .min(total_words / MIN_WORDS_PER_WORKER)
            .max(1);
        let run_items = |items: &[(usize, usize, usize)]| -> ChildBatch {
            let mut out = ChildBatch::with_shape(self.matrix.n(), stride);
            let mut scratch = vec![0u64; stride];
            for &(p, lo, hi) in items {
                refine_block(
                    self.matrix,
                    parents[p],
                    lo..hi,
                    self.config.min_support,
                    |row| allowed(p, row),
                    &mut scratch,
                    |row, support, words| {
                        out.push(
                            ChildMeta {
                                parent: p,
                                row,
                                support,
                            },
                            words,
                        );
                    },
                );
            }
            out
        };
        if workers <= 1 {
            return run_items(&items);
        }
        let parts: Vec<ChildBatch> =
            self.config
                .pool
                .run_chunked(items.len(), workers, |_, chunk| run_items(&items[chunk]));
        // Merge in chunk (= item = serial) order.
        let mut out = ChildBatch::with_shape(self.matrix.n(), stride);
        out.meta.reserve(parts.iter().map(ChildBatch::len).sum());
        out.words.reserve(parts.iter().map(|p| p.words.len()).sum());
        for part in &parts {
            out.append(part);
        }
        out
    }
}

/// The word-blocked refinement kernel: intersects one parent against a
/// contiguous block of matrix rows, emitting `(row, support, child words)`
/// for every allowed row whose intersection count lands in
/// `min_support..=parent.max_support`. The AND and the popcount are fused
/// into one pass per row ([`kernels::and_into_count`]) through a
/// caller-owned scratch buffer, so rejected candidates allocate nothing.
pub fn refine_block(
    matrix: &MaskMatrix,
    parent: ParentSpec<'_>,
    rows: std::ops::Range<usize>,
    min_support: usize,
    mut allowed: impl FnMut(usize) -> bool,
    scratch: &mut [u64],
    mut emit: impl FnMut(usize, usize, &[u64]),
) {
    assert_eq!(
        parent.ext.len(),
        matrix.n(),
        "refine_block: parent capacity mismatch"
    );
    let parent_words = parent.ext.words();
    for row in rows {
        if !allowed(row) {
            continue;
        }
        let support = kernels::and_into_count(parent_words, matrix.row_words(row), scratch);
        if support >= min_support && support <= parent.max_support {
            emit(row, support, scratch);
        }
    }
}

/// In-order first-wins dedup: keeps each item whose key is new to `seen`,
/// preserving input order. Because [`FrontierBuilder::refine_parents`]
/// emits children in the serial `(parent, row)` order at any thread count,
/// running this sequential pass after the (possibly parallel) refinement
/// reproduces the serial generate-and-dedup loop exactly.
pub fn dedup_in_order<T, K, F>(
    items: impl IntoIterator<Item = T>,
    mut key_of: F,
    seen: &mut HashSet<K>,
) -> Vec<T>
where
    K: Eq + Hash,
    F: FnMut(&T) -> K,
{
    items
        .into_iter()
        .filter(|item| seen.insert(key_of(item)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sisd_stats::Xoshiro256pp;

    /// Random mask of capacity `n` with roughly `density` fill.
    fn random_mask(rng: &mut Xoshiro256pp, n: usize, density: f64) -> BitSet {
        BitSet::from_fn(n, |_| rng.uniform() < density)
    }

    fn fixture(seed: u64, n: usize, rows: usize) -> (MaskMatrix, Vec<BitSet>) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let masks: Vec<BitSet> = (0..rows).map(|_| random_mask(&mut rng, n, 0.4)).collect();
        let parents: Vec<BitSet> = (0..5).map(|_| random_mask(&mut rng, n, 0.6)).collect();
        (MaskMatrix::from_bitsets(n, masks), parents)
    }

    /// The serial per-candidate reference: `BitSet::and` + `count`, nested
    /// loops, identical filters.
    fn reference(
        matrix: &MaskMatrix,
        parents: &[ParentSpec<'_>],
        allowed: impl Fn(usize, usize) -> bool,
        min_support: usize,
    ) -> Vec<(ChildMeta, BitSet)> {
        let mut out = Vec::new();
        for (p, spec) in parents.iter().enumerate() {
            for row in 0..matrix.rows() {
                if !allowed(p, row) {
                    continue;
                }
                let ext = spec.ext.and(&matrix.row_bitset(row));
                let support = ext.count();
                if support >= min_support && support <= spec.max_support {
                    out.push((
                        ChildMeta {
                            parent: p,
                            row,
                            support,
                        },
                        ext,
                    ));
                }
            }
        }
        out
    }

    fn assert_same(got: &ChildBatch, expect: &[(ChildMeta, BitSet)]) {
        assert_eq!(got.len(), expect.len());
        for (i, (meta, ext)) in expect.iter().enumerate() {
            assert_eq!(got.meta(i), *meta);
            assert_eq!(&got.child_bitset(i), ext);
        }
    }

    #[test]
    fn builder_matches_per_candidate_loop_at_any_thread_count() {
        // Lengths around word boundaries; rows around the block size.
        for &(n, rows) in &[(65usize, 7usize), (128, 32), (200, 45), (63, 100)] {
            let (matrix, parent_sets) = fixture(n as u64 * 31 + rows as u64, n, rows);
            let parents: Vec<ParentSpec<'_>> = parent_sets
                .iter()
                .map(|ext| ParentSpec {
                    ext,
                    max_support: ext.count().saturating_sub(1),
                })
                .collect();
            let allowed = |p: usize, row: usize| !(p + row).is_multiple_of(3);
            let min_support = 2;
            let expect = reference(&matrix, &parents, allowed, min_support);
            for threads in [1usize, 2, 4, 7] {
                let builder = FrontierBuilder::new(
                    &matrix,
                    FrontierConfig {
                        min_support,
                        threads,
                        ..FrontierConfig::default()
                    },
                );
                let got = builder.refine_parents(&parents, allowed);
                assert_same(&got, &expect);
            }
        }
    }

    #[test]
    fn parallel_merge_path_matches_serial_on_a_large_workload() {
        // Big enough to clear MIN_WORDS_PER_WORKER (the small fixtures
        // above stay inline by design): 6 parents × 64 rows × 256 words
        // ≈ 98k words of kernel work, so threads ≥ 2 really spawn.
        let n = 16_384;
        let mut rng = Xoshiro256pp::seed_from_u64(99);
        let masks: Vec<BitSet> = (0..64).map(|_| random_mask(&mut rng, n, 0.3)).collect();
        let matrix = MaskMatrix::from_bitsets(n, masks);
        let parent_sets: Vec<BitSet> = (0..6).map(|_| random_mask(&mut rng, n, 0.5)).collect();
        let parents: Vec<ParentSpec<'_>> = parent_sets
            .iter()
            .map(|ext| ParentSpec {
                ext,
                max_support: ext.count().saturating_sub(1),
            })
            .collect();
        let min_support = n / 8;
        let serial = FrontierBuilder::new(
            &matrix,
            FrontierConfig {
                min_support,
                threads: 1,
                ..FrontierConfig::default()
            },
        )
        .refine_parents(&parents, |_, _| true);
        assert!(!serial.is_empty());
        for threads in [2usize, 4] {
            let got = FrontierBuilder::new(
                &matrix,
                FrontierConfig {
                    min_support,
                    threads,
                    ..FrontierConfig::default()
                },
            )
            .refine_parents(&parents, |_, _| true);
            assert_eq!(got.len(), serial.len(), "threads={threads}");
            for i in 0..serial.len() {
                assert_eq!(got.meta(i), serial.meta(i), "threads={threads}");
                assert_eq!(got.child_words(i), serial.child_words(i));
            }
        }
    }

    #[test]
    fn support_filters_are_inclusive_bounds() {
        let n = 100;
        let masks = vec![
            BitSet::from_indices(n, 0..10),
            BitSet::from_indices(n, 0..50),
        ];
        let matrix = MaskMatrix::from_bitsets(n, masks);
        let full = BitSet::full(n);
        let parents = [ParentSpec {
            ext: &full,
            max_support: 10,
        }];
        let builder = FrontierBuilder::new(
            &matrix,
            FrontierConfig {
                min_support: 10,
                threads: 1,
                ..FrontierConfig::default()
            },
        );
        let children = builder.refine_parents(&parents, |_, _| true);
        // Row 0 has support exactly 10 (kept: both bounds inclusive);
        // row 1 has 50 (dropped).
        assert_eq!(children.len(), 1);
        assert_eq!(children.meta(0).row, 0);
        assert_eq!(children.meta(0).support, 10);
        assert_eq!(children.child_bitset(0), BitSet::from_indices(n, 0..10));
    }

    #[test]
    fn empty_parents_or_rows_yield_no_children() {
        let matrix = MaskMatrix::from_bitsets(50, Vec::<BitSet>::new());
        let builder = FrontierBuilder::new(&matrix, FrontierConfig::default());
        assert!(builder.refine_parents(&[], |_, _| true).is_empty());
        let full = BitSet::full(50);
        let parents = [ParentSpec {
            ext: &full,
            max_support: 50,
        }];
        assert!(builder.refine_parents(&parents, |_, _| true).is_empty());
    }

    #[test]
    fn dedup_keeps_first_occurrence_in_order() {
        let n = 40;
        let (matrix, parent_sets) = fixture(9, n, 12);
        let parents: Vec<ParentSpec<'_>> = parent_sets
            .iter()
            .map(|ext| ParentSpec {
                ext,
                max_support: n,
            })
            .collect();
        let builder = FrontierBuilder::new(
            &matrix,
            FrontierConfig {
                min_support: 0,
                threads: 3,
                ..FrontierConfig::default()
            },
        );
        let children = builder.refine_parents(&parents, |_, _| true);
        // Key children by row only: every parent generates each row once,
        // so dedup must keep exactly the first parent's children.
        let mut seen = HashSet::new();
        let deduped = dedup_in_order(0..children.len(), |&i| children.meta(i).row, &mut seen);
        assert_eq!(deduped.len(), matrix.rows());
        assert!(deduped.iter().all(|&i| children.meta(i).parent == 0));
        // Reference: the plain sequential filter.
        let mut seen2 = HashSet::new();
        let expect: Vec<usize> = (0..children.len())
            .filter(|&i| seen2.insert(children.meta(i).row))
            .collect();
        assert_eq!(deduped, expect);
    }
}
