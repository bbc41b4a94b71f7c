//! Frontier refinement.
//!
//! [`FrontierBuilder::refine_with_prune`] intersects every frontier parent
//! against every allowed row of a [`MaskMatrix`] and emits the children
//! that pass the support filters and a caller-supplied keep predicate —
//! the mask-AND + minimum-support half of level-wise candidate generation,
//! batched. Children land in a [`ChildBatch`]: per-child metadata only,
//! borrowing the parents' words and the matrix, so a child's words are
//! computed when a consumer asks for them, into the consumer's buffer.
//!
//! **Count first, keep survivors, fused per block.** Each parent walks the
//! matrix in cache-resident blocks of rows, and each block goes through
//! two steps before the next one is read:
//!
//! 1. *Count* — fused AND+popcounts for the block's allowed rows via
//!    [`sisd_data::kernels::and_count_many_select`], with **no store
//!    traffic at all**.
//! 2. *Filter* — the support floor/ceiling and the keep predicate (dedup
//!    signature checks, branch-and-bound optimistic bounds) run on the
//!    counts, in `(parent, row)` order, and a survivor's `(parent, row,
//!    support)` is appended to the batch.
//!
//! Refinement writes no child words, and the emitted child sequence is
//! exactly the one the serial per-candidate `BitSet::and` loop produces.

use crate::matrix::MaskMatrix;
use sisd_data::{kernels, BitSet};
use sisd_obs::{Metric, ObsHandle};

/// Settings of a [`FrontierBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontierConfig {
    /// Children with fewer covered rows are dropped (the search's
    /// minimum-coverage floor).
    pub min_support: usize,
    /// Observability handle refinement counters and spans report into.
    /// Disabled by default; never changes refinement output.
    pub obs: ObsHandle,
}

impl Default for FrontierConfig {
    fn default() -> Self {
        Self {
            min_support: 1,
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
    /// [`FrontierBuilder::refine_with_prune`].
    pub parent: usize,
    /// The matrix row (condition index) that was ANDed on.
    pub row: usize,
    /// `|parent ∩ row|` — the child's coverage.
    pub support: usize,
}

/// A batch of emitted children: the metadata of each, borrowing the
/// parents' words and the [`MaskMatrix`] they were refined against, so a
/// child's extension is the AND of two borrowed rows, computed on demand:
/// into a caller's buffer by [`ChildBatch::child_words_into`], or as an
/// owned [`BitSet`] by [`ChildBatch::child_bitset`]. A level that keeps
/// ten thousand candidates stores no child words, and allocates only for
/// the children a consumer keeps.
///
/// Children come in `(parent, row)` order, so the children of one parent
/// through one block of [`sisd_data::kernels::LANES`] matrix rows are
/// consecutive: a consumer can score such a run of siblings in one walk
/// over [`ChildBatch::parent_words`], reading which rows lie in each
/// sibling's mask from the matrix's row-major view
/// ([`MaskMatrix::lane_words`]), instead of ANDing each child.
#[derive(Debug, Clone)]
pub struct ChildBatch<'a> {
    matrix: &'a MaskMatrix,
    parents: Vec<&'a [u64]>,
    meta: Vec<ChildMeta>,
}

impl<'a> ChildBatch<'a> {
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
        self.matrix.n()
    }

    /// Metadata of all children, in emission order.
    pub fn metas(&self) -> &[ChildMeta] {
        &self.meta
    }

    /// Metadata of child `i`.
    pub fn meta(&self, i: usize) -> ChildMeta {
        self.meta[i]
    }

    /// The matrix the children were refined against.
    pub fn matrix(&self) -> &'a MaskMatrix {
        self.matrix
    }

    /// The extension words of parent `p` (an index into the `parents`
    /// slice passed to [`FrontierBuilder::refine_with_prune`]).
    pub fn parent_words(&self, p: usize) -> &'a [u64] {
        self.parents[p]
    }

    /// Writes child `i`'s extension words — its parent's words ANDed with
    /// its matrix row — into `out`, which holds one word per 64 rows.
    ///
    /// # Panics
    /// Panics if `out` is not the matrix's stride long.
    pub fn child_words_into(&self, i: usize, out: &mut [u64]) {
        let m = self.meta[i];
        kernels::and_into(self.parents[m.parent], self.matrix.row_words(m.row), out);
    }

    /// Child `i`'s extension as an owned [`BitSet`] (the allocating
    /// accessor — call it for keepers, not rejects).
    pub fn child_bitset(&self, i: usize) -> BitSet {
        let mut words = vec![0; self.matrix.stride()];
        self.child_words_into(i, &mut words);
        BitSet::from_words(words, self.n())
    }
}

/// Matrix rows per block: one parent is counted and filtered against this
/// many rows at a time, so the block's counts stay in a small stack array.
const BLOCK_ROWS: usize = 32;

/// Count-pass sentinel: the count of a `(parent, row)` pair the `allowed`
/// filter rejected. Impossible as a real support (`≤ n`), so the filter
/// distinguishes "skipped" from "counted" without consulting `allowed` a
/// second time.
const SKIPPED: usize = usize::MAX;

/// Per-refinement tallies of the filter, accumulated in locals and
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
    /// Survivors kept in the batch.
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
/// construct; build one wherever a search holds a matrix.
#[derive(Debug, Clone, Copy)]
pub struct FrontierBuilder<'m> {
    matrix: &'m MaskMatrix,
    config: FrontierConfig,
}

impl<'m> FrontierBuilder<'m> {
    /// A builder over `matrix` with the given filters.
    pub fn new(matrix: &'m MaskMatrix, config: FrontierConfig) -> Self {
        Self { matrix, config }
    }

    /// The matrix being refined against.
    pub fn matrix(&self) -> &'m MaskMatrix {
        self.matrix
    }

    /// Refines every parent against every matrix row with
    /// `allowed(parent_idx, row) == true` and returns the children whose
    /// support lies in `min_support..=max_support` and that `keep` accepts,
    /// ordered by `(parent, row)` — exactly the order a serial nested loop
    /// over parents and conditions visits them.
    ///
    /// `keep(parent, row, support)` is consulted **once per
    /// support-passing child, in `(parent, row)` order**, and a `false`
    /// return drops the child. The order makes stateful filters exact: a
    /// first-wins dedup signature check behaves as in the serial nested
    /// loop, and a branch-and-bound optimistic-bound predicate prunes
    /// doomed candidates on their counts rather than after they are
    /// scored. Pass `|_, _, _| true` to keep every support-passing child.
    ///
    /// No child words are written: the batch borrows the parents' words
    /// and the matrix, and computes a child's words when asked.
    pub fn refine_with_prune<'a, F, P>(
        &self,
        parents: &[ParentSpec<'a>],
        allowed: F,
        mut keep: P,
    ) -> ChildBatch<'a>
    where
        'm: 'a,
        F: Fn(usize, usize) -> bool,
        P: FnMut(usize, usize, usize) -> bool,
    {
        let rows = self.matrix.rows();
        for p in parents {
            assert_eq!(
                p.ext.len(),
                self.matrix.n(),
                "refine_with_prune: parent capacity mismatch"
            );
        }
        let mut out = ChildBatch {
            matrix: self.matrix,
            parents: parents.iter().map(|p| p.ext.words()).collect(),
            meta: Vec::new(),
        };
        if parents.is_empty() || rows == 0 {
            return out;
        }
        let obs = self.config.obs;
        obs.incr(Metric::FrontierRefineCalls);
        obs.incr(Metric::FrontierFusedDispatch);
        let _fused_span = obs.span(Metric::FrontierFusedNs);

        let mut tally = RefineTally::default();
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
                    out.meta.push(ChildMeta {
                        parent: p,
                        row,
                        support,
                    });
                }
                lo = hi;
            }
        }
        tally.materialized = out.meta.len() as u64;
        record_refine(obs, tally);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sisd_stats::Xoshiro256pp;
    use std::collections::HashSet;

    /// Random mask of capacity `n` with roughly `density` fill.
    fn random_mask(rng: &mut Xoshiro256pp, n: usize, density: f64) -> BitSet {
        BitSet::from_fn(n, |_| rng.uniform() < density)
    }

    fn fixture(seed: u64, n: usize, rows: usize, parents: usize) -> (MaskMatrix, Vec<BitSet>) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let masks: Vec<BitSet> = (0..rows).map(|_| random_mask(&mut rng, n, 0.4)).collect();
        let parents: Vec<BitSet> = (0..parents)
            .map(|_| random_mask(&mut rng, n, 0.6))
            .collect();
        (MaskMatrix::from_bitsets(n, masks), parents)
    }

    fn keep_all(_: usize, _: usize, _: usize) -> bool {
        true
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

    fn assert_same(got: &ChildBatch<'_>, expect: &[(ChildMeta, BitSet)]) {
        assert_eq!(got.len(), expect.len());
        for (i, (meta, ext)) in expect.iter().enumerate() {
            assert_eq!(got.meta(i), *meta);
            assert_eq!(&got.child_bitset(i), ext);
        }
    }

    #[test]
    fn builder_matches_per_candidate_loop() {
        // Lengths around word boundaries; rows around the block size; and
        // a wide beam over a matrix of 16,384 rows × 600 masks (153,600
        // words, 1.2 MiB: too big to stay in a typical L2 between
        // parents).
        for &(n, rows, parents) in &[
            (65usize, 7usize, 5usize),
            (128, 32, 5),
            (200, 45, 5),
            (63, 100, 5),
            (16_384, 600, 8),
        ] {
            let (matrix, parent_sets) = fixture(n as u64 * 31 + rows as u64, n, rows, parents);
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
            assert!(!expect.is_empty(), "n={n} rows={rows}");
            let builder = FrontierBuilder::new(
                &matrix,
                FrontierConfig {
                    min_support,
                    ..FrontierConfig::default()
                },
            );
            let got = builder.refine_with_prune(&parents, allowed, keep_all);
            assert_same(&got, &expect);
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
                ..FrontierConfig::default()
            },
        );
        let children = builder.refine_with_prune(&parents, |_, _| true, keep_all);
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
        assert!(builder
            .refine_with_prune(&[], |_, _| true, keep_all)
            .is_empty());
        let full = BitSet::full(50);
        let parents = [ParentSpec {
            ext: &full,
            max_support: 50,
        }];
        assert!(builder
            .refine_with_prune(&parents, |_, _| true, keep_all)
            .is_empty());
    }

    #[test]
    fn dedup_keeps_first_occurrence_in_order() {
        let n = 40;
        let (matrix, parent_sets) = fixture(9, n, 12, 5);
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
                ..FrontierConfig::default()
            },
        );
        // Key children by row only: every parent generates each row once,
        // so a first-wins keep predicate must keep exactly the first
        // parent's children.
        let mut seen = HashSet::new();
        let deduped =
            builder.refine_with_prune(&parents, |_, _| true, |_, row, _| seen.insert(row));
        assert_eq!(deduped.len(), matrix.rows());
        assert!(deduped.metas().iter().all(|m| m.parent == 0));
        // Reference: the plain sequential filter over the unfiltered batch.
        let all = builder.refine_with_prune(&parents, |_, _| true, keep_all);
        let mut seen2 = HashSet::new();
        let expect: Vec<usize> = (0..all.len())
            .filter(|&i| seen2.insert(all.meta(i).row))
            .collect();
        assert_eq!(deduped.len(), expect.len());
        let mut got = vec![0; matrix.stride()];
        let mut want = vec![0; matrix.stride()];
        for (k, &i) in expect.iter().enumerate() {
            assert_eq!(deduped.meta(k), all.meta(i));
            deduped.child_words_into(k, &mut got);
            all.child_words_into(i, &mut want);
            assert_eq!(got, want);
        }
    }
}
