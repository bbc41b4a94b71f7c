//! The condition-mask bit-matrix.
//!
//! One [`MaskMatrix`] holds the extension of **every base condition of the
//! description language** as one row of a single contiguous word arena —
//! the structure-of-arrays counterpart of a `Vec<BitSet>`. Rows share one
//! allocation and a common stride, so a refinement pass streams the whole
//! language through the cache in row order instead of chasing one heap
//! allocation per condition.
//!
//! The matrix also serves its transpose, on request: a **row-major view**
//! with one word per dataset row per block of 64 conditions, which says
//! which of the block's conditions that row satisfies. A sibling walk
//! ([`sisd_data::kernels::count_cells_sum_lanes`]) reads it to score a
//! parent's children 64 at a time.

use sisd_core::Condition;
use sisd_data::bitset::WORD_BITS;
use sisd_data::kernels::LANES;
use sisd_data::{BitSet, Dataset};
use std::sync::OnceLock;

/// A dense `rows × n` bit-matrix: row `j` is the extension (row mask) of
/// condition `j`, packed 64 columns per word in one contiguous arena.
///
/// Layout: row `j` occupies words `j·stride .. (j+1)·stride`, where
/// `stride = ceil(n / 64)`; within a row, bit `i % 64` of word `i / 64` is
/// dataset row `i`, and tail bits beyond `n` are zero (popcounts over
/// whole rows are exact).
///
/// The row-major view ([`MaskMatrix::lane_words`]) is built from these
/// words the first time it is asked for and kept with the matrix, so a
/// search language that is reused across searches builds it once.
#[derive(Debug, Clone)]
pub struct MaskMatrix {
    words: Vec<u64>,
    stride: usize,
    n: usize,
    rows: usize,
    /// The row-major view: block `b`'s `n` words, then block `b + 1`'s.
    by_row: OnceLock<Vec<u64>>,
}

impl MaskMatrix {
    /// Evaluates every condition over the dataset once and packs the
    /// resulting masks as rows. This is the *only* place a search needs to
    /// run [`Condition::evaluate`]: every level of every search over the
    /// same dataset reuses these rows.
    pub fn evaluate(data: &Dataset, conditions: &[Condition]) -> Self {
        Self::from_bitsets(data.n(), conditions.iter().map(|c| c.evaluate(data)))
    }

    /// Packs pre-evaluated masks (each of capacity `n`) as rows.
    ///
    /// # Panics
    /// Panics if a mask's capacity differs from `n`.
    pub fn from_bitsets(n: usize, masks: impl IntoIterator<Item = BitSet>) -> Self {
        let stride = n.div_ceil(WORD_BITS);
        let mut words = Vec::new();
        let mut rows = 0usize;
        for mask in masks {
            assert_eq!(mask.len(), n, "MaskMatrix: mask capacity mismatch");
            words.extend_from_slice(mask.words());
            rows += 1;
        }
        Self {
            words,
            stride,
            n,
            rows,
            by_row: OnceLock::new(),
        }
    }

    /// Number of dataset rows each mask ranges over.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of condition masks (matrix rows).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Words per row.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The words of row `j`.
    #[inline]
    pub fn row_words(&self, j: usize) -> &[u64] {
        &self.words[j * self.stride..(j + 1) * self.stride]
    }

    /// The contiguous arena slice covering rows `lo..hi` — the block shape
    /// [`sisd_data::kernels::and_count_many_select`] consumes.
    #[inline]
    pub fn block_words(&self, lo: usize, hi: usize) -> &[u64] {
        &self.words[lo * self.stride..hi * self.stride]
    }

    /// Row `j` materialized back into an owned [`BitSet`].
    pub fn row_bitset(&self, j: usize) -> BitSet {
        BitSet::from_words(self.row_words(j).to_vec(), self.n)
    }

    /// Population count of row `j` (the condition's support).
    pub fn row_count(&self, j: usize) -> usize {
        self.row_words(j)
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Number of blocks of [`LANES`] conditions, the last one possibly
    /// partial: the blocks of the row-major view.
    fn lane_blocks(&self) -> usize {
        self.rows.div_ceil(LANES)
    }

    /// The row-major view of conditions `64·block .. 64·block + 64`: one
    /// word per dataset row, whose bit `j` is set when the row satisfies
    /// condition `64·block + j` (bit `i` of [`MaskMatrix::row_words`] of
    /// that condition). Bits past the last condition are zero.
    ///
    /// The whole view — `n` words per block of 64 conditions, 8 bytes per
    /// dataset row per block — is built on the first call, by one 64 × 64
    /// bit transpose per block and word of rows, and kept.
    ///
    /// # Panics
    /// Panics if `block` lies past the last condition.
    pub fn lane_words(&self, block: usize) -> &[u64] {
        let view = self.by_row.get_or_init(|| self.transpose());
        &view[block * self.n..(block + 1) * self.n]
    }

    /// Builds the row-major view: for each block of conditions and each
    /// word of dataset rows, the block's 64 words are a 64 × 64 bit tile
    /// whose transpose is the 64 rows' membership words.
    fn transpose(&self) -> Vec<u64> {
        let mut view = vec![0u64; self.lane_blocks() * self.n];
        let mut tile = [0u64; LANES];
        for (block, lanes) in view.chunks_exact_mut(self.n.max(1)).enumerate() {
            let conditions = block * LANES..self.rows.min((block + 1) * LANES);
            for (w, out) in lanes.chunks_mut(WORD_BITS).enumerate() {
                tile.fill(0);
                for (t, j) in tile.iter_mut().zip(conditions.clone()) {
                    *t = self.words[j * self.stride + w];
                }
                transpose_tile(&mut tile);
                out.copy_from_slice(&tile[..out.len()]);
            }
        }
        view
    }
}

/// Transposes a 64 × 64 bit tile in place: bit `j` of word `i` trades
/// places with bit `i` of word `j`. Each round swaps the off-diagonal
/// quarters of every `2h × 2h` sub-tile, for `h` = 32, 16, …, 1.
fn transpose_tile(tile: &mut [u64; LANES]) {
    let mut h = LANES / 2;
    let mut low = u64::MAX >> h;
    while h > 0 {
        for i in (0..LANES).filter(|i| i & h == 0) {
            let swap = ((tile[i] >> h) ^ tile[i + h]) & low;
            tile[i] ^= swap << h;
            tile[i + h] ^= swap;
        }
        h /= 2;
        low ^= low << h;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sisd_core::ConditionOp;
    use sisd_data::Column;
    use sisd_linalg::Matrix;

    fn data(n: usize) -> Dataset {
        Dataset::new(
            "m",
            vec!["num".into(), "cat".into()],
            vec![
                Column::Numeric((0..n).map(|i| (i % 17) as f64).collect()),
                Column::categorical_from_strs(
                    &(0..n).map(|i| ["a", "b"][i % 2]).collect::<Vec<_>>(),
                ),
            ],
            vec!["y".into()],
            Matrix::zeros(n, 1),
        )
    }

    fn language() -> Vec<Condition> {
        vec![
            Condition {
                attr: 0,
                op: ConditionOp::Ge(8.0),
            },
            Condition {
                attr: 0,
                op: ConditionOp::Le(3.0),
            },
            Condition {
                attr: 1,
                op: ConditionOp::Eq(0),
            },
        ]
    }

    #[test]
    fn rows_match_per_condition_evaluation() {
        for n in [5usize, 64, 65, 200] {
            let d = data(n);
            let conds = language();
            let m = MaskMatrix::evaluate(&d, &conds);
            assert_eq!(m.rows(), conds.len());
            assert_eq!(m.n(), n);
            assert_eq!(m.stride(), n.div_ceil(64));
            for (j, c) in conds.iter().enumerate() {
                assert_eq!(m.row_bitset(j), c.evaluate(&d), "n={n}, row {j}");
                assert_eq!(m.row_count(j), c.evaluate(&d).count());
            }
        }
    }

    #[test]
    fn empty_language_and_empty_dataset() {
        let d = data(10);
        let m = MaskMatrix::evaluate(&d, &[]);
        assert_eq!(m.rows(), 0);
        let d0 = data(0);
        let m0 = MaskMatrix::evaluate(&d0, &language());
        assert_eq!(m0.rows(), 3);
        assert_eq!(m0.stride(), 0);
        assert_eq!(m0.row_count(0), 0);
        assert_eq!(m0.lane_blocks(), 1);
        assert!(m0.lane_words(0).is_empty());
        assert_eq!(m.lane_blocks(), 0);
    }

    #[test]
    fn row_major_view_is_the_transpose_of_the_rows() {
        let mut rng = sisd_stats::Xoshiro256pp::seed_from_u64(3);
        for n in [1usize, 63, 64, 65, 1994] {
            for conditions in [1usize, 63, 64, 65, 130] {
                let masks = (0..conditions).map(|_| BitSet::from_fn(n, |_| rng.uniform() < 0.4));
                let m = MaskMatrix::from_bitsets(n, masks);
                assert_eq!(m.lane_blocks(), conditions.div_ceil(LANES));
                for block in 0..m.lane_blocks() {
                    let view = m.lane_words(block);
                    assert_eq!(view.len(), n, "n={n} conditions={conditions}");
                    for (i, &word) in view.iter().enumerate() {
                        for j in 0..LANES {
                            let c = block * LANES + j;
                            let want =
                                c < conditions && m.row_words(c)[i / 64] >> (i % 64) & 1 == 1;
                            assert_eq!(
                                word >> j & 1 == 1,
                                want,
                                "n={n} conditions={conditions}: row {i}, condition {c}"
                            );
                        }
                    }
                }
            }
        }
    }
}
