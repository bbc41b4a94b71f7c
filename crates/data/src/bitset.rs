//! Fixed-capacity dense bitsets for subgroup extensions.
//!
//! A subgroup's extension is an index set `I ⊆ [n]` (paper §II-A). Beam
//! search refines millions of candidate extensions by intersecting the rows
//! matched by individual conditions, and the model layer repeatedly needs
//! `|I ∩ cell|` counts — both are word-parallel operations on a dense
//! bitset, so extensions are bitsets everywhere in this codebase.

/// Bits per storage word of a [`BitSet`] (and of the word-level kernels in
/// [`crate::kernels`]).
pub const WORD_BITS: usize = 64;

/// A fixed-length bitset over row indices `0..len`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// All-zeros bitset over `len` rows.
    pub fn empty(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// All-ones bitset over `len` rows.
    pub fn full(len: usize) -> Self {
        let mut s = Self {
            words: vec![!0u64; len.div_ceil(64)],
            len,
        };
        s.clear_tail();
        s
    }

    /// Builds from an iterator of member indices.
    ///
    /// # Panics
    /// Panics if an index is out of range.
    pub fn from_indices(len: usize, indices: impl IntoIterator<Item = usize>) -> Self {
        let mut s = Self::empty(len);
        for i in indices {
            s.insert(i);
        }
        s
    }

    /// Builds from a boolean predicate evaluated on every row.
    pub fn from_fn(len: usize, mut pred: impl FnMut(usize) -> bool) -> Self {
        let mut s = Self::empty(len);
        for i in 0..len {
            if pred(i) {
                s.insert(i);
            }
        }
        s
    }

    /// Builds from a per-word producer: `word_of(w)` returns the 64 bits
    /// covering rows `64w..64(w+1)` (bit `b` of the word is row `64w + b`).
    /// The word-level counterpart of [`BitSet::from_fn`] — callers that can
    /// pack 64 rows at a time skip the per-bit bounds-checked inserts. Tail
    /// bits beyond `len` are cleared.
    pub fn from_word_fn(len: usize, word_of: impl FnMut(usize) -> u64) -> Self {
        let mut s = Self {
            words: (0..len.div_ceil(WORD_BITS)).map(word_of).collect(),
            len,
        };
        s.clear_tail();
        s
    }

    /// Builds from a raw word vector laid out as in [`BitSet::words`].
    /// Tail bits beyond `len` are cleared.
    ///
    /// # Panics
    /// Panics if `words.len()` is not exactly `len.div_ceil(64)`.
    pub fn from_words(words: Vec<u64>, len: usize) -> Self {
        assert_eq!(
            words.len(),
            len.div_ceil(WORD_BITS),
            "BitSet::from_words: {} words cannot back {len} rows",
            words.len()
        );
        let mut s = Self { words, len };
        s.clear_tail();
        s
    }

    /// The backing words, least-significant bit first: row `i` is bit
    /// `i % 64` of word `i / 64`. Bits at positions `>= len` in the last
    /// word are always zero. This is the raw view the word-level kernels in
    /// [`crate::kernels`] (and the frontier bit-matrix built on them)
    /// operate on.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of rows the bitset ranges over (not the population count).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitset has zero capacity.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts row `i`.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        assert!(i < self.len, "BitSet::insert: index {i} out of range");
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Removes row `i`.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        assert!(i < self.len, "BitSet::remove: index {i} out of range");
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        i < self.len && self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Population count `|I|`.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `|self ∩ other|` without materializing the intersection.
    pub fn intersection_count(&self, other: &BitSet) -> usize {
        assert_eq!(self.len, other.len, "BitSet: length mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Intersection as a new bitset.
    pub fn and(&self, other: &BitSet) -> BitSet {
        assert_eq!(self.len, other.len, "BitSet: length mismatch");
        BitSet {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & b)
                .collect(),
            len: self.len,
        }
    }

    /// In-place intersection.
    pub fn and_assign(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "BitSet: length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// Union as a new bitset.
    pub fn or(&self, other: &BitSet) -> BitSet {
        assert_eq!(self.len, other.len, "BitSet: length mismatch");
        BitSet {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a | b)
                .collect(),
            len: self.len,
        }
    }

    /// Set difference `self \ other` as a new bitset.
    pub fn minus(&self, other: &BitSet) -> BitSet {
        assert_eq!(self.len, other.len, "BitSet: length mismatch");
        BitSet {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & !b)
                .collect(),
            len: self.len,
        }
    }

    /// Complement within `[0, len)`.
    pub fn complement(&self) -> BitSet {
        let mut out = BitSet {
            words: self.words.iter().map(|w| !w).collect(),
            len: self.len,
        };
        out.clear_tail();
        out
    }

    /// True when the sets share no element.
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// True when `self ⊆ other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterates member indices in ascending order.
    pub fn iter(&self) -> BitIter<'_> {
        BitIter {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Member indices collected into a vector.
    pub fn to_indices(&self) -> Vec<usize> {
        self.iter().collect()
    }

    fn clear_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

impl std::fmt::Debug for BitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BitSet({}/{}; ", self.count(), self.len)?;
        let idx = self.to_indices();
        if idx.len() <= 12 {
            write!(f, "{idx:?})")
        } else {
            write!(f, "{:?}…)", &idx[..12])
        }
    }
}

/// Ascending iterator over set bits.
pub struct BitIter<'a> {
    set: &'a BitSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for BitIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::empty(100);
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(99);
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(99));
        assert!(!s.contains(1) && !s.contains(98));
        assert_eq!(s.count(), 4);
        s.remove(63);
        assert!(!s.contains(63));
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn full_and_complement_respect_tail() {
        let s = BitSet::full(70);
        assert_eq!(s.count(), 70);
        let c = s.complement();
        assert_eq!(c.count(), 0);
        let e = BitSet::empty(70).complement();
        assert_eq!(e.count(), 70);
        assert!(!e.contains(70));
    }

    #[test]
    fn set_algebra() {
        let a = BitSet::from_indices(10, [1, 2, 3, 7]);
        let b = BitSet::from_indices(10, [2, 3, 4]);
        assert_eq!(a.and(&b).to_indices(), vec![2, 3]);
        assert_eq!(a.or(&b).to_indices(), vec![1, 2, 3, 4, 7]);
        assert_eq!(a.minus(&b).to_indices(), vec![1, 7]);
        assert_eq!(a.intersection_count(&b), 2);
        assert!(!a.is_disjoint(&b));
        assert!(a.and(&b).is_subset(&a));
        assert!(!a.is_subset(&b));
        let disjoint = BitSet::from_indices(10, [0, 9]);
        assert!(a.is_disjoint(&disjoint));
    }

    #[test]
    fn and_assign_matches_and() {
        let mut a = BitSet::from_indices(130, (0..130).step_by(3));
        let b = BitSet::from_indices(130, (0..130).step_by(2));
        let expect = a.and(&b);
        a.and_assign(&b);
        assert_eq!(a, expect);
    }

    #[test]
    fn iterator_crosses_word_boundaries() {
        let idx = vec![0, 5, 63, 64, 65, 127, 128, 199];
        let s = BitSet::from_indices(200, idx.clone());
        assert_eq!(s.to_indices(), idx);
    }

    #[test]
    fn from_fn_matches_predicate() {
        let s = BitSet::from_fn(50, |i| i % 7 == 0);
        assert_eq!(s.to_indices(), vec![0, 7, 14, 21, 28, 35, 42, 49]);
    }

    #[test]
    fn from_word_fn_matches_from_fn() {
        // Lengths on, below, and above word boundaries.
        for len in [0usize, 1, 63, 64, 65, 127, 128, 200] {
            let pred = |i: usize| i.is_multiple_of(3) || i % 7 == 2;
            let scalar = BitSet::from_fn(len, pred);
            let word_level = BitSet::from_word_fn(len, |w| {
                let mut word = 0u64;
                for b in 0..64.min(len - w * 64) {
                    word |= u64::from(pred(w * 64 + b)) << b;
                }
                word
            });
            assert_eq!(word_level, scalar, "len={len}");
        }
    }

    #[test]
    fn from_word_fn_clears_tail_bits() {
        let s = BitSet::from_word_fn(70, |_| !0u64);
        assert_eq!(s.count(), 70);
        assert!(!s.contains(70));
    }

    #[test]
    fn words_round_trip_through_from_words() {
        let s = BitSet::from_indices(130, [0, 63, 64, 100, 129]);
        let t = BitSet::from_words(s.words().to_vec(), s.len());
        assert_eq!(s, t);
        assert_eq!(s.words().len(), 3);
    }

    #[test]
    #[should_panic(expected = "cannot back")]
    fn from_words_rejects_wrong_word_count() {
        BitSet::from_words(vec![0u64; 2], 200);
    }

    #[test]
    fn empty_capacity() {
        let s = BitSet::empty(0);
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_insert_panics() {
        BitSet::empty(10).insert(10);
    }

    #[test]
    fn debug_format_is_compact() {
        let s = BitSet::from_indices(100, 0..50);
        let d = format!("{s:?}");
        assert!(d.contains("50/100"));
        assert!(d.contains('…'));
    }
}
