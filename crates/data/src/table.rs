//! The dataset container: description attributes + real-valued targets.
//!
//! Mirrors the paper's notation (§II): `n` data points, each with a tuple of
//! `dx` arbitrarily-typed description attributes `x̂ᵢ` and a real-valued
//! target vector `ŷᵢ ∈ R^dy`, stacked into `Ŷ`.

use crate::bitset::BitSet;
use crate::column::Column;
use sisd_linalg::Matrix;

/// A dataset with a description part and a real-valued target part.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Dataset name (used by harness output).
    pub name: String,
    desc_names: Vec<String>,
    desc_cols: Vec<Column>,
    target_names: Vec<String>,
    /// `n × dy` target matrix `Ŷ`.
    targets: Matrix,
    /// `Ŷ` as a bit matrix when every value is 0 or 1 (see
    /// [`Dataset::target_bits`]).
    target_bits: Option<Vec<u64>>,
}

impl Dataset {
    /// Assembles a dataset.
    ///
    /// # Panics
    /// Panics when the shapes disagree: every description column must have
    /// `targets.rows()` rows and names must pair with columns.
    pub fn new(
        name: impl Into<String>,
        desc_names: Vec<String>,
        desc_cols: Vec<Column>,
        target_names: Vec<String>,
        targets: Matrix,
    ) -> Self {
        assert_eq!(
            desc_names.len(),
            desc_cols.len(),
            "Dataset: {} names for {} description columns",
            desc_names.len(),
            desc_cols.len()
        );
        assert_eq!(
            target_names.len(),
            targets.cols(),
            "Dataset: target name count must equal dy"
        );
        for (nm, col) in desc_names.iter().zip(&desc_cols) {
            assert_eq!(
                col.len(),
                targets.rows(),
                "Dataset: column '{nm}' has {} rows, targets have {}",
                col.len(),
                targets.rows()
            );
        }
        let target_bits = binary_target_bits(&targets);
        Self {
            name: name.into(),
            desc_names,
            desc_cols,
            target_names,
            targets,
            target_bits,
        }
    }

    /// Number of data points `n`.
    pub fn n(&self) -> usize {
        self.targets.rows()
    }

    /// Number of description attributes `dx`.
    pub fn dx(&self) -> usize {
        self.desc_cols.len()
    }

    /// Number of target attributes `dy`.
    pub fn dy(&self) -> usize {
        self.targets.cols()
    }

    /// Order-sensitive hash of the full dataset content: name, shape,
    /// attribute names, description columns, and the exact target bits.
    /// Session snapshots stamp this so a resume against different data is
    /// rejected up front instead of silently mining the wrong rows.
    ///
    /// It takes one 64-bit word per step: `x = (h ^ word)·K`, then
    /// `h = x ^ (x >> 32)`, which folds the product's high bits back down
    /// for the next multiply to spread upward. Each step is a bijection of
    /// `h` and of the word, so word sequences of one length that differ
    /// in a single word never collide. A bare multiply per word (FNV-1a
    /// over words) carries a sign-bit flip to bit 63 alone, where a second
    /// sign flip cancels it; the fold moves it into bit 31 as well.
    ///
    /// Each column and the target matrix are hashed in four independent
    /// chains of these steps, word `i` into chain `i % 4`, each from its own
    /// seed, so that four multiplies are in flight instead of one; the
    /// chains' states then join the main chain in chain order. A change to
    /// a single word still changes exactly one chain's state.
    pub fn content_fingerprint(&self) -> u64 {
        const LANES: usize = 4;
        fn step(h: u64, w: u64) -> u64 {
            let x = (h ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            x ^ (x >> 32)
        }
        struct Hash(u64);
        impl Hash {
            fn word(&mut self, w: u64) {
                self.0 = step(self.0, w);
            }
            fn str(&mut self, s: &str) {
                // Length-prefix every string so concatenations can't collide.
                self.word(s.len() as u64);
                for chunk in s.as_bytes().chunks(8) {
                    let mut word = [0; 8];
                    word[..chunk.len()].copy_from_slice(chunk);
                    self.word(u64::from_le_bytes(word));
                }
            }
            fn words<T: Copy>(&mut self, items: &[T], bits: impl Fn(T) -> u64) {
                let mut lanes: [u64; LANES] =
                    std::array::from_fn(|l| step(0xcbf2_9ce4_8422_2325, l as u64));
                let mut chunks = items.chunks_exact(LANES);
                for chunk in &mut chunks {
                    for (h, &v) in lanes.iter_mut().zip(chunk) {
                        *h = step(*h, bits(v));
                    }
                }
                for (h, &v) in lanes.iter_mut().zip(chunks.remainder()) {
                    *h = step(*h, bits(v));
                }
                for h in lanes {
                    self.word(h);
                }
            }
        }
        let mut h = Hash(0xcbf2_9ce4_8422_2325);
        h.str(&self.name);
        h.word(self.n() as u64);
        h.word(self.dy() as u64);
        for name in &self.desc_names {
            h.str(name);
        }
        for col in &self.desc_cols {
            match col {
                Column::Numeric(vals) => {
                    h.word(1);
                    h.words(vals, f64::to_bits);
                }
                Column::Categorical { codes, labels } => {
                    h.word(2);
                    h.words(codes, u64::from);
                    for l in labels {
                        h.str(l);
                    }
                }
            }
        }
        for name in &self.target_names {
            h.str(name);
        }
        h.words(self.targets.as_slice(), f64::to_bits);
        h.0
    }

    /// Description attribute names.
    pub fn desc_names(&self) -> &[String] {
        &self.desc_names
    }

    /// Description columns.
    pub fn desc_cols(&self) -> &[Column] {
        &self.desc_cols
    }

    /// Description column by index.
    pub fn desc_col(&self, j: usize) -> &Column {
        &self.desc_cols[j]
    }

    /// Index of a description attribute by name.
    pub fn desc_index(&self, name: &str) -> Option<usize> {
        self.desc_names.iter().position(|n| n == name)
    }

    /// Target attribute names.
    pub fn target_names(&self) -> &[String] {
        &self.target_names
    }

    /// The full `n × dy` target matrix.
    pub fn targets(&self) -> &Matrix {
        &self.targets
    }

    /// The targets as one row-major bit matrix when every target value is
    /// exactly 0 or 1 (`v == 0.0 || v == 1.0`, so `−0.0` counts as 0 and
    /// NaN or ±∞ as neither), `None` otherwise: `dy` rows of ⌈n / 64⌉
    /// words, row `j` holding column `j` with bit `i` set where `ŷᵢⱼ = 1`
    /// and tail bits zero — the layout of [`crate::kernels`]'s block
    /// arguments. A column's sum is then `popcount(I ∧ row j)`, the exact
    /// integer a row walk adds up from `+0.0` in any order.
    pub fn target_bits(&self) -> Option<&[u64]> {
        self.target_bits.as_deref()
    }

    /// Target vector `ŷᵢ` of row `i`.
    pub fn target_row(&self, i: usize) -> &[f64] {
        self.targets.row(i)
    }

    /// Target column `j` as an owned vector.
    pub fn target_col(&self, j: usize) -> Vec<f64> {
        (0..self.n()).map(|i| self.targets[(i, j)]).collect()
    }

    /// Empirical mean of the targets over an extension (paper Eq. 1).
    ///
    /// # Panics
    /// Panics when the extension is empty.
    pub fn target_mean(&self, ext: &BitSet) -> Vec<f64> {
        let cnt = ext.count();
        assert!(cnt > 0, "target_mean: empty extension");
        let mut mean = vec![0.0; self.dy()];
        crate::kernels::sum_rows(self.targets.as_slice(), ext.words(), &mut mean);
        sisd_linalg::scale(1.0 / cnt as f64, &mut mean);
        mean
    }

    /// Empirical mean over all rows.
    pub fn target_mean_all(&self) -> Vec<f64> {
        self.target_mean(&BitSet::full(self.n()))
    }

    /// Empirical (population) covariance of the targets over an extension,
    /// centred at the extension's own mean.
    pub fn target_covariance(&self, ext: &BitSet) -> Matrix {
        let cnt = ext.count();
        assert!(cnt > 0, "target_covariance: empty extension");
        let mean = self.target_mean(ext);
        let dy = self.dy();
        let mut cov = Matrix::zeros(dy, dy);
        let mut centred = vec![0.0; dy];
        for i in ext.iter() {
            centred.copy_from_slice(self.targets.row(i));
            sisd_linalg::sub_assign(&mut centred, &mean);
            cov.rank_one_update(1.0 / cnt as f64, &centred, &centred);
        }
        cov.symmetrize();
        cov
    }

    /// Empirical covariance over all rows.
    pub fn target_covariance_all(&self) -> Matrix {
        self.target_covariance(&BitSet::full(self.n()))
    }

    /// Variance of the extension's targets along unit direction `w`,
    /// centred at the extension mean — the spread statistic `g_I^w(Ŷ)`
    /// (paper Eq. 2).
    pub fn target_variance_along(&self, ext: &BitSet, w: &[f64]) -> f64 {
        let cnt = ext.count();
        assert!(cnt > 0, "target_variance_along: empty extension");
        assert_eq!(w.len(), self.dy(), "target_variance_along: bad direction");
        let mean = self.target_mean(ext);
        let proj_mean = sisd_linalg::dot(&mean, w);
        let mut acc = 0.0;
        for i in ext.iter() {
            let p = sisd_linalg::dot(self.targets.row(i), w) - proj_mean;
            acc += p * p;
        }
        acc / cnt as f64
    }

    /// Scatter matrix `Σ_{i∈I} (ŷᵢ − ŷ_I)(ŷᵢ − ŷ_I)ᵀ / |I|` of an
    /// extension; `wᵀ S w` is the spread statistic for any direction, so
    /// the spread optimizer computes `S` once per subgroup.
    pub fn target_scatter(&self, ext: &BitSet) -> Matrix {
        self.target_covariance(ext)
    }
}

/// [`Dataset::target_bits`] of `targets`: one pass that stops at the first
/// value other than 0 or 1, then one row-major pass that sets the bits.
fn binary_target_bits(targets: &Matrix) -> Option<Vec<u64>> {
    let values = targets.as_slice();
    if !values.iter().all(|&v| v == 0.0 || v == 1.0) {
        return None;
    }
    let dy = targets.cols();
    let stride = targets.rows().div_ceil(64);
    let mut bits = vec![0u64; dy * stride];
    // With no columns there are no values, so the row width of 1 is moot.
    for (i, row) in values.chunks_exact(dy.max(1)).enumerate() {
        let (word, bit) = (i / 64, i % 64);
        for (j, &v) in row.iter().enumerate() {
            bits[j * stride + word] |= u64::from(v == 1.0) << bit;
        }
    }
    Some(bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        // 4 rows, 1 categorical + 1 numeric descriptor, 2 targets.
        let targets = Matrix::from_rows(&[&[1.0, 10.0], &[2.0, 20.0], &[3.0, 30.0], &[4.0, 40.0]]);
        Dataset::new(
            "toy",
            vec!["cat".into(), "num".into()],
            vec![
                Column::categorical_from_strs(&["a", "a", "b", "b"]),
                Column::Numeric(vec![0.1, 0.2, 0.3, 0.4]),
            ],
            vec!["t1".into(), "t2".into()],
            targets,
        )
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let d = toy();
        assert_eq!(d.content_fingerprint(), toy().content_fingerprint());
        let mut other = toy();
        other.name = "toy2".into();
        assert_ne!(d.content_fingerprint(), other.content_fingerprint());
        let tweaked = Dataset::new(
            "toy",
            vec!["cat".into(), "num".into()],
            vec![
                Column::categorical_from_strs(&["a", "a", "b", "b"]),
                Column::Numeric(vec![0.1, 0.2, 0.3, 0.4]),
            ],
            vec!["t1".into(), "t2".into()],
            Matrix::from_rows(&[&[1.0, 10.0], &[2.0, 20.0], &[3.0, 30.5], &[4.0, 40.0]]),
        );
        assert_ne!(d.content_fingerprint(), tweaked.content_fingerprint());
    }

    #[test]
    fn fingerprint_sees_a_swap_of_two_words() {
        // Two rows swap their first target: words 0 and dy of the
        // row-major target matrix, in one chain at dy = 4 and in two
        // chains at dy = 2.
        let load = |targets: &[&str], text: &str| {
            crate::csv::dataset_from_csv_str("t", text, targets).unwrap()
        };
        for targets in [&["y", "z"][..], &["y", "z", "u", "v"]] {
            let header = format!("x,{}\n", targets.join(","));
            let rest = ",7".repeat(targets.len() - 1);
            let a = load(targets, &format!("{header}1,2.5{rest}\n2,-1.25{rest}\n"));
            let b = load(targets, &format!("{header}1,-1.25{rest}\n2,2.5{rest}\n"));
            assert_ne!(a.content_fingerprint(), b.content_fingerprint());
        }
    }

    #[test]
    fn fingerprint_sees_two_sign_flips() {
        let load = |text: &str| crate::csv::dataset_from_csv_str("y", text, &["y"]).unwrap();
        let a = load("x,y\n1,2.5\n2,-1.25\n");
        let b = load("x,y\n1,-2.5\n2,1.25\n");
        assert_ne!(a.content_fingerprint(), b.content_fingerprint());
    }

    #[test]
    fn shape_accessors() {
        let d = toy();
        assert_eq!(d.n(), 4);
        assert_eq!(d.dx(), 2);
        assert_eq!(d.dy(), 2);
        assert_eq!(d.desc_index("num"), Some(1));
        assert_eq!(d.desc_index("missing"), None);
        assert_eq!(d.target_col(1), vec![10.0, 20.0, 30.0, 40.0]);
        assert_eq!(d.target_row(2), &[3.0, 30.0]);
    }

    #[test]
    fn subgroup_mean() {
        let d = toy();
        let ext = BitSet::from_indices(4, [0, 3]);
        assert_eq!(d.target_mean(&ext), vec![2.5, 25.0]);
        assert_eq!(d.target_mean_all(), vec![2.5, 25.0]);
    }

    #[test]
    fn covariance_of_perfectly_correlated_targets() {
        let d = toy();
        let cov = d.target_covariance_all();
        // t2 = 10 * t1 → Cov = [[v, 10v], [10v, 100v]] with v = 1.25.
        assert!((cov[(0, 0)] - 1.25).abs() < 1e-12);
        assert!((cov[(0, 1)] - 12.5).abs() < 1e-12);
        assert!((cov[(1, 1)] - 125.0).abs() < 1e-12);
    }

    #[test]
    fn variance_along_direction_matches_quad_form() {
        let d = toy();
        let ext = BitSet::full(4);
        let w = {
            let mut w = vec![1.0, 1.0];
            sisd_linalg::normalize(&mut w);
            w
        };
        let direct = d.target_variance_along(&ext, &w);
        let via_scatter = d.target_scatter(&ext).quad_form(&w);
        assert!((direct - via_scatter).abs() < 1e-10);
    }

    #[test]
    fn binary_targets_keep_their_columns_as_a_bit_matrix() {
        // 150 rows: three words per column, the last one partial.
        let (n, dy) = (150usize, 3usize);
        let mut targets = Matrix::zeros(n, dy);
        for i in 0..n {
            for j in 0..dy {
                targets[(i, j)] = [1.0, 0.0, -0.0, 1.0, 0.0][(i * 7 + j * 3) % 5];
            }
        }
        let make = |targets: Matrix| {
            let names = (0..dy).map(|j| format!("y{j}")).collect();
            Dataset::new("bits", vec![], vec![], names, targets)
        };
        let d = make(targets.clone());
        let bits = d.target_bits().expect("0/1 targets keep a bit matrix");
        let stride = n.div_ceil(64);
        assert_eq!(bits.len(), dy * stride);
        for j in 0..dy {
            let row = &bits[j * stride..(j + 1) * stride];
            let column = BitSet::from_fn(n, |i| d.target_row(i)[j] == 1.0);
            assert_eq!(row, column.words(), "column {j}");
            assert_eq!(row[stride - 1] >> (n % 64), 0, "column {j}: tail bits");
        }
        let subnormal = f64::MIN_POSITIVE / 4.0;
        for bad in [
            2.0,
            0.5,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            subnormal,
        ] {
            let mut t = targets.clone();
            t[(n / 2, 1)] = bad;
            assert!(make(t).target_bits().is_none(), "a target of {bad}");
        }
        assert!(toy().target_bits().is_none());
    }

    #[test]
    #[should_panic(expected = "empty extension")]
    fn empty_extension_mean_panics() {
        toy().target_mean(&BitSet::empty(4));
    }

    #[test]
    #[should_panic(expected = "rows")]
    fn ragged_columns_rejected() {
        let targets = Matrix::zeros(3, 1);
        Dataset::new(
            "bad",
            vec!["c".into()],
            vec![Column::Numeric(vec![1.0, 2.0])],
            vec!["t".into()],
            targets,
        );
    }
}
