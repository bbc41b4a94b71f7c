//! MaxEnt background model for **binary** targets — the paper's §V asks for
//! "similar pattern syntaxes for binary, categorical, and mixed sets of
//! target attributes"; this module supplies the binary case.
//!
//! With targets `Y ∈ {0,1}^{n×dy}` and prior beliefs about each attribute's
//! mean, the maximum-entropy distribution is a product of independent
//! Bernoullis, one probability `p_{ij}` per row and attribute (initially
//! shared across rows). A location pattern for a subgroup `I` communicates
//! the subgroup's attribute means; the minimum-KL update tilts each covered
//! row's log-odds by a common `θ_j` per attribute:
//!
//! ```text
//! p'_{ij} = σ(logit(p_{ij}) + θ_j),   Σ_{i∈I} p'_{ij} = |I| · ŷ_{I,j},
//! ```
//!
//! each `θ_j` found by a monotone 1-D root solve. The information content of
//! a subgroup mean uses the normal approximation of the Poisson–binomial
//! mean (variance `Σ p(1−p)/|I|²` per attribute), which is accurate at the
//! subgroup sizes the search considers and keeps the SI on the same scale as
//! the Gaussian model. Spread patterns are deliberately absent: a Bernoulli
//! variance is determined by its mean (§III-B).

use crate::background::ModelError;
use sisd_data::{BitSet, Dataset};

/// Probability clamp: keeps logits finite for degenerate empirical means.
const P_MIN: f64 = 1e-9;

fn clamp_p(p: f64) -> f64 {
    p.clamp(P_MIN, 1.0 - P_MIN)
}

fn logit(p: f64) -> f64 {
    let p = clamp_p(p);
    (p / (1.0 - p)).ln()
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// A parameter cell: rows sharing one Bernoulli probability vector.
#[derive(Debug, Clone)]
pub struct BinaryCell {
    /// Rows of the cell.
    pub ext: BitSet,
    /// Cached population count.
    pub count: usize,
    /// Success probability per target attribute.
    pub p: Vec<f64>,
}

/// Sufficient statistics of a subgroup-mean query against the binary model.
#[derive(Debug, Clone)]
pub struct BinaryLocationStats {
    /// `|I|`.
    pub count: usize,
    /// Expected subgroup mean per attribute.
    pub mean: Vec<f64>,
    /// Standard deviation of the subgroup mean per attribute,
    /// `sqrt(Σ_{i∈I} p(1−p)) / |I|`.
    pub sd: Vec<f64>,
}

/// The evolving MaxEnt Bernoulli background distribution.
#[derive(Debug, Clone)]
pub struct BinaryBackgroundModel {
    n: usize,
    dy: usize,
    cells: Vec<BinaryCell>,
}

impl BinaryBackgroundModel {
    /// Initial model: every row shares the prior mean vector.
    pub fn new(n: usize, prior_mean: Vec<f64>) -> Result<Self, ModelError> {
        if prior_mean.is_empty() {
            return Err(ModelError::Dimension {
                expected: 1,
                got: 0,
            });
        }
        let dy = prior_mean.len();
        let p = prior_mean.into_iter().map(clamp_p).collect();
        Ok(Self {
            n,
            dy,
            cells: vec![BinaryCell {
                ext: BitSet::full(n),
                count: n,
                p,
            }],
        })
    }

    /// Initial model from a dataset whose targets are 0/1-valued.
    ///
    /// Returns an error if any target value is not 0 or 1.
    pub fn from_empirical(dataset: &Dataset) -> Result<Self, ModelError> {
        for i in 0..dataset.n() {
            for &v in dataset.target_row(i) {
                if v != 0.0 && v != 1.0 {
                    return Err(ModelError::SpreadSolve(format!(
                        "binary model requires 0/1 targets, found {v}"
                    )));
                }
            }
        }
        let mean = dataset.target_mean_all();
        Self::new(dataset.n(), mean)
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
    pub fn cells(&self) -> &[BinaryCell] {
        &self.cells
    }

    /// Number of parameter cells.
    pub fn n_cells(&self) -> usize {
        self.cells.len()
    }

    /// Splits cells against an extension.
    fn refine(&mut self, ext: &BitSet) {
        let mut out = Vec::with_capacity(self.cells.len() + 2);
        for cell in self.cells.drain(..) {
            let inside = cell.ext.and(ext);
            let n_in = inside.count();
            if n_in == 0 || n_in == cell.count {
                out.push(cell);
                continue;
            }
            let outside = cell.ext.minus(ext);
            out.push(BinaryCell {
                count: n_in,
                ext: inside,
                p: cell.p.clone(),
            });
            out.push(BinaryCell {
                count: cell.count - n_in,
                ext: outside,
                p: cell.p,
            });
        }
        self.cells = out;
    }

    /// Expected subgroup mean and its normal-approximation sd for an
    /// arbitrary candidate extension.
    pub fn location_stats(&self, ext: &BitSet) -> Result<BinaryLocationStats, ModelError> {
        let mut m = 0usize;
        let mut mean = vec![0.0; self.dy];
        let mut var = vec![0.0; self.dy];
        for cell in &self.cells {
            let c = cell.ext.intersection_count(ext);
            if c == 0 {
                continue;
            }
            m += c;
            for j in 0..self.dy {
                mean[j] += c as f64 * cell.p[j];
                var[j] += c as f64 * cell.p[j] * (1.0 - cell.p[j]);
            }
        }
        if m == 0 {
            return Err(ModelError::EmptyExtension);
        }
        let mf = m as f64;
        for j in 0..self.dy {
            mean[j] /= mf;
            var[j] = (var[j] / (mf * mf)).max(P_MIN / mf);
        }
        Ok(BinaryLocationStats {
            count: m,
            mean,
            sd: var.into_iter().map(f64::sqrt).collect(),
        })
    }

    /// Information content of observing subgroup mean `observed` for
    /// extension `ext`: the attributes are independent under the model, so
    /// the IC is a sum of per-attribute Gaussian (normal-approximation)
    /// surprisals.
    pub fn location_ic(&self, ext: &BitSet, observed: &[f64]) -> Result<f64, ModelError> {
        if observed.len() != self.dy {
            return Err(ModelError::Dimension {
                expected: self.dy,
                got: observed.len(),
            });
        }
        let stats = self.location_stats(ext)?;
        let mut ic = 0.0;
        for ((obs, mean), sd) in observed.iter().zip(&stats.mean).zip(&stats.sd) {
            let z = (obs - mean) / sd;
            ic += 0.5 * (2.0 * std::f64::consts::PI).ln() + sd.ln() + 0.5 * z * z;
        }
        // −log density → the per-attribute log-sd terms enter negatively.
        Ok(ic)
    }

    /// Assimilates a location pattern: tilts covered rows' log-odds so the
    /// expected subgroup mean matches `target`, attribute by attribute.
    pub fn assimilate_location(&mut self, ext: &BitSet, target: &[f64]) -> Result<(), ModelError> {
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
        let inside: Vec<usize> = (0..self.cells.len())
            .filter(|&g| self.cells[g].ext.is_subset(ext) && self.cells[g].count > 0)
            .filter(|&g| self.cells[g].ext.intersection_count(ext) > 0)
            .collect();
        let m: usize = inside.iter().map(|&g| self.cells[g].count).sum();
        let mf = m as f64;

        #[allow(clippy::needless_range_loop)] // j indexes every cell's p
        for j in 0..self.dy {
            let goal = clamp_p(target[j]) * mf;
            // Monotone in θ: Σ_g c_g σ(logit(p_gj) + θ) = goal.
            let value = |theta: f64, cells: &[BinaryCell]| -> f64 {
                inside
                    .iter()
                    .map(|&g| cells[g].count as f64 * sigmoid(logit(cells[g].p[j]) + theta))
                    .sum()
            };
            let (mut lo, mut hi) = (-40.0, 40.0);
            // The sigmoid saturates well within ±40 logits.
            for _ in 0..200 {
                let mid = 0.5 * (lo + hi);
                if value(mid, &self.cells) < goal {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            let theta = 0.5 * (lo + hi);
            for &g in &inside {
                let p = sigmoid(logit(self.cells[g].p[j]) + theta);
                self.cells[g].p[j] = clamp_p(p);
            }
        }
        Ok(())
    }

    /// Per-attribute `(mean, sd)` marginals of the subgroup mean — the
    /// binary analogue of the Gaussian model's `location_marginals`.
    pub fn location_marginals(&self, ext: &BitSet) -> Result<Vec<(f64, f64)>, ModelError> {
        let stats = self.location_stats(ext)?;
        Ok(stats.mean.into_iter().zip(stats.sd).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> BinaryBackgroundModel {
        BinaryBackgroundModel::new(20, vec![0.3, 0.7]).unwrap()
    }

    #[test]
    fn initial_stats() {
        let m = model();
        let ext = BitSet::from_indices(20, 0..10);
        let st = m.location_stats(&ext).unwrap();
        assert_eq!(st.count, 10);
        assert!((st.mean[0] - 0.3).abs() < 1e-12);
        assert!((st.mean[1] - 0.7).abs() < 1e-12);
        // sd = sqrt(10·0.21)/10
        assert!((st.sd[0] - (10.0 * 0.21f64).sqrt() / 10.0).abs() < 1e-12);
    }

    #[test]
    fn assimilation_enforces_mean() {
        let mut m = model();
        let ext = BitSet::from_indices(20, 0..8);
        m.assimilate_location(&ext, &[0.9, 0.1]).unwrap();
        let st = m.location_stats(&ext).unwrap();
        assert!((st.mean[0] - 0.9).abs() < 1e-9, "mean {:?}", st.mean);
        assert!((st.mean[1] - 0.1).abs() < 1e-9);
        // Outside rows unchanged.
        let rest = ext.complement();
        let st_rest = m.location_stats(&rest).unwrap();
        assert!((st_rest.mean[0] - 0.3).abs() < 1e-12);
    }

    #[test]
    fn ic_drops_after_assimilation() {
        let mut m = model();
        let ext = BitSet::from_indices(20, 0..8);
        let observed = vec![0.95, 0.05];
        let before = m.location_ic(&ext, &observed).unwrap();
        m.assimilate_location(&ext, &observed).unwrap();
        let after = m.location_ic(&ext, &observed).unwrap();
        assert!(after < before, "{before} → {after}");
    }

    #[test]
    fn extreme_targets_are_clamped_not_fatal() {
        let mut m = model();
        let ext = BitSet::from_indices(20, 0..5);
        m.assimilate_location(&ext, &[1.0, 0.0]).unwrap();
        let st = m.location_stats(&ext).unwrap();
        assert!(st.mean[0] > 0.999);
        assert!(st.mean[1] < 0.001);
        // Still produces finite ICs afterwards.
        assert!(m.location_ic(&ext, &[1.0, 0.0]).unwrap().is_finite());
    }

    #[test]
    fn cells_partition_after_updates() {
        let mut m = model();
        m.assimilate_location(&BitSet::from_indices(20, 0..8), &[0.5, 0.5])
            .unwrap();
        m.assimilate_location(&BitSet::from_indices(20, 4..12), &[0.6, 0.4])
            .unwrap();
        let total: usize = m.cells().iter().map(|c| c.count).sum();
        assert_eq!(total, 20);
        assert!(m.n_cells() >= 3);
    }

    #[test]
    fn from_empirical_validates_binary_targets() {
        use sisd_data::Column;
        use sisd_linalg::Matrix;
        let ok = Dataset::new(
            "b",
            vec!["f".into()],
            vec![Column::binary(&[true, false])],
            vec!["t".into()],
            Matrix::from_rows(&[&[1.0], &[0.0]]),
        );
        assert!(BinaryBackgroundModel::from_empirical(&ok).is_ok());
        let bad = Dataset::new(
            "b",
            vec!["f".into()],
            vec![Column::binary(&[true, false])],
            vec!["t".into()],
            Matrix::from_rows(&[&[0.5], &[0.0]]),
        );
        assert!(BinaryBackgroundModel::from_empirical(&bad).is_err());
    }

    #[test]
    fn bigger_surprise_bigger_ic() {
        let m = model();
        let ext = BitSet::from_indices(20, 0..10);
        let mild = m.location_ic(&ext, &[0.4, 0.6]).unwrap();
        let wild = m.location_ic(&ext, &[0.9, 0.1]).unwrap();
        assert!(wild > mild);
    }
}
