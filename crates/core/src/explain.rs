//! Pattern explanation: per-attribute surprise breakdowns.
//!
//! The paper's case studies interpret every mined pattern through the same
//! lens: for each target attribute, compare the subgroup's observed mean to
//! the background model's expectation with its confidence band, and rank
//! attributes by how far outside the band they fall (Fig. 5's species
//! ranking, Fig. 8a's party table, Fig. 10's chemistry table). This module
//! packages that computation so harnesses and downstream users don't
//! re-derive it.

use crate::pattern::Intention;
use sisd_data::{BitSet, Dataset};
use sisd_model::{BackgroundModel, ModelError};
use sisd_stats::Normal;

/// One target attribute's entry in an explanation.
#[derive(Debug, Clone)]
pub struct AttributeSurprise {
    /// Target attribute index.
    pub attr: usize,
    /// Target attribute name.
    pub name: String,
    /// Observed subgroup mean.
    pub observed: f64,
    /// Model-expected subgroup mean.
    pub expected: f64,
    /// Standard deviation of the subgroup mean under the model.
    pub sd: f64,
    /// Standardized surprise `(observed − expected)/sd`.
    pub z: f64,
}

impl AttributeSurprise {
    /// Half-width of the two-sided confidence band at `level` (e.g. 0.95).
    pub fn band(&self, level: f64) -> f64 {
        Normal::new(0.0, self.sd.max(1e-300)).ci_half_width(level)
    }

    /// True when the observation falls outside the `level` band.
    pub fn outside_band(&self, level: f64) -> bool {
        (self.observed - self.expected).abs() > self.band(level)
    }
}

/// A full location-pattern explanation.
#[derive(Debug, Clone)]
pub struct LocationExplanation {
    /// The explained subgroup's description.
    pub intention: Intention,
    /// Subgroup size.
    pub count: usize,
    /// Per-attribute surprises, sorted by decreasing |z|.
    pub attributes: Vec<AttributeSurprise>,
}

impl LocationExplanation {
    /// The `k` most surprising attributes (the paper's "top species by SI").
    pub fn top(&self, k: usize) -> &[AttributeSurprise] {
        &self.attributes[..k.min(self.attributes.len())]
    }

    /// Number of attributes outside the `level` band — the paper's Mammal
    /// discussion notes a pattern is hard to absorb when this is large
    /// ("the displacement in the target space does not appear to be
    /// sparse").
    pub fn n_surprising(&self, level: f64) -> usize {
        self.attributes
            .iter()
            .filter(|a| a.outside_band(level))
            .count()
    }

    /// Multi-line text rendering of the top-`k` rows.
    pub fn render(&self, k: usize, level: f64) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>9} {:>9} {:>9} {:>7}",
            "attribute", "observed", "expected", "band", "z"
        );
        for a in self.top(k) {
            let _ = writeln!(
                out,
                "{:<28} {:>9.3} {:>9.3} ±{:>8.3} {:>7.2}",
                a.name,
                a.observed,
                a.expected,
                a.band(level),
                a.z
            );
        }
        out
    }
}

/// Explains a location pattern against the *current* background model:
/// expected means and bands come from the model's marginals, observations
/// from the data.
///
/// Call **before** assimilating the pattern to see what the user learns
/// (after assimilation the expectation equals the observation by
/// construction).
pub fn explain_location(
    model: &BackgroundModel,
    data: &Dataset,
    intention: &Intention,
    ext: &BitSet,
) -> Result<LocationExplanation, ModelError> {
    let marginals = model.location_marginals(ext)?;
    let observed = data.target_mean(ext);
    let mut attributes: Vec<AttributeSurprise> = marginals
        .into_iter()
        .enumerate()
        .map(|(j, (expected, sd))| {
            let sd = sd.max(1e-300);
            AttributeSurprise {
                attr: j,
                name: data.target_names()[j].clone(),
                observed: observed[j],
                expected,
                sd,
                z: (observed[j] - expected) / sd,
            }
        })
        .collect();
    // Largest |z| first; a NaN z (say, from a NaN target value) ranks last.
    attributes.sort_by(|a, b| {
        a.z.is_nan()
            .cmp(&b.z.is_nan())
            .then_with(|| b.z.abs().total_cmp(&a.z.abs()))
    });
    Ok(LocationExplanation {
        intention: intention.clone(),
        count: ext.count(),
        attributes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sisd_data::Column;
    use sisd_linalg::Matrix;

    fn setup() -> (Dataset, BackgroundModel, BitSet) {
        let n = 24;
        let mut targets = Matrix::zeros(n, 3);
        for i in 0..n {
            let bump = if i < 8 { 3.0 } else { 0.0 };
            targets[(i, 0)] = bump + (i as f64 * 0.31).sin();
            // Alternating values: identical mean inside and outside the
            // subgroup — genuinely unsurprising.
            targets[(i, 1)] = if i % 2 == 0 { 0.4 } else { -0.4 };
            targets[(i, 2)] = -bump + (i as f64 * 0.23).sin();
        }
        let flags: Vec<bool> = (0..n).map(|i| i < 8).collect();
        let data = Dataset::new(
            "ex",
            vec!["f".into()],
            vec![Column::binary(&flags)],
            vec!["up".into(), "flat".into(), "down".into()],
            targets,
        );
        let model = BackgroundModel::from_empirical(&data).unwrap();
        let ext = BitSet::from_indices(n, 0..8);
        (data, model, ext)
    }

    #[test]
    fn shifted_attributes_rank_above_flat_ones() {
        let (data, model, ext) = setup();
        let ex = explain_location(&model, &data, &Intention::empty(), &ext).unwrap();
        assert_eq!(ex.count, 8);
        assert_eq!(ex.attributes.len(), 3);
        // 'up' and 'down' are displaced, 'flat' is not: flat ranks last.
        assert_eq!(ex.attributes[2].name, "flat");
        assert!(ex.attributes[0].z.abs() > 2.0);
        assert!(ex.top(2).len() == 2);
    }

    #[test]
    fn band_membership() {
        let (data, model, ext) = setup();
        let ex = explain_location(&model, &data, &Intention::empty(), &ext).unwrap();
        let surprising = ex.n_surprising(0.95);
        assert!(surprising >= 2, "expected ≥2 outside the 95% band");
        // The flat attribute sits inside a generous band.
        let flat = ex.attributes.iter().find(|a| a.name == "flat").unwrap();
        assert!(!flat.outside_band(0.9999));
    }

    #[test]
    fn explanation_collapses_after_assimilation() {
        let (data, mut model, ext) = setup();
        let before = explain_location(&model, &data, &Intention::empty(), &ext).unwrap();
        let mean = data.target_mean(&ext);
        model.assimilate_location(&ext, mean).unwrap();
        let after = explain_location(&model, &data, &Intention::empty(), &ext).unwrap();
        assert!(before.attributes[0].z.abs() > 1.0);
        for a in &after.attributes {
            assert!(a.z.abs() < 1e-6, "post-assimilation z = {}", a.z);
        }
    }

    #[test]
    fn a_nan_target_ranks_last_instead_of_panicking() {
        // `from_empirical` rejects NaN targets, but a fixed prior accepts
        // them; with dy = 2 the sort compares a NaN z with a finite one.
        let n = 6;
        let mut targets = Matrix::zeros(n, 2);
        for i in 0..n {
            targets[(i, 0)] = i as f64 * 0.1;
            targets[(i, 1)] = 3.0 + i as f64;
        }
        targets[(1, 0)] = f64::NAN;
        let data = Dataset::new(
            "nan",
            vec!["f".into()],
            vec![Column::binary(&[true, true, true, false, false, false])],
            vec!["y1".into(), "y2".into()],
            targets,
        );
        let model = BackgroundModel::new(n, vec![0.5, 2.0], Matrix::identity(2)).unwrap();
        let ext = BitSet::from_indices(n, 0..3);
        let ex = explain_location(&model, &data, &Intention::empty(), &ext).unwrap();
        assert_eq!(ex.attributes.len(), 2);
        assert_eq!(ex.attributes[0].name, "y2");
        assert!(ex.attributes[0].z.is_finite());
        assert_eq!(ex.attributes[1].name, "y1");
        assert!(ex.attributes[1].z.is_nan());
    }

    #[test]
    fn render_is_tabular() {
        let (data, model, ext) = setup();
        let ex = explain_location(&model, &data, &Intention::empty(), &ext).unwrap();
        let text = ex.render(2, 0.95);
        assert_eq!(text.lines().count(), 3); // header + 2 rows
        assert!(text.contains("attribute"));
        assert!(text.contains('±'));
    }
}
