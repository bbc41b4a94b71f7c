//! Pattern records reported to the user.

use crate::pattern::Intention;
use crate::score::{LocationScore, SpreadScore};
use sisd_data::{BitSet, Dataset};

/// A mined location pattern: intention, extension, the communicated
/// subgroup mean, and its scores.
#[derive(Debug, Clone)]
pub struct LocationPattern {
    /// The subgroup description.
    pub intention: Intention,
    /// The rows matching the description.
    pub extension: BitSet,
    /// The subgroup's empirical target mean `ŷ_I` (what the user is told).
    pub observed_mean: Vec<f64>,
    /// IC / DL / SI breakdown at mining time.
    pub score: LocationScore,
}

impl LocationPattern {
    /// Coverage fraction `|I| / n`.
    pub fn coverage(&self) -> f64 {
        self.extension.count() as f64 / self.extension.len() as f64
    }

    /// One-line report, e.g.
    /// `PctIlleg >= 0.39 | n=409 (20.5%) | SI=12.3 IC=13.5 DL=1.1`.
    pub fn summary(&self, data: &Dataset) -> String {
        format!(
            "{} | n={} ({:.1}%) | SI={:.2} IC={:.2} DL={:.2}",
            self.intention.describe(data),
            self.extension.count(),
            100.0 * self.coverage(),
            self.score.si,
            self.score.ic,
            self.score.dl
        )
    }
}

/// A mined spread pattern: the location pattern's subgroup plus a unit
/// direction and the variance along it.
#[derive(Debug, Clone)]
pub struct SpreadPattern {
    /// The subgroup description (shared with the location pattern).
    pub intention: Intention,
    /// The rows matching the description.
    pub extension: BitSet,
    /// The unit direction `w` in target space.
    pub w: Vec<f64>,
    /// The communicated variance `g_I^w(Ŷ)`.
    pub observed_variance: f64,
    /// IC / DL / SI breakdown at mining time.
    pub score: SpreadScore,
}

impl SpreadPattern {
    /// Ratio of observed to model-expected variance along `w` (< 1 means a
    /// surprisingly *low*-variance direction, > 1 surprisingly high).
    pub fn variance_ratio(&self) -> f64 {
        self.score.observed / self.score.expected
    }

    /// One-line report including the direction's largest components.
    pub fn summary(&self, data: &Dataset) -> String {
        // Show the direction coordinates with the largest magnitude; a NaN
        // weight (the fields are public) sorts last instead of panicking.
        let mut idx: Vec<usize> = (0..self.w.len()).collect();
        idx.sort_by(|&a, &b| {
            let (wa, wb) = (self.w[a], self.w[b]);
            wa.is_nan()
                .cmp(&wb.is_nan())
                .then_with(|| wb.abs().total_cmp(&wa.abs()))
        });
        let top: Vec<String> = idx
            .iter()
            .take(3)
            .filter(|&&j| self.w[j].abs() > 1e-6)
            .map(|&j| format!("{}:{:+.3}", data.target_names()[j], self.w[j]))
            .collect();
        format!(
            "{} | w=[{}] | var obs={:.4} exp={:.4} (ratio {:.2}) | SI={:.2}",
            self.intention.describe(data),
            top.join(", "),
            self.score.observed,
            self.score.expected,
            self.variance_ratio(),
            self.score.si
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{Condition, ConditionOp};
    use crate::score::{LocationScore, SpreadScore};
    use sisd_data::Column;
    use sisd_linalg::Matrix;

    fn data() -> Dataset {
        Dataset::new(
            "t",
            vec!["f".into()],
            vec![Column::binary(&[true, false, true, false])],
            vec!["y1".into(), "y2".into()],
            Matrix::zeros(4, 2),
        )
    }

    #[test]
    fn location_summary_and_coverage() {
        let d = data();
        let intention = Intention::empty().with(Condition {
            attr: 0,
            op: ConditionOp::Eq(1),
        });
        let p = LocationPattern {
            extension: intention.evaluate(&d),
            intention,
            observed_mean: vec![1.0, 2.0],
            score: LocationScore {
                ic: 5.5,
                dl: 1.1,
                si: 5.0,
            },
        };
        assert!((p.coverage() - 0.5).abs() < 1e-12);
        let s = p.summary(&d);
        assert!(s.contains("f = '1'"));
        assert!(s.contains("n=2"));
        assert!(s.contains("SI=5.00"));
    }

    #[test]
    fn spread_summary_shows_top_components() {
        let d = data();
        let intention = Intention::empty();
        let p = SpreadPattern {
            extension: BitSet::full(4),
            intention,
            w: vec![0.1, -0.99],
            observed_variance: 0.5,
            score: SpreadScore {
                ic: 3.0,
                dl: 2.0,
                si: 1.5,
                observed: 0.5,
                expected: 2.0,
            },
        };
        assert!((p.variance_ratio() - 0.25).abs() < 1e-12);
        let s = p.summary(&d);
        assert!(s.contains("y2:-0.990"), "{s}");
        assert!(s.contains("ratio 0.25"));
    }

    #[test]
    fn spread_summary_tolerates_a_nan_weight() {
        let d = Dataset::new(
            "t3",
            vec!["f".into()],
            vec![Column::binary(&[true, false, true, false])],
            vec!["y1".into(), "y2".into(), "y3".into()],
            Matrix::zeros(4, 3),
        );
        let p = SpreadPattern {
            extension: BitSet::full(4),
            intention: Intention::empty(),
            w: vec![f64::NAN, 0.6, 0.8],
            observed_variance: 0.5,
            score: SpreadScore {
                ic: 3.0,
                dl: 2.0,
                si: 1.5,
                observed: 0.5,
                expected: 2.0,
            },
        };
        let s = p.summary(&d);
        // Finite weights come first, largest magnitude first; the NaN
        // weight sorts last and is not shown.
        assert!(s.contains("w=[y3:+0.800, y2:+0.600]"), "{s}");
    }
}
