//! Assimilated-pattern constraints.

use sisd_data::BitSet;

/// A constraint the background distribution must satisfy in expectation,
/// corresponding to one pattern shown to the user.
#[derive(Debug, Clone)]
pub enum Constraint {
    /// Location pattern: `E[ f_I(Y) ] = target` (paper Eq. 6).
    Location {
        /// The subgroup extension `I`.
        ext: BitSet,
        /// The communicated subgroup mean `ŷ_I`.
        target: Vec<f64>,
    },
    /// Spread pattern: `E[ g_I^w(Y) ] = value` (paper Eq. 9). The spread
    /// statistic is centred at the *empirical* subgroup mean, which is a
    /// constant by the time the pattern is shown (location first), so it is
    /// stored here as `center`.
    Spread {
        /// The subgroup extension `I`.
        ext: BitSet,
        /// Unit direction `w` in target space.
        w: Vec<f64>,
        /// Centering vector `ŷ_I` of the variance statistic.
        center: Vec<f64>,
        /// The communicated variance `v̂ = g_I^w(Ŷ)`.
        value: f64,
    },
}

impl Constraint {
    /// The extension of the underlying pattern.
    pub fn ext(&self) -> &BitSet {
        match self {
            Constraint::Location { ext, .. } | Constraint::Spread { ext, .. } => ext,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let ext = BitSet::from_indices(5, [1, 2]);
        let c = Constraint::Location {
            ext: ext.clone(),
            target: vec![1.0],
        };
        assert_eq!(c.ext().to_indices(), vec![1, 2]);
        let s = Constraint::Spread {
            ext,
            w: vec![1.0],
            center: vec![0.0],
            value: 2.0,
        };
        assert_eq!(s.ext().to_indices(), vec![1, 2]);
    }
}
