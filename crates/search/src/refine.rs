//! The refinement operator: candidate conditions per description attribute.

use sisd_core::{Condition, ConditionOp};
use sisd_data::{Column, Dataset};
use sisd_stats::percentile_split_points;

/// Settings of the condition language.
#[derive(Debug, Clone)]
pub struct RefineConfig {
    /// Number of percentile split points per numeric attribute. The paper
    /// uses 4 (the 1/5–4/5 percentiles).
    pub split_points: usize,
    /// Generate `attr ≥ q` conditions.
    pub use_ge: bool,
    /// Generate `attr ≤ q` conditions.
    pub use_le: bool,
    /// Maximum cardinality of categorical attributes to enumerate; columns
    /// with more levels are skipped (Cortana behaves similarly to keep the
    /// branching factor bounded).
    pub max_categorical_levels: usize,
}

impl Default for RefineConfig {
    fn default() -> Self {
        Self {
            split_points: 4,
            use_ge: true,
            use_le: true,
            max_categorical_levels: 32,
        }
    }
}

/// Generates every base condition of the description language for the
/// dataset. Beam search ANDs these onto existing intentions; condition
/// indices are stable, which the branch-and-bound enumeration relies on.
pub fn generate_conditions(data: &Dataset, config: &RefineConfig) -> Vec<Condition> {
    let mut out = Vec::new();
    for (attr, col) in data.desc_cols().iter().enumerate() {
        match col {
            Column::Numeric(values) => {
                let splits = percentile_split_points(values, config.split_points);
                for &q in &splits {
                    if config.use_ge {
                        out.push(Condition {
                            attr,
                            op: ConditionOp::Ge(q),
                        });
                    }
                    if config.use_le {
                        out.push(Condition {
                            attr,
                            op: ConditionOp::Le(q),
                        });
                    }
                }
            }
            Column::Categorical { labels, .. } => {
                if labels.len() <= config.max_categorical_levels {
                    for level in 0..labels.len() as u32 {
                        out.push(Condition {
                            attr,
                            op: ConditionOp::Eq(level),
                        });
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sisd_linalg::Matrix;

    fn data() -> Dataset {
        let n = 100;
        Dataset::new(
            "t",
            vec!["num".into(), "cat".into(), "flat".into()],
            vec![
                Column::Numeric((0..n).map(|i| i as f64).collect()),
                Column::categorical_from_strs(
                    &(0..n).map(|i| ["x", "y", "z"][i % 3]).collect::<Vec<_>>(),
                ),
                Column::Numeric(vec![1.0; n]),
            ],
            vec!["t".into()],
            Matrix::zeros(n, 1),
        )
    }

    #[test]
    fn default_config_generates_paper_language() {
        let d = data();
        let conds = generate_conditions(&d, &RefineConfig::default());
        // num: 4 splits × 2 ops = 8; cat: 3 levels; flat: constant → none.
        assert_eq!(conds.len(), 8 + 3);
        let ge_count = conds
            .iter()
            .filter(|c| matches!(c.op, ConditionOp::Ge(_)))
            .count();
        assert_eq!(ge_count, 4);
    }

    #[test]
    fn ops_can_be_disabled() {
        let d = data();
        let cfg = RefineConfig {
            use_le: false,
            ..RefineConfig::default()
        };
        let conds = generate_conditions(&d, &cfg);
        assert!(conds.iter().all(|c| !matches!(c.op, ConditionOp::Le(_))));
    }

    #[test]
    fn high_cardinality_categoricals_are_skipped() {
        let labels: Vec<String> = (0..100).map(|i| format!("v{i}")).collect();
        let d = Dataset::new(
            "t",
            vec!["many".into()],
            vec![Column::categorical_from_strs(&labels)],
            vec!["t".into()],
            Matrix::zeros(100, 1),
        );
        let conds = generate_conditions(&d, &RefineConfig::default());
        assert!(conds.is_empty());
        let cfg = RefineConfig {
            max_categorical_levels: 200,
            ..RefineConfig::default()
        };
        assert_eq!(generate_conditions(&d, &cfg).len(), 100);
    }

    /// The beam's dedup keys a conjunction by its condition indices, which
    /// is exact only if no two indices name equal conditions.
    #[test]
    fn conditions_are_pairwise_distinct() {
        let n = 200;
        let tied = Dataset::new(
            "tied",
            vec!["few".into(), "signed_zero".into(), "cat".into()],
            vec![
                // Heavy ties: several percentiles land on the same value.
                Column::Numeric((0..n).map(|i| [0.0, 1.0, 1.0, 1.0, 2.0][i % 5]).collect()),
                Column::Numeric(
                    (0..n)
                        .map(|i| match i % 4 {
                            0 => -0.0,
                            1 => 0.0,
                            2 => f64::NAN,
                            _ => i as f64,
                        })
                        .collect(),
                ),
                Column::categorical_from_strs(
                    &(0..n)
                        .map(|i| ["a", "b", "a", "c"][i % 4])
                        .collect::<Vec<_>>(),
                ),
            ],
            vec!["t".into()],
            Matrix::zeros(n, 1),
        );
        let crime = sisd_data::datasets::crime_synthetic(2018);
        for d in [data(), tied, crime] {
            for split_points in [1usize, 4, 9] {
                let cfg = RefineConfig {
                    split_points,
                    ..RefineConfig::default()
                };
                let conds = generate_conditions(&d, &cfg);
                for (i, a) in conds.iter().enumerate() {
                    for b in &conds[i + 1..] {
                        assert_ne!(a, b, "{}: {a:?} emitted twice", d.name);
                    }
                }
            }
        }
    }

    #[test]
    fn split_point_count_respected() {
        let d = data();
        let cfg = RefineConfig {
            split_points: 9,
            ..RefineConfig::default()
        };
        let conds = generate_conditions(&d, &cfg);
        let num_conds = conds.iter().filter(|c| c.attr == 0).count();
        assert_eq!(num_conds, 18);
    }
}
