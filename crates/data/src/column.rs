//! Typed description columns.
//!
//! The paper's description attributes are "categorical, ordinal, and
//! numerical" (§I). Ordinal attributes are represented as numeric columns
//! (their order is all the search language uses); binary attributes are
//! categorical with two levels.

/// A description attribute column.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Real-valued (or ordinal) attribute.
    Numeric(Vec<f64>),
    /// Categorical attribute: per-row level codes plus level labels.
    Categorical {
        /// Level code per row; `codes[i] < labels.len()`.
        codes: Vec<u32>,
        /// Human-readable level labels, indexed by code.
        labels: Vec<String>,
    },
}

impl Column {
    /// Builds a categorical column from string values, interning labels in
    /// first-appearance order.
    pub fn categorical_from_strs<S: AsRef<str>>(values: &[S]) -> Self {
        let mut labels: Vec<String> = Vec::new();
        let mut codes = Vec::with_capacity(values.len());
        for v in values {
            let v = v.as_ref();
            let code = match labels.iter().position(|l| l == v) {
                Some(p) => p as u32,
                None => {
                    labels.push(v.to_string());
                    (labels.len() - 1) as u32
                }
            };
            codes.push(code);
        }
        Column::Categorical { codes, labels }
    }

    /// Builds a binary categorical column with labels `"0"`/`"1"` from
    /// booleans (the synthetic data's description attributes, §III-A).
    pub fn binary(values: &[bool]) -> Self {
        Column::Categorical {
            codes: values.iter().map(|&b| b as u32).collect(),
            labels: vec!["0".to_string(), "1".to_string()],
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Numeric(v) => v.len(),
            Column::Categorical { codes, .. } => codes.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True for [`Column::Numeric`].
    pub fn is_numeric(&self) -> bool {
        matches!(self, Column::Numeric(_))
    }

    /// Numeric values, if this is a numeric column.
    pub fn as_numeric(&self) -> Option<&[f64]> {
        match self {
            Column::Numeric(v) => Some(v),
            Column::Categorical { .. } => None,
        }
    }

    /// `(codes, labels)`, if this is a categorical column.
    pub fn as_categorical(&self) -> Option<(&[u32], &[String])> {
        match self {
            Column::Numeric(_) => None,
            Column::Categorical { codes, labels } => Some((codes, labels)),
        }
    }

    /// Number of categorical levels (0 for numeric columns).
    pub fn cardinality(&self) -> usize {
        match self {
            Column::Numeric(_) => 0,
            Column::Categorical { labels, .. } => labels.len(),
        }
    }

    /// Value of row `i` rendered for display.
    pub fn display_value(&self, i: usize) -> String {
        match self {
            Column::Numeric(v) => format!("{:.4}", v[i]),
            Column::Categorical { codes, labels } => labels[codes[i] as usize].clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categorical_interning_preserves_first_appearance_order() {
        let c = Column::categorical_from_strs(&["b", "a", "b", "c", "a"]);
        let (codes, labels) = c.as_categorical().unwrap();
        assert_eq!(labels, &["b".to_string(), "a".to_string(), "c".to_string()]);
        assert_eq!(codes, &[0, 1, 0, 2, 1]);
        assert_eq!(c.cardinality(), 3);
        assert_eq!(c.display_value(3), "c");
    }

    #[test]
    fn binary_column() {
        let c = Column::binary(&[true, false, true]);
        let (codes, labels) = c.as_categorical().unwrap();
        assert_eq!(codes, &[1, 0, 1]);
        assert_eq!(labels, &["0".to_string(), "1".to_string()]);
        assert_eq!(c.len(), 3);
        assert!(!c.is_numeric());
    }

    #[test]
    fn numeric_accessors() {
        let c = Column::Numeric(vec![1.5, 2.5]);
        assert!(c.is_numeric());
        assert_eq!(c.as_numeric().unwrap(), &[1.5, 2.5]);
        assert!(c.as_categorical().is_none());
        assert_eq!(c.cardinality(), 0);
        assert_eq!(c.display_value(1), "2.5000");
        assert!(!c.is_empty());
    }
}
