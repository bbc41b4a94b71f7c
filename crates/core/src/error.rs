//! The workspace-wide error type.
//!
//! Each layer of the crate DAG keeps its own precise error enum —
//! [`ModelError`] for background-model updates, [`CsvError`] for data
//! loading, [`ParseError`] for the intention mini-language, and
//! [`CholeskyError`] for factorization breakdowns — but application code
//! (examples, experiment binaries, callers of the umbrella crate) usually
//! wants one `?`-friendly type spanning all of them. [`SisdError`] is that
//! type: every layer error converts into it via `From`, and it implements
//! [`std::error::Error`] with `source()` pointing at the underlying error.

use crate::parse::ParseError;
use sisd_data::csv::CsvError;
use sisd_data::snap::SnapError;
use sisd_linalg::CholeskyError;
use sisd_model::ModelError;

/// Any error the SISD pipeline can produce, by originating layer.
#[derive(Debug)]
pub enum SisdError {
    /// Background-model construction or I-projection failure (`sisd-model`).
    Model(ModelError),
    /// CSV loading or dataset-assembly failure (`sisd-data`).
    Csv(CsvError),
    /// Intention-string parse failure (`sisd-core`).
    Parse(ParseError),
    /// Dense factorization breakdown (`sisd-linalg`).
    Linalg(CholeskyError),
    /// Snapshot encode/decode or persistence failure (`sisd-data::snap`).
    Snap(SnapError),
}

/// Shorthand for results produced anywhere in the pipeline.
pub type SisdResult<T> = Result<T, SisdError>;

impl std::fmt::Display for SisdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SisdError::Model(e) => write!(f, "model: {e}"),
            SisdError::Csv(e) => write!(f, "data: {e}"),
            SisdError::Parse(e) => write!(f, "parse: {e}"),
            SisdError::Linalg(e) => write!(f, "linalg: {e}"),
            SisdError::Snap(e) => write!(f, "snapshot: {e}"),
        }
    }
}

impl std::error::Error for SisdError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SisdError::Model(e) => Some(e),
            SisdError::Csv(e) => Some(e),
            SisdError::Parse(e) => Some(e),
            SisdError::Linalg(e) => Some(e),
            SisdError::Snap(e) => Some(e),
        }
    }
}

impl From<ModelError> for SisdError {
    fn from(e: ModelError) -> Self {
        SisdError::Model(e)
    }
}

impl From<CsvError> for SisdError {
    fn from(e: CsvError) -> Self {
        SisdError::Csv(e)
    }
}

impl From<ParseError> for SisdError {
    fn from(e: ParseError) -> Self {
        SisdError::Parse(e)
    }
}

impl From<CholeskyError> for SisdError {
    fn from(e: CholeskyError) -> Self {
        SisdError::Linalg(e)
    }
}

impl From<SnapError> for SisdError {
    fn from(e: SnapError) -> Self {
        SisdError::Snap(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_layer_error_converts() {
        let m: SisdError = ModelError::EmptyExtension.into();
        let c: SisdError = CsvError::Malformed("ragged".into()).into();
        let p: SisdError = ParseError::MissingOperator("x".into()).into();
        let l: SisdError = CholeskyError { pivot: 3 }.into();
        let s: SisdError = SnapError::Corrupt("bad crc".into()).into();
        assert!(matches!(m, SisdError::Model(_)));
        assert!(matches!(c, SisdError::Csv(_)));
        assert!(matches!(p, SisdError::Parse(_)));
        assert!(matches!(l, SisdError::Linalg(_)));
        assert!(matches!(s, SisdError::Snap(_)));
        assert!(s.to_string().contains("corrupt"));
    }

    #[test]
    fn is_a_std_error_with_source() {
        let err: SisdError = ModelError::BadPrior.into();
        let dyn_err: &dyn std::error::Error = &err;
        assert!(dyn_err.source().is_some());
        assert!(dyn_err.to_string().contains("positive definite"));
    }

    #[test]
    fn question_mark_composes_across_layers() {
        fn load() -> SisdResult<()> {
            Err(CsvError::Malformed("empty file".into()))?
        }
        fn model() -> SisdResult<()> {
            Err(ModelError::Dimension {
                expected: 2,
                got: 3,
            })?
        }
        assert!(load().is_err());
        assert!(model().is_err());
    }
}
