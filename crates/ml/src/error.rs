//! Error type for the learning substrate.

use std::fmt;

/// Errors produced by estimators and data utilities.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MlError {
    /// A dataset had no rows (or no columns).
    EmptyDataset,
    /// Ragged input: rows with different column counts.
    RaggedRows {
        expected: usize,
        found: usize,
        row: usize,
    },
    /// Feature matrix and target disagree on the number of rows.
    LengthMismatch { x_rows: usize, y_rows: usize },
    /// A prediction was requested with the wrong feature count.
    FeatureMismatch { expected: usize, found: usize },
    /// Binary estimator received a label outside {0, 1}.
    BadLabel(usize),
    /// A hyper-parameter was out of range.
    BadConfig(&'static str),
    /// A serialized model payload was malformed.
    Corrupt(String),
}

impl fmt::Display for MlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlError::EmptyDataset => write!(f, "dataset is empty"),
            MlError::RaggedRows {
                expected,
                found,
                row,
            } => {
                write!(f, "row {row} has {found} columns, expected {expected}")
            }
            MlError::LengthMismatch { x_rows, y_rows } => {
                write!(f, "x has {x_rows} rows but y has {y_rows}")
            }
            MlError::FeatureMismatch { expected, found } => {
                write!(f, "expected {expected} features, got {found}")
            }
            MlError::BadLabel(l) => write!(f, "label {l} is not binary"),
            MlError::BadConfig(msg) => write!(f, "bad configuration: {msg}"),
            MlError::Corrupt(msg) => write!(f, "corrupt model payload: {msg}"),
        }
    }
}

impl std::error::Error for MlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_specific() {
        assert!(MlError::RaggedRows {
            expected: 3,
            found: 2,
            row: 5
        }
        .to_string()
        .contains("row 5"));
        assert!(MlError::BadLabel(7).to_string().contains('7'));
    }
}
