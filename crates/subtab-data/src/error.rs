//! Error type shared by all table operations.

use std::fmt;

/// Errors produced by table construction, queries and CSV parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataError {
    /// A referenced column does not exist in the schema.
    UnknownColumn(String),
    /// A column with the same name was added twice.
    DuplicateColumn(String),
    /// Columns (or a pushed row) have inconsistent lengths.
    LengthMismatch {
        /// What the length should have been.
        expected: usize,
        /// The length that was observed.
        actual: usize,
    },
    /// A value's type does not match the column type.
    TypeMismatch {
        /// Column in which the mismatch occurred.
        column: String,
        /// Expected column type (as text, to keep the error `Eq`).
        expected: String,
        /// The offending value rendered as text.
        value: String,
    },
    /// A row index was out of bounds.
    RowOutOfBounds {
        /// The requested index.
        index: usize,
        /// The number of rows in the table.
        len: usize,
    },
    /// The requested operation is not valid for this column type.
    InvalidOperation(String),
    /// CSV input could not be parsed.
    CsvParse {
        /// 1-based physical line on which the offending record starts (for
        /// invalid UTF-8, the line of the first bad byte; 0 for I/O errors).
        line: usize,
        /// Human-readable explanation.
        message: String,
    },
    /// An empty table (no columns or no rows) where one was required.
    EmptyTable(String),
    /// SQL-ish query text could not be parsed.
    QueryParse {
        /// Byte offset into the query text where parsing failed.
        position: usize,
        /// Human-readable explanation.
        message: String,
    },
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::UnknownColumn(name) => write!(f, "unknown column: {name:?}"),
            DataError::DuplicateColumn(name) => write!(f, "duplicate column: {name:?}"),
            DataError::LengthMismatch { expected, actual } => {
                write!(f, "length mismatch: expected {expected}, got {actual}")
            }
            DataError::TypeMismatch {
                column,
                expected,
                value,
            } => write!(
                f,
                "type mismatch in column {column:?}: expected {expected}, got value {value}"
            ),
            DataError::RowOutOfBounds { index, len } => {
                write!(
                    f,
                    "row index {index} out of bounds for table with {len} rows"
                )
            }
            DataError::InvalidOperation(msg) => write!(f, "invalid operation: {msg}"),
            DataError::CsvParse { line, message } => {
                write!(f, "CSV parse error at line {line}: {message}")
            }
            DataError::EmptyTable(msg) => write!(f, "empty table: {msg}"),
            DataError::QueryParse { position, message } => {
                write!(f, "query parse error at byte {position}: {message}")
            }
        }
    }
}

impl std::error::Error for DataError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = DataError::UnknownColumn("foo".into());
        assert!(e.to_string().contains("foo"));
        let e = DataError::LengthMismatch {
            expected: 3,
            actual: 5,
        };
        assert!(e.to_string().contains('3') && e.to_string().contains('5'));
        let e = DataError::CsvParse {
            line: 7,
            message: "bad field".into(),
        };
        assert!(e.to_string().contains("line 7"));
        let e = DataError::QueryParse {
            position: 12,
            message: "expected `)`".into(),
        };
        assert!(e.to_string().contains("byte 12") && e.to_string().contains("expected `)`"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<DataError>();
    }
}
