//! Error type shared by the format constructors and the Matrix Market parser.

use std::fmt;

/// Error produced when constructing, converting, or parsing a sparse matrix.
#[derive(Debug)]
#[non_exhaustive]
pub enum FormatError {
    /// An index was outside the matrix dimensions.
    IndexOutOfBounds {
        /// Row index of the offending entry.
        row: usize,
        /// Column index of the offending entry.
        col: usize,
        /// Number of rows in the matrix.
        rows: usize,
        /// Number of columns in the matrix.
        cols: usize,
    },
    /// Two operands had incompatible dimensions.
    DimensionMismatch {
        /// Dimensions of the left operand.
        left: (usize, usize),
        /// Dimensions of the right operand.
        right: (usize, usize),
    },
    /// The internal arrays of a compressed format were inconsistent.
    InvalidStructure(String),
    /// A Matrix Market file could not be parsed.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// 1-based character column of the offending token (`None` when the
        /// whole line is at fault, e.g. a missing header).
        col: Option<usize>,
        /// Description of the problem.
        message: String,
    },
    /// An underlying I/O operation failed.
    Io(std::io::Error),
    /// A matrix's arrays could not be allocated (e.g. the row pointers of
    /// a Matrix Market file that declares billions of rows).
    TooLarge {
        /// Declared number of rows.
        rows: usize,
        /// Declared number of columns.
        cols: usize,
    },
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::IndexOutOfBounds {
                row,
                col,
                rows,
                cols,
            } => write!(f, "entry ({row}, {col}) is outside a {rows}x{cols} matrix"),
            FormatError::DimensionMismatch { left, right } => write!(
                f,
                "dimension mismatch: {}x{} vs {}x{}",
                left.0, left.1, right.0, right.1
            ),
            FormatError::InvalidStructure(msg) => {
                write!(f, "invalid compressed structure: {msg}")
            }
            FormatError::Parse { line, col, message } => match col {
                Some(col) => write!(f, "parse error at line {line}, column {col}: {message}"),
                None => write!(f, "parse error at line {line}: {message}"),
            },
            FormatError::Io(err) => write!(f, "i/o error: {err}"),
            FormatError::TooLarge { rows, cols } => {
                write!(f, "a {rows}x{cols} matrix does not fit in memory")
            }
        }
    }
}

impl FormatError {
    /// A short, machine-stable category name for this error, used by the
    /// campaign quarantine log (`via-bench`) to classify failures without
    /// string-matching display text.
    pub fn kind(&self) -> &'static str {
        match self {
            FormatError::IndexOutOfBounds { .. } => "index_out_of_bounds",
            FormatError::DimensionMismatch { .. } => "dimension_mismatch",
            FormatError::InvalidStructure(_) => "invalid_structure",
            FormatError::Parse { .. } => "parse",
            FormatError::Io(_) => "io",
            FormatError::TooLarge { .. } => "too_large",
        }
    }

    /// For [`FormatError::Parse`], the `(line, column)` location
    /// (1-based; column is `None` when the whole line is at fault).
    pub fn parse_location(&self) -> Option<(usize, Option<usize>)> {
        match self {
            FormatError::Parse { line, col, .. } => Some((*line, *col)),
            _ => None,
        }
    }
}

impl std::error::Error for FormatError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FormatError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FormatError {
    fn from(err: std::io::Error) -> Self {
        FormatError::Io(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = FormatError::IndexOutOfBounds {
            row: 5,
            col: 6,
            rows: 4,
            cols: 4,
        };
        let text = err.to_string();
        assert!(text.contains("(5, 6)"));
        assert!(text.contains("4x4"));
    }

    #[test]
    fn io_error_round_trips_as_source() {
        use std::error::Error as _;
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let err = FormatError::from(io);
        assert!(err.source().is_some());
        assert!(err.to_string().contains("gone"));
    }

    #[test]
    fn parse_error_reports_line_and_column() {
        let err = FormatError::Parse {
            line: 7,
            col: Some(13),
            message: "bad value".into(),
        };
        let text = err.to_string();
        assert!(text.contains("line 7"));
        assert!(text.contains("column 13"));
        assert_eq!(err.parse_location(), Some((7, Some(13))));
        assert_eq!(err.kind(), "parse");
        let whole_line = FormatError::Parse {
            line: 2,
            col: None,
            message: "missing size line".into(),
        };
        assert!(!whole_line.to_string().contains("column"));
    }

    #[test]
    fn kinds_are_distinct() {
        use std::collections::HashSet;
        let errs = [
            FormatError::IndexOutOfBounds {
                row: 1,
                col: 1,
                rows: 1,
                cols: 1,
            },
            FormatError::DimensionMismatch {
                left: (1, 1),
                right: (2, 2),
            },
            FormatError::InvalidStructure("x".into()),
            FormatError::Parse {
                line: 1,
                col: None,
                message: "y".into(),
            },
            FormatError::Io(std::io::Error::other("z")),
        ];
        let kinds: HashSet<_> = errs.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds.len(), errs.len());
    }

    #[test]
    fn dimension_mismatch_mentions_both_shapes() {
        let err = FormatError::DimensionMismatch {
            left: (2, 3),
            right: (4, 5),
        };
        let text = err.to_string();
        assert!(text.contains("2x3"));
        assert!(text.contains("4x5"));
    }
}
