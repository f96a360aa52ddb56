//! Error type for sparse-matrix construction, conversion, kernels and I/O.

use std::fmt;

/// Result alias for sparse operations.
pub type SparseResult<T> = Result<T, SparseError>;

/// Errors raised by format construction/validation, conversions, kernels
/// and MatrixMarket I/O.
#[derive(Debug, Clone, PartialEq)]
pub enum SparseError {
    /// Array lengths passed to a constructor are mutually inconsistent.
    LengthMismatch {
        /// Human-readable description of what mismatched.
        what: &'static str,
        /// Expected length.
        expected: usize,
        /// Provided length.
        got: usize,
    },
    /// A row or column index is outside the matrix dimensions.
    IndexOutOfBounds {
        /// Which axis the offending index addresses.
        axis: &'static str,
        /// The offending index value.
        index: usize,
        /// The exclusive bound it violated.
        bound: usize,
    },
    /// An index a caller wrote into port arrays lies outside the local
    /// window it must address (see [`crate::convert::Window`]). Both the
    /// index and the range are in the caller's own numbering, index base
    /// included.
    OutOfWindow {
        /// What the index addresses ("row", "column", "diagonal column",
        /// "block column", "dof").
        axis: &'static str,
        /// The index as the caller wrote it.
        index: usize,
        /// First admissible index.
        lo: usize,
        /// One past the last admissible index.
        hi: usize,
    },
    /// A CSR/CSC pointer array is not monotonically non-decreasing or has
    /// the wrong first/last entry.
    MalformedPointers(&'static str),
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Left operand shape.
        left: (usize, usize),
        /// Right operand shape.
        right: (usize, usize),
    },
    /// The matrix has a zero (or structurally missing) pivot where one is
    /// required (diagonal scaling, triangular solve, factorization).
    ZeroPivot {
        /// Row of the offending pivot.
        row: usize,
    },
    /// A row of a triangular sweep reads a column that is not solved
    /// before it (the wrong side of the diagonal, or a row of the same or
    /// a later level).
    BadSweepOrder {
        /// The row doing the reading.
        row: usize,
        /// The column it must not depend on.
        col: usize,
    },
    /// The operation requires a square matrix.
    NotSquare {
        /// Actual shape.
        rows: usize,
        /// Actual shape.
        cols: usize,
    },
    /// MatrixMarket parsing failed.
    BadMatrixMarket {
        /// Line number (1-based) where parsing failed; 0 for header issues.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// An underlying I/O error (message-only so the error stays `Clone`).
    Io(String),
    /// A block size or element arity does not fit the matrix or the
    /// arrays it partitions.
    BadBlockPartition(String),
    /// Distributed operation failure (wraps a communication error).
    Comm(String),
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::LengthMismatch { what, expected, got } => {
                write!(f, "{what}: expected length {expected}, got {got}")
            }
            SparseError::IndexOutOfBounds { axis, index, bound } => {
                write!(f, "{axis} index {index} out of bounds (< {bound} required)")
            }
            SparseError::OutOfWindow { axis, index, lo, hi } => {
                write!(f, "{axis} index {index} lies outside this window's [{lo}, {hi})")
            }
            SparseError::MalformedPointers(why) => write!(f, "malformed pointer array: {why}"),
            SparseError::ShapeMismatch { left, right } => write!(
                f,
                "shape mismatch: {}x{} vs {}x{}",
                left.0, left.1, right.0, right.1
            ),
            SparseError::ZeroPivot { row } => write!(f, "zero pivot in row {row}"),
            SparseError::BadSweepOrder { row, col } => write!(
                f,
                "row {row} of a triangular sweep depends on column {col}, which is not solved before it"
            ),
            SparseError::NotSquare { rows, cols } => {
                write!(f, "operation requires a square matrix, got {rows}x{cols}")
            }
            SparseError::BadMatrixMarket { line, reason } => {
                write!(f, "MatrixMarket parse error at line {line}: {reason}")
            }
            SparseError::Io(msg) => write!(f, "I/O error: {msg}"),
            SparseError::BadBlockPartition(msg) => write!(f, "bad block partition: {msg}"),
            SparseError::Comm(msg) => write!(f, "communication error: {msg}"),
        }
    }
}

impl std::error::Error for SparseError {}

impl From<std::io::Error> for SparseError {
    fn from(e: std::io::Error) -> Self {
        SparseError::Io(e.to_string())
    }
}

impl From<rcomm::CommError> for SparseError {
    fn from(e: rcomm::CommError) -> Self {
        SparseError::Comm(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_mention_key_facts() {
        let e = SparseError::LengthMismatch { what: "values", expected: 5, got: 4 };
        assert!(e.to_string().contains("values"));
        let e = SparseError::IndexOutOfBounds { axis: "column", index: 10, bound: 5 };
        assert!(e.to_string().contains("column index 10"));
        let e = SparseError::ShapeMismatch { left: (2, 3), right: (4, 5) };
        assert!(e.to_string().contains("2x3"));
        let e = SparseError::ZeroPivot { row: 7 };
        assert!(e.to_string().contains("row 7"));
    }

    #[test]
    fn io_errors_convert() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "nope");
        let e: SparseError = io.into();
        assert!(matches!(e, SparseError::Io(_)));
    }
}
