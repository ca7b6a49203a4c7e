//! Error type for the baseline codes.

use core::fmt;

/// Errors returned by the baseline codes.
#[derive(Clone, Debug, Eq, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// Invalid construction parameters.
    InvalidParams(String),
    /// The erasure pattern is malformed (out of range / duplicates).
    InvalidPattern(String),
    /// The pattern exceeds what the code can repair (no unique solution to
    /// the decoding system).
    Unrecoverable(String),
    /// A stripe/buffer shape did not match the code.
    ShapeMismatch(String),
    /// The algebraic construction failed verification for these parameters
    /// (the paper's point: SD constructions are only known for limited
    /// configurations).
    ConstructionFailed(String),
    /// Underlying linear-algebra error.
    Matrix(stair_gfmatrix::Error),
    /// Underlying MDS-code error.
    Mds(stair_rs::Error),
    /// A failure of the shared plan machinery with no variant of its own
    /// here (a malformed plan).
    Code(stair_code::CodeError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidParams(m) => write!(f, "invalid parameters: {m}"),
            Error::InvalidPattern(m) => write!(f, "invalid erasure pattern: {m}"),
            Error::Unrecoverable(m) => write!(f, "unrecoverable pattern: {m}"),
            Error::ShapeMismatch(m) => write!(f, "shape mismatch: {m}"),
            Error::ConstructionFailed(m) => write!(f, "construction failed: {m}"),
            Error::Matrix(e) => write!(f, "matrix error: {e}"),
            Error::Mds(e) => write!(f, "MDS code error: {e}"),
            Error::Code(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Matrix(e) => Some(e),
            Error::Mds(e) => Some(e),
            Error::Code(e) => Some(e),
            _ => None,
        }
    }
}

impl From<stair_gfmatrix::Error> for Error {
    fn from(e: stair_gfmatrix::Error) -> Self {
        Error::Matrix(e)
    }
}

impl From<stair_rs::Error> for Error {
    fn from(e: stair_rs::Error) -> Self {
        Error::Mds(e)
    }
}

impl From<Error> for stair_code::CodeError {
    fn from(e: Error) -> stair_code::CodeError {
        use stair_code::CodeError;
        match e {
            Error::InvalidParams(m) | Error::ConstructionFailed(m) => CodeError::InvalidConfig(m),
            Error::InvalidPattern(m) => CodeError::InvalidPattern(m),
            Error::Unrecoverable(m) => CodeError::Unrecoverable(m),
            Error::ShapeMismatch(m) => CodeError::ShapeMismatch(m),
            Error::Code(e) => e,
            other => CodeError::Internal(other.to_string()),
        }
    }
}

impl From<stair_code::CodeError> for Error {
    fn from(e: stair_code::CodeError) -> Error {
        use stair_code::CodeError;
        match e {
            CodeError::InvalidPattern(m) => Error::InvalidPattern(m),
            CodeError::Unrecoverable(m) => Error::Unrecoverable(m),
            CodeError::ShapeMismatch(m) => Error::ShapeMismatch(m),
            other => Error::Code(other),
        }
    }
}
