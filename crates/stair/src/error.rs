//! Error type for STAIR code construction, encoding, and decoding.

use core::fmt;

/// Errors returned by this crate.
#[derive(Clone, Debug, Eq, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// Invalid `(n, r, m, e)` configuration.
    InvalidConfig(String),
    /// The erasure pattern contains an out-of-range or duplicate coordinate.
    InvalidPattern(String),
    /// The erasure pattern is not recoverable (peeling got stuck). Patterns
    /// within the `(m, e)` coverage never produce this error.
    Unrecoverable {
        /// Number of cells that remained unrecovered when decoding stalled.
        remaining: usize,
    },
    /// A stripe/buffer shape did not match the configuration.
    ShapeMismatch(String),
    /// An underlying MDS-code failure (never expected for valid configs;
    /// surfaced instead of panicking).
    Mds(stair_rs::Error),
    /// A failure of the shared plan machinery with no variant of its own
    /// here: another codec's plan, or a malformed one.
    Code(stair_code::CodeError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidConfig(msg) => write!(f, "invalid STAIR configuration: {msg}"),
            Error::InvalidPattern(msg) => write!(f, "invalid erasure pattern: {msg}"),
            Error::Unrecoverable { remaining } => {
                write!(
                    f,
                    "erasure pattern is unrecoverable ({remaining} cells left)"
                )
            }
            Error::ShapeMismatch(msg) => write!(f, "shape mismatch: {msg}"),
            Error::Mds(e) => write!(f, "MDS code error: {e}"),
            Error::Code(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Mds(e) => Some(e),
            Error::Code(e) => Some(e),
            _ => None,
        }
    }
}

impl From<stair_rs::Error> for Error {
    fn from(e: stair_rs::Error) -> Self {
        Error::Mds(e)
    }
}

impl From<stair_code::CodeError> for Error {
    fn from(e: stair_code::CodeError) -> Self {
        use stair_code::CodeError;
        match e {
            CodeError::InvalidPattern(m) => Error::InvalidPattern(m),
            CodeError::ShapeMismatch(m) => Error::ShapeMismatch(m),
            other => Error::Code(other),
        }
    }
}
