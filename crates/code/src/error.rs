//! The unified error type for every erasure codec.

use core::fmt;

/// The one error type of every codec: `stair`, `stair-sd` and this
/// crate's [`crate::MdsCode`] return it from their inherent methods and
/// their [`crate::CodecCore`] impls alike, so codec-generic callers like
/// `stair-store` match on one enum instead of chaining `map_err`s.
#[derive(Clone, Debug, Eq, PartialEq)]
#[non_exhaustive]
pub enum CodeError {
    /// Invalid construction parameters or an unparsable codec spec.
    InvalidConfig(String),
    /// A malformed erasure pattern (out of range, duplicates, or a wanted
    /// set that is not a subset of the erased set).
    InvalidPattern(String),
    /// The erasure pattern exceeds what the code can repair.
    Unrecoverable(String),
    /// A stripe buffer or payload shape did not match the code.
    ShapeMismatch(String),
    /// The operation is not supported by this codec (e.g. encoding an
    /// outside-placement STAIR stripe into a bare grid).
    Unsupported(String),
    /// An internal invariant failed in the underlying codec machinery.
    Internal(String),
}

impl fmt::Display for CodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodeError::InvalidConfig(m) => write!(f, "invalid codec configuration: {m}"),
            CodeError::InvalidPattern(m) => write!(f, "invalid erasure pattern: {m}"),
            CodeError::Unrecoverable(m) => write!(f, "unrecoverable pattern: {m}"),
            CodeError::ShapeMismatch(m) => write!(f, "shape mismatch: {m}"),
            CodeError::Unsupported(m) => write!(f, "unsupported operation: {m}"),
            CodeError::Internal(m) => write!(f, "internal codec error: {m}"),
        }
    }
}

impl std::error::Error for CodeError {}
