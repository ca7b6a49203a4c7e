// Fixture: a codec crate growing its own error types back beside
// `stair_code::CodeError` — the bare name, a suffixed one, and one
// private to the crate.
pub enum Error {
    InvalidParams(String),
    Code(CodeError),
}

enum PeelError {
    Stalled { remaining: usize },
}

pub(crate) enum MdsError {
    NotEnoughSymbols,
}

impl From<Error> for CodeError {
    fn from(e: Error) -> CodeError {
        CodeError::Internal(e.to_string())
    }
}
