// Fixture: everything the one-error rule must NOT flag in a codec crate
// — `CodeError` under a local alias, a kind enum whose name only starts
// with `Error`, a struct, and the words in comments and strings.
use stair_code::CodeError as Error;

type Result<T> = core::result::Result<T, Error>;

// enum Error { Mds }
pub enum ErrorKind {
    Config,
    Pattern,
}

pub struct Stalled {
    remaining: usize,
}

pub fn describe() -> &'static str {
    "enum PeelError"
}

pub fn fail(kind: ErrorKind) -> Result<()> {
    match kind {
        ErrorKind::Config => Err(Error::InvalidConfig("bad".into())),
        ErrorKind::Pattern => Err(Error::InvalidPattern("bad".into())),
    }
}
