//! The findings model: what an analyzer reports, and the lint registry.

use std::fmt;

/// The lints stair-check ships. The string forms are what `--list` and
/// the report print.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    /// Wire constants redeclared, the deleted compatibility machinery
    /// regrown, a `BlockDevice` impl with more than one data method or a
    /// backend's inherent copy of an admin method, or a codec crate's own
    /// error enum.
    WireConstants,
    /// Span names recorded under a string literal instead of a declared
    /// `stair-obs` constant.
    SpanDiscipline,
}

/// Every lint, in reporting order.
pub const ALL_LINTS: [Lint; 2] = [Lint::WireConstants, Lint::SpanDiscipline];

impl Lint {
    /// The stable string id.
    pub fn id(self) -> &'static str {
        match self {
            Lint::WireConstants => "wire-constants",
            Lint::SpanDiscipline => "span-discipline",
        }
    }

    /// One-line rule statement (for `--list` and docs).
    pub fn describe(self) -> &'static str {
        match self {
            Lint::WireConstants => {
                "wire constants live in protocol.rs, which speaks one version and one data \
                 opcode; a BlockDevice impl defines one data-path method; codecs return \
                 CodeError"
            }
            Lint::SpanDiscipline => {
                "span names live in stair-obs `names`: a recording site passes a declared \
                 constant, never a string literal"
            }
        }
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One reported problem.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Which rule fired.
    pub lint: Lint,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line (0 for file-level findings).
    pub line: u32,
    /// 1-based column (0 when not meaningful).
    pub col: u32,
    /// Human explanation, including how to fix it.
    pub message: String,
}

impl Finding {
    /// Builds a finding.
    pub fn new(lint: Lint, file: &str, line: u32, col: u32, message: String) -> Finding {
        Finding {
            lint,
            file: file.to_string(),
            line,
            col,
            message,
        }
    }
}
