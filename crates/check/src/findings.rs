//! The findings model: what an analyzer reports, and the lint registry.

use std::fmt;

/// The lints stair-check ships. The string forms are what `--list`,
/// waiver comments and the JSON report use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    /// Wire constants redeclared, the deleted compatibility machinery
    /// regrown, a `BlockDevice` impl with more than one data method or a
    /// backend's inherent copy of an admin method, or a codec crate's own
    /// error enum.
    WireConstants,
    /// Declared-but-dead or mentioned-but-undeclared metrics.
    CounterDiscipline,
    /// Span names recorded outside the declared `stair-obs` set, or
    /// declared span names nothing ever records.
    SpanDiscipline,
}

/// Every lint, in reporting order.
pub const ALL_LINTS: [Lint; 3] = [
    Lint::WireConstants,
    Lint::CounterDiscipline,
    Lint::SpanDiscipline,
];

impl Lint {
    /// The stable string id (waivers, JSON).
    pub fn id(self) -> &'static str {
        match self {
            Lint::WireConstants => "wire-constants",
            Lint::CounterDiscipline => "counter-discipline",
            Lint::SpanDiscipline => "span-discipline",
        }
    }

    /// The waiver keyword accepted in `// check: <key> <reason>`
    /// comments, when the lint is waivable at a site.
    pub fn waiver_key(self) -> Option<&'static str> {
        match self {
            Lint::CounterDiscipline => Some("metric-ok"),
            Lint::SpanDiscipline => Some("span-ok"),
            // Wire coherence is a workspace-level fact; a site comment
            // cannot waive it.
            Lint::WireConstants => None,
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
            Lint::CounterDiscipline => "every metric must be both produced and consumed somewhere",
            Lint::SpanDiscipline => {
                "span names live in stair-obs `names`: record only declared names, declare only \
                 recorded ones"
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
    /// Human explanation, including how to fix or waive.
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

/// A waiver comment found in source: `// check: <key> <reason>`.
#[derive(Clone, Debug)]
pub struct Waiver {
    /// The waiver keyword (e.g. `metric-ok`).
    pub key: String,
    /// Justification text after the keyword.
    pub reason: String,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line the comment sits on.
    pub line: u32,
}
