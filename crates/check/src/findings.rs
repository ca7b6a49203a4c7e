//! The findings model: what an analyzer reports, and the lint registry.

use std::fmt;

/// The lints stair-check ships. The string forms are what `--list`,
/// waiver comments and the JSON report use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    /// A poisonable guard (`.lock()`/`.read()`/`.write()`) consumed with
    /// `unwrap`/`expect` instead of the approved
    /// `unwrap_or_else(|e| e.into_inner())` idiom.
    LockPoison,
    /// Wire constants redeclared, the deleted compatibility machinery
    /// regrown, or a `BlockDevice` impl with more than one data method.
    WireConstants,
    /// README tables drifting from the names found in code, a second
    /// timing harness, or a manifest outside the workspace lint table.
    DocDrift,
    /// Declared-but-dead or mentioned-but-undeclared metrics.
    CounterDiscipline,
    /// Span names recorded outside the declared `stair-obs` set, or
    /// declared span names nothing ever records.
    SpanDiscipline,
    /// An in-place stripe write-back (`.write_run(…)`,
    /// `.write_sector(…)`, `.write_recorded(…)`) in `crates/store`
    /// outside the journaled commit path.
    PersistOrdering,
}

/// Every lint, in reporting order.
pub const ALL_LINTS: [Lint; 6] = [
    Lint::LockPoison,
    Lint::WireConstants,
    Lint::DocDrift,
    Lint::CounterDiscipline,
    Lint::SpanDiscipline,
    Lint::PersistOrdering,
];

impl Lint {
    /// The stable string id (waivers, JSON).
    pub fn id(self) -> &'static str {
        match self {
            Lint::LockPoison => "lock-poison",
            Lint::WireConstants => "wire-constants",
            Lint::DocDrift => "doc-drift",
            Lint::CounterDiscipline => "counter-discipline",
            Lint::SpanDiscipline => "span-discipline",
            Lint::PersistOrdering => "persist-ordering",
        }
    }

    /// The waiver keyword accepted in `// check: <key> <reason>`
    /// comments, when the lint is waivable at a site.
    pub fn waiver_key(self) -> Option<&'static str> {
        match self {
            Lint::LockPoison => Some("lock-ok"),
            Lint::CounterDiscipline => Some("metric-ok"),
            Lint::SpanDiscipline => Some("span-ok"),
            Lint::PersistOrdering => Some("persist-ok"),
            // Wire and doc coherence are workspace-level facts; a site
            // comment cannot waive them.
            Lint::WireConstants | Lint::DocDrift => None,
        }
    }

    /// One-line rule statement (for `--list` and docs).
    pub fn describe(self) -> &'static str {
        match self {
            Lint::LockPoison => {
                "poisonable lock guards must use `unwrap_or_else(|e| e.into_inner())`"
            }
            Lint::WireConstants => {
                "wire constants live in protocol.rs, which speaks one version and one data \
                 opcode; a BlockDevice impl defines one data-path method; codecs return \
                 CodeError and run region products only through the plan executor"
            }
            Lint::DocDrift => {
                "README tables must name every opcode/scheme/codec family in code; one timing \
                 harness; every manifest inherits the workspace lints"
            }
            Lint::CounterDiscipline => "every metric must be both produced and consumed somewhere",
            Lint::SpanDiscipline => {
                "span names live in stair-obs `names`: record only declared names, declare only \
                 recorded ones"
            }
            Lint::PersistOrdering => {
                "in crates/store, sectors are written in place only from the journaled commit \
                 path (apply_write_back / replay_journal)"
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
    /// The waiver keyword (e.g. `lock-ok`).
    pub key: String,
    /// Justification text after the keyword.
    pub reason: String,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line the comment sits on.
    pub line: u32,
}
