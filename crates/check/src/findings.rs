//! The findings model: what an analyzer reports, how findings are
//! fingerprinted for the baseline, and the lint registry.

use std::collections::BTreeMap;
use std::fmt;

/// The lints stair-check ships. The string forms are what `--deny` /
/// `--allow`, waiver comments, and the baseline file use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    /// L1: a poisonable guard (`.lock()`/`.read()`/`.write()`)
    /// consumed with `unwrap`/`expect` instead of the approved
    /// `unwrap_or_else(|e| e.into_inner())` idiom.
    LockPoison,
    /// L2: `unwrap`/`expect`/`panic!`-family calls in library crates.
    NoPanicInLib,
    /// L2b (opt-in via `--deny index-in-lib`): slice/array indexing in
    /// library crates.
    IndexInLib,
    /// L3: wire constants / opcode tables redeclared or incoherent.
    WireConstants,
    /// L4: a registered error type missing its promised `From` impl.
    ErrorConversions,
    /// L5: README tables drifting from the names found in code.
    DocDrift,
    /// L6: declared-but-dead or mentioned-but-undeclared metrics.
    CounterDiscipline,
    /// L7: span names recorded outside the declared `stair-obs` set,
    /// or declared span names nothing ever records.
    SpanDiscipline,
    /// L8: an in-place stripe write-back (`.write_run(…)`,
    /// `.write_sector(…)`, `.write_recorded(…)`) in `crates/store`
    /// outside the journaled commit path.
    PersistOrdering,
    /// L9: `unsafe` outside `crates/gf/src/simd.rs`, an `unsafe` inside
    /// it without a `// SAFETY:` comment, or a library crate root without
    /// its `unsafe_code` attribute.
    UnsafeConfined,
    /// A baseline entry that no current finding matches.
    StaleBaseline,
}

/// Every lint, in reporting order.
pub const ALL_LINTS: [Lint; 11] = [
    Lint::LockPoison,
    Lint::NoPanicInLib,
    Lint::IndexInLib,
    Lint::WireConstants,
    Lint::ErrorConversions,
    Lint::DocDrift,
    Lint::CounterDiscipline,
    Lint::SpanDiscipline,
    Lint::PersistOrdering,
    Lint::UnsafeConfined,
    Lint::StaleBaseline,
];

impl Lint {
    /// The stable string id (`--deny`, baseline, JSON).
    pub fn id(self) -> &'static str {
        match self {
            Lint::LockPoison => "lock-poison",
            Lint::NoPanicInLib => "no-panic-in-lib",
            Lint::IndexInLib => "index-in-lib",
            Lint::WireConstants => "wire-constants",
            Lint::ErrorConversions => "error-conversions",
            Lint::DocDrift => "doc-drift",
            Lint::CounterDiscipline => "counter-discipline",
            Lint::SpanDiscipline => "span-discipline",
            Lint::PersistOrdering => "persist-ordering",
            Lint::UnsafeConfined => "unsafe-confined",
            Lint::StaleBaseline => "stale-baseline",
        }
    }

    /// The waiver keyword accepted in `// check: <key> <reason>`
    /// comments, when the lint is waivable at a site.
    pub fn waiver_key(self) -> Option<&'static str> {
        match self {
            Lint::LockPoison => Some("lock-ok"),
            Lint::NoPanicInLib => Some("panic-ok"),
            Lint::IndexInLib => Some("index-ok"),
            Lint::CounterDiscipline => Some("metric-ok"),
            Lint::SpanDiscipline => Some("span-ok"),
            Lint::PersistOrdering => Some("persist-ok"),
            // Wire/doc/error coherence, where `unsafe` may live, and
            // baseline freshness are workspace-level facts; a site
            // comment cannot waive them.
            Lint::WireConstants
            | Lint::ErrorConversions
            | Lint::DocDrift
            | Lint::UnsafeConfined
            | Lint::StaleBaseline => None,
        }
    }

    /// Whether the lint runs without an explicit `--deny`.
    pub fn on_by_default(self) -> bool {
        !matches!(self, Lint::IndexInLib)
    }

    /// One-line rule statement (for `--list` and docs).
    pub fn describe(self) -> &'static str {
        match self {
            Lint::LockPoison => {
                "poisonable lock guards must use `unwrap_or_else(|e| e.into_inner())`"
            }
            Lint::NoPanicInLib => "no unwrap/expect/panic! in library crates",
            Lint::IndexInLib => "no slice/array indexing in library crates (opt-in)",
            Lint::WireConstants => {
                "wire constants and opcode tables must agree with protocol.rs, which speaks one \
                 version and one data opcode; a BlockDevice impl defines one data-path method"
            }
            Lint::ErrorConversions => "registered error types need their promised From impls",
            Lint::DocDrift => "README tables must name every opcode/scheme/codec family in code",
            Lint::CounterDiscipline => "every metric must be both produced and consumed somewhere",
            Lint::SpanDiscipline => {
                "span names live in stair-obs `names`: record only declared names, declare only \
                 recorded ones"
            }
            Lint::PersistOrdering => {
                "in crates/store, sectors are written in place only from the journaled commit \
                 path (apply_write_back / replay_journal)"
            }
            Lint::UnsafeConfined => {
                "`unsafe` lives only in crates/gf/src/simd.rs, each use under a `// SAFETY:` \
                 comment; every other library crate root keeps `#![forbid(unsafe_code)]`"
            }
            Lint::StaleBaseline => "check.allow entries must match a current finding",
        }
    }

    /// Parses a lint id.
    pub fn from_id(s: &str) -> Option<Lint> {
        ALL_LINTS.iter().copied().find(|l| l.id() == s)
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
    /// Stable identity for the baseline: independent of line numbers,
    /// derived from the lint, file, and the offending context.
    pub fingerprint: String,
}

impl Finding {
    /// Builds a finding; `context` feeds the fingerprint and should be
    /// stable under unrelated edits (e.g. the trimmed source line, or
    /// the drifting name itself).
    pub fn new(
        lint: Lint,
        file: &str,
        line: u32,
        col: u32,
        message: String,
        context: &str,
    ) -> Finding {
        Finding {
            lint,
            file: file.to_string(),
            line,
            col,
            message,
            fingerprint: fingerprint(lint, file, context, 0),
        }
    }
}

/// FNV-1a over the identity tuple, rendered as 16 hex chars. `dup`
/// disambiguates several identical contexts in one file.
pub fn fingerprint(lint: Lint, file: &str, context: &str, dup: u32) -> String {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    eat(lint.id().as_bytes());
    eat(b"|");
    eat(file.as_bytes());
    eat(b"|");
    // Collapse runs of whitespace so formatting changes do not move
    // fingerprints.
    let mut last_ws = false;
    for ch in context.chars() {
        if ch.is_whitespace() {
            if !last_ws {
                eat(b" ");
            }
            last_ws = true;
        } else {
            let mut buf = [0u8; 4];
            eat(ch.encode_utf8(&mut buf).as_bytes());
            last_ws = false;
        }
    }
    eat(b"|");
    eat(&dup.to_le_bytes());
    format!("{h:016x}")
}

/// Re-fingerprints a finding list so that several findings sharing one
/// (lint, file, context) get distinct, deterministic `dup` indices in
/// report order. Call once after all analyzers ran.
pub fn disambiguate(findings: &mut [Finding]) {
    let mut seen: BTreeMap<String, u32> = BTreeMap::new();
    for f in findings.iter_mut() {
        let n = seen.entry(f.fingerprint.clone()).or_insert(0);
        if *n > 0 {
            // Derive a fresh print from the colliding one.
            f.fingerprint = fingerprint(f.lint, &f.file, &f.fingerprint, *n);
        }
        *n += 1;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        let a = fingerprint(Lint::LockPoison, "x.rs", "let  a =  1;", 0);
        let b = fingerprint(Lint::LockPoison, "x.rs", "let a = 1;", 0);
        assert_eq!(a, b, "whitespace runs collapse");
        let c = fingerprint(Lint::LockPoison, "y.rs", "let a = 1;", 0);
        assert_ne!(a, c);
        let d = fingerprint(Lint::NoPanicInLib, "x.rs", "let a = 1;", 0);
        assert_ne!(a, d);
        assert_eq!(a.len(), 16);
    }

    #[test]
    fn duplicate_contexts_get_distinct_prints() {
        let f = |i| Finding::new(Lint::NoPanicInLib, "a.rs", i, 1, "m".into(), "x.unwrap()");
        let mut v = vec![f(1), f(5), f(9)];
        disambiguate(&mut v);
        assert_ne!(v[0].fingerprint, v[1].fingerprint);
        assert_ne!(v[1].fingerprint, v[2].fingerprint);
    }

    #[test]
    fn lint_ids_round_trip() {
        for l in ALL_LINTS {
            assert_eq!(Lint::from_id(l.id()), Some(l));
        }
        assert_eq!(Lint::from_id("nope"), None);
    }
}
