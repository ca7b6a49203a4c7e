//! stair-check: a static analysis pass, with no dependency at all, for
//! the cross-crate invariants that neither rustc nor clippy nor a test
//! can hold.
//!
//! A rule lives in the strongest thing that can hold it. Where `unsafe`
//! may appear and which crates may not panic are compiler settings (the
//! workspace `[lints]` table, `crates/gf`'s own table, and a clippy
//! `deny` at each no-panic crate root). Lock poison and the region
//! kernels are clippy's: the root `clippy.toml` disallows `Mutex::lock`
//! and `RwLock::read`/`write` outside `stair_obs::sync`, and
//! `stair_gf::Field`'s region kernels outside `Plan::execute` and
//! `stair-gf` itself. A codec's provided methods are the compiler's:
//! `ErasureCode` is one blanket impl over `CodecCore`, so an override is
//! E0119. The journal's write ordering is module privacy: only
//! `crates/store/src/device/persist.rs` can write a sector. README
//! drift, a second timing harness and an unlinted manifest fail the root
//! package's `tests/docs.rs`; a metric README does not document, a
//! documented metric nothing produces, a metric that never moves and a
//! declared span name nothing records fail its `tests/telemetry.rs`. An
//! exhaustive `match`, an exhaustive destructuring, a lookup table or a
//! required `From` impl holds what a type can. What remains is here:
//! the single-source wire constants, the `BlockDevice` trait shape and
//! the one codec error (`wire-constants`), and span names recorded only
//! through their declared constants (`span-discipline`). The tool is a
//! hand-rolled lexer ([`lexer`]) feeding token-level analyzers
//! ([`analyzers`]). Neither lint has exceptions.
//!
//! Driver: `cargo run -p stair-check -- <workspace-root>`.

pub mod analyzers;
pub mod findings;
pub mod lexer;
pub mod workspace;

use std::path::Path;

use findings::Finding;
use workspace::Workspace;

/// The outcome of a run.
pub struct Report {
    /// Every finding; any one fails the build.
    pub findings: Vec<Finding>,
    /// How many source files were scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Process exit code: 0 clean, 1 findings.
    pub fn exit_code(&self) -> i32 {
        if self.findings.is_empty() {
            0
        } else {
            1
        }
    }

    /// The human-readable report.
    pub fn render_human(&self) -> String {
        let mut s = String::new();
        for f in &self.findings {
            s.push_str(&format!(
                "{}:{}:{}: [{}] {}\n",
                f.file, f.line, f.col, f.lint, f.message
            ));
        }
        s.push_str(&format!(
            "stair-check: {} file(s) scanned, {} finding(s)\n",
            self.files_scanned,
            self.findings.len()
        ));
        s
    }
}

/// Runs the full pass over the workspace at `root`: walk, analyze, sort.
///
/// # Errors
///
/// Returns a rendered message when the workspace cannot be loaded
/// (distinct from "findings exist", which is a clean `Report`).
pub fn run(root: &Path) -> Result<Report, String> {
    let ws = Workspace::load(root)?;
    let mut findings = Vec::new();
    analyzers::run_all(&ws, &mut findings);
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.lint).cmp(&(b.file.as_str(), b.line, b.col, b.lint))
    });
    Ok(Report {
        findings,
        files_scanned: ws.files.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_is_clean() {
        let r = Report {
            findings: vec![],
            files_scanned: 3,
        };
        assert_eq!(r.exit_code(), 0);
        assert_eq!(
            r.render_human(),
            "stair-check: 3 file(s) scanned, 0 finding(s)\n"
        );
    }
}
