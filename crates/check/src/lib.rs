//! stair-check: a static analysis pass, with no registry dependency,
//! for the cross-crate invariants that neither rustc nor clippy can see.
//!
//! A rule lives in the cheapest thing that enforces it. Where `unsafe`
//! may appear and which crates may not panic are compiler settings (the
//! workspace `[lints]` table, `crates/gf`'s own table, and a clippy
//! `deny` at each no-panic crate root); an exhaustive `match`, a lookup
//! table or a required `From` impl holds what a type can. What remains
//! is here: the lock-poison idiom, the single-source wire constants,
//! the README tables and manifest lint inheritance, the metric and span
//! registries, and the journal's write ordering. The tool is a
//! hand-rolled lexer ([`lexer`]) feeding token-level analyzers
//! ([`analyzers`]); a deliberate exception carries an inline
//! `// check: <key> <reason>` waiver, collected into the report.
//!
//! Driver: `cargo run -p stair-check -- [--json] <workspace-root>`.

pub mod analyzers;
pub mod findings;
pub mod lexer;
pub mod workspace;

use std::path::Path;

use findings::{Finding, Waiver};
use stair_obs::json::Json;
use workspace::Workspace;

/// The outcome of a run.
pub struct Report {
    /// Every finding; any one fails the build.
    pub findings: Vec<Finding>,
    /// Every waiver comment in the workspace (the audit trail).
    pub waivers: Vec<Waiver>,
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

    /// The machine-readable report, one line (schema documented in
    /// EXPERIMENTS.md).
    pub fn to_json(&self) -> String {
        let num = |v: u32| Json::int64(u64::from(v));
        let findings = self.findings.iter().map(|f| {
            Json::obj([
                ("lint", Json::str(f.lint.id())),
                ("severity", Json::str("error")),
                ("file", Json::str(f.file.clone())),
                ("line", num(f.line)),
                ("col", num(f.col)),
                ("message", Json::str(f.message.clone())),
            ])
        });
        let waivers = self.waivers.iter().map(|w| {
            Json::obj([
                ("key", Json::str(w.key.clone())),
                ("file", Json::str(w.file.clone())),
                ("line", num(w.line)),
                ("reason", Json::str(w.reason.clone())),
            ])
        });
        Json::obj([
            ("tool", Json::str("stair-check")),
            ("schema_version", Json::int(2)),
            ("files_scanned", Json::int(self.files_scanned)),
            ("findings", Json::arr(findings)),
            ("waivers", Json::arr(waivers)),
            (
                "summary",
                Json::obj([
                    ("active", Json::int(self.findings.len())),
                    ("waivers", Json::int(self.waivers.len())),
                ]),
            ),
        ])
        .to_text()
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
            "stair-check: {} file(s) scanned, {} finding(s), {} waiver(s)\n",
            self.files_scanned,
            self.findings.len(),
            self.waivers.len()
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

    let mut waivers: Vec<Waiver> = ws.files.iter().flat_map(|f| f.waivers.clone()).collect();
    waivers.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));

    Ok(Report {
        findings,
        waivers,
        files_scanned: ws.files.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_is_clean_and_valid_json() {
        let r = Report {
            findings: vec![],
            waivers: vec![],
            files_scanned: 3,
        };
        assert_eq!(r.exit_code(), 0);
        assert_eq!(
            r.to_json(),
            "{\"tool\":\"stair-check\",\"schema_version\":2,\"files_scanned\":3,\
             \"findings\":[],\"waivers\":[],\"summary\":{\"active\":0,\"waivers\":0}}\n"
        );
    }
}
