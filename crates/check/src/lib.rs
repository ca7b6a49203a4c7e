//! stair-check: a dependency-free static analysis pass for the
//! cross-crate invariants that neither rustc nor clippy can see.
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

    /// The machine-readable report (schema documented in
    /// EXPERIMENTS.md).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"tool\": \"stair-check\",\n  \"schema_version\": 2,\n");
        s.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        s.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str(&format!(
                "    {{\"lint\": {}, \"severity\": \"error\", \"file\": {}, \"line\": {}, \
                 \"col\": {}, \"message\": {}}}",
                json_str(f.lint.id()),
                json_str(&f.file),
                f.line,
                f.col,
                json_str(&f.message)
            ));
        }
        if !self.findings.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("],\n  \"waivers\": [");
        for (i, w) in self.waivers.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str(&format!(
                "    {{\"key\": {}, \"file\": {}, \"line\": {}, \"reason\": {}}}",
                json_str(&w.key),
                json_str(&w.file),
                w.line,
                json_str(&w.reason)
            ));
        }
        if !self.waivers.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str(&format!(
            "],\n  \"summary\": {{\"active\": {}, \"waivers\": {}}}\n}}\n",
            self.findings.len(),
            self.waivers.len()
        ));
        s
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

/// Minimal JSON string escaping (quotes, backslashes, control chars).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
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
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("plain"), "\"plain\"");
    }

    #[test]
    fn empty_report_is_clean_and_valid_json() {
        let r = Report {
            findings: vec![],
            waivers: vec![],
            files_scanned: 3,
        };
        assert_eq!(r.exit_code(), 0);
        let j = r.to_json();
        assert!(j.contains("\"findings\": []"));
        assert!(j.contains("\"summary\""));
    }
}
