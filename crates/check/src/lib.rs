//! stair-check: a dependency-free static analysis pass that
//! machine-checks the invariants the stack depends on.
//!
//! Six PRs of prose rules — the lock-poison policy, the single-source
//! wire constants, the no-panic zones, the README tables, the metric
//! registry — become lints here, run on every build. The tool is a
//! hand-rolled lexer ([`lexer`]) feeding token-level analyzers
//! ([`analyzers`]); findings carry stable fingerprints ([`findings`])
//! so grandfathered ones can live in a `check.allow` baseline
//! ([`baseline`]) that is itself checked for staleness.
//!
//! Driver: `cargo run -p stair-check -- [--json] [--deny <lint>]
//! [--allow <lint>] [--baseline <path>] <workspace-root>`.

#![forbid(unsafe_code)]

pub mod analyzers;
pub mod baseline;
pub mod findings;
pub mod lexer;
pub mod workspace;

use std::path::PathBuf;

use baseline::Baseline;
use findings::{disambiguate, Finding, Lint, Waiver};
use workspace::Workspace;

/// How a run is configured (the CLI flags, parsed).
pub struct Config {
    /// Workspace root to scan.
    pub root: PathBuf,
    /// Lints enabled *in addition to* the on-by-default set.
    pub deny: Vec<String>,
    /// Lints disabled even if on by default.
    pub allow: Vec<String>,
    /// Baseline file; defaults to `<root>/check.allow`.
    pub baseline: Option<PathBuf>,
}

impl Config {
    /// A default config for `root`.
    pub fn new(root: impl Into<PathBuf>) -> Config {
        Config {
            root: root.into(),
            deny: Vec::new(),
            allow: Vec::new(),
            baseline: None,
        }
    }
}

/// The outcome of a run.
pub struct Report {
    /// Findings that fail the build (not baselined).
    pub findings: Vec<Finding>,
    /// Findings suppressed by `check.allow`.
    pub baselined: Vec<Finding>,
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
        let mut s = String::from("{\n  \"tool\": \"stair-check\",\n  \"schema_version\": 1,\n");
        s.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        s.push_str("  \"findings\": [");
        push_findings(&mut s, &self.findings);
        s.push_str("],\n  \"baselined\": [");
        push_findings(&mut s, &self.baselined);
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
            "],\n  \"summary\": {{\"active\": {}, \"baselined\": {}, \"waivers\": {}}}\n}}\n",
            self.findings.len(),
            self.baselined.len(),
            self.waivers.len()
        ));
        s
    }

    /// The human-readable report.
    pub fn render_human(&self) -> String {
        let mut s = String::new();
        for f in &self.findings {
            s.push_str(&format!(
                "{}:{}:{}: [{}] {}\n    fingerprint: {}\n",
                f.file, f.line, f.col, f.lint, f.message, f.fingerprint
            ));
        }
        s.push_str(&format!(
            "stair-check: {} file(s) scanned, {} finding(s), {} baselined, {} waiver(s)\n",
            self.files_scanned,
            self.findings.len(),
            self.baselined.len(),
            self.waivers.len()
        ));
        s
    }
}

fn push_findings(s: &mut String, findings: &[Finding]) {
    for (i, f) in findings.iter().enumerate() {
        s.push_str(if i == 0 { "\n" } else { ",\n" });
        s.push_str(&format!(
            "    {{\"lint\": {}, \"severity\": \"error\", \"file\": {}, \"line\": {}, \
             \"col\": {}, \"message\": {}, \"fingerprint\": {}}}",
            json_str(f.lint.id()),
            json_str(&f.file),
            f.line,
            f.col,
            json_str(&f.message),
            json_str(&f.fingerprint)
        ));
    }
    if !findings.is_empty() {
        s.push_str("\n  ");
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

/// Runs the full pass: walk, analyze, filter, baseline.
///
/// # Errors
///
/// Returns a rendered message when the workspace or baseline cannot be
/// loaded (distinct from "findings exist", which is a clean `Report`).
pub fn run(cfg: &Config) -> Result<Report, String> {
    let ws = Workspace::load(&cfg.root)?;
    let mut all = Vec::new();
    analyzers::run_all(&ws, &mut all);

    let enabled = |l: Lint| -> bool {
        if cfg.allow.iter().any(|s| s == l.id()) {
            return false;
        }
        l.on_by_default() || cfg.deny.iter().any(|s| s == l.id())
    };
    all.retain(|f| enabled(f.lint));
    all.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.lint).cmp(&(b.file.as_str(), b.line, b.col, b.lint))
    });
    disambiguate(&mut all);

    let bl_path = cfg
        .baseline
        .clone()
        .unwrap_or_else(|| cfg.root.join("check.allow"));
    let bl = Baseline::load(&bl_path, "check.allow")?;
    let (mut active, baselined) = bl.apply(all);
    if !enabled(Lint::StaleBaseline) {
        active.retain(|f| f.lint != Lint::StaleBaseline);
    }
    active.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.lint).cmp(&(b.file.as_str(), b.line, b.col, b.lint))
    });

    let mut waivers: Vec<Waiver> = ws.files.iter().flat_map(|f| f.waivers.clone()).collect();
    waivers.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));

    Ok(Report {
        findings: active,
        baselined,
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
            baselined: vec![],
            waivers: vec![],
            files_scanned: 3,
        };
        assert_eq!(r.exit_code(), 0);
        let j = r.to_json();
        assert!(j.contains("\"findings\": []"));
        assert!(j.contains("\"summary\""));
    }
}
