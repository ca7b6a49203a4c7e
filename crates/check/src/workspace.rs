//! Workspace discovery: which files exist, which crate each belongs
//! to, what role it plays (library source, test, example, …), where its
//! `#[cfg(test)]` modules sit, and which waiver comments it carries —
//! plus the two manifest facts `doc-drift` checks.

use std::fs;
use std::path::{Path, PathBuf};

use crate::findings::Waiver;
use crate::lexer::{TokKind, TokenFile};

/// The role a file plays, which decides which lints apply to it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// A crate's library source (`src/` minus binary entry points).
    LibSrc,
    /// A binary entry point (`src/main.rs`, `src/bin/…`).
    BinSrc,
    /// Integration tests (`tests/`).
    Test,
    /// Examples (`examples/`).
    Example,
}

/// One lexed source file plus everything analyzers ask about it.
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel: String,
    /// The owning crate's directory name (`store`, `net`,
    /// `shims/rand`, or `.` for the root package).
    pub crate_name: String,
    /// Role.
    pub kind: FileKind,
    /// Lexed content.
    pub tf: TokenFile,
    /// Byte ranges covered by `#[cfg(test)]` modules.
    pub test_spans: Vec<(usize, usize)>,
    /// `// check: <key> <reason>` comments.
    pub waivers: Vec<Waiver>,
}

impl SourceFile {
    /// `true` when byte offset `at` falls inside a `#[cfg(test)]` module.
    pub fn in_test_span(&self, at: usize) -> bool {
        self.test_spans.iter().any(|&(s, e)| at >= s && at < e)
    }

    /// `true` when the file as a whole is test-only code (integration
    /// tests, examples).
    pub fn is_test_like(&self) -> bool {
        matches!(self.kind, FileKind::Test | FileKind::Example)
    }

    /// Looks for a waiver with `key` on `line` or the line above it —
    /// the two attachment points the waiver grammar allows.
    pub fn waived(&self, key: &str, line: u32) -> bool {
        self.waivers
            .iter()
            .any(|w| w.key == key && (w.line == line || w.line + 1 == line))
    }
}

/// A loaded workspace: lexed sources plus the prose docs some lints
/// cross-check.
pub struct Workspace {
    /// Absolute root.
    pub root: PathBuf,
    /// Every `.rs` file found, lexed.
    pub files: Vec<SourceFile>,
    /// `(rel-path, contents)` for README.md / EXPERIMENTS.md when
    /// present.
    pub docs: Vec<(String, String)>,
    /// Timing harnesses outside `benchmark/` and `crates/bench/src/bin`:
    /// a member's `benches/` directory, a member manifest with a
    /// `[[bench]]` table, a root `BENCH_*.json` (workspace-relative).
    pub stray_harnesses: Vec<String>,
    /// Manifests declaring a package (a member's, or the root's) that do
    /// not inherit the workspace lint table (workspace-relative).
    pub unlinted_manifests: Vec<String>,
}

impl Workspace {
    /// Walks the workspace at `root`. Reads the root `Cargo.toml` for
    /// the member list; falls back to scanning `crates/*` when absent.
    ///
    /// # Errors
    ///
    /// Returns a rendered message when the root is unreadable.
    pub fn load(root: &Path) -> Result<Workspace, String> {
        let root = root
            .canonicalize()
            .map_err(|e| format!("cannot open workspace root {}: {e}", root.display()))?;
        let manifest = fs::read_to_string(root.join("Cargo.toml"))
            .map_err(|e| format!("cannot read {}/Cargo.toml: {e}", root.display()))?;
        let mut members = parse_members(&manifest);
        // The root package itself (umbrella crate), if it has sources.
        members.push(String::from("."));

        let mut files = Vec::new();
        let mut stray_harnesses: Vec<String> = fs::read_dir(&root)
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            .collect();
        let mut unlinted_manifests = Vec::new();
        for member in &members {
            let dir = if member == "." {
                root.clone()
            } else {
                root.join(member)
            };
            let crate_name = member
                .strip_prefix("crates/")
                .unwrap_or(member.as_str())
                .to_string();
            if dir.join("benches").is_dir() {
                stray_harnesses.push(format!("{member}/benches"));
            }
            let manifest_rel = if member == "." {
                String::from("Cargo.toml")
            } else {
                format!("{member}/Cargo.toml")
            };
            if let Ok(m) = fs::read_to_string(dir.join("Cargo.toml")) {
                if m.contains("[[bench]]") {
                    stray_harnesses.push(manifest_rel.clone());
                }
                // `crates/gf` hosts the one `unsafe` module, so it carries
                // its own table, which must still deny `unsafe_code`.
                let linted = table_has(&m, "lints", "workspace=true")
                    || (member == "crates/gf"
                        && table_has(&m, "lints.rust", "unsafe_code=\"deny\""));
                if m.contains("[package]") && !linted {
                    unlinted_manifests.push(manifest_rel);
                }
            }
            for (sub, kind) in [
                ("src", FileKind::LibSrc),
                ("tests", FileKind::Test),
                ("examples", FileKind::Example),
            ] {
                let base = dir.join(sub);
                if !base.is_dir() {
                    continue;
                }
                let mut paths = Vec::new();
                collect_rs(&base, &mut paths);
                for path in paths {
                    // Fixture files are known-bad on purpose; the
                    // workspace scan must never read them.
                    if path
                        .components()
                        .any(|c| c.as_os_str() == "fixtures" || c.as_os_str() == "target")
                    {
                        continue;
                    }
                    let Ok(text) = fs::read_to_string(&path) else {
                        continue;
                    };
                    let rel = path
                        .strip_prefix(&root)
                        .unwrap_or(&path)
                        .to_string_lossy()
                        .replace('\\', "/");
                    // Skip files that belong to a nested member (the
                    // root package walk would otherwise re-add crates/).
                    if member == "." && rel.starts_with("crates/") {
                        continue;
                    }
                    let kind = classify(kind, &rel);
                    let tf = TokenFile::lex(text);
                    let test_spans = find_test_spans(&tf);
                    let waivers = find_waivers(&tf, &rel);
                    files.push(SourceFile {
                        rel,
                        crate_name: crate_name.clone(),
                        kind,
                        tf,
                        test_spans,
                        waivers,
                    });
                }
            }
        }
        files.sort_by(|a, b| a.rel.cmp(&b.rel));

        let mut docs = Vec::new();
        for name in ["README.md", "EXPERIMENTS.md", "ROADMAP.md"] {
            if let Ok(text) = fs::read_to_string(root.join(name)) {
                docs.push((name.to_string(), text));
            }
        }
        Ok(Workspace {
            root,
            files,
            docs,
            stray_harnesses,
            unlinted_manifests,
        })
    }

    /// The file at workspace-relative path `rel`, if scanned.
    pub fn file(&self, rel: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel == rel)
    }

    /// The contents of doc `name`, if present.
    pub fn doc(&self, name: &str) -> Option<&str> {
        self.docs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t.as_str())
    }
}

/// Demotes a `src` file to a binary entry point when the path says so.
fn classify(base: FileKind, rel: &str) -> FileKind {
    if base == FileKind::LibSrc && (rel.ends_with("/main.rs") || rel.contains("/src/bin/")) {
        FileKind::BinSrc
    } else {
        base
    }
}

/// `true` when TOML table `[table]` of `manifest` holds the line `entry`
/// (spaces ignored) — a line scan from the header to the next one, not
/// a TOML parser.
fn table_has(manifest: &str, table: &str, entry: &str) -> bool {
    let header = format!("[{table}]");
    manifest
        .lines()
        .map(|l| l.replace(' ', ""))
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .any(|l| l == entry)
}

/// Pulls the `members = [ "…", … ]` list out of `[workspace]` without a
/// TOML parser: collect quoted strings between the opening bracket of
/// `members` and its closing `]`.
fn parse_members(manifest: &str) -> Vec<String> {
    let mut out = Vec::new();
    let Some(at) = manifest.find("members") else {
        return out;
    };
    let Some(open) = manifest[at..].find('[') else {
        return out;
    };
    let rest = &manifest[at + open + 1..];
    let Some(close) = rest.find(']') else {
        return out;
    };
    for piece in rest[..close].split(',') {
        let m = piece.trim().trim_matches('"');
        if !m.is_empty() && !m.starts_with('#') {
            out.push(m.to_string());
        }
    }
    out
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Finds `#[cfg(test)] mod … { … }` byte spans by walking code tokens:
/// the attribute sequence, any further attributes, `mod name {`, then
/// brace matching to the close.
fn find_test_spans(tf: &TokenFile) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let n = tf.code.len();
    let mut ci = 0;
    while ci < n {
        if is_cfg_test_attr(tf, ci) {
            let start = tf.ctok(ci).start;
            // Skip to the end of this attribute: `#` `[` … matching `]`.
            let mut k = ci + 2; // past `#` `[`
            let mut depth = 1;
            while k < n && depth > 0 {
                match tf.ctext(k) {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    _ => {}
                }
                k += 1;
            }
            // Skip any further attributes between cfg(test) and `mod`.
            while k < n && tf.is_punct(k, "#") {
                let mut d = 0;
                k += 1;
                if tf.is_punct(k, "[") {
                    d = 1;
                    k += 1;
                    while k < n && d > 0 {
                        match tf.ctext(k) {
                            "[" => d += 1,
                            "]" => d -= 1,
                            _ => {}
                        }
                        k += 1;
                    }
                }
                let _ = d;
            }
            if tf.is_ident(k, "mod") {
                // `mod name { … }` — find the opening brace, match it.
                while k < n && !tf.is_punct(k, "{") && !tf.is_punct(k, ";") {
                    k += 1;
                }
                if tf.is_punct(k, "{") {
                    let mut depth = 1;
                    k += 1;
                    while k < n && depth > 0 {
                        match tf.ctext(k) {
                            "{" => depth += 1,
                            "}" => depth -= 1,
                            _ => {}
                        }
                        k += 1;
                    }
                    let end = if k > 0 && k <= n {
                        tf.ctok(k - 1).end
                    } else {
                        tf.src.len()
                    };
                    spans.push((start, end));
                    ci = k;
                    continue;
                }
            }
        }
        ci += 1;
    }
    spans
}

/// `true` when code token `ci` opens `#[cfg(test)]` or
/// `#[cfg(all(test, …))]`.
fn is_cfg_test_attr(tf: &TokenFile, ci: usize) -> bool {
    if !(tf.is_punct(ci, "#") && tf.is_punct(ci + 1, "[") && tf.is_ident(ci + 2, "cfg")) {
        return false;
    }
    // Look for a bare `test` ident inside the attribute brackets.
    let mut k = ci + 3;
    let mut depth = 0;
    while k < tf.code.len() {
        match tf.ctext(k) {
            "[" | "(" => depth += 1,
            "]" if depth == 0 => return false,
            "]" | ")" => depth -= 1,
            "test" if tf.ctok(k).kind == TokKind::Ident => return true,
            _ => {}
        }
        if depth < 0 {
            return false;
        }
        k += 1;
    }
    false
}

/// Extracts `// check: <key> <reason>` waiver comments. Doc comments
/// (`///`, `//!`) never carry waivers — a waiver is an annotation, not
/// documentation.
fn find_waivers(tf: &TokenFile, rel: &str) -> Vec<Waiver> {
    let mut out = Vec::new();
    for (i, t) in tf.toks.iter().enumerate() {
        if t.kind != TokKind::LineComment {
            continue;
        }
        let text = tf.text(i);
        let body = text.trim_start_matches('/');
        // After stripping `//`, doc comments leave a leading `/` or `!`
        // that `trim_start_matches('/')` removed or kept as `!`.
        if text.starts_with("///") || text.starts_with("//!") {
            continue;
        }
        let body = body.trim_start();
        let Some(rest) = body.strip_prefix("check:") else {
            continue;
        };
        let rest = rest.trim_start();
        let (key, reason) = match rest.split_once(char::is_whitespace) {
            Some((k, r)) => (k, r.trim()),
            None => (rest, ""),
        };
        if key.is_empty() {
            continue;
        }
        out.push(Waiver {
            key: key.to_string(),
            reason: reason.to_string(),
            file: rel.to_string(),
            line: t.line,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn member_list_parses() {
        let m =
            parse_members("[workspace]\nmembers = [\n \"crates/a\",\n \"crates/b\", # note\n]\n");
        assert!(m.contains(&"crates/a".to_string()));
        assert!(m.contains(&"crates/b".to_string()));
    }

    #[test]
    fn cfg_test_spans_cover_the_module() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() { x.unwrap(); }\n}\nfn c() {}\n";
        let tf = TokenFile::lex(src.to_string());
        let spans = find_test_spans(&tf);
        assert_eq!(spans.len(), 1);
        let unwrap_at = src.find("unwrap").unwrap();
        assert!(spans[0].0 <= src.find("#[cfg").unwrap());
        assert!(unwrap_at > spans[0].0 && unwrap_at < spans[0].1);
        let after = src.find("fn c").unwrap();
        assert!(after >= spans[0].1);
    }

    #[test]
    fn cfg_all_test_also_counts() {
        let src = "#[cfg(all(test, feature = \"x\"))]\nmod t { }\nfn keep() {}\n";
        let tf = TokenFile::lex(src.to_string());
        assert_eq!(find_test_spans(&tf).len(), 1);
    }

    #[test]
    fn waivers_parse_and_attach() {
        let src = "// check: lock-ok guards only a counter\nlet g = m.lock().unwrap();\n/// check: lock-ok not a waiver (doc comment)\nfn f() {}\n";
        let tf = TokenFile::lex(src.to_string());
        let w = find_waivers(&tf, "x.rs");
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].key, "lock-ok");
        assert_eq!(w[0].reason, "guards only a counter");
        assert_eq!(w[0].line, 1);
    }
}
