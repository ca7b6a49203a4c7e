//! Workspace discovery: which `.rs` files each member crate (and the
//! root package) holds under `src/`, `tests/` and `examples/`, lexed.

use std::fs;
use std::path::{Path, PathBuf};

use crate::lexer::TokenFile;

/// One lexed source file.
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel: String,
    /// Lexed content.
    pub tf: TokenFile,
}

/// A loaded workspace: its lexed sources.
pub struct Workspace {
    /// Every `.rs` file found, lexed.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Walks the workspace at `root`: the members the root
    /// `Cargo.toml` lists, plus the root package itself.
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
        for member in &members {
            let dir = if member == "." {
                root.clone()
            } else {
                root.join(member)
            };
            for sub in ["src", "tests", "examples"] {
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
                    files.push(SourceFile {
                        rel,
                        tf: TokenFile::lex(text),
                    });
                }
            }
        }
        files.sort_by(|a, b| a.rel.cmp(&b.rel));
        Ok(Workspace { files })
    }

    /// The file at workspace-relative path `rel`, if scanned.
    pub fn file(&self, rel: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel == rel)
    }
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
}
