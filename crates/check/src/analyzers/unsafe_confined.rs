//! L9 `unsafe-confined`: the workspace has exactly one module that may
//! contain `unsafe` — `crates/gf/src/simd.rs`, the SIMD tiers of the
//! GF(2^8) region kernel — and the lint holds that line three ways:
//!
//! * the token `unsafe` anywhere else (library, binary, test, bench or
//!   example code) is a finding. There is no waiver: new `unsafe` either
//!   moves into the one audited module or does not land;
//! * inside that module every `unsafe` block must sit under a
//!   `// SAFETY:` comment saying why its requirements hold, and every
//!   `unsafe fn` under one or under a `# Safety` doc section saying what
//!   its caller must guarantee;
//! * every library crate root carries `#![forbid(unsafe_code)]`, so the
//!   compiler enforces the same line locally — except `crates/gf`, whose
//!   root must carry `#![deny(unsafe_code)]` (a `forbid` could not be
//!   lifted for the one module).
//!
//! Comments, strings and the `unsafe_code` lint name are not the token
//! and never fire.

use crate::findings::{Finding, Lint};
use crate::lexer::TokKind;
use crate::workspace::{FileKind, SourceFile, Workspace};

/// The one module allowed to contain `unsafe`.
const SIMD_RS: &str = "crates/gf/src/simd.rs";

/// The crate root that hosts it, which therefore cannot `forbid`.
const GF_ROOT: &str = "crates/gf/src/lib.rs";

/// Appends unsafe-confined findings.
pub fn run(ws: &Workspace, out: &mut Vec<Finding>) {
    for f in &ws.files {
        if f.rel == SIMD_RS {
            check_safety_comments(f, out);
        } else {
            flag_every_unsafe(f, out);
        }
        if f.kind == FileKind::LibSrc && (f.rel == "src/lib.rs" || f.rel.ends_with("/src/lib.rs")) {
            check_crate_root(f, out);
        }
    }
}

/// Code-token indices of the keyword `unsafe`.
fn unsafe_tokens(f: &SourceFile) -> impl Iterator<Item = usize> + '_ {
    (0..f.tf.code.len()).filter(|&ci| f.tf.is_ident(ci, "unsafe"))
}

fn flag_every_unsafe(f: &SourceFile, out: &mut Vec<Finding>) {
    for ci in unsafe_tokens(f) {
        let tok = f.tf.ctok(ci);
        out.push(Finding::new(
            Lint::UnsafeConfined,
            &f.rel,
            tok.line,
            tok.col,
            format!(
                "`unsafe` outside `{SIMD_RS}`, the one module audited for it: write this in \
                 safe code, or move it there with a `// SAFETY:` comment"
            ),
            f.tf.line_text(tok.line),
        ));
    }
}

fn check_safety_comments(f: &SourceFile, out: &mut Vec<Finding>) {
    for ci in unsafe_tokens(f) {
        let is_fn = f.tf.is_ident(ci + 1, "fn");
        if justified(f, ci, is_fn) {
            continue;
        }
        let tok = f.tf.ctok(ci);
        let want = if is_fn {
            "a `// SAFETY:` comment or a `# Safety` doc section stating what callers must guarantee"
        } else {
            "a `// SAFETY:` comment stating why the operation's requirements hold"
        };
        out.push(Finding::new(
            Lint::UnsafeConfined,
            &f.rel,
            tok.line,
            tok.col,
            format!("`unsafe` without {want} directly above it"),
            f.tf.line_text(tok.line),
        ));
    }
}

/// Walks back from the `unsafe` at code token `ci` through its own
/// statement or item header (attributes included) and the comments
/// directly above that, looking for the justification. The walk stops at
/// the first `;`, `{` or `}`: whatever lies beyond belongs to other code.
fn justified(f: &SourceFile, ci: usize, is_fn: bool) -> bool {
    let tf = &f.tf;
    for i in (0..tf.code[ci]).rev() {
        let text = tf.text(i);
        match tf.toks[i].kind {
            TokKind::LineComment | TokKind::BlockComment
                if text.contains("SAFETY:") || (is_fn && text.contains("# Safety")) =>
            {
                return true
            }
            TokKind::Punct if matches!(text, ";" | "{" | "}") => return false,
            _ => {}
        }
    }
    false
}

fn check_crate_root(f: &SourceFile, out: &mut Vec<Finding>) {
    let level = if f.rel == GF_ROOT { "deny" } else { "forbid" };
    let tf = &f.tf;
    let has_attr = (0..tf.code.len()).any(|ci| {
        tf.is_punct(ci, "#")
            && tf.is_punct(ci + 1, "!")
            && tf.is_punct(ci + 2, "[")
            && tf.is_ident(ci + 3, level)
            && tf.is_punct(ci + 4, "(")
            && tf.is_ident(ci + 5, "unsafe_code")
    });
    if !has_attr {
        out.push(Finding::new(
            Lint::UnsafeConfined,
            &f.rel,
            0,
            0,
            format!("library crate root lacks `#![{level}(unsafe_code)]`"),
            "crate-root unsafe_code attribute",
        ));
    }
}
