//! L7 `span-discipline`: the mirror of counter-discipline, one level
//! up the observability stack. Span names are declared exactly once —
//! as `pub const` strings in the `names` module of
//! `crates/obs/src/trace.rs` — and every recording site refers to them
//! through those constants. Two checks:
//!
//! 1. a string literal handed to a span sink (`span(…)`,
//!    `root_span(…)`, `span_or_root(…)`, `wire_root_at(…)`,
//!    `span_at(…)`) outside the declaring file is a violation: if the
//!    text matches a declared name the site should use the constant,
//!    and if it does not, the name is undeclared — either way the
//!    trace schema has forked;
//! 2. a declared span name no recording site ever references is dead
//!    schema: the constant exists, dashboards may key on it, but no
//!    trace will ever contain it.

use std::collections::BTreeMap;

use crate::findings::{Finding, Lint};
use crate::lexer::{str_contents, TokKind};
use crate::workspace::{SourceFile, Workspace};

/// Where the span-name schema lives.
const TRACE_RS: &str = "crates/obs/src/trace.rs";

/// Call names that record a span under a name.
const SINKS: &[&str] = &[
    "span",
    "root_span",
    "span_or_root",
    "wire_root_at",
    "span_at",
];

/// Appends span-discipline findings.
pub fn run(ws: &Workspace, out: &mut Vec<Finding>) {
    let Some(trace) = ws.file(TRACE_RS) else {
        return; // no trace module, nothing to keep coherent
    };
    let declared = declared_names(trace);
    check_literal_sites(ws, &declared, out);
    check_dead_names(ws, trace, &declared, out);
}

/// `name string → (const ident, line)` for every
/// `pub const IDENT: &str = "…"` in a schema module — shared with the
/// counter-discipline analyzer, which applies the same declared-once
/// rule to the `metric_names` module in the obs registry.
pub(crate) fn declared_names(f: &SourceFile) -> BTreeMap<String, (String, u32)> {
    let tf = &f.tf;
    let n = tf.code.len();
    let mut out = BTreeMap::new();
    for ci in 0..n {
        // `const IDENT : & str = "…"` — the `&[&str]` ALL table fails
        // the `str` ident at +4 and is skipped.
        if tf.is_ident(ci, "const")
            && ci + 6 < n
            && tf.ctok(ci + 1).kind == TokKind::Ident
            && tf.is_punct(ci + 2, ":")
            && tf.is_punct(ci + 3, "&")
            && tf.is_ident(ci + 4, "str")
            && tf.is_punct(ci + 5, "=")
            && tf.ctok(ci + 6).kind == TokKind::Str
        {
            out.insert(
                str_contents(tf.ctext(ci + 6)).to_string(),
                (tf.ctext(ci + 1).to_string(), tf.ctok(ci + 1).line),
            );
        }
    }
    out
}

/// Check 1: string literals inside span-sink calls anywhere but the
/// declaring file.
fn check_literal_sites(
    ws: &Workspace,
    declared: &BTreeMap<String, (String, u32)>,
    out: &mut Vec<Finding>,
) {
    for f in &ws.files {
        if f.rel == TRACE_RS {
            continue; // declarations and their unit tests
        }
        let tf = &f.tf;
        let mut stack: Vec<Option<String>> = Vec::new();
        for ci in 0..tf.code.len() {
            let t = tf.ctok(ci);
            match tf.ctext(ci) {
                "(" => {
                    let callee = if ci >= 1 && tf.ctok(ci - 1).kind == TokKind::Ident {
                        Some(tf.ctext(ci - 1).to_string())
                    } else {
                        None
                    };
                    stack.push(callee);
                }
                ")" => {
                    stack.pop();
                }
                _ if t.kind == TokKind::Str => {
                    let in_sink = stack
                        .last()
                        .and_then(|c| c.as_deref())
                        .is_some_and(|c| SINKS.contains(&c));
                    if !in_sink || f.waived("span-ok", t.line) {
                        continue;
                    }
                    let name = str_contents(tf.ctext(ci));
                    let fix = match declared.get(name) {
                        Some((ident, _)) => {
                            format!("use `stair_obs::trace::names::{ident}` instead")
                        }
                        None => format!(
                            "`{name}` is not declared in stair-obs `names`; add it there and \
                             record it through the constant"
                        ),
                    };
                    out.push(Finding::new(
                        Lint::SpanDiscipline,
                        &f.rel,
                        t.line,
                        t.col,
                        format!(
                            "span recorded under a string literal `{name}` — names are declared \
                             once in stair-obs; {fix} (waive with `// check: span-ok <reason>`)"
                        ),
                    ));
                }
                _ => {}
            }
        }
    }
}

/// Check 2: declared names never referenced by any file other than the
/// declaring one.
fn check_dead_names(
    ws: &Workspace,
    trace: &SourceFile,
    declared: &BTreeMap<String, (String, u32)>,
    out: &mut Vec<Finding>,
) {
    for (name, (ident, line)) in declared {
        let used = ws
            .files
            .iter()
            .any(|f| f.rel != TRACE_RS && (0..f.tf.code.len()).any(|ci| f.tf.is_ident(ci, ident)));
        if used || trace.waived("span-ok", *line) {
            continue;
        }
        out.push(Finding::new(
            Lint::SpanDiscipline,
            TRACE_RS,
            *line,
            1,
            format!(
                "declared span name `{name}` (`names::{ident}`) is never recorded anywhere; \
                 delete it or instrument the path it was meant for (waive with \
                 `// check: span-ok <reason>`)"
            ),
        ));
    }
}
