//! L7 `span-discipline`: span names are declared exactly once — as
//! `pub const` strings in the `names` module of
//! `crates/obs/src/trace.rs` — and every recording site refers to them
//! through those constants. A string literal handed to a span sink
//! (`span(…)`, `root_span(…)`, `span_or_root(…)`, `wire_root_at(…)`,
//! `span_at(…)`) outside the declaring file is a violation: if the text
//! matches a declared name the site should use the constant, and if it
//! does not, the name is undeclared — either way the trace schema has
//! forked. That every declared name is recorded is a run-time fact, and
//! the root package's `tests/telemetry.rs` holds it.

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
    check_literal_sites(ws, &declared_names(trace), out);
}

/// `name string → const ident` for every `pub const IDENT: &str = "…"`
/// in the schema module.
fn declared_names(f: &SourceFile) -> BTreeMap<String, String> {
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
                tf.ctext(ci + 1).to_string(),
            );
        }
    }
    out
}

/// String literals inside span-sink calls anywhere but the declaring
/// file.
fn check_literal_sites(
    ws: &Workspace,
    declared: &BTreeMap<String, String>,
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
                    if !in_sink {
                        continue;
                    }
                    let name = str_contents(tf.ctext(ci));
                    let fix = match declared.get(name) {
                        Some(ident) => {
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
                             once in stair-obs; {fix}"
                        ),
                    ));
                }
                _ => {}
            }
        }
    }
}
