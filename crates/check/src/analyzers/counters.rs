//! L6 `counter-discipline`: a metric that is declared but never
//! consumed is dead weight; a metric name typo'd at one site splits a
//! counter into two that nobody ever joins. Two checks:
//!
//! 1. every `AtomicU64` field of the store's `Counters` struct has
//!    both a writer (`fetch_add`/`store`) and a reader (`load`) in the
//!    store crate;
//! 2. every *string-named* metric (the `registry.counter("…")` /
//!    `snap.add_counter("…")` world) is mentioned at least twice
//!    across code and docs — a name seen exactly once has no consumer
//!    (or is a typo of one that does). `format!("dev.ops.{kind}")`
//!    patterns and README `dev.ops.<kind>` placeholders unify via a
//!    one-segment wildcard;
//! 3. cache-tier counters (`cache.*` / `wb.*` — any name whose prefix
//!    the obs registry's `metric_names` module reserves) are the
//!    span-name rule one module over: declared exactly once as
//!    constants, registered through those constants (a literal at a
//!    sink is a fork of the schema), and documented — a declared name
//!    no code registers or no doc explains is drift.

use std::collections::BTreeMap;

use crate::findings::{Finding, Lint};
use crate::lexer::{str_contents, TokKind};
use crate::workspace::{SourceFile, Workspace};

use super::spans::declared_names;

/// Where the store's hard counters live.
const STORE_RS: &str = "crates/store/src/store.rs";

/// Where the reserved metric-name schema (`metric_names`) lives.
const OBS_REGISTRY_RS: &str = "crates/obs/src/registry.rs";

/// Call names that make a string literal a metric-name mention.
const SINKS: &[&str] = &[
    "counter",
    "gauge",
    "histogram",
    "add_counter",
    "add_gauge",
    "add_histogram",
];

/// One sighting of a metric name.
struct Mention {
    /// Normalized name: `{…}`/`<…>` interpolations become `*`.
    name: String,
    /// File (or doc) it appeared in.
    file: String,
    /// 1-based line.
    line: u32,
    /// 1-based column.
    col: u32,
    /// `true` when it came from README/EXPERIMENTS rather than code.
    from_doc: bool,
    /// `true` when the code site is test-only (integration tests,
    /// benches, or a `#[cfg(test)]` module).
    from_test: bool,
}

/// Appends counter-discipline findings.
pub fn run(ws: &Workspace, out: &mut Vec<Finding>) {
    let declared = ws
        .file(OBS_REGISTRY_RS)
        .map(declared_names)
        .unwrap_or_default();
    check_atomic_counters(ws, out);
    check_named_metrics(ws, &declared, out);
    check_reserved_literals(ws, &declared, out);
    check_declared_metric_names(ws, &declared, out);
}

// ---- part 1: the Counters struct ----------------------------------

fn check_atomic_counters(ws: &Workspace, out: &mut Vec<Finding>) {
    let Some(store) = ws.file(STORE_RS) else {
        return; // store.rs missing is its own (L4/L5) problem
    };
    let fields = struct_atomic_fields(store, "Counters");
    let store_files: Vec<&SourceFile> = ws
        .files
        .iter()
        .filter(|f| f.crate_name == "store")
        .collect();
    for (field, line) in fields {
        let wrote = store_files
            .iter()
            .any(|f| has_member_call(f, &field, &["fetch_add", "store"]));
        let read = store_files
            .iter()
            .any(|f| has_member_call(f, &field, &["load"]));
        if !wrote || !read {
            let what = if !wrote {
                "never incremented"
            } else {
                "never read"
            };
            if store.waived("metric-ok", line) {
                continue;
            }
            out.push(Finding::new(
                Lint::CounterDiscipline,
                STORE_RS,
                line,
                1,
                format!(
                    "Counters field `{field}` is {what} in crates/store; delete it or wire it up \
                     (waive with `// check: metric-ok <reason>`)"
                ),
            ));
        }
    }
}

/// `(field name, line)` for each `name: AtomicU64` field of `struct <name>`.
fn struct_atomic_fields(f: &SourceFile, struct_name: &str) -> Vec<(String, u32)> {
    let tf = &f.tf;
    let n = tf.code.len();
    let mut out = Vec::new();
    let Some(at) = (0..n).find(|&ci| tf.is_ident(ci, "struct") && tf.is_ident(ci + 1, struct_name))
    else {
        return out;
    };
    let mut k = at + 2;
    while k < n && !tf.is_punct(k, "{") {
        k += 1;
    }
    let mut depth = 1i32;
    k += 1;
    while k < n && depth > 0 {
        match tf.ctext(k) {
            "{" | "(" => depth += 1,
            "}" | ")" => depth -= 1,
            // The ident straight before the `:` is the field name.
            ":" if depth == 1
                && tf.is_ident(k + 1, "AtomicU64")
                && k >= 1
                && tf.ctok(k - 1).kind == TokKind::Ident =>
            {
                out.push((tf.ctext(k - 1).to_string(), tf.ctok(k - 1).line));
            }
            _ => {}
        }
        k += 1;
    }
    out
}

/// `true` when the file contains `.<field>.<one of methods>(`.
fn has_member_call(f: &SourceFile, field: &str, methods: &[&str]) -> bool {
    let tf = &f.tf;
    (0..tf.code.len()).any(|ci| {
        tf.is_punct(ci, ".")
            && tf.is_ident(ci + 1, field)
            && tf.is_punct(ci + 2, ".")
            && methods.iter().any(|m| tf.is_ident(ci + 3, m))
            && tf.is_punct(ci + 4, "(")
    })
}

// ---- part 2: string-named metrics ---------------------------------

fn check_named_metrics(
    ws: &Workspace,
    declared: &BTreeMap<String, (String, u32)>,
    out: &mut Vec<Finding>,
) {
    // A sink call through a declared constant
    // (`registry.counter(metric_names::CACHE_HIT)`) mentions that
    // constant's name, not a literal — resolve idents so declared
    // metrics don't read as "documented but never produced".
    let by_ident: BTreeMap<&str, &str> = declared
        .iter()
        .map(|(name, (ident, _))| (ident.as_str(), name.as_str()))
        .collect();
    let mut mentions: Vec<Mention> = Vec::new();
    for f in &ws.files {
        collect_code_mentions(f, &by_ident, &mut mentions);
    }
    // Doc mentions only count for prefixes the code actually produces
    // (`protocol.rs` in a README backtick is not a metric).
    let prefixes: Vec<String> = {
        let mut p: Vec<String> = mentions
            .iter()
            .filter_map(|m| m.name.split('.').next().map(str::to_string))
            .collect();
        p.sort();
        p.dedup();
        p
    };
    for (doc, text) in &ws.docs {
        collect_doc_mentions(doc, text, &prefixes, &mut mentions);
    }

    let mut by_name: BTreeMap<&str, Vec<&Mention>> = BTreeMap::new();
    for m in &mentions {
        by_name.entry(&m.name).or_default().push(m);
    }
    for (name, sites) in &by_name {
        let total: usize = by_name
            .iter()
            .filter(|(other, _)| names_match(name, other))
            .map(|(_, v)| v.len())
            .sum();
        // Production code sites carry the rule; a metric that only
        // exists inside tests is test-local scaffolding, and test or
        // doc mentions still count as consumption of a real one.
        let code_site = sites.iter().find(|m| !m.from_doc && !m.from_test);
        if code_site.is_none() && sites.iter().any(|m| !m.from_doc) {
            continue;
        }
        match code_site {
            Some(site) => {
                if total >= 2 {
                    continue;
                }
                // Waivable at the producing site.
                if let Some(f) = ws.files.iter().find(|f| f.rel == site.file) {
                    if f.waived("metric-ok", site.line) {
                        continue;
                    }
                }
                out.push(Finding::new(
                    Lint::CounterDiscipline,
                    &site.file,
                    site.line,
                    site.col,
                    format!(
                        "metric `{name}` is mentioned exactly once in the workspace — nothing \
                         consumes it (or the consumer spells it differently); document it, read \
                         it somewhere, or waive with `// check: metric-ok <reason>`"
                    ),
                ));
            }
            None => {
                // Documented but never produced: drift in the docs.
                if by_name
                    .keys()
                    .any(|other| *other != *name && names_match(name, other))
                {
                    continue;
                }
                let site = sites[0];
                out.push(Finding::new(
                    Lint::CounterDiscipline,
                    &site.file,
                    site.line,
                    site.col,
                    format!(
                        "documented metric `{name}` is never produced by any code path; fix the \
                         doc or the code"
                    ),
                ));
            }
        }
    }
}

/// Segment-wise equality where `*` (an interpolation) matches any one
/// segment on either side.
fn names_match(a: &str, b: &str) -> bool {
    let (sa, sb): (Vec<&str>, Vec<&str>) = (a.split('.').collect(), b.split('.').collect());
    sa.len() == sb.len()
        && sa
            .iter()
            .zip(&sb)
            .all(|(x, y)| x == y || *x == "*" || *y == "*")
}

/// Walks the code tokens of `f` with a stack of enclosing call names;
/// a string literal — or an ident resolving to a declared metric
/// constant — inside a metric sink call is a mention.
fn collect_code_mentions(f: &SourceFile, by_ident: &BTreeMap<&str, &str>, out: &mut Vec<Mention>) {
    let tf = &f.tf;
    let mut stack: Vec<Option<String>> = Vec::new();
    for ci in 0..tf.code.len() {
        let t = tf.ctok(ci);
        match tf.ctext(ci) {
            "(" => {
                // Callee: `ident(` or `ident!(`.
                let callee = if ci >= 1 && tf.ctok(ci - 1).kind == TokKind::Ident {
                    Some(tf.ctext(ci - 1).to_string())
                } else if ci >= 2
                    && tf.is_punct(ci - 1, "!")
                    && tf.ctok(ci - 2).kind == TokKind::Ident
                {
                    Some(tf.ctext(ci - 2).to_string())
                } else {
                    None
                };
                stack.push(callee);
            }
            ")" => {
                stack.pop();
            }
            _ if t.kind == TokKind::Str => {
                let in_sink = stack.iter().flatten().any(|c| SINKS.contains(&c.as_str()));
                if !in_sink {
                    continue;
                }
                if let Some(name) = normalize(str_contents(tf.ctext(ci)), '{', '}') {
                    out.push(Mention {
                        name,
                        file: f.rel.clone(),
                        line: t.line,
                        col: t.col,
                        from_doc: false,
                        from_test: f.is_test_like() || f.in_test_span(t.start),
                    });
                }
            }
            _ if t.kind == TokKind::Ident => {
                // `counter(metric_names::CACHE_HIT)` — the constant is
                // the mention. A callee ident sits *before* its `(`,
                // so it is never on the stack for itself.
                let in_sink = stack.iter().flatten().any(|c| SINKS.contains(&c.as_str()));
                if !in_sink {
                    continue;
                }
                if let Some(name) = by_ident.get(tf.ctext(ci)) {
                    out.push(Mention {
                        name: (*name).to_string(),
                        file: f.rel.clone(),
                        line: t.line,
                        col: t.col,
                        from_doc: false,
                        from_test: f.is_test_like() || f.in_test_span(t.start),
                    });
                }
            }
            _ => {}
        }
    }
}

// ---- part 3: the reserved metric-name schema ----------------------

/// Check 3a: a string literal at a metric sink whose leading segment
/// the `metric_names` module reserves, anywhere but the declaring
/// file. Mirrors the span-discipline literal rule: matching a declared
/// name means "use the constant", not matching means the name forked
/// the schema.
fn check_reserved_literals(
    ws: &Workspace,
    declared: &BTreeMap<String, (String, u32)>,
    out: &mut Vec<Finding>,
) {
    let reserved: Vec<&str> = {
        let mut p: Vec<&str> = declared
            .keys()
            .filter_map(|n| n.split('.').next())
            .collect();
        p.sort();
        p.dedup();
        p
    };
    if reserved.is_empty() {
        return;
    }
    for f in &ws.files {
        if f.rel == OBS_REGISTRY_RS {
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
                    let in_sink = stack.iter().flatten().any(|c| SINKS.contains(&c.as_str()));
                    if !in_sink || f.waived("metric-ok", t.line) {
                        continue;
                    }
                    let Some(name) = normalize(str_contents(tf.ctext(ci)), '{', '}') else {
                        continue;
                    };
                    if !name
                        .split('.')
                        .next()
                        .is_some_and(|p| reserved.contains(&p))
                    {
                        continue;
                    }
                    let fix = match declared.get(&name) {
                        Some((ident, _)) => {
                            format!("use `stair_obs::metric_names::{ident}` instead")
                        }
                        None => format!(
                            "`{name}` is not declared in stair-obs `metric_names`; add it there \
                             and register it through the constant"
                        ),
                    };
                    out.push(Finding::new(
                        Lint::CounterDiscipline,
                        &f.rel,
                        t.line,
                        t.col,
                        format!(
                            "reserved metric prefix registered under a string literal `{name}` — \
                             cache-tier names are declared once in stair-obs; {fix} (waive with \
                             `// check: metric-ok <reason>`)"
                        ),
                    ));
                }
                _ => {}
            }
        }
    }
}

/// Check 3b: every declared metric constant must be registered by some
/// other file *and* documented — dead schema and undocumented
/// counters are both drift.
fn check_declared_metric_names(
    ws: &Workspace,
    declared: &BTreeMap<String, (String, u32)>,
    out: &mut Vec<Finding>,
) {
    let Some(registry) = ws.file(OBS_REGISTRY_RS) else {
        return;
    };
    for (name, (ident, line)) in declared {
        if registry.waived("metric-ok", *line) {
            continue;
        }
        let used = ws.files.iter().any(|f| {
            f.rel != OBS_REGISTRY_RS && (0..f.tf.code.len()).any(|ci| f.tf.is_ident(ci, ident))
        });
        if !used {
            out.push(Finding::new(
                Lint::CounterDiscipline,
                OBS_REGISTRY_RS,
                *line,
                1,
                format!(
                    "declared metric name `{name}` (`metric_names::{ident}`) is never registered \
                     anywhere; delete it or wire up the counter it was meant for (waive with \
                     `// check: metric-ok <reason>`)"
                ),
            ));
        }
        let documented = ws
            .docs
            .iter()
            .any(|(_, text)| text.contains(&format!("`{name}`")));
        if !documented {
            out.push(Finding::new(
                Lint::CounterDiscipline,
                OBS_REGISTRY_RS,
                *line,
                1,
                format!(
                    "declared metric name `{name}` (`metric_names::{ident}`) is undocumented; \
                     add it (backticked) to README.md or EXPERIMENTS.md so operators can find it \
                     (waive with `// check: metric-ok <reason>`)"
                ),
            ));
        }
    }
}

/// Backticked spans in a doc that look like metric names with a known
/// prefix; `<placeholder>` segments become wildcards.
fn collect_doc_mentions(doc: &str, text: &str, prefixes: &[String], out: &mut Vec<Mention>) {
    for (i, line) in text.lines().enumerate() {
        let mut rest = line;
        let mut col0 = 0usize;
        while let Some(open) = rest.find('`') {
            let after = &rest[open + 1..];
            let Some(close) = after.find('`') else { break };
            let span = &after[..close];
            let at_col = col0 + open + 2; // 1-based, inside the backtick
            if let Some(name) = normalize(span, '<', '>') {
                if name.contains('.')
                    && prefixes
                        .iter()
                        .any(|p| name.split('.').next() == Some(p.as_str()))
                {
                    out.push(Mention {
                        name,
                        file: doc.to_string(),
                        line: i as u32 + 1,
                        col: at_col as u32,
                        from_doc: true,
                        from_test: false,
                    });
                }
            }
            col0 += open + 1 + close + 1;
            rest = &after[close + 1..];
        }
    }
}

/// Normalizes a candidate metric name: `open…close` interpolations
/// become `*` segments. Returns `None` unless the result is a dotted
/// lowercase name (≥ 2 segments, each `[a-z0-9_]+` or `*`).
fn normalize(s: &str, open: char, close: char) -> Option<String> {
    let mut outp = String::new();
    let mut depth = 0usize;
    for ch in s.chars() {
        if ch == open {
            if depth == 0 {
                outp.push('*');
            }
            depth += 1;
        } else if ch == close {
            depth = depth.saturating_sub(1);
        } else if depth == 0 {
            outp.push(ch);
        }
    }
    let segs: Vec<&str> = outp.split('.').collect();
    if segs.len() < 2 {
        return None;
    }
    let ok = segs.iter().all(|seg| {
        *seg == "*"
            || (!seg.is_empty()
                && seg
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'))
    });
    if ok {
        Some(outp)
    } else {
        None
    }
}
