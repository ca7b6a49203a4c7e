//! L3 `wire-constants`: the protocol's numbers live in exactly one
//! place — `crates/net/src/protocol.rs`. This analyzer (a) checks that
//! file's internal coherence (enum ↔ `from_u8` ↔ `name()` ↔ `ALL`,
//! dense collision-free discriminants), (b) keeps the deleted
//! compatibility machinery deleted — one `*_VERSION` constant, no `_v`
//! codec variants taking a session version, no `Read`/`Write` opcode
//! beside BATCH — (c) flags any other file that *redeclares* a wire
//! constant instead of importing it, and (d) holds the same one-path
//! rule above the wire: `submit_ops` is the only data-path method an
//! `impl BlockDevice for …` block defines.

use std::collections::BTreeMap;

use crate::findings::{Finding, Lint};
use crate::lexer::{int_value, str_contents, TokKind, TokenFile};
use crate::workspace::Workspace;

/// Where the protocol truth lives.
pub const PROTOCOL_RS: &str = "crates/net/src/protocol.rs";

/// The constants whose redeclaration anywhere else is drift.
pub const WIRE_CONSTS: &[&str] = &[
    "PROTOCOL_VERSION",
    "MAGIC",
    "MAX_FRAME",
    "MAX_IO_BYTES",
    "MAX_BATCH_OPS",
];

/// What the analyzer extracted from `protocol.rs`, reused by L5.
#[derive(Default)]
pub struct ProtocolFacts {
    /// `(name, value)` for the integer wire constants.
    pub consts: Vec<(String, u64)>,
    /// Opcode variants in declaration order with discriminants.
    pub opcodes: Vec<(String, u64)>,
    /// `name()` wire strings per variant.
    pub wire_names: Vec<(String, String)>,
}

/// The two files that may spell a lone op as a `pub fn`: the trait's
/// provided methods, and `StripeStore`'s typed-error trio the layer
/// ledger calls.
const LONE_OP_HOMES: &[&str] = &["crates/device/src/api.rs", "crates/store/src/batch.rs"];

/// Appends wire findings; returns the extracted facts for reuse.
pub fn run(ws: &Workspace, out: &mut Vec<Finding>) -> ProtocolFacts {
    check_one_device_method(ws, out);
    let Some(proto) = ws.file(PROTOCOL_RS) else {
        out.push(Finding::new(
            Lint::WireConstants,
            PROTOCOL_RS,
            0,
            0,
            "protocol.rs not found — the wire-constant source of truth is missing".into(),
            "missing protocol.rs",
        ));
        return ProtocolFacts::default();
    };
    let tf = &proto.tf;
    let mut facts = ProtocolFacts {
        consts: parse_consts(tf),
        opcodes: parse_opcode_enum(tf),
        wire_names: parse_name_arms(tf),
    };
    check_protocol_coherence(tf, &mut facts, out);

    // (c) redeclarations elsewhere: any `const`/`static` with a wire
    // constant's name outside protocol.rs must be an import, never a
    // new literal.
    for f in &ws.files {
        if f.rel == PROTOCOL_RS {
            continue;
        }
        let tf = &f.tf;
        for ci in 0..tf.code.len() {
            if !(tf.is_ident(ci, "const") || tf.is_ident(ci, "static")) {
                continue;
            }
            let name = tf.ctext(ci + 1);
            if WIRE_CONSTS.contains(&name) && tf.is_punct(ci + 2, ":") {
                let t = tf.ctok(ci + 1);
                out.push(Finding::new(
                    Lint::WireConstants,
                    &f.rel,
                    t.line,
                    t.col,
                    format!(
                        "`{name}` redeclared outside protocol.rs; import it from \
                         `stair_net::protocol` so the cap cannot fork"
                    ),
                    tf.line_text(t.line),
                ));
            }
        }
    }
    facts
}

/// (d) `read_at`/`write_at`/`submit` are written once, in the
/// `BlockDevice` trait: every implementor defines `submit_ops` and none
/// of those three (a per-op fork above the wire is how a layer ends up
/// wrapping three methods; the trait's `submit_ops` fallback exists for
/// out-of-workspace devices only and recurses if neither side is
/// defined), and no type outside [`LONE_OP_HOMES`] offers
/// `pub fn read_at|write_at` sugar beside its `submit_ops`.
fn check_one_device_method(ws: &Workspace, out: &mut Vec<Finding>) {
    for f in &ws.files {
        let tf = &f.tf;
        let n = tf.code.len();
        let mut flag = |ci: usize, msg: String| {
            let t = tf.ctok(ci);
            out.push(Finding::new(
                Lint::WireConstants,
                &f.rel,
                t.line,
                t.col,
                msg,
                tf.line_text(t.line),
            ));
        };
        for ci in 0..n {
            let lone = |k: usize| tf.is_ident(k, "read_at") || tf.is_ident(k, "write_at");
            if tf.is_ident(ci, "pub")
                && tf.is_ident(ci + 1, "fn")
                && lone(ci + 2)
                && !LONE_OP_HOMES.contains(&f.rel.as_str())
            {
                let name = tf.ctext(ci + 2);
                flag(
                    ci + 2,
                    format!(
                        "`pub fn {name}` outside the BlockDevice trait: a type's one data-path \
                         entry is `submit_ops`; callers take `{name}` from the trait"
                    ),
                );
            }
            if !(tf.is_ident(ci, "BlockDevice") && tf.is_ident(ci + 1, "for")) {
                continue;
            }
            // The impl body: first `{` after the header to its match.
            let Some(open) = (ci + 2..n).find(|&k| tf.is_punct(k, "{")) else {
                continue;
            };
            let (mut depth, mut has_submit_ops) = (0i32, false);
            for k in open..n {
                match tf.ctext(k) {
                    "{" => depth += 1,
                    "}" => depth -= 1,
                    _ => {}
                }
                if depth == 0 {
                    break;
                }
                if depth != 1 || !tf.is_ident(k, "fn") {
                    continue;
                }
                has_submit_ops |= tf.is_ident(k + 1, "submit_ops");
                if lone(k + 1) || tf.is_ident(k + 1, "submit") {
                    let name = tf.ctext(k + 1);
                    flag(
                        k + 1,
                        format!(
                            "`fn {name}` inside an `impl BlockDevice for …` block: implement \
                             `submit_ops` only — `{name}` is provided by the trait"
                        ),
                    );
                }
            }
            if !has_submit_ops {
                flag(
                    ci,
                    "`impl BlockDevice for …` block without `fn submit_ops`: it is the one \
                     data-path method a device implements"
                        .into(),
                );
            }
        }
    }
}

/// Coherence checks inside protocol.rs itself.
fn check_protocol_coherence(tf: &TokenFile, facts: &mut ProtocolFacts, out: &mut Vec<Finding>) {
    let file = PROTOCOL_RS;
    let report = |out: &mut Vec<Finding>, msg: String, ctx: &str| {
        out.push(Finding::new(Lint::WireConstants, file, 0, 0, msg, ctx));
    };
    if facts.opcodes.is_empty() {
        report(
            out,
            "no `enum Opcode` found in protocol.rs".into(),
            "no enum",
        );
        return;
    }
    // Discriminants: collision-free and dense from 1.
    let mut by_val: BTreeMap<u64, &str> = BTreeMap::new();
    for (name, v) in &facts.opcodes {
        if let Some(prev) = by_val.insert(*v, name) {
            report(
                out,
                format!("opcode discriminant {v} used by both `{prev}` and `{name}`"),
                &format!("dup {v}"),
            );
        }
    }
    let n = facts.opcodes.len() as u64;
    for want in 1..=n {
        if !by_val.contains_key(&want) {
            report(
                out,
                format!("opcode table is not dense: discriminant {want} is unused (1..={n})"),
                &format!("gap {want}"),
            );
        }
    }
    // from_u8 arms must mirror the enum exactly.
    let arms = parse_from_u8_arms(tf);
    for (name, v) in &facts.opcodes {
        match arms.get(v) {
            Some(mapped) if mapped == name => {}
            Some(mapped) => report(
                out,
                format!("from_u8 maps {v} to `{mapped}` but the enum declares `{name}` = {v}"),
                &format!("from_u8 {v}"),
            ),
            None => report(
                out,
                format!("from_u8 has no arm for `{name}` = {v}"),
                &format!("from_u8 missing {v}"),
            ),
        }
    }
    for (v, mapped) in &arms {
        if !facts.opcodes.iter().any(|(_, ev)| ev == v) {
            report(
                out,
                format!("from_u8 accepts {v} (`{mapped}`) which the enum does not declare"),
                &format!("from_u8 extra {v}"),
            );
        }
    }
    // name() must cover every variant, with unique wire strings.
    let mut seen_names: BTreeMap<&str, &str> = BTreeMap::new();
    for (variant, wire) in &facts.wire_names {
        if let Some(prev) = seen_names.insert(wire.as_str(), variant) {
            report(
                out,
                format!("wire name `{wire}` used by both `{prev}` and `{variant}`"),
                &format!("name dup {wire}"),
            );
        }
    }
    for (name, _) in &facts.opcodes {
        if !facts.wire_names.iter().any(|(v, _)| v == name) {
            report(
                out,
                format!("Opcode::name() has no arm for `{name}`"),
                &format!("name missing {name}"),
            );
        }
    }
    check_single_data_path(tf, facts, out);
    // `Opcode::ALL` must list every variant (it feeds the density test
    // and any iteration over the table).
    match parse_all_list(tf) {
        None => report(
            out,
            "protocol.rs declares no `Opcode::ALL` table; add `pub const ALL: [Opcode; N]`".into(),
            "no ALL",
        ),
        Some(listed) => {
            for (name, _) in &facts.opcodes {
                if !listed.contains(name) {
                    report(
                        out,
                        format!("`Opcode::ALL` is missing variant `{name}`"),
                        &format!("ALL missing {name}"),
                    );
                }
            }
        }
    }
}

/// (b) One version, one data opcode: the rules that keep wire v2–v4
/// and the per-op READ/WRITE path from growing back.
fn check_single_data_path(tf: &TokenFile, facts: &ProtocolFacts, out: &mut Vec<Finding>) {
    let report = |out: &mut Vec<Finding>, msg: String, ctx: &str| {
        out.push(Finding::new(
            Lint::WireConstants,
            PROTOCOL_RS,
            0,
            0,
            msg,
            ctx,
        ));
    };
    let versions: Vec<&str> = facts
        .consts
        .iter()
        .map(|(name, _)| name.as_str())
        .filter(|name| name.ends_with("_VERSION"))
        .collect();
    if versions.len() != 1 {
        report(
            out,
            format!(
                "protocol.rs declares {} `*_VERSION` constants ({}); the protocol speaks exactly \
                 one version — HELLO refuses any other, nothing is negotiated",
                versions.len(),
                versions.join(", ")
            ),
            "version constants",
        );
    }
    for ci in 0..tf.code.len().saturating_sub(2) {
        let name = tf.ctext(ci + 1);
        if !(tf.is_ident(ci, "fn") && name.ends_with("_v") && tf.is_punct(ci + 2, "(")) {
            continue;
        }
        let mut k = ci + 3;
        while k < tf.code.len() && !tf.is_punct(k, ")") {
            if tf.is_ident(k, "version") {
                report(
                    out,
                    format!(
                        "`fn {name}` takes a session version: there is one wire layout, so no \
                         per-version codec variants"
                    ),
                    &format!("versioned fn {name}"),
                );
                break;
            }
            k += 1;
        }
    }
    for (variant, _) in &facts.opcodes {
        if variant == "Read" || variant == "Write" {
            report(
                out,
                format!(
                    "`Opcode::{variant}` declared: BATCH is the only data opcode (a lone read or \
                     write is a one-op batch)"
                ),
                &format!("data opcode {variant}"),
            );
        }
    }
}

/// Extracts `const NAME: TY = <int expr>;` items, evaluating simple
/// constant expressions (`64 * 1024 * 1024`, shifts, refs to earlier
/// consts). Non-integer constants (like `MAGIC`) are skipped.
pub fn parse_consts(tf: &TokenFile) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = Vec::new();
    for ci in 0..tf.code.len() {
        if !tf.is_ident(ci, "const") {
            continue;
        }
        let name = tf.ctext(ci + 1).to_string();
        if tf.ctok(ci + 1).kind != TokKind::Ident || !tf.is_punct(ci + 2, ":") {
            continue;
        }
        // Skip the type, find `=`.
        let mut k = ci + 3;
        while k < tf.code.len() && !tf.is_punct(k, "=") && !tf.is_punct(k, ";") {
            k += 1;
        }
        if !tf.is_punct(k, "=") {
            continue;
        }
        let mut expr = Vec::new();
        let mut d = 0i32;
        let mut j = k + 1;
        while j < tf.code.len() {
            let t = tf.ctext(j);
            if t == ";" && d == 0 {
                break;
            }
            if t == "(" {
                d += 1;
            }
            if t == ")" {
                d -= 1;
            }
            expr.push((tf.ctok(j).kind, t.to_string()));
            j += 1;
        }
        if let Some(v) = eval(&expr, &out) {
            out.push((name, v));
        }
    }
    out
}

/// Evaluates `expr` with Rust-ish precedence (`*` `/` over `+` `-`
/// over `<<` `>>`); identifiers resolve against `known`.
fn eval(expr: &[(TokKind, String)], known: &[(String, u64)]) -> Option<u64> {
    let mut pos = 0usize;
    let v = eval_shift(expr, &mut pos, known)?;
    if pos == expr.len() {
        Some(v)
    } else {
        None
    }
}

fn eval_shift(e: &[(TokKind, String)], p: &mut usize, k: &[(String, u64)]) -> Option<u64> {
    let mut v = eval_add(e, p, k)?;
    while *p < e.len() && (e[*p].1 == "<<" || e[*p].1 == ">>") {
        let op = e[*p].1.clone();
        *p += 1;
        let rhs = eval_add(e, p, k)?;
        v = if op == "<<" {
            v.checked_shl(rhs as u32)?
        } else {
            v.checked_shr(rhs as u32)?
        };
    }
    Some(v)
}

fn eval_add(e: &[(TokKind, String)], p: &mut usize, k: &[(String, u64)]) -> Option<u64> {
    let mut v = eval_mul(e, p, k)?;
    while *p < e.len() && (e[*p].1 == "+" || e[*p].1 == "-") {
        let op = e[*p].1.clone();
        *p += 1;
        let rhs = eval_mul(e, p, k)?;
        v = if op == "+" {
            v.checked_add(rhs)?
        } else {
            v.checked_sub(rhs)?
        };
    }
    Some(v)
}

fn eval_mul(e: &[(TokKind, String)], p: &mut usize, k: &[(String, u64)]) -> Option<u64> {
    let mut v = eval_prim(e, p, k)?;
    while *p < e.len() && (e[*p].1 == "*" || e[*p].1 == "/") {
        let op = e[*p].1.clone();
        *p += 1;
        let rhs = eval_prim(e, p, k)?;
        v = if op == "*" {
            v.checked_mul(rhs)?
        } else {
            v.checked_div(rhs)?
        };
    }
    Some(v)
}

fn eval_prim(e: &[(TokKind, String)], p: &mut usize, k: &[(String, u64)]) -> Option<u64> {
    let (kind, text) = e.get(*p)?;
    match kind {
        TokKind::Int => {
            *p += 1;
            int_value(text)
        }
        TokKind::Ident => {
            *p += 1;
            k.iter().find(|(n, _)| n == text).map(|(_, v)| *v)
        }
        TokKind::Punct if text == "(" => {
            *p += 1;
            let v = eval_shift(e, p, k)?;
            if e.get(*p)?.1 == ")" {
                *p += 1;
                Some(v)
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Parses `enum Opcode { Name = N, … }` with auto-increment for
/// variants without an explicit discriminant.
pub fn parse_opcode_enum(tf: &TokenFile) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let n = tf.code.len();
    let Some(start) = (0..n).find(|&ci| tf.is_ident(ci, "enum") && tf.is_ident(ci + 1, "Opcode"))
    else {
        return out;
    };
    let mut k = start + 2;
    while k < n && !tf.is_punct(k, "{") {
        k += 1;
    }
    k += 1;
    let mut next = 0u64;
    let mut depth = 1i32;
    while k < n && depth > 0 {
        let t = tf.ctext(k);
        match t {
            "{" => depth += 1,
            "}" => depth -= 1,
            "#" if tf.is_punct(k + 1, "[") => {
                // Skip an attribute.
                let mut d = 0;
                k += 1;
                while k < n {
                    match tf.ctext(k) {
                        "[" => d += 1,
                        "]" => {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
            }
            _ if depth == 1 && tf.ctok(k).kind == TokKind::Ident => {
                let name = t.to_string();
                if tf.is_punct(k + 1, "=") {
                    if let Some(v) = int_value(tf.ctext(k + 2)) {
                        next = v;
                    }
                    k += 2;
                }
                out.push((name, next));
                next += 1;
                // Skip to the comma or closing brace.
                while k < n && !tf.is_punct(k, ",") && !tf.is_punct(k, "}") {
                    k += 1;
                }
                continue;
            }
            _ => {}
        }
        k += 1;
    }
    out
}

/// Collects `N => Opcode::Name` arms from `fn from_u8`.
fn parse_from_u8_arms(tf: &TokenFile) -> BTreeMap<u64, String> {
    let mut out = BTreeMap::new();
    let Some((lo, hi)) = fn_body_range(tf, "from_u8") else {
        return out;
    };
    let mut ci = lo;
    while ci + 3 < hi {
        if tf.ctok(ci).kind == TokKind::Int
            && tf.is_punct(ci + 1, "=>")
            && tf.is_ident(ci + 2, "Opcode")
            && tf.is_punct(ci + 3, "::")
        {
            if let Some(v) = int_value(tf.ctext(ci)) {
                out.insert(v, tf.ctext(ci + 4).to_string());
            }
        }
        ci += 1;
    }
    out
}

/// Collects `Opcode::Name => "wire"` arms from `fn name`.
pub fn parse_name_arms(tf: &TokenFile) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let Some((lo, hi)) = fn_body_range(tf, "name") else {
        return out;
    };
    let mut ci = lo;
    while ci + 3 < hi {
        if tf.is_ident(ci, "Opcode")
            && tf.is_punct(ci + 1, "::")
            && tf.is_punct(ci + 3, "=>")
            && tf.ctok(ci + 4).kind == TokKind::Str
        {
            out.push((
                tf.ctext(ci + 2).to_string(),
                str_contents(tf.ctext(ci + 4)).to_string(),
            ));
        }
        ci += 1;
    }
    out
}

/// Collects the variant names listed in `const ALL: [Opcode; N] = […];`.
fn parse_all_list(tf: &TokenFile) -> Option<Vec<String>> {
    let n = tf.code.len();
    let start = (0..n).find(|&ci| tf.is_ident(ci, "const") && tf.is_ident(ci + 1, "ALL"))?;
    // Find the `=` then the `[` opening the list (the type also has a
    // `[`, so look after `=`).
    let mut k = start + 2;
    while k < n && !tf.is_punct(k, "=") {
        k += 1;
    }
    while k < n && !tf.is_punct(k, "[") {
        k += 1;
    }
    let mut out = Vec::new();
    while k < n && !tf.is_punct(k, "]") {
        if tf.is_ident(k, "Opcode") && tf.is_punct(k + 1, "::") {
            out.push(tf.ctext(k + 2).to_string());
            k += 3;
            continue;
        }
        k += 1;
    }
    Some(out)
}

/// The code-token index range of the body of the first `fn <name>`.
pub fn fn_body_range(tf: &TokenFile, name: &str) -> Option<(usize, usize)> {
    let n = tf.code.len();
    let at = (0..n).find(|&ci| tf.is_ident(ci, "fn") && tf.is_ident(ci + 1, name))?;
    let mut k = at + 2;
    while k < n && !tf.is_punct(k, "{") {
        // A `where` clause or return type may contain `{`? No — the
        // first `{` after the signature opens the body in this codebase.
        k += 1;
    }
    let lo = k + 1;
    let mut depth = 1i32;
    k += 1;
    while k < n && depth > 0 {
        match tf.ctext(k) {
            "{" => depth += 1,
            "}" => depth -= 1,
            _ => {}
        }
        k += 1;
    }
    Some((lo, k))
}
