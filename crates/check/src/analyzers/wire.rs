//! L3 `wire-constants`: the protocol's numbers live in exactly one
//! place — `crates/net/src/protocol.rs`. This analyzer (b) keeps the
//! deleted compatibility machinery deleted — one `*_VERSION` constant,
//! no `_v` codec variants taking a session version, no `read`/`write`
//! opcode beside BATCH — (c) flags any other file that *redeclares* a
//! wire constant instead of importing it, and (d) holds the same
//! one-path rule above the wire: `submit_ops` is the only data-path
//! method an `impl BlockDevice for …` block defines. The opcode table's
//! own coherence is code, not a lint: `Opcode::from_u8` is a lookup in
//! `Opcode::ALL`, and `match` exhaustiveness covers `name()`.

use crate::findings::{Finding, Lint};
use crate::lexer::{str_contents, TokKind, TokenFile};
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

/// The two files that may spell a lone op as a `pub fn`: the trait's
/// provided methods, and `StripeStore`'s typed-error trio the layer
/// ledger calls.
const LONE_OP_HOMES: &[&str] = &["crates/device/src/api.rs", "crates/store/src/batch.rs"];

/// Appends wire findings.
pub fn run(ws: &Workspace, out: &mut Vec<Finding>) {
    check_one_device_method(ws, out);
    let Some(proto) = ws.file(PROTOCOL_RS) else {
        out.push(Finding::new(
            Lint::WireConstants,
            PROTOCOL_RS,
            0,
            0,
            "protocol.rs not found — the wire-constant source of truth is missing".into(),
        ));
        return;
    };
    check_single_data_path(&proto.tf, out);

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
                ));
            }
        }
    }
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

/// (b) One version, one data opcode: the rules that keep wire v2–v4
/// and the per-op READ/WRITE path from growing back, read by name.
fn check_single_data_path(tf: &TokenFile, out: &mut Vec<Finding>) {
    let mut report = |msg: String| {
        out.push(Finding::new(Lint::WireConstants, PROTOCOL_RS, 0, 0, msg));
    };
    let versions: Vec<&str> = (0..tf.code.len())
        .filter(|&ci| tf.is_ident(ci, "const") && tf.is_punct(ci + 2, ":"))
        .map(|ci| tf.ctext(ci + 1))
        .filter(|name| name.ends_with("_VERSION"))
        .collect();
    if versions.len() != 1 {
        report(format!(
            "protocol.rs declares {} `*_VERSION` constants ({}); the protocol speaks exactly \
             one version — HELLO refuses any other, nothing is negotiated",
            versions.len(),
            versions.join(", ")
        ));
    }
    for ci in 0..tf.code.len().saturating_sub(2) {
        let name = tf.ctext(ci + 1);
        if !(tf.is_ident(ci, "fn") && name.ends_with("_v") && tf.is_punct(ci + 2, "(")) {
            continue;
        }
        let mut k = ci + 3;
        while k < tf.code.len() && !tf.is_punct(k, ")") {
            if tf.is_ident(k, "version") {
                report(format!(
                    "`fn {name}` takes a session version: there is one wire layout, so no \
                     per-version codec variants"
                ));
                break;
            }
            k += 1;
        }
    }
    for (variant, wire) in parse_name_arms(tf) {
        if wire == "read" || wire == "write" {
            report(format!(
                "`Opcode::{variant}` (wire name `{wire}`) declared: BATCH is the only data \
                 opcode (a lone read or write is a one-op batch)"
            ));
        }
    }
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

/// The code-token index range of the body of the first `fn <name>`.
pub fn fn_body_range(tf: &TokenFile, name: &str) -> Option<(usize, usize)> {
    let n = tf.code.len();
    let at = (0..n).find(|&ci| tf.is_ident(ci, "fn") && tf.is_ident(ci + 1, name))?;
    let mut k = at + 2;
    while k < n && !tf.is_punct(k, "{") {
        // The first `{` after the signature opens the body in this
        // codebase (no `where` clause or return type holds one).
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
