//! L3 `wire-constants`: the protocol's numbers live in exactly one
//! place — `crates/net/src/protocol.rs`. This analyzer (b) keeps the
//! deleted compatibility machinery deleted — one `*_VERSION` constant,
//! no `_v` codec variants taking a session version, no `read`/`write`
//! opcode beside BATCH — (c) flags any other file that *redeclares* a
//! wire constant instead of importing it, and (d) holds the same
//! one-path rule above the wire and in the codec layer: per trait in
//! `ONE_METHOD_TRAITS`, every `impl <Trait> for …` block defines the
//! one method its implementors own and none of the methods the trait
//! provides over it. The opcode table's own coherence is code, not a
//! lint: `Opcode::from_u8` is a lookup in `Opcode::ALL`, and `match`
//! exhaustiveness covers `name()`. (d) also keeps the admin path
//! single: in the files of the backends whose trait impls live in
//! `crates/net/src/device_impl.rs`, no inherent `pub fn` takes the name
//! of a `BlockDevice`/`FaultAdmin` method, because an inherent method
//! silently shadows the trait's on the concrete type. And (d) keeps the
//! codec error single: no codec crate in `ONE_ERROR_HOMES` declares an
//! `enum` of its own named `Error` or `…Error` beside
//! `stair_code::CodeError`. Last, (d) keeps names that belong to one
//! file there (`ONE_HOME_NAMES`): in the codec crates only the plan
//! executor runs a region product, and the store runs none of its own.

use crate::findings::{Finding, Lint};
use crate::lexer::{str_contents, TokKind, TokenFile};
use crate::workspace::Workspace;

/// Where the protocol truth lives.
const PROTOCOL_RS: &str = "crates/net/src/protocol.rs";

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

/// The backends whose `BlockDevice`/`FaultAdmin` impls are their only
/// admin path, and the trait methods no inherent `pub fn` of theirs may
/// be named (`submit_ops` keeps its typed-error inherent twin;
/// `read_at`/`write_at` are held everywhere by the lone-op rule).
const TRAIT_ONLY_HOMES: &[&str] = &["crates/net/src/client.rs", "crates/net/src/shards.rs"];
const TRAIT_ONLY_METHODS: &[&str] = &[
    "capacity",
    "block_size",
    "submit",
    "flush",
    "status",
    "scrub",
    "repair",
    "metrics",
    "fail_device",
    "corrupt_sectors",
];

/// The codec crates whose one error type is `stair_code::CodeError`:
/// no `enum` named `Error` or `…Error` is declared under them (an alias
/// or an `…ErrorKind` is not a second error type).
const ONE_ERROR_HOMES: &[&str] = &["crates/sd/src/", "crates/stair/src/"];

/// `(names, the trees they are held in, the one file there that may
/// name them, why)`: a name outside its home, in code, is a second copy
/// of what the home does. The region kernels are `Plan::execute`'s
/// alone — a codec that calls the multi-term ones runs its own encode or
/// decode loop, and a codec or store that calls the single-term one
/// patches parity beside the update plan.
const ONE_HOME_NAMES: &[(&[&str], &[&str], &str, &str)] = &[
    (
        &["mult_xor_regions", "mult_regions", "dot_regions"],
        &["crates/code/src/", "crates/sd/src/", "crates/stair/src/"],
        "crates/code/src/plan.rs",
        "`Plan::execute` is the codec layer's one region executor; lower the work to a `Plan`",
    ),
    (
        &["mult_xor_region"],
        &[
            "crates/code/src/",
            "crates/sd/src/",
            "crates/stair/src/",
            "crates/store/src/",
        ],
        "crates/code/src/plan.rs",
        "a small write is `ErasureCode::update_plan` run by `Plan::execute`; add the delta \
         through it",
    ),
];

/// Traits written as one method per implementor plus provided methods
/// over it: `(trait, the method every impl defines, the provided methods
/// no impl may define)`. The compiler cannot hold this — a provided
/// method may always be overridden — and an override is a second path:
/// a device's own `read_at` beside `submit_ops` (the per-op fork above
/// the wire; the trait's `submit_ops` fallback exists for
/// out-of-workspace devices only and recurses if neither side is
/// defined), or a codec's own `encode` or `apply` beside `Plan::execute`.
const ONE_METHOD_TRAITS: &[(&str, &str, &[&str])] = &[
    (
        "BlockDevice",
        "submit_ops",
        &["read_at", "write_at", "submit"],
    ),
    (
        "ErasureCode",
        "encode_plan",
        &[
            "encode",
            "apply",
            "plan",
            "dependents",
            "update_plan",
            "update",
        ],
    ),
];

/// Appends wire findings.
pub fn run(ws: &Workspace, out: &mut Vec<Finding>) {
    check_one_method_traits(ws, out);
    check_one_home_names(ws, out);
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

/// (d) Per [`ONE_METHOD_TRAITS`] entry, every `impl <Trait> for …`
/// block defines the trait's one implementor method and none it
/// provides; no type outside [`LONE_OP_HOMES`] offers
/// `pub fn read_at|write_at` sugar beside its `submit_ops`; no
/// `pub fn` in [`TRAIT_ONLY_HOMES`] is named after a trait method; and
/// no file under [`ONE_ERROR_HOMES`] declares an error enum.
fn check_one_method_traits(ws: &Workspace, out: &mut Vec<Finding>) {
    for f in &ws.files {
        let tf = &f.tf;
        let one_error = ONE_ERROR_HOMES.iter().any(|home| f.rel.starts_with(home));
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
            if one_error && tf.is_ident(ci, "enum") && tf.ctext(ci + 1).ends_with("Error") {
                let name = tf.ctext(ci + 1);
                flag(
                    ci + 1,
                    format!(
                        "`enum {name}` in a codec crate: every codec returns \
                         `stair_code::CodeError`, built where the error arises"
                    ),
                );
            }
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
            if tf.is_ident(ci, "pub") && TRAIT_ONLY_HOMES.contains(&f.rel.as_str()) {
                // `pub fn` or `pub(…) fn`: the name follows the `fn`.
                let fn_at = if tf.is_punct(ci + 1, "(") {
                    (ci + 2..n)
                        .find(|&k| tf.is_punct(k, ")"))
                        .map_or(n, |k| k + 1)
                } else {
                    ci + 1
                };
                let name_at = fn_at + 1;
                if tf.is_ident(fn_at, "fn")
                    && name_at < n
                    && TRAIT_ONLY_METHODS.contains(&tf.ctext(name_at))
                {
                    let name = tf.ctext(name_at);
                    flag(
                        name_at,
                        format!(
                            "inherent `fn {name}` beside the trait impls: it shadows the \
                             `BlockDevice`/`FaultAdmin` method of the same name; write it \
                             once, in the impl in `crates/net/src/device_impl.rs`"
                        ),
                    );
                }
            }
            let Some(&(tr, owned, provided)) = ONE_METHOD_TRAITS
                .iter()
                .find(|(tr, ..)| tf.is_ident(ci, tr) && tf.is_ident(ci + 1, "for"))
            else {
                continue;
            };
            // The impl body: first `{` after the header to its match.
            let Some(open) = (ci + 2..n).find(|&k| tf.is_punct(k, "{")) else {
                continue;
            };
            let (mut depth, mut has_owned) = (0i32, false);
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
                has_owned |= tf.is_ident(k + 1, owned);
                let name = tf.ctext(k + 1);
                if provided.contains(&name) {
                    flag(
                        k + 1,
                        format!(
                            "`fn {name}` inside an `impl {tr} for …` block: implement \
                             `{owned}` — `{name}` is provided by the trait"
                        ),
                    );
                }
            }
            if !has_owned {
                flag(
                    ci,
                    format!(
                        "`impl {tr} for …` block without `fn {owned}`: every implementor \
                         defines it"
                    ),
                );
            }
        }
    }
}

/// (d) Per [`ONE_HOME_NAMES`] entry: under its trees, only its home
/// names one of its names in code (comments and strings are not code).
fn check_one_home_names(ws: &Workspace, out: &mut Vec<Finding>) {
    for &(names, trees, home, why) in ONE_HOME_NAMES {
        let held = |rel: &str| rel != home && trees.iter().any(|tree| rel.starts_with(tree));
        for f in ws.files.iter().filter(|f| held(&f.rel)) {
            let tf = &f.tf;
            for ci in 0..tf.code.len() {
                let Some(name) = names.iter().find(|name| tf.is_ident(ci, name)) else {
                    continue;
                };
                let t = tf.ctok(ci);
                out.push(Finding::new(
                    Lint::WireConstants,
                    &f.rel,
                    t.line,
                    t.col,
                    format!("`{name}` named outside `{home}`: {why}"),
                ));
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
fn parse_name_arms(tf: &TokenFile) -> Vec<(String, String)> {
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
fn fn_body_range(tf: &TokenFile, name: &str) -> Option<(usize, usize)> {
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
