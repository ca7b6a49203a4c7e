//! L5 `doc-drift`: the README's wire tables are part of the interface.
//! Every opcode wire name, every `DeviceSpec` scheme, and every
//! `CodecSpec` family that exists in code must appear in README.md —
//! the names are extracted from the `name()`/`scheme()`/`family()`
//! match arms, so adding a variant without documenting it fails the
//! build. The README also says one instrument answers each question
//! (`benchmark/` for the system, the paper bins for the paper); a
//! `benches/` directory, a `[[bench]]` table or a root `BENCH_*.json`
//! would be a second one. And where `unsafe` may appear is a compiler
//! setting only while every manifest that declares a package inherits
//! the workspace lint table (`[lints] workspace = true`); `crates/gf`,
//! which hosts the one `unsafe` module, carries its own table instead.

use crate::analyzers::wire::{fn_body_range, parse_name_arms, PROTOCOL_RS};
use crate::findings::{Finding, Lint};
use crate::lexer::{str_contents, TokKind, TokenFile};
use crate::workspace::Workspace;

/// Appends findings for names present in code but absent from README.
pub fn run(ws: &Workspace, out: &mut Vec<Finding>) {
    for stray in &ws.stray_harnesses {
        out.push(Finding::new(
            Lint::DocDrift,
            stray,
            0,
            0,
            format!(
                "`{stray}` is a second timing harness; timing harnesses live in \
                 `benchmark/` or `crates/bench/src/bin`"
            ),
        ));
    }
    for manifest in &ws.unlinted_manifests {
        out.push(Finding::new(
            Lint::DocDrift,
            manifest,
            0,
            0,
            format!(
                "`{manifest}` does not inherit the workspace lints; add `[lints]` with \
                 `workspace = true`, or its targets escape `unsafe_code = \"forbid\"`"
            ),
        ));
    }
    let Some(readme) = ws.doc("README.md") else {
        out.push(Finding::new(
            Lint::DocDrift,
            "README.md",
            0,
            0,
            "README.md not found at the workspace root".into(),
        ));
        return;
    };
    let lower = readme.to_lowercase();

    // Opcode wire names: README mentions them in its opcode line and
    // metric tables; match case-insensitively (docs write `HELLO(1)`).
    if let Some(proto) = ws.file(PROTOCOL_RS) {
        for (variant, wire) in parse_name_arms(&proto.tf) {
            if !lower.contains(&wire.to_lowercase()) {
                out.push(Finding::new(
                    Lint::DocDrift,
                    "README.md",
                    0,
                    0,
                    format!(
                        "opcode `{variant}` (wire name `{wire}`) is not mentioned in README.md; \
                         update the wire-protocol section"
                    ),
                ));
            }
        }
    }

    // DeviceSpec schemes and CodecSpec families: the README grammar
    // lines write them as `scheme:…`, so require the colon form.
    for (rel, getter, what, section) in [
        (
            "crates/device/src/spec.rs",
            "scheme",
            "DeviceSpec scheme",
            "device-backend table",
        ),
        (
            "crates/code/src/spec.rs",
            "family",
            "CodecSpec family",
            "codec grammar table",
        ),
    ] {
        let Some(f) = ws.file(rel) else { continue };
        for name in fn_string_arms(&f.tf, getter) {
            let with_colon = format!("{name}:");
            if !readme.contains(&with_colon) {
                out.push(Finding::new(
                    Lint::DocDrift,
                    "README.md",
                    0,
                    0,
                    format!(
                        "{what} `{name}` (from {rel}) does not appear as `{with_colon}` in \
                         README.md; update the {section}"
                    ),
                ));
            }
        }
    }
}

/// String literals returned by the match arms of `fn <name>`.
fn fn_string_arms(tf: &TokenFile, name: &str) -> Vec<String> {
    let Some((lo, hi)) = fn_body_range(tf, name) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for ci in lo..hi.min(tf.code.len()) {
        if tf.ctok(ci).kind == TokKind::Str {
            out.push(str_contents(tf.ctext(ci)).to_string());
        }
    }
    out
}
