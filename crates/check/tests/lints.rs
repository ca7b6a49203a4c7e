//! Per-lint fixture tests: each lint gets at least one true-positive
//! and one near-miss-negative workspace, assembled in a temp directory
//! from the snippets under `tests/fixtures/` and run through the full
//! pipeline (`stair_check::run`).

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use stair_check::findings::Lint;
use stair_check::{run, Report};

static NEXT: AtomicU64 = AtomicU64::new(0);

/// Reads a fixture snippet.
fn fixture(name: &str) -> String {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    fs::read_to_string(dir.join(name)).unwrap_or_else(|e| panic!("fixture {name}: {e}"))
}

/// Builds a throwaway workspace from `(rel-path, contents)` pairs: the
/// root `Cargo.toml` member list is derived from the `crates/<name>/…`
/// paths used.
fn build_ws(files: &[(&str, &str)]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "stair-check-fix-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let mut members: Vec<String> = files
        .iter()
        .filter_map(|(p, _)| {
            let mut it = p.split('/');
            match (it.next(), it.next()) {
                (Some("crates"), Some(name)) => Some(format!("crates/{name}")),
                _ => None,
            }
        })
        .collect();
    members.sort();
    members.dedup();
    let mut manifest = String::from("[workspace]\nmembers = [\n");
    for m in &members {
        manifest.push_str(&format!("    \"{m}\",\n"));
    }
    manifest.push_str("]\n");
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join("Cargo.toml"), manifest).unwrap();
    for (rel, contents) in files {
        let path = dir.join(rel);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(path, contents).unwrap();
    }
    dir
}

/// Runs the pipeline on a fixture workspace.
fn run_ws(files: &[(&str, &str)]) -> Report {
    let dir = build_ws(files);
    run(&dir).expect("fixture workspace must load")
}

/// The active findings of one lint.
fn of(report: &Report, lint: Lint) -> Vec<String> {
    report
        .findings
        .iter()
        .filter(|f| f.lint == lint)
        .map(|f| format!("{}:{} {}", f.file, f.line, f.message))
        .collect()
}

// ---- L3 wire-constants ---------------------------------------------

#[test]
fn wire_redeclaration_is_flagged_import_is_not() {
    let proto = fixture("wire_protocol_good.rs");
    let redecl = fixture("wire_redeclare_bad.rs");
    let imports = fixture("wire_use_good.rs");
    let r = run_ws(&[
        ("crates/net/src/protocol.rs", &proto),
        ("crates/net/src/client.rs", &redecl),
        ("crates/net/src/server.rs", &imports),
    ]);
    let hits = of(&r, Lint::WireConstants);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].contains("client.rs"));
    assert!(hits[0].contains("MAX_IO_BYTES"));
}

#[test]
fn wire_coherent_protocol_is_clean() {
    let proto = fixture("wire_protocol_good.rs");
    let imports = fixture("wire_use_good.rs");
    let r = run_ws(&[
        ("crates/net/src/protocol.rs", &proto),
        ("crates/net/src/server.rs", &imports),
    ]);
    assert_eq!(of(&r, Lint::WireConstants), Vec::<String>::new());
}

#[test]
fn wire_regrown_versions_and_data_opcodes_are_flagged() {
    let bad = fixture("wire_versions_bad.rs");
    let r = run_ws(&[("crates/net/src/protocol.rs", &bad)]);
    let hits = of(&r, Lint::WireConstants);
    assert_eq!(hits.len(), 4, "{hits:?}");
    assert!(hits
        .iter()
        .any(|h| h.contains("2 `*_VERSION` constants") && h.contains("MIN_PROTOCOL_VERSION")));
    assert!(hits.iter().any(|h| h.contains("`fn write_response_v`")));
    assert!(hits.iter().any(|h| h.contains("`Opcode::Read`")));
    assert!(hits.iter().any(|h| h.contains("`Opcode::Write`")));
}

#[test]
fn wire_single_version_near_misses_are_clean() {
    let proto = fixture("wire_versions_near_miss.rs");
    let r = run_ws(&[("crates/net/src/protocol.rs", &proto)]);
    assert_eq!(of(&r, Lint::WireConstants), Vec::<String>::new());
}

#[test]
fn device_per_op_forks_are_flagged_outside_their_two_homes() {
    let proto = fixture("wire_protocol_good.rs");
    let bad = fixture("wire_device_fork_bad.rs");
    let r = run_ws(&[
        ("crates/net/src/protocol.rs", &proto),
        ("crates/cache/src/lib.rs", &bad),
        // The same `pub fn write_at` is at home in these two files; the
        // impl-block rule holds everywhere.
        ("crates/store/src/batch.rs", &bad),
    ]);
    let hits = of(&r, Lint::WireConstants);
    assert_eq!(hits.len(), 9, "{hits:?}");
    for file in ["cache/src/lib.rs", "store/src/batch.rs"] {
        // read_at + submit in `Layer`, write_at + no submit_ops in `Legacy`.
        let here = |h: &&String| h.contains(file) && h.contains("impl BlockDevice for");
        assert_eq!(hits.iter().filter(here).count(), 4, "{file}: {hits:?}");
    }
    assert!(hits.iter().any(|h| h.contains("without `fn submit_ops`")));
    assert!(hits
        .iter()
        .any(|h| h.contains("`fn read_at`") && h.contains("provided by the trait")));
    assert!(hits.iter().any(|h| h.contains("`fn submit`")));
    let sugar: Vec<_> = hits
        .iter()
        .filter(|h| h.contains("`pub fn write_at`"))
        .collect();
    assert_eq!(sugar.len(), 1, "{hits:?}");
    assert!(sugar[0].contains("cache/src/lib.rs"));
}

#[test]
fn device_one_method_near_misses_are_clean() {
    let proto = fixture("wire_protocol_good.rs");
    let near = fixture("wire_device_fork_near_miss.rs");
    let r = run_ws(&[
        ("crates/net/src/protocol.rs", &proto),
        ("crates/cache/src/lib.rs", &near),
    ]);
    assert_eq!(of(&r, Lint::WireConstants), Vec::<String>::new());
}

#[test]
fn inherent_admin_copies_are_flagged_in_the_backend_files() {
    let proto = fixture("wire_protocol_good.rs");
    let bad = fixture("wire_admin_shadow_bad.rs");
    let r = run_ws(&[
        ("crates/net/src/protocol.rs", &proto),
        ("crates/net/src/client.rs", &bad),
        ("crates/net/src/shards.rs", &bad),
        // Outside the two backend files the same methods are at home.
        ("crates/store/src/store.rs", &bad),
    ]);
    let hits = of(&r, Lint::WireConstants);
    assert_eq!(hits.len(), 8, "{hits:?}");
    for file in ["net/src/client.rs", "net/src/shards.rs"] {
        for name in ["capacity", "status", "scrub", "fail_device"] {
            let shadow = format!("inherent `fn {name}` beside the trait impls");
            assert!(
                hits.iter().any(|h| h.contains(file) && h.contains(&shadow)),
                "{file} {name}: {hits:?}"
            );
        }
    }
}

#[test]
fn admin_trait_impls_and_other_names_are_clean() {
    let proto = fixture("wire_protocol_good.rs");
    let near = fixture("wire_admin_shadow_near_miss.rs");
    let r = run_ws(&[
        ("crates/net/src/protocol.rs", &proto),
        ("crates/net/src/client.rs", &near),
    ]);
    assert_eq!(of(&r, Lint::WireConstants), Vec::<String>::new());
}

#[test]
fn codec_overrides_of_provided_methods_are_flagged() {
    let proto = fixture("wire_protocol_good.rs");
    let bad = fixture("wire_code_fork_bad.rs");
    let r = run_ws(&[
        ("crates/net/src/protocol.rs", &proto),
        ("crates/sd/src/lib.rs", &bad),
    ]);
    let hits = of(&r, Lint::WireConstants);
    assert_eq!(hits.len(), 6, "{hits:?}");
    // encode + apply in `Fork`; plan + dependents + update + no
    // encode_plan in `Legacy`.
    for name in ["encode", "apply", "plan", "dependents", "update"] {
        let fork = format!("`fn {name}` inside an `impl ErasureCode for …` block");
        assert!(
            hits.iter()
                .any(|h| h.contains(&fork) && h.contains("provided by the trait")),
            "{name}: {hits:?}"
        );
    }
    assert!(hits.iter().any(|h| h.contains("without `fn encode_plan`")));
}

#[test]
fn codec_one_plan_near_misses_are_clean() {
    let proto = fixture("wire_protocol_good.rs");
    let near = fixture("wire_code_fork_near_miss.rs");
    let r = run_ws(&[
        ("crates/net/src/protocol.rs", &proto),
        ("crates/sd/src/lib.rs", &near),
    ]);
    assert_eq!(of(&r, Lint::WireConstants), Vec::<String>::new());
}

#[test]
fn codec_error_enums_are_flagged_in_the_codec_crates() {
    let proto = fixture("wire_protocol_good.rs");
    let bad = fixture("wire_code_error_bad.rs");
    let r = run_ws(&[
        ("crates/net/src/protocol.rs", &proto),
        ("crates/sd/src/lib.rs", &bad),
        ("crates/stair/src/peel.rs", &bad),
        // Outside the codec crates an error enum is at home.
        ("crates/store/src/error.rs", &bad),
    ]);
    let hits = of(&r, Lint::WireConstants);
    assert_eq!(hits.len(), 6, "{hits:?}");
    for file in ["crates/sd/src/lib.rs", "crates/stair/src/peel.rs"] {
        for name in ["Error", "PeelError", "MdsError"] {
            let own = format!("`enum {name}` in a codec crate");
            assert!(
                hits.iter().any(|h| h.starts_with(file) && h.contains(&own)),
                "{file} {name}: {hits:?}"
            );
        }
    }
}

#[test]
fn codec_error_aliases_and_kinds_are_clean() {
    let proto = fixture("wire_protocol_good.rs");
    let near = fixture("wire_code_error_near_miss.rs");
    let r = run_ws(&[
        ("crates/net/src/protocol.rs", &proto),
        ("crates/sd/src/lib.rs", &near),
    ]);
    assert_eq!(of(&r, Lint::WireConstants), Vec::<String>::new());
}

#[test]
fn region_products_outside_the_plan_executor_are_flagged() {
    let proto = fixture("wire_protocol_good.rs");
    let bad = fixture("wire_one_executor_bad.rs");
    let r = run_ws(&[
        ("crates/net/src/protocol.rs", &proto),
        ("crates/sd/src/idr.rs", &bad),
        ("crates/stair/src/codec.rs", &bad),
        ("crates/code/src/buf.rs", &bad),
        // The executor itself, and crates outside the codec layer.
        ("crates/code/src/plan.rs", &bad),
        ("crates/gf/src/field.rs", &bad),
        ("crates/store/src/batch.rs", &bad),
    ]);
    let hits = of(&r, Lint::WireConstants);
    assert_eq!(hits.len(), 12, "{hits:?}");
    for file in [
        "crates/sd/src/idr.rs",
        "crates/stair/src/codec.rs",
        "crates/code/src/buf.rs",
    ] {
        for (line, name) in [
            (10, "mult_xor_regions"),
            (15, "dot_regions"),
            (19, "mult_xor_regions"),
            (23, "mult_regions"),
        ] {
            let at = format!("{file}:{line} `{name}` named outside `crates/code/src/plan.rs`");
            assert!(hits.iter().any(|h| h.starts_with(&at)), "{at}: {hits:?}");
        }
    }
}

#[test]
fn single_term_kernels_outside_the_plan_executor_are_flagged() {
    let proto = fixture("wire_protocol_good.rs");
    let bad = fixture("wire_one_executor_single_term_bad.rs");
    let r = run_ws(&[
        ("crates/net/src/protocol.rs", &proto),
        ("crates/stair/src/code_impl.rs", &bad),
        ("crates/store/src/batch.rs", &bad),
        ("crates/code/src/update.rs", &bad),
        // The kernels' own crate, and crates above the store.
        ("crates/gf/src/field.rs", &bad),
        ("crates/net/src/server.rs", &bad),
    ]);
    let hits = of(&r, Lint::WireConstants);
    assert_eq!(hits.len(), 6, "{hits:?}");
    for file in [
        "crates/stair/src/code_impl.rs",
        "crates/store/src/batch.rs",
        "crates/code/src/update.rs",
    ] {
        for line in [13, 17] {
            let at =
                format!("{file}:{line} `mult_xor_region` named outside `crates/code/src/plan.rs`");
            assert!(hits.iter().any(|h| h.starts_with(&at)), "{at}: {hits:?}");
        }
    }
}

#[test]
fn region_kernel_names_in_prose_are_clean() {
    let proto = fixture("wire_protocol_good.rs");
    let near = fixture("wire_one_executor_near_miss.rs");
    let r = run_ws(&[
        ("crates/net/src/protocol.rs", &proto),
        ("crates/stair/src/code_impl.rs", &near),
        ("crates/store/src/batch.rs", &near),
    ]);
    assert_eq!(of(&r, Lint::WireConstants), Vec::<String>::new());
}

// ---- L6 counter-discipline -----------------------------------------

#[test]
fn dead_counters_and_orphan_metrics_are_flagged() {
    let bad = fixture("counters_bad.rs");
    let r = run_ws(&[("crates/store/src/store.rs", &bad)]);
    let hits = of(&r, Lint::CounterDiscipline);
    assert_eq!(hits.len(), 2, "{hits:?}");
    assert!(hits.iter().any(|h| h.contains("dead_counter")));
    assert!(hits.iter().any(|h| h.contains("orphan.metric")));
}

#[test]
fn wired_counters_and_matched_metrics_are_clean() {
    let good = fixture("counters_good.rs");
    let r = run_ws(&[("crates/store/src/store.rs", &good)]);
    assert_eq!(of(&r, Lint::CounterDiscipline), Vec::<String>::new());
}

#[test]
fn reserved_metric_literals_and_dead_declared_names_are_flagged() {
    let registry = fixture("counters_registry.rs");
    let bad = fixture("counters_reserved_bad.rs");
    let doc = fixture("counters_reserved_doc.md");
    let r = run_ws(&[
        ("crates/obs/src/registry.rs", &registry),
        ("crates/cache/src/lib.rs", &bad),
        ("README.md", &doc),
    ]);
    let hits = of(&r, Lint::CounterDiscipline);
    assert_eq!(hits.len(), 5, "{hits:?}");
    // A literal that duplicates a declared name points at the constant…
    assert!(hits
        .iter()
        .any(|h| h.contains("`fixcache.hit`") && h.contains("metric_names::FIX_HIT")));
    // … a literal nobody declared asks for a declaration …
    assert!(hits
        .iter()
        .any(|h| h.contains("`fixcache.rogue`") && h.contains("not declared")));
    // … a declared name nothing registers is dead schema …
    assert!(hits
        .iter()
        .any(|h| h.contains("`fixcache.dead`") && h.contains("never registered")));
    // … and the check-2 consequences: the rogue fork has no second
    // mention, and the dead name's doc line points at nothing.
    assert!(hits
        .iter()
        .any(|h| h.contains("fixcache.rogue") && h.contains("exactly once")));
    assert!(hits
        .iter()
        .any(|h| h.contains("fixcache.dead") && h.contains("never produced")));
}

#[test]
fn constant_metric_registrations_and_waived_literals_are_clean() {
    let registry = fixture("counters_registry.rs");
    let good = fixture("counters_reserved_good.rs");
    let doc = fixture("counters_reserved_doc.md");
    let r = run_ws(&[
        ("crates/obs/src/registry.rs", &registry),
        ("crates/cache/src/lib.rs", &good),
        ("README.md", &doc),
    ]);
    assert_eq!(of(&r, Lint::CounterDiscipline), Vec::<String>::new());
}

// ---- L7 span-discipline --------------------------------------------

#[test]
fn literal_and_dead_span_names_are_flagged() {
    let obs = fixture("spans_obs.rs");
    let bad = fixture("spans_bad.rs");
    let r = run_ws(&[
        ("crates/obs/src/trace.rs", &obs),
        ("crates/store/src/lib.rs", &bad),
    ]);
    let hits = of(&r, Lint::SpanDiscipline);
    assert_eq!(hits.len(), 3, "{hits:?}");
    // A literal that duplicates a declared name points at the constant…
    assert!(hits
        .iter()
        .any(|h| h.contains("fix.live") && h.contains("names::LIVE_SPAN")));
    // … a literal nobody declared asks for a declaration …
    assert!(hits
        .iter()
        .any(|h| h.contains("fix.rogue") && h.contains("not declared")));
    // … and a declared name nothing records is dead schema.
    assert!(hits
        .iter()
        .any(|h| h.contains("fix.dead") && h.contains("never recorded")));
}

#[test]
fn constant_span_names_and_waived_literals_are_clean() {
    let obs = fixture("spans_obs.rs");
    let good = fixture("spans_good.rs");
    let r = run_ws(&[
        ("crates/obs/src/trace.rs", &obs),
        ("crates/store/src/lib.rs", &good),
    ]);
    assert_eq!(of(&r, Lint::SpanDiscipline), Vec::<String>::new());
}

// ---- self-check ----------------------------------------------------

/// The real workspace must pass its own lints (acceptance criterion:
/// `cargo run -p stair-check -- --json .` exits 0).
#[test]
fn real_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let r = run(&root).unwrap();
    assert_eq!(
        r.exit_code(),
        0,
        "stair-check findings on the real workspace:\n{}",
        r.render_human()
    );
    assert!(r.files_scanned > 100);
}

// ---- JSON ----------------------------------------------------------

#[test]
fn json_report_carries_findings_and_waivers() {
    let r = run_ws(&[
        ("crates/store/src/store.rs", &fixture("counters_bad.rs")),
        ("crates/other/src/lib.rs", &fixture("counters_good.rs")),
    ]);
    let json = r.to_json();
    assert!(json.contains("\"lint\":\"counter-discipline\""));
    assert!(!json.contains("fingerprint") && !json.contains("baselined"));
    assert!(json.contains("\"key\":\"metric-ok\""));
    assert!(json.contains(&format!("\"active\":{}", r.findings.len())));
}
