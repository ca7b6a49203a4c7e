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

// ---- L1 lock-poison ------------------------------------------------

#[test]
fn lock_poison_true_positives() {
    let bad = fixture("lock_poison_bad.rs");
    let r = run_ws(&[("crates/misc/src/lib.rs", &bad)]);
    let hits = of(&r, Lint::LockPoison);
    assert_eq!(hits.len(), 3, "{hits:?}");
    assert!(hits.iter().any(|h| h.contains("unwrap")));
    assert!(hits.iter().any(|h| h.contains("expect")));
    assert_ne!(r.exit_code(), 0);
}

#[test]
fn lock_poison_near_misses_stay_clean() {
    let ok = fixture("lock_poison_near_miss.rs");
    let r = run_ws(&[("crates/misc/src/lib.rs", &ok)]);
    assert_eq!(of(&r, Lint::LockPoison), Vec::<String>::new());
    // The waiver shows up in the audit trail.
    assert!(r.waivers.iter().any(|w| w.key == "lock-ok"));
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
    assert_eq!(hits.len(), 9, "{hits:?}");
    for file in [
        "crates/sd/src/idr.rs",
        "crates/stair/src/codec.rs",
        "crates/code/src/buf.rs",
    ] {
        for (line, name) in [
            (9, "mult_xor_regions"),
            (14, "dot_regions"),
            (18, "mult_xor_regions"),
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

// ---- L5 doc-drift --------------------------------------------------

#[test]
fn doc_drift_flags_undocumented_names() {
    let r = run_ws(&[
        (
            "crates/net/src/protocol.rs",
            &fixture("wire_protocol_good.rs"),
        ),
        ("crates/device/src/spec.rs", &fixture("doc_spec_device.rs")),
        ("crates/code/src/spec.rs", &fixture("doc_spec_code.rs")),
        ("README.md", &fixture("doc_readme_bad.md")),
    ]);
    let hits = of(&r, Lint::DocDrift);
    assert_eq!(hits.len(), 3, "{hits:?}");
    assert!(hits.iter().any(|h| h.contains("`status`")));
    assert!(hits.iter().any(|h| h.contains("`mem`")));
    assert!(hits.iter().any(|h| h.contains("`xor`")));
}

#[test]
fn doc_drift_complete_readme_is_clean() {
    let r = run_ws(&[
        (
            "crates/net/src/protocol.rs",
            &fixture("wire_protocol_good.rs"),
        ),
        ("crates/device/src/spec.rs", &fixture("doc_spec_device.rs")),
        ("crates/code/src/spec.rs", &fixture("doc_spec_code.rs")),
        ("README.md", &fixture("doc_readme_good.md")),
    ]);
    assert_eq!(of(&r, Lint::DocDrift), Vec::<String>::new());
}

#[test]
fn doc_drift_flags_a_second_timing_harness() {
    let r = run_ws(&[
        ("README.md", &fixture("doc_readme_good.md")),
        ("BENCH_x.json", "{}\n"),
        ("crates/bench/Cargo.toml", "[[bench]]\nname = \"x\"\n"),
        ("crates/bench/benches/x.rs", "fn main() {}\n"),
        // At home: a bin, and a `[[bin]]` table.
        ("crates/gf/Cargo.toml", "[[bin]]\nname = \"y\"\n"),
        ("crates/gf/src/bin/y.rs", "fn main() {}\n"),
    ]);
    let hits = of(&r, Lint::DocDrift);
    assert_eq!(hits.len(), 3, "{hits:?}");
    for stray in [
        "BENCH_x.json",
        "crates/bench/Cargo.toml",
        "crates/bench/benches",
    ] {
        assert!(
            hits.iter().any(|h| h.starts_with(&format!("{stray}:0 "))),
            "{stray}: {hits:?}"
        );
    }
}

#[test]
fn doc_drift_flags_a_manifest_outside_the_workspace_lints() {
    let r = run_ws(&[
        ("README.md", &fixture("doc_readme_good.md")),
        // A package with no `[lints]` table, one with its own table
        // instead of the workspace's, and `crates/gf`'s table without
        // the `unsafe_code` deny that exempts it.
        ("crates/a/Cargo.toml", "[package]\nname = \"a\"\n"),
        (
            "crates/b/Cargo.toml",
            "[package]\nname = \"b\"\n\n[lints.rust]\nunsafe_code = \"allow\"\n",
        ),
        (
            "crates/gf/Cargo.toml",
            "[package]\nname = \"stair-gf\"\n\n[lints.clippy]\nmissing_safety_doc = \"deny\"\n",
        ),
    ]);
    let hits = of(&r, Lint::DocDrift);
    assert_eq!(hits.len(), 3, "{hits:?}");
    for manifest in ["crates/a", "crates/b", "crates/gf"] {
        let at = format!("{manifest}/Cargo.toml:0 ");
        assert!(hits.iter().any(|h| h.starts_with(&at)), "{at}: {hits:?}");
    }
}

#[test]
fn doc_drift_accepts_inherited_and_gf_own_lint_tables() {
    let r = run_ws(&[
        ("README.md", &fixture("doc_readme_good.md")),
        (
            "crates/a/Cargo.toml",
            "[package]\nname = \"a\"\n\n[lints]\nworkspace = true\n\n[dependencies]\n",
        ),
        (
            "crates/gf/Cargo.toml",
            "[package]\nname = \"stair-gf\"\n\n[lints.rust]\nunsafe_code = \"deny\"\n",
        ),
        // No `[package]`: not a crate manifest, nothing to inherit.
        ("crates/c/Cargo.toml", "[[bin]]\nname = \"c\"\n"),
    ]);
    assert_eq!(of(&r, Lint::DocDrift), Vec::<String>::new());
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

// ---- L8 persist-ordering -------------------------------------------

#[test]
fn unjournaled_sector_writes_are_flagged() {
    let bad = fixture("persist_bad.rs");
    let r = run_ws(&[("crates/store/src/store.rs", &bad)]);
    let hits = of(&r, Lint::PersistOrdering);
    assert_eq!(hits.len(), 4, "{hits:?}");
    assert!(hits.iter().any(|h| h.contains("sneaky_overwrite")));
    assert!(hits.iter().any(|h| h.contains("flush_cache_line")));
    let in_fn = |site: &str, call: &str| hits.iter().any(|h| h.contains(site) && h.contains(call));
    assert!(in_fn("overwrite_column", ".write_run"));
    assert!(in_fn("heal_in_passing", ".write_recorded"));
    assert_ne!(r.exit_code(), 0);
}

#[test]
fn persist_ordering_scope_is_store_lib_only() {
    let bad = fixture("persist_bad.rs");
    // The same call sites in the defining module, another crate, a
    // store binary, and an integration test are all out of scope.
    let r = run_ws(&[
        ("crates/store/src/device.rs", &bad),
        ("crates/net/src/lib.rs", &bad),
        ("crates/store/src/main.rs", &bad),
        ("crates/store/tests/crash.rs", &bad),
    ]);
    assert_eq!(of(&r, Lint::PersistOrdering), Vec::<String>::new());
}

#[test]
fn journaled_waived_and_test_writes_stay_clean() {
    let ok = fixture("persist_near_miss.rs");
    let r = run_ws(&[("crates/store/src/store.rs", &ok)]);
    assert_eq!(of(&r, Lint::PersistOrdering), Vec::<String>::new());
    // The deliberate bypass shows up in the waiver audit trail.
    assert!(r.waivers.iter().any(|w| w.key == "persist-ok"));
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
        ("crates/misc/src/lib.rs", &fixture("lock_poison_bad.rs")),
        (
            "crates/other/src/lib.rs",
            &fixture("lock_poison_near_miss.rs"),
        ),
    ]);
    let json = r.to_json();
    assert!(json.contains("\"lint\":\"lock-poison\""));
    assert!(!json.contains("fingerprint") && !json.contains("baselined"));
    assert!(json.contains("\"key\":\"lock-ok\""));
    assert!(json.contains(&format!("\"active\":{}", r.findings.len())));
}
