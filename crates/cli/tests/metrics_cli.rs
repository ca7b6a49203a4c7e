//! Conformance test for `stair dev metrics`: the metrics JSON has the
//! same shape for `file:`, `shards:`, and `tcp:` backends, per-op-kind
//! counts and latency quantiles are populated after a scripted batch
//! workload, and the `tcp:` path proves counters are collected
//! server-side (the METRICS opcode returns nonzero `srv.*` counters).

mod common;

use common::{init, key_shape, run, shutdown, spawn_server};

/// Entry key shapes of the three metrics arrays.
const COUNTER_KEYS: [&str; 2] = ["name", "value"];
const GAUGE_KEYS: [&str; 2] = ["name", "value"];
const HIST_KEYS: [&str; 7] = [
    "name", "count", "sum_us", "mean_us", "p50_us", "p99_us", "max_us",
];

/// Asserts `doc` is a metrics document: the three top-level arrays in
/// order and nothing else, every entry within an array sharing that array's uniform key
/// shape. Because the shape is pinned against these constants (not
/// against another document), passing for two backends means their
/// shapes are identical even when their metric-name sets differ.
fn assert_metrics_shape(doc: &str) {
    let keys = key_shape(doc);
    let sections: [(&str, &[&str]); 3] = [
        ("counters", &COUNTER_KEYS),
        ("gauges", &GAUGE_KEYS),
        ("histograms", &HIST_KEYS),
    ];
    let mut i = 0;
    for (s, (section, entry)) in sections.iter().enumerate() {
        assert_eq!(
            keys.get(i).map(String::as_str),
            Some(*section),
            "expected `{section}` at key {i}: {doc}"
        );
        i += 1;
        let later: Vec<&str> = sections[s + 1..].iter().map(|(name, _)| *name).collect();
        let end = keys[i..]
            .iter()
            .position(|k| later.contains(&k.as_str()))
            .map_or(keys.len(), |p| i + p);
        for block in keys[i..end].chunks(entry.len()) {
            assert_eq!(block, *entry, "ragged `{section}` entry: {doc}");
        }
        i = end;
    }
}

/// Extracts the numeric value following `"{key}":` within the entry
/// whose `"name":"{name}"` appears in `doc` (compact JSON, no escaped
/// quotes).
fn field_of(doc: &str, name: &str, key: &str) -> u64 {
    let at = doc
        .find(&format!("\"name\":\"{name}\""))
        .unwrap_or_else(|| panic!("no metric `{name}` in {doc}"));
    let tail = &doc[at..];
    let marker = format!("\"{key}\":");
    let v = tail
        .find(&marker)
        .map(|p| &tail[p + marker.len()..])
        .unwrap_or_else(|| panic!("no `{key}` after `{name}` in {doc}"));
    v.split(|c: char| !c.is_ascii_digit())
        .next()
        .and_then(|digits| digits.parse().ok())
        .unwrap_or_else(|| panic!("non-numeric `{key}` for `{name}` in {doc}"))
}

/// Runs `stair dev metrics --dev SPEC --from SCRIPT --json`.
fn metrics(dev: &str, script: &std::path::Path) -> String {
    let (ok, json) = run(&[
        "dev",
        "metrics",
        "--dev",
        dev,
        "--from",
        script.to_str().unwrap(),
        "--json",
    ]);
    assert!(ok, "{dev} metrics: {json}");
    json
}

#[test]
fn dev_metrics_reports_one_json_shape_across_all_backends() {
    let work = std::env::temp_dir().join(format!("stair-metrics-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).unwrap();

    // The scripted batch workload every backend replays before its
    // snapshot is taken.
    let script = work.join("ops.txt");
    std::fs::write(
        &script,
        "# metrics conformance workload\n\
         write 0 aabbccdd\n\
         write 256 00112233445566778899\n\
         write 130 feedface\n\
         read 0 4\n\
         read 256 10\n\
         read 130 4\n",
    )
    .unwrap();

    let store_dir = work.join("store");
    init(
        &format!("file:{}", store_dir.display()),
        "stair:8,4,2,1-1-2",
        "128",
        "8",
    );
    let file_doc = metrics(&format!("file:{}", store_dir.display()), &script);

    let root = work.join("net-root");
    let (server, addr) = spawn_server(root.to_str().unwrap(), &[]);
    let tcp_doc = metrics(&format!("tcp:{addr}"), &script);
    // The human-readable pull works too.
    let (ok, out) = run(&["dev", "metrics", "--dev", &format!("tcp:{addr}")]);
    assert!(ok && out.contains("srv.req.batch"), "{out}");
    shutdown(server, &addr);

    // The same root, reopened in-process.
    let shards_doc = metrics(&format!("shards:{}?n=2", root.display()), &script);

    for doc in [&file_doc, &tcp_doc, &shards_doc] {
        assert_metrics_shape(doc);

        // The scripted workload went through `submit`, so every
        // backend shows one batch op with populated latency quantiles
        // and the combined byte counts of the script's ops.
        assert_eq!(field_of(doc, "dev.ops.batch", "value"), 1, "{doc}");
        assert_eq!(field_of(doc, "dev.lat_us.batch", "count"), 1, "{doc}");
        let p50 = field_of(doc, "dev.lat_us.batch", "p50_us");
        let p99 = field_of(doc, "dev.lat_us.batch", "p99_us");
        let max = field_of(doc, "dev.lat_us.batch", "max_us");
        assert!(p50 <= p99 && p99 <= max.max(p50), "{doc}");
        assert_eq!(field_of(doc, "dev.bytes.written", "value"), 18, "{doc}");
        assert_eq!(field_of(doc, "dev.bytes.read", "value"), 18, "{doc}");

        // Every backend folds the store layer's counters in.
        assert!(field_of(doc, "store.stripe_locks", "value") > 0, "{doc}");
    }

    // The tcp: document carries server-side counters fetched via the
    // METRICS opcode — proof the collection happened in the server
    // process, not in this client.
    assert!(
        field_of(&tcp_doc, "srv.req.batch", "value") > 0,
        "{tcp_doc}"
    );
    assert!(
        field_of(&tcp_doc, "srv.req.hello", "value") > 0,
        "{tcp_doc}"
    );
    assert_eq!(
        field_of(&tcp_doc, "srv.lat_us.batch", "count"),
        field_of(&tcp_doc, "srv.req.batch", "value"),
        "{tcp_doc}"
    );

    std::fs::remove_dir_all(&work).unwrap();
}
