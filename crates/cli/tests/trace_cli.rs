//! `stair dev trace` across two processes: a traced batch over `tcp:`
//! comes back as a client trace and a server trace stitched by parent
//! pointers, and an untraced request the server failed comes back as a
//! one-span outlier. The two processes' clocks are not comparable, so
//! only structure and durations are checked here; span depth and
//! interval containment are held in one process, where both sides share
//! a clock, by `crates/net/tests/trace_e2e.rs`.

mod common;

use common::{run, shutdown, spawn_server};

/// One span of a `dev trace --json` document.
struct Span {
    id: String,
    parent: String,
    name: String,
    duration_us: u64,
}

/// One trace of a `dev trace --json` document.
struct Trace {
    trace_id: String,
    root_span: String,
    origin: String,
    ok: bool,
    slow: bool,
    duration_us: u64,
    spans: Vec<Span>,
}

/// The raw value of `"key":` in a compact JSON object (no escaped
/// quotes, no nested value before it), quotes stripped.
fn field<'a>(obj: &'a str, key: &str) -> &'a str {
    let marker = format!("\"{key}\":");
    let at = obj
        .find(&marker)
        .unwrap_or_else(|| panic!("no `{key}` in {obj}"));
    let rest = &obj[at + marker.len()..];
    let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
    rest[..end].trim_matches('"')
}

fn number(obj: &str, key: &str) -> u64 {
    let v = field(obj, key);
    v.parse()
        .unwrap_or_else(|_| panic!("`{key}` is not a number: {v}"))
}

/// The traces of a `dev trace --json` document, in order. Every trace
/// object opens with its `trace_id` and ends with its span array.
fn traces(doc: &str) -> Vec<Trace> {
    doc.split("{\"trace_id\":")
        .skip(1)
        .map(|body| {
            let (head, spans) = body.split_once("\"spans\":[").expect("a span array");
            let head = format!("{{\"trace_id\":{head}");
            let spans = spans
                .split("{\"span_id\":")
                .skip(1)
                .map(|s| {
                    let s = format!("{{\"span_id\":{s}");
                    Span {
                        id: field(&s, "span_id").to_string(),
                        parent: field(&s, "parent_id").to_string(),
                        name: field(&s, "name").to_string(),
                        duration_us: number(&s, "duration_us"),
                    }
                })
                .collect();
            Trace {
                trace_id: field(&head, "trace_id").to_string(),
                root_span: field(&head, "root_span").to_string(),
                origin: field(&head, "origin").to_string(),
                ok: field(&head, "ok") == "true",
                slow: field(&head, "slow") == "true",
                duration_us: number(&head, "duration_us"),
                spans,
            }
        })
        .collect()
}

#[test]
fn a_traced_tcp_batch_stitches_server_spans_under_the_client_and_keeps_failures() {
    let work = std::env::temp_dir().join(format!("stair-trace-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).unwrap();
    let script = work.join("ops.txt");
    std::fs::write(
        &script,
        "write 0 aabbccddeeff0011\n\
         write 300 deadbeefdeadbeefdeadbeef\n\
         read 600 16\n",
    )
    .unwrap();

    let (server, addr) = spawn_server(work.join("shards").to_str().unwrap(), &[]);
    let tcp = format!("tcp:{addr}");
    // An untraced request the server fails: its outlier ring keeps it.
    let (ok, out) = run(&[
        "dev", "fail", "--dev", &tcp, "--shard", "0", "--device", "99",
    ]);
    assert!(!ok, "failing device 99 of 8 must be refused: {out}");
    // One traced batch, then the flight recorders: this process's and,
    // over the TRACE opcode, the server's.
    let (ok, doc) = run(&[
        "dev",
        "trace",
        "--dev",
        &tcp,
        "--from",
        script.to_str().unwrap(),
        "--json",
    ]);
    assert!(ok, "{doc}");
    let (ok, out) = run(&["dev", "trace", "--dev", &tcp]);
    assert!(ok, "{out}");
    shutdown(server, &addr);

    assert!(number(&doc, "local_traces") >= 1, "{doc}");
    assert!(number(&doc, "server_traces") >= 1, "{doc}");
    let traces = traces(&doc);
    let local_span = |trace_id: &str, id: &str| {
        traces
            .iter()
            .filter(|t| t.origin == "local" && t.trace_id == trace_id)
            .flat_map(|t| &t.spans)
            .find(|s| s.id == id)
    };
    let mut batch = None;
    let mut failed_outliers = 0;
    for t in traces.iter().filter(|t| t.origin == "server") {
        let root = t
            .spans
            .iter()
            .find(|s| s.id == t.root_span)
            .unwrap_or_else(|| panic!("trace {} has no root span", t.trace_id));
        if root.parent == "0" {
            // No client span sent it: an outlier the server kept because
            // it failed or was slow, one span deep.
            let names: Vec<&str> = t.spans.iter().map(|s| s.name.as_str()).collect();
            assert!(t.slow && names == ["srv.request"], "{doc}");
            failed_outliers += usize::from(!t.ok);
            continue;
        }
        // The server's root hangs off the client span that waited on it,
        // and the whole server tree fits in that span's duration.
        let parent = local_span(&t.trace_id, &root.parent)
            .unwrap_or_else(|| panic!("server trace {} has no client parent", t.trace_id));
        assert!(t.duration_us <= parent.duration_us, "{doc}");
        if t.spans.iter().any(|s| s.name == "shards.submit") {
            batch = Some(t);
        }
    }
    assert!(
        failed_outliers >= 1,
        "the failed request is no outlier: {doc}"
    );
    let batch = batch.expect("no server trace covered the store path");
    for name in [
        "srv.request",
        "srv.queue",
        "srv.exec",
        "shards.submit",
        "store.stripe",
    ] {
        assert!(batch.spans.iter().any(|s| s.name == name), "{name}: {doc}");
    }
    std::fs::remove_dir_all(&work).unwrap();
}
