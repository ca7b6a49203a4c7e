//! End-to-end tracing over a real TCP loopback: a traced BATCH must
//! yield a span tree at least four layers deep (client submit →
//! server request/queue → store stripe path → codec pass), with every
//! child's interval inside its parent's and the direct children of
//! each span summing to no more than the span's own duration.
//!
//! Client and server run in one process here, so both sides record
//! into the same flight recorder with the same clock epoch — which is
//! what lets this test assert *interval* containment, not just parent
//! pointers (the CI smoke checks the cross-process case, where only
//! structure and durations are comparable).

use std::collections::HashMap;

use stair_device::{BlockDevice, IoBatch};
use stair_net::{Client, Server, ServerConfig, ShardSet};
use stair_obs::trace::names;
use stair_obs::{SpanRecord, TraceRecord};
use stair_store::StoreOptions;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("stair-trace-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts() -> StoreOptions {
    StoreOptions {
        code: "stair:8,4,2,1-1-2".parse().unwrap(),
        symbol: 64,
        stripes: 6,
    }
}

/// All spans recorded under `trace_id`, merged across the per-root
/// records (in-process loopback: the client root and the server's wire
/// root flush separately, sharing the trace id).
fn merged_spans(records: &[TraceRecord], trace_id: u64) -> Vec<SpanRecord> {
    records
        .iter()
        .filter(|t| t.trace_id == trace_id)
        .flat_map(|t| t.spans.iter().cloned())
        .collect()
}

fn find<'a>(spans: &'a [SpanRecord], name: &str) -> &'a SpanRecord {
    spans
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("no `{name}` span in {:?}", names_of(spans)))
}

fn names_of(spans: &[SpanRecord]) -> Vec<&'static str> {
    spans.iter().map(|s| s.name).collect()
}

/// Child interval ⊆ parent interval, with a little slack for repeated
/// Instant→µs rounding.
fn assert_contained(child: &SpanRecord, parent: &SpanRecord) {
    const SLACK_US: u64 = 10;
    assert!(
        child.start_us + SLACK_US >= parent.start_us,
        "`{}` starts at {}us, before its parent `{}` at {}us",
        child.name,
        child.start_us,
        parent.name,
        parent.start_us
    );
    assert!(
        child.start_us + child.duration_us <= parent.start_us + parent.duration_us + SLACK_US,
        "`{}` ends at {}us, after its parent `{}` at {}us",
        child.name,
        child.start_us + child.duration_us,
        parent.name,
        parent.start_us + parent.duration_us
    );
}

#[test]
fn traced_batch_yields_a_contained_four_layer_span_tree() {
    let dir = tmpdir("layers");
    let set = ShardSet::create(&dir, 2, &opts()).expect("create shards");
    let server = Server::bind("127.0.0.1:0", set, ServerConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = server.handle();
    let server = std::thread::spawn(move || server.run());

    stair_obs::trace::set_enabled(true);
    let client = Client::connect(&addr).expect("connect");
    assert_eq!(client.info().version, stair_net::protocol::PROTOCOL_VERSION);

    // A batch of disjoint writes and a read: conflict-free, so the
    // server runs the stripe store's native batched path (one lock +
    // one codec decision per touched stripe).
    let block = client.block_size();
    let mut batch = IoBatch::new();
    batch
        .write(0, vec![0xA5; 3 * block])
        .write((3 * block) as u64, vec![0x5A; block])
        .read((4 * block) as u64, 2 * block);
    client.submit(&batch).expect("traced submit");
    stair_obs::trace::set_enabled(false);

    // The server closes its wire root before it writes the response
    // frame, so a returned `submit` implies both roots are recorded.
    let records = stair_obs::trace::recorder().traces();

    let submit_rec = records
        .iter()
        .find(|t| t.spans.iter().any(|s| s.name == names::CLIENT_SUBMIT))
        .expect("client.submit trace recorded");
    let spans = merged_spans(&records, submit_rec.trace_id);

    // Layer 1: the client op is the trace's process root.
    let submit = find(&spans, names::CLIENT_SUBMIT);
    assert_eq!(submit.parent_id, 0, "client.submit is the root");

    // Layer 2: the server-side request root joins the client's trace
    // as a wire child of the submit span.
    let request = find(&spans, names::SRV_REQUEST);
    assert_eq!(request.parent_id, submit.span_id);
    assert_contained(request, submit);

    // Layer 3: queue wait and execute under the request.
    let queue = find(&spans, names::SRV_QUEUE);
    let exec = find(&spans, names::SRV_EXEC);
    assert_eq!(queue.parent_id, request.span_id);
    assert_eq!(exec.parent_id, request.span_id);
    assert_contained(queue, request);
    assert_contained(exec, request);

    // Layer 4: the shard split, then the store's batched path — one
    // up-front lock acquisition for every touched stripe (two-phase
    // submit: locks are batch-level, taken before any stripe stages),
    // then per-stripe spans with their codec pass — encode (full
    // cover) or delta (partial).
    let shards_submit = find(&spans, names::SHARDS_SUBMIT);
    assert_eq!(shards_submit.parent_id, exec.span_id);
    assert_contained(shards_submit, exec);
    let lock = find(&spans, names::STORE_LOCK);
    assert_contained(lock, shards_submit);
    let stripe = find(&spans, names::STORE_STRIPE);
    assert_contained(stripe, shards_submit);
    assert_eq!(
        lock.parent_id, stripe.parent_id,
        "the batch lock is a sibling of the stripe spans, not their parent"
    );
    let codec = spans
        .iter()
        .find(|s| s.name == names::STORE_ENCODE || s.name == names::STORE_DELTA)
        .expect("a codec pass span (encode or delta)");
    assert_eq!(codec.parent_id, stripe.span_id);
    assert_contained(codec, stripe);

    // Self-times: for every span in the tree, its direct children's
    // durations sum to no more than its own duration (plus rounding
    // slack) — time is attributed once, never double-counted.
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.span_id, s)).collect();
    let mut checked = 0;
    for span in &spans {
        let child_sum: u64 = spans
            .iter()
            .filter(|s| s.parent_id == span.span_id)
            .map(|s| s.duration_us)
            .sum();
        if child_sum > 0 {
            checked += 1;
        }
        assert!(
            child_sum <= span.duration_us + 20,
            "children of `{}` sum to {child_sum}us, more than its own {}us",
            span.name,
            span.duration_us
        );
    }
    assert!(checked >= 3, "expected at least three spans with children");

    // Every non-root parent pointer resolves within the merged trace.
    for span in &spans {
        if span.parent_id != 0 {
            assert!(
                by_id.contains_key(&span.parent_id),
                "`{}` has a dangling parent {:x}",
                span.name,
                span.parent_id
            );
        }
    }

    handle.shutdown();
    server.join().expect("server thread").expect("server run");
    std::fs::remove_dir_all(&dir).ok();
}
