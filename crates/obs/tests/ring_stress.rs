//! Ring-wrap and slow-retention stress for the bounded recorder, the
//! [`FlightRecorder`]'s trace rings. They are written from request
//! paths on many threads at once, so the properties under test are
//! concurrent ones — traces are never torn (every retained record is
//! internally consistent with what exactly one writer produced), the
//! main ring wraps at its cap, and slow entries survive a main-ring
//! wrap in their own ring.

use std::sync::atomic::{AtomicU64, Ordering};

use stair_obs::{FlightRecorder, SpanRecord};

const WRITERS: usize = 8;
const TRACE_RING_CAP: usize = 128;
const SLOW_TRACE_CAP: usize = 32;

/// Encodes (writer, seq) into a span so a retained record can be
/// checked against exactly what its writer constructed.
fn fingerprint(writer: u64, seq: u64) -> u64 {
    writer * 1_000_000 + seq
}

/// One writer's traces: `roots` roots under distinct trace ids, each
/// with `children` child spans, every field derived from
/// (writer, seq) so retained trees can be checked for tearing.
fn record_traces(rec: &FlightRecorder, ids: &AtomicU64, writer: u64, roots: u64, slow: bool) {
    const CHILDREN: u64 = 3;
    for seq in 0..roots {
        let trace_id = ids.fetch_add(1, Ordering::Relaxed) + 1;
        let root_span = trace_id << 8;
        for c in 0..CHILDREN {
            rec.record_span(SpanRecord {
                trace_id,
                span_id: root_span + 1 + c,
                parent_id: root_span,
                name: "store.stripe",
                start_us: c,
                duration_us: 1,
                ok: true,
                bytes: fingerprint(writer, seq),
            });
        }
        rec.finish_root(SpanRecord {
            trace_id,
            span_id: root_span,
            parent_id: 0,
            name: "client.submit",
            start_us: 0,
            duration_us: if slow { 1_000_000 } else { 10 },
            ok: true,
            bytes: fingerprint(writer, seq),
        });
    }
}

#[test]
fn flight_recorder_ring_wraps_without_tearing_under_concurrent_writers() {
    let rec = FlightRecorder::new();
    rec.set_slow_threshold_us(u64::MAX); // only errors would be slow
    let ids = AtomicU64::new(0);
    let per_writer = (TRACE_RING_CAP) as u64;
    std::thread::scope(|scope| {
        for w in 0..WRITERS as u64 {
            let (rec, ids) = (&rec, &ids);
            scope.spawn(move || record_traces(rec, ids, w, per_writer, false));
        }
    });

    let traces = rec.traces();
    assert_eq!(traces.len(), TRACE_RING_CAP, "trace ring wraps at cap");
    for trace in &traces {
        // Structure: every span shares the trace id, the root is last,
        // children point at the root — an interleaved (torn) trace
        // would mix spans of different trace ids or writers.
        assert!(trace.spans.iter().all(|s| s.trace_id == trace.trace_id));
        let root = trace.spans.last().expect("root span");
        assert_eq!(root.span_id, trace.root_span);
        assert_eq!(root.parent_id, 0);
        assert_eq!(root.name, "client.submit");
        let children = &trace.spans[..trace.spans.len() - 1];
        assert_eq!(children.len(), 3, "all three children retained");
        for child in children {
            assert_eq!(child.parent_id, root.span_id);
            assert_eq!(child.name, "store.stripe");
            assert_eq!(child.bytes, root.bytes, "same writer produced the tree");
        }
        assert!(!trace.slow);
    }
    assert_eq!(rec.dropped_spans(), 0, "no caps were hit");
}

#[test]
fn slow_traces_survive_main_ring_wrap() {
    let rec = FlightRecorder::new();
    rec.set_slow_threshold_us(500_000);
    let ids = AtomicU64::new(0);

    // Phase 1: a few slow traces from concurrent writers.
    std::thread::scope(|scope| {
        for w in 0..4u64 {
            let (rec, ids) = (&rec, &ids);
            scope.spawn(move || record_traces(rec, ids, w, 4, true));
        }
    });

    // Phase 2: wrap the main ring with fast traces.
    std::thread::scope(|scope| {
        for w in 0..WRITERS as u64 {
            let (rec, ids) = (&rec, &ids);
            scope.spawn(move || record_traces(rec, ids, w, 2 * TRACE_RING_CAP as u64, false));
        }
    });

    // The main ring only remembers fast traces …
    assert!(rec.traces().iter().all(|t| !t.slow));
    // … while the slow ring kept the slow phase, trees intact.
    let slow = rec.slow_traces();
    assert_eq!(slow.len(), 16, "all slow traces retained");
    assert!(slow.len() <= SLOW_TRACE_CAP);
    for trace in &slow {
        assert!(trace.slow);
        assert_eq!(trace.duration_us, 1_000_000);
        let root = trace.spans.last().expect("root span");
        assert_eq!(root.span_id, trace.root_span);
        assert!(trace
            .spans
            .iter()
            .all(|s| s.trace_id == trace.trace_id && s.bytes == root.bytes));
    }
}

#[test]
fn span_buffer_caps_count_drops_instead_of_growing() {
    let rec = FlightRecorder::new();
    // 600 spans into one pending trace: the per-trace cap (512) bounds
    // the buffer and counts the overflow.
    for i in 0..600u64 {
        rec.record_span(SpanRecord {
            trace_id: 7,
            span_id: 1000 + i,
            parent_id: 1,
            name: "store.stripe",
            start_us: i,
            duration_us: 1,
            ok: true,
            bytes: 0,
        });
    }
    assert_eq!(rec.dropped_spans(), 600 - 512);
    rec.finish_root(SpanRecord {
        trace_id: 7,
        span_id: 1,
        parent_id: 0,
        name: "client.submit",
        start_us: 0,
        duration_us: 1,
        ok: true,
        bytes: 0,
    });
    let traces = rec.traces();
    assert_eq!(traces.len(), 1);
    assert_eq!(traces[0].spans.len(), 512 + 1, "capped spans plus root");
}
