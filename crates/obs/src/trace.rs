//! Request-scoped tracing: span trees and a per-process flight
//! recorder.
//!
//! A **trace** is one client-visible operation (a `submit`, a
//! `read_at`, …) identified by a random `trace_id`. Inside it, each
//! layer that does interesting work opens a **span** — a named,
//! timed interval with a parent pointer — so a slow request can be
//! attributed to client serialization vs. queue wait vs. stripe lock
//! vs. codec pass. Span context crosses threads via [`enter_ctx`] and
//! crosses the wire inside trace-flagged frames (the net crate owns the
//! encoding; this crate only hands out `(trace_id, span_id)` pairs).
//!
//! Completed traces land in the process-global [`FlightRecorder`]: a
//! bounded ring of recent traces plus a second ring that retains slow
//! or errored traces after the main ring has wrapped. That slow ring is
//! the stack's one outlier record: an op no recording span covers is
//! filed there too, as a one-span trace, when it failed or was slow
//! ([`finish_op`]).
//!
//! Tracing is **off by default**; [`set_enabled`] turns root-span
//! minting on for the process. A disabled process still records spans
//! for requests that arrive with wire context ([`wire_root_at`]), so a
//! server traces exactly the requests its clients asked it to trace.
//! The hot-path cost when disabled is one relaxed atomic load per
//! would-be root and one thread-local peek per would-be child.
//!
//! Every span name must be one of the constants in [`names`]: the
//! `span-discipline` lint in `stair-check` enforces that no name
//! literal appears at a recording site outside this crate, and the root
//! package's `tests/telemetry.rs` that a traced session records every
//! one.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant, SystemTime};

use crate::sync::lock;

/// The span names the stack records, declared once.
///
/// Each constant is the single source of truth for one span name;
/// recording sites reference these (never string literals — enforced
/// by the `span-discipline` lint), so a typo cannot silently split a
/// span family in two. A traced session records every one
/// (`tests/telemetry.rs`), except [`BENCH_SUBMIT`](names::BENCH_SUBMIT),
/// which only `benchmark/` records; there the test checks that
/// `benchmark/src` references it.
pub mod names {
    /// Client submission of any list but a lone op (root on the client
    /// side).
    pub const CLIENT_SUBMIT: &str = "client.submit";
    /// Client submission of one read (root on the client side).
    pub const CLIENT_READ: &str = "client.read";
    /// Client submission of one write (root on the client side).
    pub const CLIENT_WRITE: &str = "client.write";
    /// Packing requests into wire frames.
    pub const CLIENT_ENCODE: &str = "client.encode";
    /// Parsing and verifying wire responses.
    pub const CLIENT_DECODE: &str = "client.decode";
    /// One server-side request (root on the server side; its parent is
    /// the client span that sent the frame).
    pub const SRV_REQUEST: &str = "srv.request";
    /// Time a request spent in the wait for an execution permit.
    pub const SRV_QUEUE: &str = "srv.queue";
    /// Executing the request body against the shard set.
    pub const SRV_EXEC: &str = "srv.exec";
    /// One shard's slice of a split batch.
    pub const SHARDS_SUBMIT: &str = "shards.submit";
    /// One stripe's batched store pass.
    pub const STORE_STRIPE: &str = "store.stripe";
    /// Acquiring the stripe lock.
    pub const STORE_LOCK: &str = "store.lock";
    /// Full-stripe re-encode parity pass.
    pub const STORE_ENCODE: &str = "store.encode";
    /// Parity-delta update pass (small writes).
    pub const STORE_DELTA: &str = "store.delta";
    /// Persisting integrity metadata after a write-back.
    pub const STORE_PERSIST: &str = "store.persist";
    /// A commit's in-place sector writes, after its journal record is
    /// durable.
    pub const STORE_WRITE_BACK: &str = "store.write_back";
    /// `Instrumented` device submission of one read.
    pub const DEV_READ: &str = "dev.read";
    /// `Instrumented` device submission of one write.
    pub const DEV_WRITE: &str = "dev.write";
    /// `Instrumented` device submission of any other op list.
    pub const DEV_BATCH: &str = "dev.batch";
    /// `Instrumented` device flush.
    pub const DEV_FLUSH: &str = "dev.flush";
    /// `Instrumented` device scrub.
    pub const DEV_SCRUB: &str = "dev.scrub";
    /// `Instrumented` device repair.
    pub const DEV_REPAIR: &str = "dev.repair";
    /// One timed submission in `benchmark/`'s load engine.
    pub const BENCH_SUBMIT: &str = "bench.submit";
    /// Appending (and fsyncing) one intent record to the stripe journal.
    pub const JRNL_APPEND: &str = "jrnl.append";
    /// Replaying journal records at store open.
    pub const JRNL_REPLAY: &str = "jrnl.replay";
    /// A journal checkpoint: the checkpoint thread's (a root of its
    /// own) or a synchronous one (`flush`, open, drop).
    pub const JRNL_CHECKPOINT: &str = "jrnl.checkpoint";
    /// Filling read-cache frames from the inner device on a miss.
    pub const CACHE_FILL: &str = "cache.fill";
    /// Draining the write-back buffer as one coalesced batch.
    pub const WB_FLUSH: &str = "wb.flush";

    /// Every declared span name (the TRACE consumers validate names
    /// against it, and `tests/telemetry.rs` checks each is recorded).
    pub const ALL: &[&str] = &[
        CLIENT_SUBMIT,
        CLIENT_READ,
        CLIENT_WRITE,
        CLIENT_ENCODE,
        CLIENT_DECODE,
        SRV_REQUEST,
        SRV_QUEUE,
        SRV_EXEC,
        SHARDS_SUBMIT,
        STORE_STRIPE,
        STORE_LOCK,
        STORE_ENCODE,
        STORE_DELTA,
        STORE_PERSIST,
        STORE_WRITE_BACK,
        DEV_READ,
        DEV_WRITE,
        DEV_BATCH,
        DEV_FLUSH,
        DEV_SCRUB,
        DEV_REPAIR,
        BENCH_SUBMIT,
        JRNL_APPEND,
        JRNL_REPLAY,
        JRNL_CHECKPOINT,
        CACHE_FILL,
        WB_FLUSH,
    ];
}

/// Completed traces the main ring retains before wrapping.
const TRACE_RING_CAP: usize = 128;
/// Slow or errored traces retained with full context.
const SLOW_TRACE_CAP: usize = 32;
/// In-flight traces buffered at once; spans for further trace ids are
/// dropped (counted) rather than growing without bound.
const MAX_PENDING_TRACES: usize = 256;
/// Spans buffered per in-flight trace.
const MAX_SPANS_PER_TRACE: usize = 512;

/// Default slow-trace threshold: 10 ms end-to-end. On a local or
/// loopback data path anything slower is an outlier worth keeping.
pub const DEFAULT_SLOW_TRACE_US: u64 = 10_000;

/// The wire-portable part of a span: which trace, which span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanCtx {
    /// Identifies the whole request tree across processes.
    pub trace_id: u64,
    /// Identifies one span; children carry it as their parent.
    pub span_id: u64,
}

/// One finished span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// This span's id (nonzero).
    pub span_id: u64,
    /// Parent span id; 0 means "no local parent" (a process root —
    /// either a freshly minted trace or a wire-propagated parent that
    /// lives in another process' recorder).
    pub parent_id: u64,
    /// Declared span name (one of [`names::ALL`]).
    pub name: &'static str,
    /// Start time in microseconds since the recorder's epoch.
    pub start_us: u64,
    /// Wall-clock duration in microseconds.
    pub duration_us: u64,
    /// Whether the spanned work succeeded.
    pub ok: bool,
    /// Bytes moved by the spanned work (0 when not meaningful).
    pub bytes: u64,
}

/// One completed trace: the process-root span plus every span recorded
/// under its trace id in this process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// The trace id shared by all spans (and by the peer process' half
    /// of the tree, if the request crossed the wire).
    pub trace_id: u64,
    /// Span id of the process root.
    pub root_span: u64,
    /// End-to-end duration of the process root in microseconds.
    pub duration_us: u64,
    /// Whether the root (and thus the operation) succeeded.
    pub ok: bool,
    /// `true` when this trace was retained in the slow/errored ring.
    pub slow: bool,
    /// Every span of this trace recorded in this process, in
    /// completion order; the root is last.
    pub spans: Vec<SpanRecord>,
}

/// The per-process trace sink: an epoch for timestamps, a buffer of
/// in-flight traces, and two bounded rings of completed ones — recent
/// traces, and slow/errored traces that survive the main ring's wrap.
pub struct FlightRecorder {
    epoch: Instant,
    threshold_us: AtomicU64,
    pending: Mutex<HashMap<u64, Vec<SpanRecord>>>,
    completed: Mutex<VecDeque<TraceRecord>>,
    slow: Mutex<VecDeque<TraceRecord>>,
    dropped: AtomicU64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl FlightRecorder {
    /// An empty recorder with the default slow-trace threshold.
    pub fn new() -> Self {
        FlightRecorder {
            epoch: Instant::now(),
            threshold_us: AtomicU64::new(DEFAULT_SLOW_TRACE_US),
            pending: Mutex::new(HashMap::new()),
            completed: Mutex::new(VecDeque::with_capacity(TRACE_RING_CAP)),
            slow: Mutex::new(VecDeque::with_capacity(SLOW_TRACE_CAP)),
            dropped: AtomicU64::new(0),
        }
    }

    /// Microseconds elapsed since this recorder's epoch.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Microseconds between the epoch and `at` (0 if `at` precedes it).
    pub fn instant_us(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Sets the slow-trace threshold (microseconds). 0 retains every
    /// trace in the slow ring, `u64::MAX` retains only errored ones.
    pub fn set_slow_threshold_us(&self, us: u64) {
        self.threshold_us.store(us, Ordering::Relaxed);
    }

    /// The current slow-trace threshold in microseconds.
    pub fn slow_threshold_us(&self) -> u64 {
        self.threshold_us.load(Ordering::Relaxed)
    }

    /// Buffers one finished non-root span until its trace completes.
    /// Spans beyond the per-trace or pending-trace caps are counted in
    /// [`dropped_spans`](Self::dropped_spans) and discarded.
    pub fn record_span(&self, rec: SpanRecord) {
        let mut pending = lock(&self.pending);
        if let Some(spans) = pending.get_mut(&rec.trace_id) {
            if spans.len() >= MAX_SPANS_PER_TRACE {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return;
            }
            spans.push(rec);
        } else if pending.len() >= MAX_PENDING_TRACES {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        } else {
            pending.insert(rec.trace_id, vec![rec]);
        }
    }

    /// Completes a trace: takes every buffered span for `root`'s trace
    /// id, appends the root, and files the result in the rings. Slow
    /// (`duration ≥ threshold`) or errored traces are also retained in
    /// the slow ring.
    pub fn finish_root(&self, root: SpanRecord) {
        let mut spans = lock(&self.pending)
            .remove(&root.trace_id)
            .unwrap_or_default();
        let record = TraceRecord {
            trace_id: root.trace_id,
            root_span: root.span_id,
            duration_us: root.duration_us,
            ok: root.ok,
            slow: root.duration_us >= self.slow_threshold_us() || !root.ok,
            spans: {
                spans.push(root);
                spans
            },
        };
        if record.slow {
            self.keep_slow(record.clone());
        }
        let mut ring = lock(&self.completed);
        if ring.len() == TRACE_RING_CAP {
            ring.pop_front();
        }
        ring.push_back(record);
    }

    /// Files `record` in the slow ring, dropping its oldest entry when
    /// full. A one-span root — an untraced outlier, or a traced op with
    /// no children — holds no context beyond its own timing, so those
    /// fill at most half the ring: once they do, a new one replaces the
    /// oldest of them, and a burst of failing untraced requests cannot
    /// push out the traced slow traces `stair dev trace` explains.
    fn keep_slow(&self, record: TraceRecord) {
        let bare = |t: &TraceRecord| t.spans.len() == 1 && t.spans[0].parent_id == 0;
        let mut slow = lock(&self.slow);
        let bares = slow.iter().filter(|t| bare(t)).count();
        let evict = if bare(&record) && bares >= SLOW_TRACE_CAP / 2 {
            slow.iter().position(bare)
        } else {
            (slow.len() == SLOW_TRACE_CAP).then_some(0)
        };
        if let Some(i) = evict {
            slow.remove(i);
        }
        slow.push_back(record);
    }

    /// The retained completed traces, oldest first.
    pub fn traces(&self) -> Vec<TraceRecord> {
        lock(&self.completed).iter().cloned().collect()
    }

    /// The retained slow/errored traces, oldest first. These survive
    /// the main ring's wrap.
    pub fn slow_traces(&self) -> Vec<TraceRecord> {
        lock(&self.slow).iter().cloned().collect()
    }

    /// Spans discarded because a buffering cap was hit.
    pub fn dropped_spans(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

// ---- process-global state -----------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: OnceLock<FlightRecorder> = OnceLock::new();
static ID_COUNTER: AtomicU64 = AtomicU64::new(0);
static ID_SEED: OnceLock<u64> = OnceLock::new();

thread_local! {
    static CURRENT: RefCell<Vec<SpanCtx>> = const { RefCell::new(Vec::new()) };
}

/// Turns root-span minting on or off for this process. Off (the
/// default) makes [`root_span`] and the root half of [`span_or_root`]
/// no-ops; wire-propagated roots are always recorded.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether this process mints root spans.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The process-global flight recorder (created on first use).
pub fn recorder() -> &'static FlightRecorder {
    RECORDER.get_or_init(FlightRecorder::new)
}

/// A fresh nonzero id, unique within the process and seeded with the
/// process id and wall clock so two processes sharing one loopback
/// session do not collide.
fn next_id() -> u64 {
    let seed = *ID_SEED.get_or_init(|| {
        let nanos = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9E37_79B9_7F4A_7C15);
        nanos ^ ((std::process::id() as u64) << 32)
    });
    // splitmix64 over seed + counter: well-distributed, dependency-free.
    let mut z = seed.wrapping_add(
        ID_COUNTER
            .fetch_add(1, Ordering::Relaxed)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z = z ^ (z >> 31);
    z.max(1)
}

/// The innermost span context on this thread, if any — what a wire
/// frame should propagate, and what a spawned worker thread should
/// [`enter_ctx`].
pub fn current() -> Option<SpanCtx> {
    CURRENT.with(|c| c.try_borrow().ok().and_then(|s| s.last().copied()))
}

fn push_current(ctx: SpanCtx) {
    CURRENT.with(|c| {
        if let Ok(mut s) = c.try_borrow_mut() {
            s.push(ctx);
        }
    });
}

fn pop_current(span_id: u64) {
    CURRENT.with(|c| {
        if let Ok(mut s) = c.try_borrow_mut() {
            // Guards drop LIFO in practice; scan defensively anyway.
            if let Some(at) = s.iter().rposition(|x| x.span_id == span_id) {
                s.remove(at);
            }
        }
    });
}

// ---- guards --------------------------------------------------------

struct ActiveSpan {
    trace_id: u64,
    span_id: u64,
    parent_id: u64,
    name: &'static str,
    start: Instant,
    start_us: u64,
    bytes: u64,
    ok: bool,
    root: bool,
}

/// A live span. Recorded (and popped from the thread's context stack)
/// when dropped; [`finish`](SpanGuard::finish) makes the end explicit.
/// A no-op guard (tracing disabled, no enclosing span) costs nothing.
pub struct SpanGuard {
    inner: Option<ActiveSpan>,
}

impl SpanGuard {
    fn active(name: &'static str, trace_id: u64, parent_id: u64, start: Instant) -> SpanGuard {
        let span_id = next_id();
        let start_us = recorder().instant_us(start);
        push_current(SpanCtx { trace_id, span_id });
        SpanGuard {
            inner: Some(ActiveSpan {
                trace_id,
                span_id,
                parent_id,
                name,
                start,
                start_us,
                bytes: 0,
                ok: true,
                root: false,
            }),
        }
    }

    fn noop() -> SpanGuard {
        SpanGuard { inner: None }
    }

    /// Whether this guard records anything.
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// This span's context (what to propagate), if recording.
    pub fn ctx(&self) -> Option<SpanCtx> {
        self.inner.as_ref().map(|a| SpanCtx {
            trace_id: a.trace_id,
            span_id: a.span_id,
        })
    }

    /// Attributes `bytes` moved to this span.
    pub fn set_bytes(&mut self, bytes: u64) {
        if let Some(a) = self.inner.as_mut() {
            a.bytes = bytes;
        }
    }

    /// Marks the spanned work as failed.
    pub fn fail(&mut self) {
        if let Some(a) = self.inner.as_mut() {
            a.ok = false;
        }
    }

    /// Ends the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(a) = self.inner.take() else { return };
        pop_current(a.span_id);
        let rec = SpanRecord {
            trace_id: a.trace_id,
            span_id: a.span_id,
            parent_id: a.parent_id,
            name: a.name,
            start_us: a.start_us,
            duration_us: a.start.elapsed().as_micros() as u64,
            ok: a.ok,
            bytes: a.bytes,
        };
        if a.root {
            recorder().finish_root(rec);
        } else {
            recorder().record_span(rec);
        }
    }
}

/// Starts a new trace rooted at `name` — the entry point of one
/// client-visible operation. No-op unless [`enabled`].
pub fn root_span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard::noop();
    }
    let mut g = SpanGuard::active(name, next_id(), 0, Instant::now());
    if let Some(a) = g.inner.as_mut() {
        a.root = true;
    }
    g
}

/// Opens a child of the innermost span on this thread; no-op when
/// there is none.
pub fn span(name: &'static str) -> SpanGuard {
    match current() {
        Some(ctx) => SpanGuard::active(name, ctx.trace_id, ctx.span_id, Instant::now()),
        None => SpanGuard::noop(),
    }
}

/// A child of the current span when one exists, else a new root when
/// tracing is [`enabled`], else a no-op — the right call at layer
/// entry points that can be either the top of an operation or a step
/// inside a larger one.
pub fn span_or_root(name: &'static str) -> SpanGuard {
    match current() {
        Some(ctx) => SpanGuard::active(name, ctx.trace_id, ctx.span_id, Instant::now()),
        None => root_span(name),
    }
}

/// Starts this process' root for a trace that arrived over the wire:
/// the span joins trace `trace_id` under the remote parent
/// `parent_span`, and its clock starts at `start` (e.g. when the
/// frame was read, so queue wait is inside the span). Always records —
/// the wire context *is* the opt-in.
pub fn wire_root_at(
    name: &'static str,
    trace_id: u64,
    parent_span: u64,
    start: Instant,
) -> SpanGuard {
    let mut g = SpanGuard::active(name, trace_id, parent_span, start);
    if let Some(a) = g.inner.as_mut() {
        a.root = true;
        // The remote parent is not in this recorder; keep the pointer
        // for tree stitching but mark the span as a process root.
        a.parent_id = parent_span;
    }
    g
}

/// Ends one op that started at `start` and moved `bytes` — the one
/// capture rule for layer entry points. When `span` records, it takes
/// the bytes and the outcome and closes. An op no recording span covers
/// is kept only as an outlier: if it failed, or took at least the
/// recorder's slow threshold, it is filed as a one-span root trace named
/// `name`, marked slow, in the slow ring alone (the recent ring holds
/// traced ops only).
pub fn finish_op(
    span: Option<SpanGuard>,
    name: &'static str,
    start: Instant,
    bytes: u64,
    ok: bool,
) {
    if let Some(mut g) = span.filter(SpanGuard::is_recording) {
        g.set_bytes(bytes);
        if !ok {
            g.fail();
        }
        return;
    }
    let rec = recorder();
    let duration_us = start.elapsed().as_micros() as u64;
    if ok && duration_us < rec.slow_threshold_us() {
        return;
    }
    let (trace_id, span_id) = (next_id(), next_id());
    rec.keep_slow(TraceRecord {
        trace_id,
        root_span: span_id,
        duration_us,
        ok,
        slow: true,
        spans: vec![SpanRecord {
            trace_id,
            span_id,
            parent_id: 0,
            name,
            start_us: rec.instant_us(start),
            duration_us,
            ok,
            bytes,
        }],
    });
}

/// Records an already-measured interval as a child of the current
/// span (no-op without one) — for waits measured with explicit
/// timestamps, like queue time between enqueue and dequeue.
pub fn span_at(name: &'static str, start: Instant, duration: Duration) {
    let Some(ctx) = current() else { return };
    recorder().record_span(SpanRecord {
        trace_id: ctx.trace_id,
        span_id: next_id(),
        parent_id: ctx.span_id,
        name,
        start_us: recorder().instant_us(start),
        duration_us: duration.as_micros() as u64,
        ok: true,
        bytes: 0,
    });
}

/// Re-enters `ctx` on this thread (for handing span context across a
/// thread spawn); the context pops when the guard drops. `None` is a
/// no-op, so call sites can pass [`current`] through unconditionally.
pub fn enter_ctx(ctx: Option<SpanCtx>) -> CtxGuard {
    if let Some(ctx) = ctx {
        push_current(ctx);
        CtxGuard { ctx: Some(ctx) }
    } else {
        CtxGuard { ctx: None }
    }
}

/// Guard returned by [`enter_ctx`]; pops the context on drop.
pub struct CtxGuard {
    ctx: Option<SpanCtx>,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        if let Some(ctx) = self.ctx.take() {
            pop_current(ctx.span_id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests below share the process-global recorder with the rest of
    /// the test binary, so they always filter by their own trace ids.
    fn find_trace(id: u64) -> Option<TraceRecord> {
        recorder().traces().into_iter().find(|t| t.trace_id == id)
    }

    /// Serializes tests that toggle the process-global enabled flag.
    fn flag_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        lock(&LOCK)
    }

    #[test]
    fn disabled_process_mints_no_roots() {
        let _flag = flag_lock();
        set_enabled(false);
        let g = root_span(names::CLIENT_READ);
        assert!(!g.is_recording());
        assert!(current().is_none());
        assert!(!span(names::STORE_LOCK).is_recording());
    }

    #[test]
    fn span_tree_lands_in_the_recorder() {
        let _flag = flag_lock();
        set_enabled(true);
        let mut root = root_span(names::CLIENT_SUBMIT);
        root.set_bytes(4096);
        let root_ctx = root.ctx().expect("recording");
        {
            let child = span(names::STORE_STRIPE);
            let cctx = child.ctx().expect("child recording");
            assert_eq!(cctx.trace_id, root_ctx.trace_id);
            let grand = span(names::STORE_LOCK);
            assert_eq!(grand.ctx().expect("grand").trace_id, root_ctx.trace_id);
        }
        root.finish();
        set_enabled(false);

        let t = find_trace(root_ctx.trace_id).expect("trace completed");
        assert_eq!(t.root_span, root_ctx.span_id);
        assert!(t.ok);
        assert_eq!(t.spans.len(), 3);
        let root_rec = t.spans.last().expect("root last");
        assert_eq!(root_rec.name, names::CLIENT_SUBMIT);
        assert_eq!(root_rec.bytes, 4096);
        assert_eq!(root_rec.parent_id, 0);
        let stripe = t
            .spans
            .iter()
            .find(|s| s.name == names::STORE_STRIPE)
            .expect("stripe span");
        assert_eq!(stripe.parent_id, root_ctx.span_id);
        let lock = t
            .spans
            .iter()
            .find(|s| s.name == names::STORE_LOCK)
            .expect("lock span");
        assert_eq!(lock.parent_id, stripe.span_id);
    }

    #[test]
    fn wire_root_joins_the_remote_trace() {
        let _flag = flag_lock();
        // A "server" process: no local enablement, context from the wire.
        set_enabled(false);
        let t0 = Instant::now();
        let root = wire_root_at(names::SRV_REQUEST, 777_001, 42, t0);
        assert!(root.is_recording());
        span_at(names::SRV_QUEUE, t0, Duration::from_micros(5));
        drop(root);
        let t = find_trace(777_001).expect("wire trace completed");
        let root_rec = t.spans.last().expect("root");
        assert_eq!(root_rec.parent_id, 42);
        assert!(t.spans.iter().any(|s| s.name == names::SRV_QUEUE));
    }

    #[test]
    fn errored_traces_are_retained_in_the_slow_ring() {
        let _flag = flag_lock();
        set_enabled(true);
        let mut root = root_span(names::CLIENT_WRITE);
        let ctx = root.ctx().expect("recording");
        root.fail();
        drop(root);
        set_enabled(false);
        let slow = recorder().slow_traces();
        let t = slow
            .iter()
            .find(|t| t.trace_id == ctx.trace_id)
            .expect("errored trace retained");
        assert!(!t.ok);
        assert!(t.slow);
    }

    #[test]
    fn an_untraced_outlier_is_a_one_span_slow_trace() {
        let _flag = flag_lock();
        set_enabled(false);
        let t0 = Instant::now();
        let held = |bytes| {
            let slow = recorder().slow_traces();
            slow.into_iter().find(|t| t.spans[0].bytes == bytes)
        };
        // Fast and ok: nothing kept.
        finish_op(
            Some(span_or_root(names::DEV_READ)),
            names::DEV_READ,
            t0,
            777_101,
            true,
        );
        assert!(held(777_101).is_none());
        // Failed: kept in the slow ring, not the recent one.
        finish_op(None, names::DEV_WRITE, t0, 777_102, false);
        let t = held(777_102).expect("failed op kept");
        assert!(!t.ok && t.slow);
        assert_eq!(t.spans.len(), 1);
        let root = &t.spans[0];
        assert_eq!((root.name, root.parent_id), (names::DEV_WRITE, 0));
        assert_eq!((root.span_id, root.trace_id), (t.root_span, t.trace_id));
        assert!(recorder().traces().iter().all(|r| r.trace_id != t.trace_id));
        // Slow and ok: kept too.
        let long_ago = t0.checked_sub(Duration::from_micros(DEFAULT_SLOW_TRACE_US));
        if let Some(long_ago) = long_ago {
            finish_op(None, names::DEV_FLUSH, long_ago, 777_103, true);
            assert!(held(777_103).expect("slow op kept").ok);
        }
    }

    #[test]
    fn a_burst_of_untraced_outliers_leaves_traced_slow_traces_kept() {
        let rec = FlightRecorder::new();
        let span = |trace_id, span_id, parent_id, ok| SpanRecord {
            trace_id,
            span_id,
            parent_id,
            name: names::CLIENT_WRITE,
            start_us: 0,
            duration_us: 2 * DEFAULT_SLOW_TRACE_US,
            ok,
            bytes: 0,
        };
        let cap = SLOW_TRACE_CAP as u64;
        for id in 1..=cap {
            rec.record_span(span(id, 2 * id, id, true));
            rec.finish_root(span(id, id, 0, true));
        }
        for id in cap + 1..=4 * cap {
            rec.keep_slow(TraceRecord {
                trace_id: id,
                root_span: id,
                duration_us: 1,
                ok: false,
                slow: true,
                spans: vec![span(id, id, 0, false)],
            });
        }
        let kept: Vec<u64> = rec.slow_traces().iter().map(|t| t.trace_id).collect();
        // The newest half of the traced ones, then the newest outliers.
        let traced = cap / 2 + 1..=cap;
        let outliers = 4 * cap - cap / 2 + 1..=4 * cap;
        assert_eq!(kept, traced.chain(outliers).collect::<Vec<_>>());
    }

    #[test]
    fn a_traced_op_is_its_span_not_an_outlier() {
        let _flag = flag_lock();
        set_enabled(true);
        let span = span_or_root(names::DEV_SCRUB);
        let ctx = span.ctx().expect("recording");
        finish_op(Some(span), names::DEV_SCRUB, Instant::now(), 64, false);
        set_enabled(false);
        let t = find_trace(ctx.trace_id).expect("traced op completed");
        assert_eq!(t.spans.len(), 1);
        assert_eq!((t.spans[0].bytes, t.spans[0].ok), (64, false));
        let slow = recorder().slow_traces();
        assert_eq!(
            slow.iter().filter(|s| s.trace_id == ctx.trace_id).count(),
            1
        );
    }

    #[test]
    fn ctx_guard_scopes_context_across_threads() {
        let _flag = flag_lock();
        set_enabled(true);
        let root = root_span(names::CLIENT_SUBMIT);
        let ctx = root.ctx();
        std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    assert!(current().is_none());
                    let _g = enter_ctx(ctx);
                    assert_eq!(current(), ctx);
                    let child = span(names::SHARDS_SUBMIT);
                    assert_eq!(
                        child.ctx().map(|c| c.trace_id),
                        ctx.map(|c| c.trace_id),
                        "child joins the entered trace"
                    );
                })
                .join()
                .expect("spawned thread");
        });
        assert_eq!(current(), ctx);
        drop(root);
        set_enabled(false);
        assert!(current().is_none());
    }

    #[test]
    fn ids_are_nonzero_and_distinct() {
        let a = next_id();
        let b = next_id();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn declared_names_are_unique_and_dotted() {
        for (i, a) in names::ALL.iter().enumerate() {
            assert!(a.contains('.'), "{a} is not dotted");
            for b in &names::ALL[i + 1..] {
                assert_ne!(a, b, "duplicate span name");
            }
        }
    }
}
