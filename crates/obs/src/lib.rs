//! Dependency-free observability for the stair stack.
//!
//! Five parts, all safe to hammer from many threads:
//!
//! * **[`MetricsRegistry`]** — named [`Counter`]s, [`Gauge`]s, and
//!   fixed-bucket log₂ latency [`Histogram`]s. Registration (name →
//!   handle) takes a lock once; the handles themselves are `Arc`-backed
//!   atomics, so the hot path is lock-free relaxed increments.
//! * **[`trace`]** — request-scoped span trees: every layer of one
//!   operation opens a named, timed span, context crosses threads and
//!   (in trace-flagged frames) the wire, and completed traces land in a
//!   per-process [`FlightRecorder`] whose slow/errored ring survives
//!   the main ring's wrap. That ring is the one outlier record: an op
//!   no span covers lands there as a one-span trace when it failed or
//!   was slow ([`trace::finish_op`]).
//! * **[`MetricsSnapshot`]** — a point-in-time, plain-data copy of a
//!   registry. Snapshots merge (counters sum, histograms add
//!   bucket-wise), which is how per-shard and per-layer views fold into
//!   one report, and serialize trivially: the wire encoding lives with
//!   the protocol, and [`json::metrics_json`] is the one JSON shape.
//! * **[`json`]** — the workspace's one JSON writer, behind every
//!   `--json` report (the CLI's and `chaos_kill9`'s).
//! * **[`sync`]** — the workspace's one way to take a `Mutex` or
//!   `RwLock`: poison is adopted, never unwrapped (clippy holds every
//!   other crate to it).
//!
//! Histogram buckets are powers of two: bucket `i` holds values whose
//! bit width is `i` (bucket 0 = {0}, bucket 1 = {1}, bucket 2 = 2–3,
//! bucket 3 = 4–7, …). A quantile estimate returns the bucket's upper
//! bound clamped to the observed maximum, so estimates are exact to
//! within one bucket: `exact ≤ estimate < 2 × exact`.

// A no-panic zone: library code returns errors instead (tests may panic).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![warn(missing_docs)]

mod hist;
pub mod json;
mod registry;
mod snapshot;
pub mod sync;
pub mod trace;

pub use hist::{bucket_upper_bound, Histogram, HistogramSnapshot, BUCKETS};
pub use registry::{metric_names, Counter, Gauge, MetricsRegistry};
pub use snapshot::MetricsSnapshot;
pub use trace::{FlightRecorder, SpanCtx, SpanRecord, TraceRecord};
