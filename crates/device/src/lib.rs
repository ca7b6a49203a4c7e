//! `stair-device`: one object-safe API over every storage backend.
//!
//! PRs 1–3 grew three parallel storage surfaces — the local
//! [`StripeStore`], the in-process sharded `ShardSet`, and the TCP
//! `Client`/`StripedClient` — that each re-declared
//! `read_at`/`write_at`/`status`/`scrub`/`repair` with divergent
//! receivers, error types, and report structs. This crate is the layer
//! that collapses them, exactly as `stair-code`'s `ErasureCode` trait
//! did for the codecs one level down:
//!
//! * **[`BlockDevice`]** — the object-safe data-path trait, all on
//!   `&self`, all `Send + Sync`, so any backend works behind
//!   `Arc<dyn BlockDevice>`. An implementor writes one data-path
//!   method, `submit_ops`, plus `capacity`/`block_size`/`flush`/
//!   `status`/`scrub`/`repair`; callers get `read_at`/`write_at`/
//!   `submit` from the trait, written once over it;
//! * **[`IoBatch`] / [`IoOp`] / [`OpRef`] / [`BatchResult`]** — the
//!   scatter-gather batch types: many ops named up front so a backend
//!   can group them (per stripe locally, per shard remotely) instead of
//!   paying per-op locks, codec passes, and round trips. Callers own an
//!   `IoBatch`; devices see borrowed `OpRef` views, so no layer copies
//!   a payload;
//! * **[`FaultAdmin`]** — the fault-injection split
//!   (`fail_device`/`corrupt_sectors`); kept separate because remote or
//!   production deployments may refuse admin operations;
//! * **[`DeviceError`]** — the one error enum every backend's failures
//!   convert into (`stair_store::Error` and `stair_net::NetError`
//!   provide `From` impls);
//! * **[`DeviceStatus`]** / **[`WriteOutcome`]** / **[`ScrubOutcome`]**
//!   / **[`RepairOutcome`]** — the one report vocabulary every
//!   backend and the wire speak;
//! * **[`DeviceSpec`]** — the URI-style grammar (`file:<dir>`,
//!   `shards:<root>?n=4`, `tcp:<addr>?lanes=4`) naming a backend; the
//!   `open_device()` registry in `stair-net` turns a spec into a live
//!   `Box<dyn BlockDevice>`, mirroring `stair_store::build_codec()`.
//!
//! * **[`Instrumented`]** — a wrapper recording per-op and per-batch
//!   latency, byte counts, and slow ops for any backend into a
//!   `stair-obs` registry; [`BlockDevice::metrics`] surfaces the
//!   combined snapshot.
//!
//! This crate depends only on `stair-obs` (itself dependency-free):
//! backends depend on it, not the other way round, so future layers
//! (write-back caches, replicas, async frontends) can slot in behind
//! the same trait without touching the existing engines.
//!
//! [`StripeStore`]: https://docs.rs/stair-store

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

mod api;
mod batch;
mod error;
mod instrument;
mod report;
mod spec;

pub use api::{AdminDevice, BlockDevice, FaultAdmin};
pub use batch::{BatchResult, IoBatch, IoOp, OpRef, OpResult};
pub use error::DeviceError;
pub use instrument::Instrumented;
pub use report::{
    CacheTierStatus, DeviceStatus, RepairOutcome, ScrubOutcome, ShardHealth, WriteOutcome,
};
pub use spec::{cache_budget_bytes, DeviceSpec, CACHE_DEFAULT_INTERVAL_MS, CACHE_DEFAULT_MB};
