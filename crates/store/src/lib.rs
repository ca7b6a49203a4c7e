//! `stair-store`: a concurrent, file-backed stripe-store engine generic
//! over any [`stair_code::ErasureCode`] — STAIR, SD, or Reed–Solomon.
//!
//! The STAIR paper positions its codes as protection for *practical
//! storage systems* that must survive whole-device failures plus
//! sector-level bursts — and its claims are *comparative*: same coverage
//! as SD codes with less space and cheaper updates. The rest of this
//! workspace exercises the codecs one stripe at a time; this crate is the
//! storage-engine layer above them, and doubles as the benchmark harness
//! where every codec runs the same real I/O path (pick one with
//! [`build_codec`] / `StoreOptions::code`):
//!
//! * a flat logical **block space** (one block = one data sector) mapped
//!   onto stripes laid out across `n` per-device backing files
//!   ([`BlockMap`]);
//! * **one data path** — `read_at`, `write_at` and the scatter-gather
//!   [`StripeStore::submit`] all run the same per-stripe planner over
//!   borrowed op views ([`stair_device::OpRef`]); a lone call is a
//!   one-op batch;
//! * a **write path** that batches dirty blocks per stripe — full-stripe
//!   writes re-encode in one pass, small writes take the parity-delta
//!   update path ([`StripeStore::write_at`]);
//! * a **read path** that serves **degraded reads** transparently when
//!   devices or sectors are lost, using the decode planner to reconstruct
//!   only what the request needs ([`StripeStore::read_at`]);
//! * a background **scrubber** verifying per-sector Fletcher-32 checksums
//!   ([`StripeStore::scrub`]) and an **online repair** pass that rebuilds
//!   lost chunks onto replacement files while foreground I/O continues
//!   ([`StripeStore::repair`]);
//! * a **failure-injection** bridge replaying the reliability model's
//!   sector-failure samplers against the real store
//!   ([`StripeStore::inject_failures`]).
//!
//! # Example
//!
//! ```
//! use stair_store::{StoreOptions, StripeStore};
//!
//! let dir = std::env::temp_dir().join(format!("stair-store-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! // `code` accepts any spec: stair:n,r,m,e / sd:n,r,m,s / rs:n,r,m.
//! let opts = StoreOptions {
//!     code: "stair:8,4,2,1-1-2".parse()?,
//!     symbol: 64,
//!     stripes: 4,
//! };
//! let store = StripeStore::create(&dir, &opts)?;
//!
//! // Write, lose two devices and a sector burst, read back degraded.
//! let payload: Vec<u8> = (0..store.capacity() as usize).map(|i| i as u8).collect();
//! store.write_at(0, &payload)?;
//! store.fail_device(1)?;
//! store.fail_device(6)?;
//! store.corrupt_sectors(3, 0, 2, 2)?;
//! assert_eq!(store.read_at(0, payload.len())?, payload);
//!
//! // Repair online, then a scrub reports clean.
//! assert!(store.repair(2)?.complete());
//! assert!(store.scrub(2)?.clean());
//! std::fs::remove_dir_all(&dir)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

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

mod batch;
mod codec;
mod device;
mod device_impl;
mod error;
mod inject;
mod integrity;
pub mod journal;
mod layout;
mod meta;
mod repair;
mod scrub;
mod store;

pub use codec::build_codec;
pub use device_impl::{gf_metrics, repair_outcome, scrub_outcome, shard_health};
pub use error::Error;
pub use inject::InjectionOutcome;
pub use integrity::{BadSector, DeviceState, Health};
pub use journal::{Journal, DEFAULT_JOURNAL_SEGMENT, JOURNAL_FILE};
pub use layout::{BlockLocation, BlockMap};
pub use meta::StoreMeta;
pub use repair::RepairReport;
pub use scrub::ScrubReport;
pub use store::{IoStats, StoreOptions, StoreStatus, StripeStore};
