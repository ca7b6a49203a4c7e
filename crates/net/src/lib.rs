//! `stair-net`: a sharded network storage service over codec-generic
//! stripe stores.
//!
//! PRs 1–2 built a fault-tolerant [`stair_store::StripeStore`] that
//! reproduces the paper's device+sector failure coverage on a real I/O
//! path, but only in-process. This crate is the scale-out layer the
//! ROADMAP's "heavy traffic" north star requires:
//!
//! * **[`ShardSet`]** — `k` equally-shaped stripe stores under one root,
//!   glued into a single logical block space by a deterministic
//!   round-robin [`Placement`] map (one placement range = one stripe);
//! * **[`protocol`]** — a single-version, length-prefixed binary
//!   protocol (HELLO/STATUS/BATCH/FLUSH/FAIL/SCRUB/REPAIR/SHUTDOWN/
//!   METRICS/TRACE) with request IDs for pipelining and Fletcher-32
//!   checksums on every response payload; BATCH is the only data
//!   opcode;
//! * **[`Server`]** — a multi-threaded TCP service on `std::net`: one
//!   reader thread per connection and a fixed worker pool executing
//!   each BATCH frame as one placement-split, per-stripe-planned pass;
//! * **[`Client`] / [`StripedClient`]** — blocking, connection-reusing
//!   clients whose one data-path entry is `submit_ops` (`read_at`/
//!   `write_at`/`submit` come from `stair_device::BlockDevice`); the
//!   striped variant sends each touched shard's group down its own
//!   connection;
//! * **[`json`]** — a dependency-free JSON builder for the `--json`
//!   surfaces of the CLI and benchmarks;
//! * **[`open_device`] / [`open_admin`]** — the registry turning a
//!   `stair_device::DeviceSpec` (`file:…`, `shards:…`, `tcp:…`) into a
//!   live `Box<dyn BlockDevice>`; every backend here implements the
//!   unified trait.
//!
//! # Example
//!
//! ```
//! use stair_device::BlockDevice; // read_at / write_at / submit
//! use stair_net::{Client, Server, ServerConfig, ShardSet};
//! use stair_store::StoreOptions;
//!
//! let dir = std::env::temp_dir().join(format!("stair-net-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let opts = StoreOptions { code: "stair:8,4,2,1-1-2".parse()?, symbol: 64, stripes: 4 };
//! let shards = ShardSet::create(&dir, 2, &opts)?;
//!
//! let server = Server::bind("127.0.0.1:0", shards, ServerConfig::default())?;
//! let addr = server.local_addr().to_string();
//! let running = std::thread::spawn(move || server.run());
//!
//! let client = Client::connect(&addr)?;
//! let payload: Vec<u8> = (0..client.capacity() as usize).map(|i| i as u8).collect();
//! client.write_at(0, &payload)?;
//! client.fail_device(0, 3)?; // lose a device on shard 0 …
//! assert_eq!(client.read_at(0, payload.len())?, payload); // … reads still verify
//! client.shutdown_server()?;
//! running.join().expect("server thread")?;
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

mod client;
mod device_impl;
mod error;
pub mod json;
mod placement;
pub mod protocol;
mod server;
mod shards;

pub use client::{Client, StripedClient};
pub use device_impl::{open_admin, open_device};
pub use error::NetError;
pub use placement::{Placement, ShardSpan};
pub use protocol::{WireSpan, WireTrace};
pub use server::{Server, ServerConfig, ServerHandle};
pub use shards::{shard_dir_name, wire_status, ShardSet};
