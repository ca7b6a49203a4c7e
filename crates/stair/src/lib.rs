//! STAIR codes: a general family of erasure codes for tolerating device and
//! sector failures in practical storage systems.
//!
//! This crate is a from-scratch reproduction of the code construction of
//! *Li & Lee, "STAIR Codes", FAST '14* (extended arXiv:1406.5282v2 version).
//!
//! # The model
//!
//! A stripe is an `r × n` array of sectors ("symbols"): `n` devices
//! contribute one chunk of `r` sectors each. A STAIR code with parameters
//! `(n, r, m, e)` tolerates, per stripe:
//!
//! * `m` entire chunk failures (device failures), plus
//! * sector failures in up to `m' = e.len()` of the remaining chunks, where
//!   the chunk with the `i`-th most sector failures has at most `e[m'-1-i]`
//!   of them (`e` is non-decreasing; `s = Σ e_i` is the total).
//!
//! The construction composes two systematic MDS codes — `C_row`, an
//! `(n+m', n−m)`-code across rows, and `C_col`, an `(r+e_max, r)`-code down
//! chunks — into a product-code structure ("canonical stripe") whose
//! homomorphic property yields both the fault-tolerance proof and the
//! efficient *upstairs*/*downstairs* encoding methods with parity reuse
//! (§4–§5 of the paper).
//!
//! # Quick start
//!
//! ```
//! use stair::{Config, StairCodec, Stripe};
//!
//! // A RAID-6-like array of n = 8 devices with r = 4 sectors per chunk,
//! // tolerating m = 2 device failures plus sector failures covered by
//! // e = (1, 1, 2) — the paper's running example.
//! let config = Config::new(8, 4, 2, &[1, 1, 2])?;
//! let codec: StairCodec = StairCodec::new(config.clone())?;
//!
//! // Fill a stripe with application data (512-byte sectors).
//! let mut stripe = Stripe::new(config.clone(), 512)?;
//! let payload = vec![0xA5u8; stripe.data_capacity()];
//! stripe.write_data(&payload)?;
//! codec.encode(&mut stripe)?;
//!
//! // Lose two whole devices and a sector burst elsewhere...
//! let erased = vec![
//!     (0, 6), (1, 6), (2, 6), (3, 6),     // device 6 gone
//!     (0, 7), (1, 7), (2, 7), (3, 7),     // device 7 gone
//!     (2, 2), (3, 2),                     // two-sector burst in device 2
//! ];
//! stripe.erase(&erased)?;
//! codec.decode(&mut stripe, &erased)?;
//! assert_eq!(stripe.read_data()?, payload);
//! # Ok::<(), stair_code::CodeError>(())
//! ```

#![warn(missing_docs)]

mod code_impl;
mod codec;
mod complexity;
mod config;
mod layout;
mod peel;
mod schedule;
mod space;
mod standard;
mod stripe;

pub use codec::{EncodingMethod, StairCodec};
pub use complexity::MultXorCounts;
pub use config::{Config, GlobalPlacement};
pub use layout::{Cell, CellKind, Layout};
pub use schedule::{Schedule, Step, StepCode};
pub use space::{devices_saved, storage_efficiency, SpaceComparison};
pub use stair_code::Plan;
pub use standard::ParityRelations;
pub use stripe::Stripe;
