//! Baseline erasure codes the STAIR paper compares against.
//!
//! * [`SdCode`] — sector-disk (SD) codes [32, 33]: `m` parity devices plus
//!   `s` parity sectors per stripe, tolerating any `m` device failures plus
//!   any `s` sector failures. Built from the Blaum–Plank check-equation
//!   construction; encoded "in a decoding manner without any parity reuse",
//!   exactly like the open-source SD implementation the paper benchmarks
//!   against (§6.2). The construction is a candidate, not a proof: over
//!   GF(2^8) the shipped `sd:8,16,2,3` refuses some patterns its coverage
//!   promises (`tests/coverage_oracle.rs` pins how many).
//! * [`IdrScheme`] — intra-device redundancy [11, 12, 41]: each chunk
//!   carries its own `(r, r−ε)` code, plus `m` device-level parity chunks.
//! * [`RsArrayCode`] — a plain Reed–Solomon array code with `m` parity
//!   devices and no sector-level protection (the paper's "traditional
//!   erasure code" baseline).
//!
//! # Example
//!
//! ```
//! use stair_gf::Gf8;
//! use stair_sd::{SdCode, SdStripe};
//!
//! // n = 6 devices, r = 4 sectors/chunk, 1 parity device + 2 parity sectors.
//! let code: SdCode<Gf8> = SdCode::new(6, 4, 1, 2)?;
//! let mut stripe = SdStripe::new(&code, 64);
//! stripe.fill_pattern(3);
//! code.encode(&mut stripe)?;
//!
//! // Any one device plus any two extra sectors may fail.
//! let erased = vec![(0, 5), (1, 5), (2, 5), (3, 5), (2, 0), (0, 3)];
//! let pristine = stripe.clone();
//! stripe.erase(&erased);
//! code.decode(&mut stripe, &erased)?;
//! assert_eq!(stripe, pristine);
//! # Ok::<(), stair_sd::Error>(())
//! ```

#![warn(missing_docs)]

mod error;
mod idr;
mod rs_array;
mod sd;

pub use error::Error;
pub use idr::IdrScheme;
pub use rs_array::RsArrayCode;
pub use sd::{SdCode, SdStripe};
