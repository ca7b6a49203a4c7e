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
//! * [`RsArrayCode`] — a plain Reed–Solomon array code with `m` parity
//!   devices and no sector-level protection (the paper's "traditional
//!   erasure code" baseline).
//!
//! # Example
//!
//! ```
//! use stair_code::{CodecCore, ErasureCode, ErasureSet, StripeBuf};
//! use stair_gf::Gf8;
//! use stair_sd::SdCode;
//!
//! // n = 6 devices, r = 4 sectors/chunk, 1 parity device + 2 parity sectors.
//! let code: SdCode<Gf8> = SdCode::new(6, 4, 1, 2)?;
//! let g = code.geometry();
//! let mut stripe = StripeBuf::new(4, 6, 64)?;
//! stripe.write_cells(&g.data_cells, &vec![3; g.data_cells.len() * 64])?;
//! code.encode(&mut stripe)?;
//!
//! // Any one device plus any two extra sectors may fail.
//! let lost = ErasureSet::new([(0, 5), (1, 5), (2, 5), (3, 5), (2, 0), (0, 3)]);
//! let pristine = stripe.clone();
//! stripe.erase(lost.cells());
//! code.apply(&code.plan(&lost)?, &mut stripe)?;
//! assert_eq!(stripe, pristine);
//! # Ok::<(), stair_code::CodeError>(())
//! ```

#![warn(missing_docs)]

mod rs_array;
mod sd;

pub use rs_array::RsArrayCode;
pub use sd::SdCode;
