//! A storage-array simulator for exercising STAIR codes end to end.
//!
//! The paper's reliability analysis (§7) is driven by *field* failure data
//! [1, 41] that is not publicly available; the paper itself reduces that
//! data to fitted models (independent sector failures, and Pareto-tailed
//! failure bursts parameterized by `(b1, α)`). This crate simulates those
//! models so the same code paths can be exercised synthetically:
//!
//! * [`StorageArray`] — a byte-level array of `n` devices holding many
//!   STAIR-coded stripes, with device failure, latent-sector-error, and
//!   burst injection, plus scrubbing and rebuild (§8's operational
//!   context for erasure codes);
//! * [`FailureInjector`] — samples sector failures from the independent or
//!   correlated models of §7.1.2;
//! * [`montecarlo`] — Monte-Carlo estimation of the stripe-loss probability
//!   `P_str`, used to cross-validate the analytical enumerator in
//!   `stair-reliability`;
//! * [`parallel`] — multi-threaded stripe encoding/repair (stripes are
//!   independent, §2).
//!
//! # Example
//!
//! ```
//! use stair::Config;
//! use stair_arraysim::StorageArray;
//!
//! let config = Config::new(8, 16, 2, &[1, 2])?;
//! let mut array = StorageArray::new(config, 512, 16)?;
//! array.write_blocks(0xAB)?;
//!
//! array.fail_device(3);
//! array.inject_burst(7, 5, 6, 2); // stripe 7, device 5, sectors 6..8
//! array.repair_all()?;
//! assert!(array.verify_blocks(0xAB).is_ok());
//! # Ok::<(), stair_arraysim::Error>(())
//! ```

#![warn(missing_docs)]

mod array;
mod error;
mod failure;
pub mod montecarlo;
pub mod parallel;

pub use array::{ScrubReport, StorageArray};
pub use error::Error;
pub use failure::FailureInjector;
