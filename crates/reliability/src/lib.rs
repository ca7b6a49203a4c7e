//! Analytical reliability models for STAIR, SD, and Reed–Solomon codes —
//! a reproduction of §7 and Appendix B of the STAIR paper.
//!
//! The model chain (Table 4 / Eqs. 7–17):
//!
//! 1. an unrecoverable bit-error rate `P_bit` gives a sector-failure
//!    probability `P_sec` (Eq. 12);
//! 2. a sector-failure model — [`SectorModel::Independent`] or
//!    [`SectorModel::Correlated`] with a Pareto burst-length distribution
//!    fitted by `(b1, α)` (Schroeder et al., the paper's ref. 41) — gives
//!    the per-chunk failure distribution
//!    `P_chk(i)` (Eqs. 13–17);
//! 3. a code's failure coverage ([`CodecSpec::covers`](stair_code::CodecSpec::covers), the one rule the
//!    codecs and the decode oracle share) gives `P_str`, the probability
//!    that a stripe in critical mode is unrecoverable (Appendix B);
//! 4. `P_arr` (Eq. 11), a Markov model (Fig. 16, Eq. 10), and the array
//!    count `N_arr` (Eq. 7) give the system MTTDL (Eq. 9).
//!
//! A code is named by its [`CodecSpec`](stair_code::CodecSpec) — the same `stair:8,16,1,1-2`
//! string the store takes. `P_str` is computed by a *general enumerator*
//! over per-chunk failure counts, so any family and coverage vector is
//! supported; the closed forms of Appendix B are also provided and tested
//! against the enumerator. [`FailureInjector`] samples the §7.1.2 models
//! chunk by chunk, and [`montecarlo::estimate_p_str`] cross-checks the
//! enumerator with it.
//!
//! # Example
//!
//! ```
//! use stair_reliability::{SectorModel, SystemParams};
//!
//! let params = SystemParams::paper_defaults();
//! let mttdl = |spec: &str| {
//!     params.mttdl_sys(&spec.parse().unwrap(), &SectorModel::Independent, 1e-14)
//! };
//! // Fig. 17(a): one extra parity sector buys > two orders of magnitude.
//! assert!(mttdl("stair:8,16,1,1") > 100.0 * mttdl("rs:8,16,1"));
//! ```

#![warn(missing_docs)]

mod burst;
mod closed_forms;
mod configure;
mod failure;
mod model;
pub mod montecarlo;
mod pstr;

pub use burst::BurstModel;
pub use closed_forms::{pstr_rs_closed, pstr_sd_closed, pstr_stair_closed};
pub use configure::{rank_coverages, recommend_e, Recommendation};
pub use failure::FailureInjector;
pub use model::{narr, storage_efficiency, SystemParams};
pub use pstr::{p_chk, p_sec, p_str, SectorModel};

/// Parses a spec in tests.
#[cfg(test)]
fn spec(text: &str) -> stair_code::CodecSpec {
    text.parse().expect("test spec parses")
}
