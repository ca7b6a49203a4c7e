//! Global `Mult_XOR` operation counters.
//!
//! The paper evaluates encoding methods by their number of `Mult_XOR`
//! operations per stripe (§5.3, Fig. 9). Every region multiply issued through
//! [`crate::Field::mult_xor_region`] / [`crate::Field::mult_region`]
//! increments a process-wide counter, so a caller can verify the analytical
//! formulas (Eq. 5 / Eq. 6) against what the codec actually executed:
//!
//! ```
//! use stair_gf::{counters, Field, Gf8};
//!
//! let before = counters::mult_xors();
//! let src = [7u8; 64];
//! let mut dst = [0u8; 64];
//! Gf8::mult_xor_region(&mut dst, &src, Gf8::elem(3));
//! assert_eq!(counters::mult_xors() - before, 1);
//! ```
//!
//! The counter is cumulative and shared between threads (relaxed atomics);
//! for a precise per-operation count, measure deltas on a single thread as
//! the `gf_counters` test in `stair` does.

use std::sync::atomic::{AtomicU64, Ordering};

static MULT_XORS: AtomicU64 = AtomicU64::new(0);
static REGION_BYTES: AtomicU64 = AtomicU64::new(0);

/// Records `ops` `Mult_XOR`s over `bytes` bytes in total. Called by the
/// region kernels.
#[inline]
pub(crate) fn record(ops: usize, bytes: usize) {
    MULT_XORS.fetch_add(ops as u64, Ordering::Relaxed);
    REGION_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// Total `Mult_XOR` region operations executed so far by this process.
pub fn mult_xors() -> u64 {
    MULT_XORS.load(Ordering::Relaxed)
}

/// Total bytes processed by `Mult_XOR` region operations so far.
pub fn region_bytes() -> u64 {
    REGION_BYTES.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        // Other tests may run concurrently, so only check monotonicity.
        let m0 = mult_xors();
        let b0 = region_bytes();
        record(1, 128);
        assert!(mult_xors() > m0);
        assert!(region_bytes() >= b0 + 128);
    }
}
