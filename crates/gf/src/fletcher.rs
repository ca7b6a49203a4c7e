//! Fletcher-32, the workspace's one checksum: it detects latent sector
//! errors and damaged bytes; the erasure code then repairs them. Real
//! arrays use exactly this split: detection by checksum or drive error,
//! correction by redundancy.
//!
//! The store's checksum table, journal records and wire frames persist
//! its values, and the cache checks every frame it serves with it. Its SIMD tiers live
//! in `simd.rs` and compile the one body below, [`portable`], under
//! `#[target_feature]`; they cannot differ from it in value.

use crate::simd;

/// 16-bit words per row: the sums are kept per lane so a row is one
/// element-wise add, which the compiler turns into vector adds.
const LANES: usize = 16;
/// Rows per block; the sums are reduced modulo 65535 once per block.
const ROWS: usize = 256;

/// Fletcher-32 over the byte stream (odd trailing byte zero-padded).
///
/// By definition `sum1 = (sum1 + word) % 65535; sum2 = (sum2 + sum1) % 65535`
/// per little-endian 16-bit word, both starting at `0xFFFF`. The value is the
/// definition's for every input and on every tier: it is persisted in
/// checksum tables, journal records and wire frames. Runs the widest tier
/// this CPU supports ([`fletcher32_tier`](crate::fletcher32_tier) names it).
///
/// # Example
///
/// ```
/// assert_eq!(stair_gf::fletcher32(b"abcde"), 0xF04F_C729);
/// ```
pub fn fletcher32(data: &[u8]) -> u32 {
    simd::fletcher32(data)
}

/// The one Fletcher-32 body: the portable tier as it stands, and every SIMD
/// tier compiled with wider vectors.
///
/// Reduction commutes with addition, so this adds up a block of `N` words
/// first — `sum1 += Σ wᵢ`, `sum2 += N·sum1 + Σ (N − i)·wᵢ` — and reduces once
/// per block.
#[inline(always)]
pub(crate) fn portable(data: &[u8]) -> u32 {
    let (mut sum1, mut sum2) = (0xFFFFu64, 0xFFFFu64);
    for block in data.chunks(2 * LANES * ROWS) {
        // Word `i = t·LANES + l` sits in row `t`, lane `l`. With `a[l] = Σₜ w`
        // and `b[l] = Σₜ (rows − t)·w` (the running sum of `a[l]`), the
        // weight `N − i = LANES·(rows − t) − l` gives
        // `Σ (N − i)·wᵢ = Σₗ LANES·b[l] − l·a[l]`.
        //
        // No overflow: `a[l] ≤ ROWS·0xFFFF < 2²⁴` and `b[l] ≤
        // ROWS·(ROWS + 1)/2·0xFFFF < 2³²` fit the `u32` lanes (ROWS ≤ 361
        // would), and with `sum1, sum2 ≤ 0xFFFF` on entry everything below
        // stays under 2⁴¹ in `u64`.
        let mut rows = block.chunks_exact(2 * LANES);
        let words = (rows.len() * LANES) as u64;
        let (mut a, mut b) = ([0u32; LANES], [0u32; LANES]);
        for row in &mut rows {
            for l in 0..LANES {
                a[l] += u16::from_le_bytes([row[2 * l], row[2 * l + 1]]) as u32;
                b[l] += a[l];
            }
        }
        sum2 += words * sum1;
        for l in 0..LANES {
            sum1 += a[l] as u64;
            sum2 += LANES as u64 * b[l] as u64 - l as u64 * a[l] as u64;
        }
        // Under one row is left, in the data's last block only.
        let mut tail = rows.remainder().chunks_exact(2);
        for w in &mut tail {
            sum1 += u16::from_le_bytes([w[0], w[1]]) as u64;
            sum2 += sum1;
        }
        if let [last] = tail.remainder() {
            sum1 += *last as u64;
            sum2 += sum1;
        }
        sum1 %= 65535;
        sum2 %= 65535;
    }
    ((sum2 << 16) | sum1) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::{Checksum, FLETCHER_TIERS};

    /// The definition, one modulo per sum per word: what `fletcher32` was
    /// before the deferred reduction, kept as the oracle.
    fn per_word_modulo(data: &[u8]) -> u32 {
        let mut sum1: u32 = 0xFFFF;
        let mut sum2: u32 = 0xFFFF;
        let mut chunks = data.chunks_exact(2);
        for w in &mut chunks {
            let word = u16::from_le_bytes([w[0], w[1]]) as u32;
            sum1 = (sum1 + word) % 65535;
            sum2 = (sum2 + sum1) % 65535;
        }
        if let [last] = chunks.remainder() {
            sum1 = (sum1 + *last as u32) % 65535;
            sum2 = (sum2 + sum1) % 65535;
        }
        (sum2 << 16) | sum1
    }

    /// `(name, checksum)` of every tier this host can run.
    fn supported_tiers() -> impl Iterator<Item = (&'static str, Checksum)> {
        FLETCHER_TIERS
            .iter()
            .filter(|(_, supported, _)| supported())
            .map(|&(name, _, run)| (name, run))
    }

    /// xorshift bytes: neither constant nor periodic.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    /// Every tier ≡ the definition, at every length on both sides of a row
    /// (32 B) and of a block (8 KiB), odd and even, and at every source
    /// misalignment in `0..64`.
    #[test]
    fn matches_the_definition() {
        const MAX: usize = 8200;
        let data = noise(MAX, 0x5eed);
        let mut buf = vec![0u8; MAX + 64];
        for len in 0..=MAX {
            let want = per_word_modulo(&data[..len]);
            for mis in 0..64 {
                buf[mis..mis + len].copy_from_slice(&data[..len]);
                for (name, run) in supported_tiers() {
                    assert_eq!(
                        run(&buf[mis..mis + len]),
                        want,
                        "tier {name} len {len} +{mis}"
                    );
                }
            }
        }
    }

    /// All-ones words make every intermediate sum as large as it can get;
    /// the lengths sit on both sides of a row, of a block and of 1 MiB.
    #[test]
    fn no_overflow_on_saturated_input() {
        for len in [1, 2, 31, 32, 33, 8191, 8192, 8193, (1 << 20) + 31, 3 << 20] {
            let data = vec![0xFF; len];
            let want = per_word_modulo(&data);
            for (name, run) in supported_tiers() {
                assert_eq!(run(&data), want, "tier {name} len {len}");
            }
        }
    }

    #[test]
    fn detects_single_byte_changes() {
        let a = vec![1u8; 512];
        let mut b = a.clone();
        b[300] ^= 0x40;
        assert_ne!(fletcher32(&a), fletcher32(&b));
    }

    /// Values computed by the per-word-modulo loop at the commit before the
    /// deferred reduction: the sums are persisted (checksum tables, journal
    /// records, wire frames), so they may never change, on any tier.
    #[test]
    fn stable_for_known_input() {
        let ramp: Vec<u8> = (0..1 << 20).map(|i| i as u8).collect();
        for (name, run) in supported_tiers().chain([("dispatched", fletcher32 as Checksum)]) {
            assert_eq!(run(b""), 0xFFFF_FFFF, "tier {name}");
            assert_eq!(run(b"a"), 0x0061_0061, "tier {name}");
            assert_eq!(run(b"abcde"), 0xF04F_C729, "tier {name}");
            assert_eq!(run(&[0xFF; 4096]), 0, "tier {name}");
            assert_eq!(run(&ramp), 0x6844_03FC, "tier {name}");
            assert_ne!(run(b"abcde"), run(b"abcdf"), "tier {name}");
        }
    }

    #[test]
    fn odd_length_handled() {
        assert_ne!(fletcher32(&[1, 2, 3]), fletcher32(&[1, 2]));
    }
}
