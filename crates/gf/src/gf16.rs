//! GF(2^16): needed by the SD-code baseline whenever its global-parity
//! coefficients `α^(r·j + i)` must be distinct for `n·r > 2^8 − 1` symbols
//! per stripe (the paper notes SD codes "may choose among w = 8, 16, 32,
//! depending on configuration parameters", §6.2.1).

// Coordinate-indexed loops mirror the paper's (row, column) notation and
// stay symmetric with the write side; iterator adaptors would obscure that.
#![allow(clippy::needless_range_loop)]
use std::sync::OnceLock;

use crate::counters;
use crate::field::{sealed::Sealed, Field};
use crate::tables::{build, Tables};

/// Tag type for GF(2^16) with the primitive polynomial
/// `x^16+x^12+x^3+x+1` (0x1100b), the GF-Complete default.
///
/// Region buffers hold little-endian `u16` elements, so region lengths must
/// be even.
///
/// # Example
///
/// ```
/// use stair_gf::{Field, Gf16};
///
/// let a = Gf16::elem(0xbeef);
/// assert_eq!(Gf16::div(Gf16::mul(a, Gf16::elem(2)), Gf16::elem(2)), Some(a));
/// ```
#[derive(Clone, Copy, Debug, Default, Eq, Hash, PartialEq)]
pub struct Gf16;

impl Sealed for Gf16 {}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| build(16, Gf16::POLY))
}

impl Field for Gf16 {
    type Elem = u16;

    const W: u32 = 16;
    const ORDER: usize = 65536;
    const POLY: usize = 0x1100b;
    const ELEM_BYTES: usize = 2;

    #[inline]
    fn zero() -> u16 {
        0
    }

    #[inline]
    fn one() -> u16 {
        1
    }

    #[inline]
    fn elem(value: usize) -> u16 {
        assert!(
            value < Self::ORDER,
            "value {value} out of range for GF(2^16)"
        );
        value as u16
    }

    #[inline]
    fn value(e: u16) -> usize {
        e as usize
    }

    #[inline]
    fn add(a: u16, b: u16) -> u16 {
        a ^ b
    }

    #[inline]
    fn mul(a: u16, b: u16) -> u16 {
        if a == 0 || b == 0 {
            return 0;
        }
        let t = tables();
        t.exp[(t.log[a as usize] + t.log[b as usize]) as usize] as u16
    }

    #[inline]
    fn inv(a: u16) -> Option<u16> {
        if a == 0 {
            return None;
        }
        let t = tables();
        Some(t.exp[65535 - t.log[a as usize] as usize] as u16)
    }

    #[inline]
    fn div(a: u16, b: u16) -> Option<u16> {
        let ib = Self::inv(b)?;
        Some(Self::mul(a, ib))
    }

    #[inline]
    fn exp(i: usize) -> u16 {
        tables().exp[i % 65535] as u16
    }

    #[inline]
    fn log(a: u16) -> Option<usize> {
        if a == 0 {
            None
        } else {
            Some(tables().log[a as usize] as usize)
        }
    }

    fn mult_xor_region(dst: &mut [u8], src: &[u8], c: u16) {
        assert_eq!(dst.len(), src.len(), "region length mismatch");
        assert_eq!(
            dst.len() % 2,
            0,
            "GF(2^16) regions must hold whole u16 elements"
        );
        counters::record(1, src.len());
        match c {
            0 => {}
            1 => Self::xor_region(dst, src),
            _ => {
                let nib = nibble_tables(c);
                for (d, s) in dst.chunks_exact_mut(2).zip(src.chunks_exact(2)) {
                    let x = u16::from_le_bytes([s[0], s[1]]) as usize;
                    let p = nib[0][x & 0xf]
                        ^ nib[1][(x >> 4) & 0xf]
                        ^ nib[2][(x >> 8) & 0xf]
                        ^ nib[3][x >> 12];
                    let cur = u16::from_le_bytes([d[0], d[1]]);
                    d.copy_from_slice(&(cur ^ p).to_le_bytes());
                }
            }
        }
    }

    fn mult_region(dst: &mut [u8], src: &[u8], c: u16) {
        assert_eq!(dst.len(), src.len(), "region length mismatch");
        assert_eq!(
            dst.len() % 2,
            0,
            "GF(2^16) regions must hold whole u16 elements"
        );
        counters::record(1, src.len());
        match c {
            0 => dst.fill(0),
            1 => dst.copy_from_slice(src),
            _ => {
                let nib = nibble_tables(c);
                for (d, s) in dst.chunks_exact_mut(2).zip(src.chunks_exact(2)) {
                    let x = u16::from_le_bytes([s[0], s[1]]) as usize;
                    let p = nib[0][x & 0xf]
                        ^ nib[1][(x >> 4) & 0xf]
                        ^ nib[2][(x >> 8) & 0xf]
                        ^ nib[3][x >> 12];
                    d.copy_from_slice(&p.to_le_bytes());
                }
            }
        }
    }
}

/// SPLIT(16,4) product tables: `nib[k][x] = c · (x << 4k)`, so the product of
/// `c` with any u16 is the XOR of four table lookups.
fn nibble_tables(c: u16) -> [[u16; 16]; 4] {
    let mut nib = [[0u16; 16]; 4];
    for k in 0..4 {
        for x in 0..16u16 {
            nib[k][x as usize] = Gf16::mul(c, x << (4 * k));
        }
    }
    nib
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slow_mul(mut a: u32, mut b: u32) -> u16 {
        let mut p = 0u32;
        while b != 0 {
            if b & 1 != 0 {
                p ^= a;
            }
            a <<= 1;
            if a & 0x10000 != 0 {
                a ^= 0x1100b;
            }
            b >>= 1;
        }
        p as u16
    }

    #[test]
    fn mul_matches_slow_oracle_on_sampled_pairs() {
        // Exhaustive would be 2^32 pairs; sample a deterministic grid plus
        // boundary values instead.
        let samples: Vec<u16> = (0..64)
            .map(|i| (i * 1031) as u16)
            .chain([0, 1, 2, 0x8000, 0xffff])
            .collect();
        for &a in &samples {
            for &b in &samples {
                assert_eq!(Gf16::mul(a, b), slow_mul(a as u32, b as u32), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn exp_has_full_period() {
        assert_eq!(Gf16::exp(0), 1);
        assert_eq!(Gf16::exp(65535), 1);
        assert_ne!(
            Gf16::exp(21845),
            1,
            "α must not have order dividing 3·5·17·257/…"
        );
    }

    #[test]
    fn inverse_round_trip_sampled() {
        for a in (1..=65535u16).step_by(257) {
            assert_eq!(Gf16::mul(a, Gf16::inv(a).unwrap()), 1);
        }
    }

    #[test]
    fn region_ops_match_scalar() {
        let src: Vec<u8> = (0..128u8).collect();
        let mut dst = vec![0x55u8; 128];
        let mut expect = dst.clone();
        let c = 0x1234u16;
        Gf16::mult_xor_region(&mut dst, &src, c);
        for (d, s) in expect.chunks_exact_mut(2).zip(src.chunks_exact(2)) {
            let x = u16::from_le_bytes([s[0], s[1]]);
            let cur = u16::from_le_bytes([d[0], d[1]]);
            d.copy_from_slice(&(cur ^ Gf16::mul(c, x)).to_le_bytes());
        }
        assert_eq!(dst, expect);
    }

    #[test]
    #[should_panic(expected = "whole u16")]
    fn odd_region_length_panics() {
        let mut dst = [0u8; 3];
        Gf16::mult_xor_region(&mut dst, &[0u8; 3], 5);
    }
}
