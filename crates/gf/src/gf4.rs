//! GF(2^4): a tiny field used mainly by exhaustive tests, where the full
//! multiplication table (16×16) can be checked against an oracle instantly.

use std::sync::OnceLock;

use crate::counters;
use crate::field::{sealed::Sealed, Field};
use crate::tables::{build, Tables};

/// Tag type for GF(2^4) with the primitive polynomial `x^4+x+1` (0x13).
///
/// Elements occupy one byte each in region buffers, but region kernels treat
/// *both* nibbles of each byte as independent GF(2^4) elements (packed
/// layout), so arbitrary byte data round-trips through region arithmetic.
///
/// # Example
///
/// ```
/// use stair_gf::{Field, Gf4};
///
/// assert_eq!(Gf4::mul(Gf4::elem(9), Gf4::elem(13)), Gf4::elem(0xf));
/// ```
#[derive(Clone, Copy, Debug, Default, Eq, Hash, PartialEq)]
pub struct Gf4;

impl Sealed for Gf4 {}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| build(4, Gf4::POLY))
}

impl Field for Gf4 {
    type Elem = u8;

    const W: u32 = 4;
    const ORDER: usize = 16;
    const POLY: usize = 0x13;
    const ELEM_BYTES: usize = 1;

    #[inline]
    fn zero() -> u8 {
        0
    }

    #[inline]
    fn one() -> u8 {
        1
    }

    #[inline]
    fn elem(value: usize) -> u8 {
        assert!(
            value < Self::ORDER,
            "value {value} out of range for GF(2^4)"
        );
        value as u8
    }

    #[inline]
    fn value(e: u8) -> usize {
        e as usize
    }

    #[inline]
    fn add(a: u8, b: u8) -> u8 {
        a ^ b
    }

    #[inline]
    fn mul(a: u8, b: u8) -> u8 {
        if a == 0 || b == 0 {
            return 0;
        }
        let t = tables();
        t.exp[(t.log[a as usize] + t.log[b as usize]) as usize] as u8
    }

    #[inline]
    fn inv(a: u8) -> Option<u8> {
        if a == 0 {
            return None;
        }
        let t = tables();
        Some(t.exp[15 - t.log[a as usize] as usize] as u8)
    }

    #[inline]
    fn div(a: u8, b: u8) -> Option<u8> {
        let ib = Self::inv(b)?;
        Some(Self::mul(a, ib))
    }

    #[inline]
    fn exp(i: usize) -> u8 {
        tables().exp[i % 15] as u8
    }

    #[inline]
    fn log(a: u8) -> Option<usize> {
        if a == 0 {
            None
        } else {
            Some(tables().log[a as usize] as usize)
        }
    }

    fn mult_xor_region(dst: &mut [u8], src: &[u8], c: u8) {
        assert_eq!(dst.len(), src.len(), "region length mismatch");
        counters::record(1, src.len());
        if c == 0 {
            return;
        }
        let table = packed_table(c);
        for (d, &s) in dst.iter_mut().zip(src) {
            *d ^= table[s as usize];
        }
    }

    fn mult_region(dst: &mut [u8], src: &[u8], c: u8) {
        assert_eq!(dst.len(), src.len(), "region length mismatch");
        counters::record(1, src.len());
        if c == 0 {
            dst.fill(0);
            return;
        }
        let table = packed_table(c);
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = table[s as usize];
        }
    }
}

/// Builds the 256-entry table mapping a packed byte (two GF(2^4) nibbles) to
/// the packed product of both nibbles with the constant `c`.
fn packed_table(c: u8) -> [u8; 256] {
    let mut table = [0u8; 256];
    let mut nib = [0u8; 16];
    for (x, n) in nib.iter_mut().enumerate() {
        *n = Gf4::mul(c, x as u8);
    }
    for (b, t) in table.iter_mut().enumerate() {
        *t = nib[b & 0x0f] | (nib[b >> 4] << 4);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slow_mul(mut a: u8, mut b: u8) -> u8 {
        let mut p = 0u8;
        while b != 0 {
            if b & 1 != 0 {
                p ^= a;
            }
            a <<= 1;
            if a & 0x10 != 0 {
                a ^= 0x13;
            }
            b >>= 1;
        }
        p
    }

    #[test]
    fn mul_matches_slow_oracle_exhaustively() {
        for a in 0..16u8 {
            for b in 0..16u8 {
                assert_eq!(Gf4::mul(a, b), slow_mul(a, b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn inverses_exist_and_round_trip() {
        for a in 1..16u8 {
            assert_eq!(Gf4::mul(a, Gf4::inv(a).unwrap()), 1);
        }
    }

    #[test]
    fn packed_region_multiplies_both_nibbles() {
        let src = [0x5Au8, 0x0F, 0xF0, 0x33];
        let mut dst = [0u8; 4];
        Gf4::mult_xor_region(&mut dst, &src, 7);
        for (d, s) in dst.iter().zip(&src) {
            let want = Gf4::mul(7, s & 0x0f) | (Gf4::mul(7, s >> 4) << 4);
            assert_eq!(*d, want);
        }
    }
}
