//! GF(2^8): the default field for STAIR coding (the paper uses w = 8 for all
//! STAIR experiments, valid while `n + m' ≤ 256` and `r + e_max ≤ 256`).

use std::sync::OnceLock;

use crate::counters;
use crate::field::{sealed::Sealed, Field};
use crate::simd;
use crate::tables::{build, Tables};

/// Tag type for GF(2^8) with the primitive polynomial `x^8+x^4+x^3+x^2+1`
/// (0x11d), the same default as GF-Complete and Jerasure.
///
/// # Example
///
/// ```
/// use stair_gf::{Field, Gf8};
///
/// let a = Gf8::elem(7);
/// assert_eq!(Gf8::mul(a, Gf8::inv(a).unwrap()), Gf8::one());
/// ```
#[derive(Clone, Copy, Debug, Default, Eq, Hash, PartialEq)]
pub struct Gf8;

impl Sealed for Gf8 {}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| build(8, Gf8::POLY))
}

impl Field for Gf8 {
    type Elem = u8;

    const W: u32 = 8;
    const ORDER: usize = 256;
    const POLY: usize = 0x11d;
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
            "value {value} out of range for GF(2^8)"
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
        Some(t.exp[255 - t.log[a as usize] as usize] as u8)
    }

    #[inline]
    fn div(a: u8, b: u8) -> Option<u8> {
        let ib = Self::inv(b)?;
        Some(Self::mul(a, ib))
    }

    #[inline]
    fn exp(i: usize) -> u8 {
        tables().exp[i % 255] as u8
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
        counters::record(1, src.len());
        simd::combine(dst, &[(src, c)], true);
    }

    fn mult_region(dst: &mut [u8], src: &[u8], c: u8) {
        counters::record(1, src.len());
        simd::combine(dst, &[(src, c)], false);
    }

    fn mult_xor_regions(dst: &mut [u8], srcs: &[(&[u8], u8)]) {
        counters::record(srcs.len(), srcs.len() * dst.len());
        simd::combine(dst, srcs, true);
    }

    fn mult_regions(dst: &mut [u8], srcs: &[(&[u8], u8)]) {
        counters::record(srcs.len(), srcs.len() * dst.len());
        simd::combine(dst, srcs, false);
    }
}

/// The SPLIT(8,4) product tables of one constant `c`: `lo[x] = c·x` and
/// `hi[x] = c·(x << 4)` for every nibble `x`, so `c·b = lo[b & 15] ^
/// hi[b >> 4]`. This is GF-Complete's SPLIT table; as two 16-byte rows it is
/// also exactly the operand shape of `PSHUFB`.
pub(crate) struct Split {
    pub lo: [u8; 16],
    pub hi: [u8; 16],
}

/// [`Split`] tables of all 256 constants (8 KiB), built at compile time.
pub(crate) static SPLIT: [Split; 256] = build_split();

const fn build_split() -> [Split; 256] {
    /// `a·α` (multiply by x, reduce by the field polynomial).
    const fn xtime(a: u8) -> u8 {
        (a << 1) ^ if a & 0x80 != 0 { Gf8::POLY as u8 } else { 0 }
    }
    const ZERO: Split = Split {
        lo: [0; 16],
        hi: [0; 16],
    };
    let mut all = [ZERO; 256];
    let mut c = 0;
    while c < 256 {
        let t = &mut all[c];
        let mut x = 1;
        while x < 16 {
            // c·x = (c·⌊x/2⌋)·α + c·(x mod 2); then c·(x·α⁴) = (c·x)·α⁴.
            t.lo[x] = xtime(t.lo[x / 2]) ^ if x & 1 != 0 { c as u8 } else { 0 };
            t.hi[x] = xtime(xtime(xtime(xtime(t.lo[x]))));
            x += 1;
        }
        c += 1;
    }
    all
}

/// Multiplication by each constant `c` as an 8×8 bit matrix, in the operand
/// layout of `GF2P8AFFINEQB`: output bit `i` is the parity of `x` AND byte
/// `7 − i`, so bit `j` of byte `7 − i` is bit `i` of `c·2ʲ`. Built at compile
/// time from [`SPLIT`] (`c·2ʲ` is `lo[2ʲ]` below bit 4 and `hi[2ʲ⁻⁴]` from
/// it). The instruction's sibling `GF2P8MULB` cannot be used instead: it
/// multiplies modulo 0x11b, not this field's 0x11d.
pub(crate) static MATRIX: [u64; 256] = build_matrix(&SPLIT);

const fn build_matrix(split: &[Split; 256]) -> [u64; 256] {
    let mut all = [0u64; 256];
    let mut c = 0;
    while c < 256 {
        let mut j = 0;
        while j < 8 {
            let column = if j < 4 {
                split[c].lo[1 << j]
            } else {
                split[c].hi[1 << (j - 4)]
            };
            let mut i = 0;
            while i < 8 {
                all[c] |= (((column >> i) & 1) as u64) << (8 * (7 - i) + j);
                i += 1;
            }
            j += 1;
        }
        c += 1;
    }
    all
}

/// The portable region kernel: `dst[i] = (dst[i] if xor else 0) ^ Σ c·src[i]`
/// over bytes `from..`. It is the whole kernel where no SIMD tier applies,
/// the tail of the SIMD tiers, and the oracle the SIMD tiers are tested
/// against.
pub(crate) fn scalar_from(dst: &mut [u8], srcs: &[(&[u8], u8)], xor: bool, from: usize) {
    let dst = &mut dst[from..];
    if !xor {
        dst.fill(0);
    }
    for &(src, c) in srcs {
        assert_eq!(src.len(), from + dst.len(), "region length mismatch");
        match c {
            0 => {}
            1 => Gf8::xor_region(dst, &src[from..]),
            _ => {
                let t = &SPLIT[c as usize];
                for (d, &s) in dst.iter_mut().zip(&src[from..]) {
                    *d ^= t.lo[(s & 0x0f) as usize] ^ t.hi[(s >> 4) as usize];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Schoolbook carry-less multiply with reduction, as an oracle.
    fn slow_mul(mut a: u16, mut b: u16) -> u8 {
        let mut p = 0u16;
        while b != 0 {
            if b & 1 != 0 {
                p ^= a;
            }
            a <<= 1;
            if a & 0x100 != 0 {
                a ^= 0x11d;
            }
            b >>= 1;
        }
        p as u8
    }

    #[test]
    fn mul_matches_slow_oracle_exhaustively() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(Gf8::mul(a, b), slow_mul(a as u16, b as u16), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn every_nonzero_element_has_inverse() {
        for a in 1..=255u8 {
            let inv = Gf8::inv(a).expect("nonzero element must be invertible");
            assert_eq!(Gf8::mul(a, inv), 1);
        }
        assert_eq!(Gf8::inv(0), None);
    }

    #[test]
    fn div_undoes_mul() {
        for a in 0..=255u8 {
            for b in 1..=255u8 {
                assert_eq!(Gf8::div(Gf8::mul(a, b), b), Some(a));
            }
        }
        assert_eq!(Gf8::div(3, 0), None);
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        for a in [0u8, 1, 2, 3, 0x53, 0xff] {
            let mut acc = 1u8;
            for n in 0..20 {
                assert_eq!(Gf8::pow(a, n), if n == 0 { 1 } else { acc }, "a={a} n={n}");
                acc = Gf8::mul(acc, a);
            }
        }
        // Fermat: a^(2^8 - 1) = 1 for a != 0.
        for a in 1..=255u8 {
            assert_eq!(Gf8::pow(a, 255), 1);
        }
    }

    #[test]
    fn split_tables_match_mul() {
        for c in 0..=255u8 {
            for x in 0..16u8 {
                assert_eq!(SPLIT[c as usize].lo[x as usize], Gf8::mul(c, x));
                assert_eq!(SPLIT[c as usize].hi[x as usize], Gf8::mul(c, x << 4));
            }
        }
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "a region kernel's own test calls it"
    )]
    fn mult_xor_region_matches_scalar_loop() {
        let src: Vec<u8> = (0..=255u8).collect();
        for c in [0u8, 1, 2, 0x53, 0xe7] {
            let mut dst = vec![0xAA; 256];
            let mut expect = dst.clone();
            Gf8::mult_xor_region(&mut dst, &src, c);
            for (e, &s) in expect.iter_mut().zip(&src) {
                *e ^= Gf8::mul(c, s);
            }
            assert_eq!(dst, expect, "c={c}");
        }
    }

    #[test]
    fn mult_region_overwrites() {
        let src = [9u8; 32];
        let mut dst = [0xFF; 32];
        Gf8::mult_region(&mut dst, &src, 3);
        assert!(dst.iter().all(|&d| d == Gf8::mul(3, 9)));
        Gf8::mult_region(&mut dst, &src, 0);
        assert!(dst.iter().all(|&d| d == 0));
    }

    #[test]
    #[should_panic(expected = "region length mismatch")]
    #[expect(
        clippy::disallowed_methods,
        reason = "a region kernel's own test calls it"
    )]
    fn region_length_mismatch_panics() {
        let mut dst = [0u8; 4];
        Gf8::mult_xor_region(&mut dst, &[0u8; 5], 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn elem_out_of_range_panics() {
        let _ = Gf8::elem(256);
    }
}
