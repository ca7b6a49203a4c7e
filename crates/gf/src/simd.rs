//! The workspace's two byte kernels and their SIMD tiers: the GF(2^8)
//! region kernel and Fletcher-32.
//!
//! This is the only module of the workspace that contains `unsafe`: vector
//! loads and stores go through raw pointers, and a `#[target_feature]`
//! function may only be entered once the CPU is known to have the feature.
//! Everything else stays safe code, and the compiler holds that line: the
//! workspace lint table forbids `unsafe_code` in every other crate, this
//! crate's own table denies it outside this module (`#[allow]`ed at its
//! `mod` line), and the same table makes an `unsafe` block without a
//! `// SAFETY:` comment, an unsafe operation outside a block inside an
//! `unsafe fn`, and a public `unsafe fn` without a `# Safety` section
//! errors. A private `unsafe fn` (like `span` below) is not checked for its
//! `# Safety` section — write it anyway.
//!
//! One region kernel serves `Gf8::mult_xor_region`, `Gf8::mult_region` and
//! `Gf8::mult_xor_regions`:
//!
//! ```text
//! dst[i] = (dst[i] if xor else 0) ^ Σ c·src[i]   over every (src, c)
//! ```
//!
//! The GFNI tier multiplies 64 bytes by `c` with one `VGF2P8AFFINEQB`, `c`'s
//! 8×8 bit matrix ([`crate::gf8::MATRIX`]) broadcast to every lane, and
//! keeps each 512-byte slice of `dst` in registers across all sources. The
//! AVX2 tier multiplies 32 bytes at a time with two `PSHUFB` lookups into
//! the SPLIT(8,4) tables ([`crate::gf8::SPLIT`]) and keeps 256 bytes of
//! `dst` in registers. Either way `dst` is read and written once however
//! many sources there are. The scalar loop ([`crate::gf8::scalar_from`]) is
//! the tier of last resort, the tail handler of the SIMD tiers, and the
//! oracle they are tested against.
//!
//! Fletcher-32 has one body, [`crate::fletcher::portable`]; its SIMD tiers
//! are that body compiled under `#[target_feature]`, which lets the
//! compiler turn its sixteen 32-bit lanes into one AVX-512 or two AVX2
//! vectors.
//!
//! There is no switch: [`combine`] and [`fletcher32`] run the first tier of
//! [`TIERS`] and [`FLETCHER_TIERS`] that the CPU supports, decided by
//! `is_x86_feature_detected!`, and [`gf8_tier`] and [`fletcher32_tier`]
//! name the tier they run from the same tables.

use crate::fletcher::portable;
use crate::gf8::scalar_from;

/// A region kernel (see the module docs for what it computes).
///
/// Panics unless every source is as long as `dst`.
pub(crate) type Kernel = fn(dst: &mut [u8], srcs: &[(&[u8], u8)], xor: bool);

/// A Fletcher-32 implementation.
pub(crate) type Checksum = fn(data: &[u8]) -> u32;

/// One implementation of a byte kernel: its name, whether this CPU can run
/// it, and the kernel itself (which panics where it is not supported).
pub(crate) type Tier<K> = (&'static str, fn() -> bool, K);

/// Every region-kernel tier compiled into this build, fastest first.
pub(crate) static TIERS: &[Tier<Kernel>] = &[
    #[cfg(target_arch = "x86_64")]
    ("gfni", gfni::supported, gfni::run),
    #[cfg(target_arch = "x86_64")]
    ("avx2", avx2::supported, avx2::run),
    ("scalar", || true, scalar),
];

/// Every Fletcher-32 tier compiled into this build, fastest first.
pub(crate) static FLETCHER_TIERS: &[Tier<Checksum>] = &[
    #[cfg(target_arch = "x86_64")]
    ("avx512bw", fletcher::avx512bw_supported, fletcher::avx512bw),
    #[cfg(target_arch = "x86_64")]
    ("avx2", fletcher::avx2_supported, fletcher::avx2),
    ("portable", || true, portable),
];

fn scalar(dst: &mut [u8], srcs: &[(&[u8], u8)], xor: bool) {
    scalar_from(dst, srcs, xor, 0)
}

/// The first tier of `tiers` this CPU supports (the last supports any).
fn dispatch<K>(tiers: &'static [Tier<K>]) -> Option<&'static Tier<K>> {
    tiers.iter().find(|(_, supported, _)| supported())
}

/// Runs the fastest supported region-kernel tier.
pub(crate) fn combine(dst: &mut [u8], srcs: &[(&[u8], u8)], xor: bool) {
    dispatch(TIERS).map_or(scalar as Kernel, |&(_, _, run)| run)(dst, srcs, xor)
}

/// Runs the fastest supported Fletcher-32 tier.
pub(crate) fn fletcher32(data: &[u8]) -> u32 {
    dispatch(FLETCHER_TIERS).map_or(portable as Checksum, |&(_, _, run)| run)(data)
}

/// The GF(2^8) region-kernel tier this CPU runs: `"gfni"`, `"avx2"` or
/// `"scalar"`.
pub fn gf8_tier() -> &'static str {
    dispatch(TIERS).map_or("scalar", |&(name, _, _)| name)
}

/// The Fletcher-32 tier this CPU runs: `"avx512bw"`, `"avx2"` or
/// `"portable"`.
pub fn fletcher32_tier() -> &'static str {
    dispatch(FLETCHER_TIERS).map_or("portable", |&(name, _, _)| name)
}

#[cfg(target_arch = "x86_64")]
mod gfni {
    use core::arch::x86_64::*;

    use crate::gf8::{scalar_from, MATRIX};

    pub(super) fn supported() -> bool {
        is_x86_feature_detected!("gfni") && is_x86_feature_detected!("avx512f")
    }

    pub(super) fn run(dst: &mut [u8], srcs: &[(&[u8], u8)], xor: bool) {
        assert!(
            supported(),
            "the gfni tier needs a CPU with GFNI and AVX-512F"
        );
        // SAFETY: `kernel` requires GFNI and AVX-512F, which the assert above
        // just saw.
        unsafe { kernel(dst, srcs, xor) }
    }

    #[target_feature(enable = "gfni,avx512f")]
    fn kernel(dst: &mut [u8], srcs: &[(&[u8], u8)], xor: bool) {
        let len = dst.len();
        assert!(
            srcs.iter().all(|(src, _)| src.len() == len),
            "region length mismatch"
        );
        // Eight vectors (512 bytes) of `dst` per step, then single vectors,
        // then bytes.
        let wide = len - len % (8 * VEC);
        let narrow = len - len % VEC;
        // SAFETY: `0 <= wide <= narrow <= len`, every source is `len` bytes
        // long (asserted above), and both spans are whole multiples of their
        // step.
        unsafe {
            span::<8>(dst.as_mut_ptr(), srcs, xor, 0, wide);
            span::<1>(dst.as_mut_ptr(), srcs, xor, wide, narrow);
        }
        scalar_from(dst, srcs, xor, narrow);
    }

    /// Bytes per vector.
    const VEC: usize = 64;

    /// The kernel over bytes `from..to`, `N` vectors of `dst` at a time: each
    /// `N·VEC`-byte slice of `dst` is loaded (or zeroed) once, stays in
    /// registers while every source is multiplied into it, and is stored
    /// once.
    ///
    /// # Safety
    ///
    /// `from..to` must lie inside the allocation behind `dst` and inside
    /// every source, and `to - from` must be a multiple of `N·VEC`.
    #[target_feature(enable = "gfni,avx512f")]
    unsafe fn span<const N: usize>(
        dst: *mut u8,
        srcs: &[(&[u8], u8)],
        xor: bool,
        from: usize,
        to: usize,
    ) {
        for at in (from..to).step_by(N * VEC) {
            let mut acc = [_mm512_setzero_si512(); N];
            if xor {
                for (i, a) in acc.iter_mut().enumerate() {
                    // SAFETY: `at + N·VEC <= to`, which the caller keeps
                    // inside `dst`; unaligned loads need no alignment.
                    *a = unsafe { _mm512_loadu_si512(dst.add(at + i * VEC).cast()) };
                }
            }
            for &(src, c) in srcs {
                if c == 0 {
                    continue;
                }
                // The same matrix in each 64-bit lane: the affine transform
                // works lane by lane.
                let m = _mm512_set1_epi64(MATRIX[c as usize] as i64);
                for (i, a) in acc.iter_mut().enumerate() {
                    // SAFETY: `at + N·VEC <= to`, which the caller keeps
                    // inside every source.
                    let s = unsafe { _mm512_loadu_si512(src.as_ptr().add(at + i * VEC).cast()) };
                    *a = _mm512_xor_si512(*a, _mm512_gf2p8affine_epi64_epi8::<0>(s, m));
                }
            }
            for (i, a) in acc.iter().enumerate() {
                // SAFETY: the same in-bounds bytes of `dst` as loaded above.
                unsafe { _mm512_storeu_si512(dst.add(at + i * VEC).cast(), *a) };
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use core::arch::x86_64::*;

    use crate::gf8::{scalar_from, SPLIT};

    pub(super) fn supported() -> bool {
        is_x86_feature_detected!("avx2")
    }

    pub(super) fn run(dst: &mut [u8], srcs: &[(&[u8], u8)], xor: bool) {
        assert!(supported(), "the avx2 tier needs an AVX2 CPU");
        // SAFETY: `kernel` requires AVX2, which the assert above just saw.
        unsafe { kernel(dst, srcs, xor) }
    }

    #[target_feature(enable = "avx2")]
    fn kernel(dst: &mut [u8], srcs: &[(&[u8], u8)], xor: bool) {
        let len = dst.len();
        assert!(
            srcs.iter().all(|(src, _)| src.len() == len),
            "region length mismatch"
        );
        // Eight vectors (256 bytes) of `dst` per step leave room for the
        // tables and temporaries in the sixteen registers and amortise each
        // source's table loads; then single vectors, then bytes.
        let wide = len - len % (8 * VEC);
        let narrow = len - len % VEC;
        // SAFETY: `0 <= wide <= narrow <= len`, every source is `len` bytes
        // long (asserted above), and both spans are whole multiples of their
        // step.
        unsafe {
            span::<8>(dst.as_mut_ptr(), srcs, xor, 0, wide);
            span::<1>(dst.as_mut_ptr(), srcs, xor, wide, narrow);
        }
        scalar_from(dst, srcs, xor, narrow);
    }

    /// Bytes per vector.
    const VEC: usize = 32;

    /// The kernel over bytes `from..to`, `N` vectors of `dst` at a time: each
    /// `N·VEC`-byte slice of `dst` is loaded (or zeroed) once, stays in
    /// registers while every source is multiplied into it, and is stored
    /// once.
    ///
    /// # Safety
    ///
    /// `from..to` must lie inside the allocation behind `dst` and inside
    /// every source, and `to - from` must be a multiple of `N·VEC`.
    #[target_feature(enable = "avx2")]
    unsafe fn span<const N: usize>(
        dst: *mut u8,
        srcs: &[(&[u8], u8)],
        xor: bool,
        from: usize,
        to: usize,
    ) {
        let nibble = _mm256_set1_epi8(0x0f);
        for at in (from..to).step_by(N * VEC) {
            let mut acc = [_mm256_setzero_si256(); N];
            if xor {
                for (i, a) in acc.iter_mut().enumerate() {
                    // SAFETY: `at + N·VEC <= to`, which the caller keeps
                    // inside `dst`; unaligned loads need no alignment.
                    *a = unsafe { _mm256_loadu_si256(dst.add(at + i * VEC).cast()) };
                }
            }
            for &(src, c) in srcs {
                if c == 0 {
                    continue;
                }
                let t = &SPLIT[c as usize];
                // SAFETY: `t.lo` and `t.hi` are `[u8; 16]`: exactly one
                // unaligned 128-bit load each.
                let (lo, hi) = unsafe {
                    (
                        _mm256_broadcastsi128_si256(_mm_loadu_si128(t.lo.as_ptr().cast())),
                        _mm256_broadcastsi128_si256(_mm_loadu_si128(t.hi.as_ptr().cast())),
                    )
                };
                for (i, a) in acc.iter_mut().enumerate() {
                    // SAFETY: `at + N·VEC <= to`, which the caller keeps
                    // inside every source.
                    let s = unsafe { _mm256_loadu_si256(src.as_ptr().add(at + i * VEC).cast()) };
                    *a = _mm256_xor_si256(*a, product(s, lo, hi, nibble));
                }
            }
            for (i, a) in acc.iter().enumerate() {
                // SAFETY: the same in-bounds bytes of `dst` as loaded above.
                unsafe { _mm256_storeu_si256(dst.add(at + i * VEC).cast(), *a) };
            }
        }
    }

    /// `c·s` for 32 bytes: `lo[s & 15] ^ hi[s >> 4]`, each a `PSHUFB`.
    #[target_feature(enable = "avx2")]
    fn product(s: __m256i, lo: __m256i, hi: __m256i, nibble: __m256i) -> __m256i {
        let l = _mm256_and_si256(s, nibble);
        let h = _mm256_and_si256(_mm256_srli_epi64::<4>(s), nibble);
        _mm256_xor_si256(_mm256_shuffle_epi8(lo, l), _mm256_shuffle_epi8(hi, h))
    }
}

/// Fletcher-32's SIMD tiers: the portable body, compiled for wider vectors.
#[cfg(target_arch = "x86_64")]
mod fletcher {
    use crate::fletcher::portable;

    pub(super) fn avx512bw_supported() -> bool {
        is_x86_feature_detected!("avx512bw")
    }

    pub(super) fn avx512bw(data: &[u8]) -> u32 {
        assert!(
            avx512bw_supported(),
            "the avx512bw tier needs an AVX-512BW CPU"
        );
        // SAFETY: `wide` requires AVX-512BW, which the assert above just saw.
        unsafe { wide(data) }
    }

    #[target_feature(enable = "avx512bw")]
    fn wide(data: &[u8]) -> u32 {
        portable(data)
    }

    pub(super) fn avx2_supported() -> bool {
        is_x86_feature_detected!("avx2")
    }

    pub(super) fn avx2(data: &[u8]) -> u32 {
        assert!(avx2_supported(), "the avx2 tier needs an AVX2 CPU");
        // SAFETY: `narrow` requires AVX2, which the assert above just saw.
        unsafe { narrow(data) }
    }

    #[target_feature(enable = "avx2")]
    fn narrow(data: &[u8]) -> u32 {
        portable(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gf8::MATRIX;
    use crate::{counters, Field, Gf8};

    const LENS: [usize; 14] = [0, 1, 15, 16, 31, 32, 33, 63, 64, 65, 511, 4095, 4096, 4097];

    /// Deterministic filler that is neither constant nor periodic in 256.
    fn noise(len: usize, seed: usize) -> Vec<u8> {
        (0..len)
            .map(|i| ((i * 131 + seed * 31 + (i >> 8)) ^ (seed >> 3)) as u8)
            .collect()
    }

    /// `(name, kernel)` of every tier this host can run.
    fn supported_tiers() -> impl Iterator<Item = (&'static str, Kernel)> {
        TIERS
            .iter()
            .filter(|(_, supported, _)| supported())
            .map(|&(name, _, run)| (name, run))
    }

    #[test]
    fn dispatch_prefers_the_first_supported_tier() {
        assert_eq!(TIERS.last().map(|t| t.0), Some("scalar"));
        assert_eq!(FLETCHER_TIERS.last().map(|t| t.0), Some("portable"));
        assert_eq!(supported_tiers().next().map(|t| t.0), Some(gf8_tier()));
        #[cfg(target_arch = "x86_64")]
        {
            let avx2 = is_x86_feature_detected!("avx2");
            let gf8 = if is_x86_feature_detected!("gfni") && is_x86_feature_detected!("avx512f") {
                "gfni"
            } else if avx2 {
                "avx2"
            } else {
                "scalar"
            };
            assert_eq!(gf8_tier(), gf8);
            let fletcher = if is_x86_feature_detected!("avx512bw") {
                "avx512bw"
            } else if avx2 {
                "avx2"
            } else {
                "portable"
            };
            assert_eq!(fletcher32_tier(), fletcher);
        }
    }

    /// `GF2P8AFFINEQB` on one byte, by its definition: output bit `i` is the
    /// parity of `x` AND byte `7 − i` of the matrix.
    fn affine(matrix: u64, x: u8) -> u8 {
        (0..8).fold(0, |out, i| {
            let row = (matrix >> (8 * (7 - i))) as u8;
            out | ((((row & x).count_ones() & 1) as u8) << i)
        })
    }

    /// The GFNI tier's matrices, checked on every host, GFNI or not: the
    /// instruction's software model applied to `MATRIX[c]` is multiplication
    /// by `c`, for all 65 536 pairs.
    #[test]
    fn affine_matrices_multiply() {
        for c in 0..=255u8 {
            for x in 0..=255u8 {
                assert_eq!(affine(MATRIX[c as usize], x), Gf8::mul(c, x), "c={c} x={x}");
            }
        }
    }

    /// Every tier ≡ the scalar oracle, for `mult_xor_region` (`xor`) and
    /// `mult_region` (`!xor`): all 256 constants × the boundary lengths ×
    /// every `dst` and every `src` misalignment in `0..64`.
    #[test]
    fn every_tier_matches_the_scalar_oracle() {
        let max = LENS[LENS.len() - 1];
        let src_buf = noise(max + 64, 1);
        let dst_buf = noise(max + 64, 2);
        for c in 0..=255u8 {
            for len in LENS {
                for mis in 0..64 {
                    // 5·mis + 1 mod 64 is a permutation: each side sees
                    // every misalignment, in different pairings.
                    let (d_off, s_off) = (mis, (5 * mis + 1) % 64);
                    let src = &src_buf[s_off..s_off + len];
                    for xor in [true, false] {
                        let mut want = dst_buf.clone();
                        scalar(&mut want[d_off..d_off + len], &[(src, c)], xor);
                        for (name, run) in supported_tiers() {
                            let mut got = dst_buf.clone();
                            run(&mut got[d_off..d_off + len], &[(src, c)], xor);
                            // Whole buffer: also proves nothing outside the
                            // region was written.
                            assert!(
                                got == want,
                                "tier {name} c={c} len={len} dst+{d_off} src+{s_off} xor={xor}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The fused form ≡ the equivalent sequence of `mult_xor_region` calls,
    /// in result and in `Mult_XOR` count, on every tier and through the
    /// public dispatching entry point.
    #[test]
    fn fused_matches_the_sequence_of_single_calls() {
        for k in [0usize, 1, 6, 8, 17] {
            for len in LENS {
                let bufs: Vec<Vec<u8>> = (0..k).map(|i| noise(len, 10 + i)).collect();
                // Includes the special constants 0 and 1.
                let srcs: Vec<(&[u8], u8)> = bufs
                    .iter()
                    .enumerate()
                    .map(|(i, b)| (b.as_slice(), (i * 37 % 256) as u8))
                    .collect();
                let start = noise(len, 3);
                let mut want = start.clone();
                for &(src, c) in &srcs {
                    scalar(&mut want, &[(src, c)], true);
                }
                for (name, run) in supported_tiers() {
                    let mut got = start.clone();
                    run(&mut got, &srcs, true);
                    assert!(got == want, "tier {name} k={k} len={len}");
                }
                let mut got = start.clone();
                Gf8::mult_xor_regions(&mut got, &srcs);
                assert!(got == want, "dispatched k={k} len={len}");
            }
        }
    }

    #[test]
    fn fused_counts_one_mult_xor_per_source() {
        // Other tests run concurrently and only ever add, so bound from below
        // here; `crates/stair/tests/gf_counters.rs` pins exact counts in a
        // process of its own.
        let bufs = [[1u8; 64], [2u8; 64], [3u8; 64]];
        let srcs: Vec<(&[u8], u8)> = bufs.iter().map(|b| (b.as_slice(), 0)).collect();
        let (ops, bytes) = (counters::mult_xors(), counters::region_bytes());
        Gf8::mult_xor_regions(&mut [0u8; 64], &srcs);
        assert!(counters::mult_xors() >= ops + 3);
        assert!(counters::region_bytes() >= bytes + 3 * 64);
    }

    #[test]
    #[should_panic(expected = "region length mismatch")]
    fn every_source_must_match_dst_in_length() {
        Gf8::mult_xor_regions(&mut [0u8; 64], &[(&[0u8; 64], 3), (&[0u8; 96], 5)]);
    }
}
