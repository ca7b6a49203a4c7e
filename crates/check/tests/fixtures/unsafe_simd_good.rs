//! Clean for L9 unsafe-confined at `crates/gf/src/simd.rs`: every
//! `unsafe` is justified directly above its statement or item.

pub fn first(v: &[u8]) -> u8 {
    assert!(!v.is_empty());
    // SAFETY: `v` is non-empty (asserted above), so its first byte is
    // readable.
    unsafe { *v.as_ptr() }
}

pub fn sum(v: &[u8]) -> u32 {
    let mut acc = 0u32;
    for i in 0..v.len() {
        // SAFETY: `i < v.len()`.
        acc += unsafe { *v.as_ptr().add(i) } as u32;
    }
    acc
}

/// Reads one byte.
///
/// # Safety
///
/// `p` must be readable.
#[inline]
pub unsafe fn deref(p: *const u8) -> u8 {
    // SAFETY: the caller guarantees `p` is readable.
    unsafe { *p }
}
