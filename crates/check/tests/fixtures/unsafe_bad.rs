//! True positives for L9 unsafe-confined when this file sits anywhere
//! but `crates/gf/src/simd.rs`: every `unsafe` token is a finding, with
//! or without a SAFETY comment, and as a crate root the file also lacks
//! its `unsafe_code` attribute.

pub fn first(v: &[u8]) -> u8 {
    // SAFETY: a comment does not buy an exemption outside the one module.
    unsafe { *v.as_ptr() }
}

/// # Safety
///
/// `p` must be readable.
pub unsafe fn deref(p: *const u8) -> u8 {
    *p
}

pub struct Handle(*mut u8);

unsafe impl Send for Handle {}
