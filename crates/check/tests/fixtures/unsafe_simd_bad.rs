//! True positives for L9 unsafe-confined at `crates/gf/src/simd.rs`:
//! inside the one module, `unsafe` still needs its justification.

pub fn first(v: &[u8]) -> u8 {
    // Violation: a comment, but not a SAFETY one.
    unsafe { *v.as_ptr() }
}

pub fn second(v: &[u8]) -> u8 {
    // SAFETY: covers only the statement below it...
    let p = unsafe { v.as_ptr().add(1) };
    // Violation: ...not this one, across the `;`.
    unsafe { *p }
}

/// Violation: documented, but not what its caller must guarantee.
pub unsafe fn deref(p: *const u8) -> u8 {
    // SAFETY: the caller's problem.
    unsafe { *p }
}
