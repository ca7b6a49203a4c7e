//! Near-misses for L9 unsafe-confined that must stay clean anywhere: the
//! word in comments, strings and longer identifiers is not the keyword.

#![forbid(unsafe_code)]

// This module has no unsafe code; `unsafe { }` here is only prose.
pub const WHY: &str = "unsafe lives in crates/gf/src/simd.rs";

/* unsafe fn in_a_block_comment() {} */
pub fn unsafe_sounding_name(not_unsafe: u8) -> u8 {
    not_unsafe
}
