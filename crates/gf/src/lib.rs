//! Galois Field arithmetic substrate for the STAIR codes reproduction.
//!
//! STAIR codes (Li & Lee, FAST '14) perform all coding arithmetic over a
//! binary extension field GF(2^w). The paper builds on the GF-Complete
//! library; this crate is a from-scratch portable replacement providing:
//!
//! * single-element arithmetic (add/mul/div/inv/pow) via log/exp tables for
//!   GF(2^8) and GF(2^16) — see [`Gf8`], [`Gf16`];
//! * *region* kernels operating on whole sectors of bytes, most importantly
//!   [`Field::mult_xor_region`], the paper's `Mult_XOR(R1, R2, a)` primitive
//!   (§5.3): multiply region `R1` by constant `a` and XOR the product into
//!   `R2`, and [`Field::mult_xor_regions`], the fused dot product a codec
//!   issues per output sector. Region kernels use per-constant split nibble
//!   tables, the same algorithmic structure as GF-Complete's SPLIT tables;
//!   GF(2^8) runs one `VGF2P8AFFINEQB` per 64 bytes where the CPU has GFNI
//!   and AVX-512F, AVX2 `PSHUFB` over the SPLIT tables where it has AVX2
//!   (chosen at run time, no switch), and the scalar loop everywhere else;
//! * [`fletcher32`], the workspace's one checksum, tiered the same way
//!   (AVX-512BW, AVX2, portable), and [`Fletcher32`], the same sum over
//!   data that arrives in pieces;
//! * [`gf8_tier`] and [`fletcher32_tier`], naming the tier each kernel runs
//!   on this CPU;
//! * global [`counters`] tracking how many `Mult_XOR` operations were
//!   executed, so measured operation counts can be checked against the
//!   paper's analytical formulas (Eq. 5 and Eq. 6).
//!
//! # Example
//!
//! ```
//! use stair_gf::{Field, Gf8};
//!
//! let a = Gf8::elem(0x53);
//! let b = Gf8::elem(0xca);
//! let p = Gf8::mul(a, b);
//! // Multiplication forms a group on non-zero elements: division undoes it.
//! assert_eq!(Gf8::div(p, b), Some(a));
//!
//! // Region form: dst ^= 0x53 * src, one sector at a time.
//! let src = [0xca_u8; 512];
//! let mut dst = [0u8; 512];
//! Gf8::mult_xor_region(&mut dst, &src, a);
//! assert!(dst.iter().all(|&x| x == Gf8::value(p) as u8));
//! ```

// A no-panic zone: library code returns errors instead (tests may panic).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![warn(missing_docs)]

pub mod counters;
mod field;
mod fletcher;
mod gf16;
mod gf8;
// The one module of the workspace that may use `unsafe`: this crate's
// manifest denies `unsafe_code` everywhere else.
#[allow(unsafe_code)]
mod simd;
mod tables;

pub use field::Field;
pub use fletcher::{fletcher32, Fletcher32};
pub use gf16::Gf16;
pub use gf8::Gf8;
pub use simd::{fletcher32_tier, gf8_tier};
