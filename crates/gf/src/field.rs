//! The [`Field`] trait: the interface every GF(2^w) implementation exposes.

use core::fmt::Debug;
use core::hash::Hash;

pub(crate) mod sealed {
    /// Prevents downstream crates from implementing [`super::Field`]; the
    /// rest of the workspace relies on the algebraic guarantees of the two
    /// fields shipped here.
    pub trait Sealed {}
}

/// A binary extension field GF(2^w) with log/exp arithmetic and sector-sized
/// region kernels.
///
/// This trait is *sealed*: it is implemented only by [`crate::Gf8`]
/// and [`crate::Gf16`]. Implementations are zero-sized
/// "tag" types; all methods are associated functions.
///
/// Addition in GF(2^w) is bitwise XOR (every element is its own additive
/// inverse), and the non-zero elements form a cyclic multiplicative group
/// generated by `α = 2` for the reduction polynomials chosen here.
///
/// # Example
///
/// ```
/// use stair_gf::{Field, Gf8};
///
/// // α^i wraps modulo the group order 2^w − 1.
/// assert_eq!(Gf8::exp(255), Gf8::exp(0));
/// assert_eq!(Gf8::log(Gf8::one()), Some(0));
/// ```
pub trait Field:
    sealed::Sealed + Copy + Debug + Default + Eq + Hash + Send + Sync + 'static
{
    /// The element representation: `u8` for w ≤ 8, `u16` for w = 16.
    type Elem: Copy + Debug + Default + Eq + Ord + Hash + Send + Sync + 'static;

    /// Field width `w` in bits.
    const W: u32;

    /// Number of field elements, `2^w`.
    const ORDER: usize;

    /// The primitive reduction polynomial (including the leading `x^w` term).
    const POLY: usize;

    /// How many bytes one element occupies inside a region buffer.
    const ELEM_BYTES: usize;

    /// The additive identity.
    fn zero() -> Self::Elem;

    /// The multiplicative identity.
    fn one() -> Self::Elem;

    /// Converts an integer in `0..ORDER` into a field element.
    ///
    /// # Panics
    ///
    /// Panics if `value >= Self::ORDER`.
    fn elem(value: usize) -> Self::Elem;

    /// Converts a field element back to its integer value in `0..ORDER`.
    fn value(e: Self::Elem) -> usize;

    /// Field addition (bitwise XOR). Subtraction is identical.
    fn add(a: Self::Elem, b: Self::Elem) -> Self::Elem;

    /// Field multiplication.
    fn mul(a: Self::Elem, b: Self::Elem) -> Self::Elem;

    /// Multiplicative inverse; `None` for the zero element.
    fn inv(a: Self::Elem) -> Option<Self::Elem>;

    /// Field division `a / b`; `None` when `b` is zero.
    fn div(a: Self::Elem, b: Self::Elem) -> Option<Self::Elem>;

    /// `α^i` where `α = 2` is the group generator; the exponent wraps modulo
    /// `ORDER − 1`.
    fn exp(i: usize) -> Self::Elem;

    /// Discrete logarithm base `α`; `None` for the zero element.
    fn log(a: Self::Elem) -> Option<usize>;

    /// `a^n` through the log/exp tables (`a^n = α^(n·log a)`).
    fn pow(a: Self::Elem, n: usize) -> Self::Elem {
        if n == 0 {
            return Self::one();
        }
        match Self::log(a) {
            None => Self::zero(),
            // Reduce the exponent before multiplying so `la * n` cannot
            // overflow even for GF(2^16) logs and very large n.
            Some(la) => Self::exp(la * (n % (Self::ORDER - 1)) % (Self::ORDER - 1)),
        }
    }

    /// The paper's `Mult_XOR(R1, R2, a)` primitive (§5.3): computes
    /// `dst[i] ^= c * src[i]` element-wise over two equal-length regions.
    ///
    /// Each call increments the global [`crate::counters`] `Mult_XOR` count
    /// by one, matching how the paper counts encoding cost per stripe.
    ///
    /// # Panics
    ///
    /// Panics if `dst.len() != src.len()` or if the length is not a multiple
    /// of [`Self::ELEM_BYTES`].
    fn mult_xor_region(dst: &mut [u8], src: &[u8], c: Self::Elem);

    /// The fused dot product `dst[i] ^= Σ c * src[i]` over every `(src, c)`
    /// of `srcs` — what a codec does to produce one output sector. Counts
    /// one `Mult_XOR` per source, exactly as the equivalent sequence of
    /// [`Self::mult_xor_region`] calls (the default implementation) does;
    /// a field may override it to pass over `dst` once instead of once per
    /// source.
    ///
    /// # Panics
    ///
    /// As [`Self::mult_xor_region`], for any source.
    #[expect(
        clippy::disallowed_methods,
        reason = "the kernels' own default: the fused form over the single-term one"
    )]
    fn mult_xor_regions(dst: &mut [u8], srcs: &[(&[u8], Self::Elem)]) {
        for &(src, c) in srcs {
            Self::mult_xor_region(dst, src, c);
        }
    }

    /// The fused dot product that overwrites: `dst[i] = Σ c * src[i]` over
    /// every `(src, c)` of `srcs` (zeros when `srcs` is empty). Counts as
    /// [`Self::mult_xor_regions`] does. The default zero-fills `dst` and
    /// accumulates into it; a field may override it to write `dst` in one
    /// pass without reading it.
    ///
    /// # Panics
    ///
    /// As [`Self::mult_xor_region`], for any source.
    #[expect(
        clippy::disallowed_methods,
        reason = "the kernels' own default: the overwriting form over the accumulating one"
    )]
    fn mult_regions(dst: &mut [u8], srcs: &[(&[u8], Self::Elem)]) {
        dst.fill(0);
        Self::mult_xor_regions(dst, srcs);
    }

    /// Computes `dst[i] = c * src[i]` element-wise (overwriting `dst`).
    ///
    /// # Panics
    ///
    /// Panics if `dst.len() != src.len()` or if the length is not a multiple
    /// of [`Self::ELEM_BYTES`].
    fn mult_region(dst: &mut [u8], src: &[u8], c: Self::Elem);

    /// XORs `src` into `dst` (multiplication by one, but cheaper).
    ///
    /// # Panics
    ///
    /// Panics if `dst.len() != src.len()`.
    fn xor_region(dst: &mut [u8], src: &[u8]) {
        assert_eq!(dst.len(), src.len(), "region length mismatch");
        for (d, s) in dst.iter_mut().zip(src) {
            *d ^= s;
        }
    }
}
