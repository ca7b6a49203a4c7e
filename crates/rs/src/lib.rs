//! Systematic Cauchy Reed–Solomon MDS codes.
//!
//! The paper's STAIR construction composes two systematic MDS codes (§2):
//! `C_row`, an `(n+m', n−m)`-code applied across stripe rows, and `C_col`,
//! an `(r+e_max, r)`-code applied down chunks. Both are instantiated here as
//! Cauchy Reed–Solomon codes [8, 38]: the generator matrix is `[I | A]`
//! with `A` a Cauchy block, which makes any `κ` of the `η` codeword symbols
//! sufficient to recover the rest (the MDS property).
//!
//! [`MdsCode`] exposes both element-level arithmetic (used to derive
//! coefficient schedules) and sector-sized *region* operations built on the
//! `Mult_XOR` kernel of [`stair_gf`], which is how real stripes are encoded
//! and repaired.
//!
//! # Example
//!
//! ```
//! use stair_gf::Gf8;
//! use stair_rs::MdsCode;
//!
//! // A (6,4)-code: 4 data symbols, 2 parity symbols.
//! let code: MdsCode<Gf8> = MdsCode::new(6, 4)?;
//! let data = [1u8, 2, 3, 4];
//! let parity = code.encode_elems(&data)?;
//!
//! // Erase any two symbols; the remaining four always suffice.
//! let mut codeword: Vec<Option<u8>> = data.iter().copied().map(Some).collect();
//! codeword.extend(parity.iter().copied().map(Some));
//! codeword[1] = None;
//! codeword[4] = None;
//! let recovered = code.decode_elems(&codeword)?;
//! assert_eq!(&recovered[..4], &data);
//! # Ok::<(), stair_code::CodeError>(())
//! ```

#![warn(missing_docs)]

mod code;

pub use code::MdsCode;
