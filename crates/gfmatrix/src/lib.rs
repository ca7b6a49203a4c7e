//! Linear algebra over GF(2^w) for the STAIR codes reproduction.
//!
//! Provides the dense [`Matrix`] type with Gaussian elimination, inversion
//! and rectangular solving, plus the structured constructors erasure codes
//! are built from:
//!
//! * [`cauchy`] / [`cauchy_parity`] — Cauchy matrices, whose square
//!   submatrices are all nonsingular. A systematic generator `[I | A]` with a
//!   Cauchy `A` therefore yields an MDS code, the building block the paper
//!   uses for both `C_row` and `C_col` (§2, §3, [8, 38]);
//! * [`vandermonde`] — used by the SD-code baseline's `α^(l·q)` global-parity
//!   equations.
//!
//! # Example
//!
//! ```
//! use stair_gf::Gf8;
//! use stair_gfmatrix::{cauchy_parity, Matrix};
//!
//! // 4 data symbols, 2 parity symbols: any 2 erasures are recoverable
//! // because every square submatrix of the Cauchy block is invertible.
//! let a: Matrix<Gf8> = cauchy_parity(4, 2)?;
//! let gen = Matrix::identity(4).hstack(&a)?;
//! assert_eq!(gen.rows(), 4);
//! assert_eq!(gen.cols(), 6);
//! # Ok::<(), stair_gfmatrix::Error>(())
//! ```

#![warn(missing_docs)]

mod builders;
mod error;
mod matrix;

pub use builders::{cauchy, cauchy_parity, vandermonde};
pub use error::Error;
pub use matrix::Matrix;
