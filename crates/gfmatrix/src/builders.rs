//! Structured matrix constructors used to build MDS generator matrices.

// Coordinate-indexed loops mirror the paper's (row, column) notation and
// stay symmetric with the write side; iterator adaptors would obscure that.
#![allow(clippy::needless_range_loop)]
use stair_gf::Field;

use crate::{Error, Matrix};

/// Builds the Cauchy matrix `C[i][j] = 1 / (xs[i] + ys[j])`.
///
/// Every square submatrix of a Cauchy matrix is nonsingular, which is the
/// property that makes `[I | C]` an MDS generator (Cauchy Reed-Solomon
/// codes [8, 38] in the paper's references).
///
/// # Errors
///
/// Returns [`Error::InvalidPoints`] if `xs` and `ys` are not pairwise
/// distinct across both slices (a shared value would make `x + y = 0`
/// non-invertible), or if either slice is empty.
pub fn cauchy<F: Field>(xs: &[F::Elem], ys: &[F::Elem]) -> Result<Matrix<F>, Error> {
    if xs.is_empty() || ys.is_empty() {
        return Err(Error::InvalidPoints("point sets must be non-empty".into()));
    }
    let mut all: Vec<usize> = xs.iter().chain(ys).map(|&e| F::value(e)).collect();
    all.sort_unstable();
    if all.windows(2).any(|w| w[0] == w[1]) {
        return Err(Error::InvalidPoints(
            "xs ∪ ys must be pairwise distinct".into(),
        ));
    }
    Ok(Matrix::from_fn(xs.len(), ys.len(), |i, j| {
        F::inv(F::add(xs[i], ys[j])).expect("distinct points imply non-zero sum")
    }))
}

/// Builds the `k × p` Cauchy parity block for a systematic `(k + p, k)` MDS
/// code, using the canonical points `x_i = i` and `y_j = k + j`.
///
/// The systematic generator is `[I_k | A]`; encoding multiplies the data row
/// vector by `A` to obtain the `p` parity symbols.
///
/// # Errors
///
/// Returns [`Error::InvalidPoints`] if `k + p` exceeds the field order
/// (there are not enough distinct points), or if `k` or `p` is zero.
pub fn cauchy_parity<F: Field>(k: usize, p: usize) -> Result<Matrix<F>, Error> {
    if k == 0 || p == 0 {
        return Err(Error::InvalidPoints("k and p must be positive".into()));
    }
    if k + p > F::ORDER {
        return Err(Error::InvalidPoints(format!(
            "k + p = {} exceeds field order {}",
            k + p,
            F::ORDER
        )));
    }
    let xs: Vec<F::Elem> = (0..k).map(F::elem).collect();
    let ys: Vec<F::Elem> = (k..k + p).map(F::elem).collect();
    cauchy::<F>(&xs, &ys)
}

/// Builds the `rows × xs.len()` Vandermonde-style matrix `V[i][j] = xs[j]^i`.
///
/// Used by the SD-code baseline, whose global-parity equations take
/// coefficients `α^(l·q)` over the stripe symbols (row `l` is then the `l`-th
/// power row of the point vector).
///
/// # Errors
///
/// Returns [`Error::InvalidPoints`] if `rows == 0` or `xs` is empty.
pub fn vandermonde<F: Field>(rows: usize, xs: &[F::Elem]) -> Result<Matrix<F>, Error> {
    if rows == 0 || xs.is_empty() {
        return Err(Error::InvalidPoints(
            "vandermonde needs positive dimensions".into(),
        ));
    }
    Ok(Matrix::from_fn(rows, xs.len(), |i, j| F::pow(xs[j], i)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use stair_gf::{Field, Gf8};

    #[test]
    fn cauchy_entries_match_definition() {
        let xs = [0u8, 1, 2];
        let ys = [3u8, 4];
        let c = cauchy::<Gf8>(&xs, &ys).unwrap();
        for i in 0..3 {
            for j in 0..2 {
                assert_eq!(c.get(i, j), Gf8::inv(xs[i] ^ ys[j]).unwrap());
            }
        }
    }

    #[test]
    fn cauchy_rejects_overlapping_points() {
        assert!(matches!(
            cauchy::<Gf8>(&[1, 2], &[2, 3]),
            Err(Error::InvalidPoints(_))
        ));
        assert!(matches!(
            cauchy::<Gf8>(&[1, 1], &[2]),
            Err(Error::InvalidPoints(_))
        ));
    }

    /// The defining property we rely on for MDS codes: *every* square
    /// submatrix of a Cauchy matrix is invertible.
    #[test]
    fn all_square_submatrices_nonsingular() {
        let a = cauchy_parity::<Gf8>(8, 8).unwrap();
        // All 1x1, plus a sweep of 2x2 and 3x3 submatrices.
        for r1 in 0..8 {
            for c1 in 0..8 {
                assert_ne!(a.get(r1, c1), 0);
                for r2 in r1 + 1..8 {
                    for c2 in c1 + 1..8 {
                        let sub = a.select_rows(&[r1, r2]).select_cols(&[c1, c2]);
                        assert!(sub.inverted().is_ok(), "2x2 at ({r1},{r2})x({c1},{c2})");
                    }
                }
            }
        }
    }

    #[test]
    fn cauchy_parity_range_checks() {
        // GF(2^8) has 256 points: rows + cols = 257 is one too many.
        assert!(cauchy_parity::<Gf8>(250, 6).is_ok());
        assert!(matches!(
            cauchy_parity::<Gf8>(250, 7),
            Err(Error::InvalidPoints(_))
        ));
        assert!(matches!(
            cauchy_parity::<Gf8>(0, 3),
            Err(Error::InvalidPoints(_))
        ));
    }

    #[test]
    fn vandermonde_powers() {
        let xs = [1u8, 2, 3];
        let v = vandermonde::<Gf8>(3, &xs).unwrap();
        assert_eq!(v.row(0), &[1, 1, 1]);
        assert_eq!(v.row(1), &[1, 2, 3]);
        assert_eq!(v.get(2, 1), Gf8::mul(2, 2));
    }
}
