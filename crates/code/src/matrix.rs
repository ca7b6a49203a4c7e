//! Dense row-major matrices over a GF(2^w) field.
//!
//! No byte passes through a matrix: matrices build plans. [`MdsCode`]
//! holds its generator as one and solves its recovery coefficients with
//! [`Matrix::solve`]; `stair`'s peel lowers those coefficients to plan
//! steps, and `stair-sd` solves its check matrix with the same solver.
//!
//! [`MdsCode`]: crate::MdsCode

use stair_gf::Field;

/// A dense matrix over the field `F`, stored row-major: entry `(r, c)` is
/// `data[r·cols + c]`.
///
/// Arithmetic is exact field arithmetic, so Gaussian elimination only needs
/// *any* non-zero pivot.
///
/// # Example
///
/// ```
/// use stair_code::Matrix;
/// use stair_gf::{Field, Gf8};
///
/// // x + y = 3 and x + 2y = 5 over GF(2^8).
/// let a: Matrix<Gf8> = Matrix::from_fn(2, 2, |r, c| if c == 0 { 1 } else { 1 + r as u8 });
/// let b: Matrix<Gf8> = Matrix::from_fn(2, 1, |r, _| [3, 5][r]);
/// let x = a.solve(&b).expect("a has full rank");
/// for r in 0..2 {
///     assert_eq!(Gf8::add(x.get(0, 0), Gf8::mul(a.get(r, 1), x.get(1, 0))), b.get(r, 0));
/// }
/// ```
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct Matrix<F: Field> {
    rows: usize,
    cols: usize,
    data: Vec<F::Elem>,
}

impl<F: Field> Matrix<F> {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zero(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![F::zero(); rows * cols],
        }
    }

    /// Creates a matrix whose `(r, c)` entry is `f(r, c)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> F::Elem) -> Self {
        let mut m = Self::zero(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.data[r * cols + c] = f(r, c);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns the `(r, c)` entry.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> F::Elem {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c]
    }

    /// Sets the `(r, c)` entry.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: F::Elem) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c] = v;
    }

    /// A new matrix of the given rows, in order.
    ///
    /// # Panics
    ///
    /// Panics if `idx` names a row out of bounds.
    pub fn select_rows(&self, idx: &[usize]) -> Self {
        Self::from_fn(idx.len(), self.cols, |r, c| self.get(idx[r], c))
    }

    /// A new matrix of the given columns, in order.
    ///
    /// # Panics
    ///
    /// Panics if `idx` names a column out of bounds.
    pub fn select_cols(&self, idx: &[usize]) -> Self {
        Self::from_fn(self.rows, idx.len(), |r, c| self.get(r, idx[c]))
    }

    /// Solves `self · X = rhs` for the unique `X`, by Gauss–Jordan
    /// elimination of `[self | rhs]`.
    ///
    /// `self` may have more equations than unknowns. The surplus ones
    /// eliminate to zero on the left and are ignored: in an erasure
    /// recovery system they are checks relating surviving symbols only,
    /// which every codeword satisfies, so they say nothing about the
    /// unknowns.
    ///
    /// Returns `None` exactly when `self`'s rank is below its column
    /// count, i.e. when `X` is not determined.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` has a different number of rows than `self`.
    pub fn solve(&self, rhs: &Self) -> Option<Self> {
        assert_eq!(self.rows, rhs.rows, "solve: the sides' row counts differ");
        let unknowns = self.cols;
        let mut ab = Self::from_fn(self.rows, unknowns + rhs.cols, |r, c| {
            if c < unknowns {
                self.get(r, c)
            } else {
                rhs.get(r, c - unknowns)
            }
        });
        for col in 0..unknowns {
            // With full column rank, column `col` has its pivot at or
            // below row `col`; no pivot there is a rank deficit.
            let pivot = (col..ab.rows).find(|&r| ab.get(r, col) != F::zero())?;
            ab.swap_rows(col, pivot);
            ab.scale_row(col, F::inv(ab.get(col, col))?);
            for r in 0..ab.rows {
                let factor = ab.get(r, col);
                if r != col && factor != F::zero() {
                    ab.add_scaled_row(r, col, factor);
                }
            }
        }
        // Rows 0..unknowns now read `[I | X]`.
        Some(Self::from_fn(unknowns, rhs.cols, |r, c| {
            ab.get(r, unknowns + c)
        }))
    }

    fn swap_rows(&mut self, r1: usize, r2: usize) {
        for c in 0..self.cols {
            self.data.swap(r1 * self.cols + c, r2 * self.cols + c);
        }
    }

    fn scale_row(&mut self, r: usize, factor: F::Elem) {
        for c in 0..self.cols {
            self.set(r, c, F::mul(self.get(r, c), factor));
        }
    }

    /// `row[r] += factor · row[src]`: in GF(2^w) addition and subtraction
    /// coincide, so this eliminates `row[r]`'s entry in `src`'s pivot
    /// column.
    fn add_scaled_row(&mut self, r: usize, src: usize, factor: F::Elem) {
        for c in 0..self.cols {
            let v = F::add(self.get(r, c), F::mul(factor, self.get(src, c)));
            self.set(r, c, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stair_gf::Gf8;

    type M = Matrix<Gf8>;

    /// A 3×3 Cauchy block, which has full rank.
    fn cauchy3() -> M {
        M::from_fn(3, 3, |r, c| {
            Gf8::inv(Gf8::add(Gf8::elem(r), Gf8::elem(c + 3))).unwrap()
        })
    }

    /// `a · x`.
    fn mul(a: &M, x: &M) -> M {
        M::from_fn(a.rows(), x.cols(), |r, c| {
            (0..a.cols()).fold(0, |acc, k| {
                Gf8::add(acc, Gf8::mul(a.get(r, k), x.get(k, c)))
            })
        })
    }

    #[test]
    fn solve_square_system() {
        let a = cauchy3();
        let x = M::from_fn(3, 2, |r, c| Gf8::elem(5 + 2 * r + c));
        assert_eq!(a.solve(&mul(&a, &x)), Some(x));
    }

    #[test]
    fn solve_ignores_surplus_equations() {
        let x = M::from_fn(3, 1, |r, _| Gf8::elem(r + 1));
        // Six equations in three unknowns: the system twice over ...
        let a2 = cauchy3().select_rows(&[0, 1, 2, 2, 0, 1]);
        assert_eq!(a2.solve(&mul(&a2, &x)), Some(x.clone()));
        // ... and surplus rows whose right-hand side contradicts them:
        // once the unknowns are determined, they are not consulted.
        let mut b2 = mul(&a2, &x);
        b2.set(5, 0, Gf8::add(b2.get(5, 0), 1));
        assert_eq!(a2.solve(&b2), Some(x));
    }

    #[test]
    fn rank_deficit_has_no_solution() {
        // Two equal columns: rank 1 < 2 unknowns.
        let a = M::from_fn(3, 2, |r, _| Gf8::elem(r + 1));
        assert_eq!(a.solve(&M::from_fn(3, 1, |r, _| Gf8::elem(r))), None);
        // More unknowns than equations.
        let wide = cauchy3().select_rows(&[0, 1]);
        assert_eq!(wide.solve(&M::zero(2, 1)), None);
    }

    #[test]
    fn selection_keeps_the_given_order() {
        let a = M::from_fn(2, 3, |r, c| Gf8::elem(3 * r + c));
        let cols = a.select_cols(&[2, 0]);
        assert_eq!((cols.rows(), cols.cols()), (2, 2));
        assert_eq!([cols.get(0, 0), cols.get(0, 1), cols.get(1, 0)], [2, 0, 5]);
        let rows = a.select_rows(&[1, 1]);
        assert_eq!((rows.rows(), rows.cols()), (2, 3));
        assert_eq!([rows.get(0, 2), rows.get(1, 0)], [5, 3]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let _ = M::zero(2, 2).get(2, 0);
    }
}
