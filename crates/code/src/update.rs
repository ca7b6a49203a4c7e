//! The small-write footprint of a linear code: which parity cells depend
//! on each data cell, and with what coefficient.

use crate::{CellIdx, CodeError};

/// Per data cell, the parity cells its update patches and the
/// coefficient `c` of each `parity ^= c·(old ⊕ new)` — the non-zero
/// column of the codec's dense data→parity relation, extracted once at
/// construction so the small-write path neither searches nor solves per
/// call. `E` is the codec's field element.
#[derive(Clone, Debug)]
pub struct UpdateMap<E> {
    rows: usize,
    cols: usize,
    elem_bytes: usize,
    /// `slots[row·cols + col]`: the data cell's index into `parities` /
    /// `coeffs`; `None` for parity cells.
    slots: Vec<Option<usize>>,
    parities: Vec<Vec<CellIdx>>,
    coeffs: Vec<Vec<E>>,
}

impl<E: Copy + PartialEq> UpdateMap<E> {
    /// Builds the map for a `rows × cols` grid from the dense relation
    /// `coeff(p, d)` — the coefficient of `data_cells[d]` in
    /// `parity_cells[p]` — keeping the entries that differ from `zero`.
    /// Dependents keep `parity_cells`' order.
    ///
    /// # Panics
    ///
    /// Panics if a data cell lies outside the grid.
    pub fn new(
        (rows, cols): (usize, usize),
        elem_bytes: usize,
        data_cells: &[CellIdx],
        parity_cells: &[CellIdx],
        zero: E,
        coeff: impl Fn(usize, usize) -> E,
    ) -> Self {
        let mut slots = vec![None; rows * cols];
        let mut parities = Vec::with_capacity(data_cells.len());
        let mut coeffs = Vec::with_capacity(data_cells.len());
        for (d, &(row, col)) in data_cells.iter().enumerate() {
            assert!(row < rows && col < cols, "data cell outside the grid");
            slots[row * cols + col] = Some(d);
            let column = (0..parity_cells.len()).map(|p| (parity_cells[p], coeff(p, d)));
            let (cells, cs) = column.filter(|&(_, c)| c != zero).unzip();
            parities.push(cells);
            coeffs.push(cs);
        }
        UpdateMap {
            rows,
            cols,
            elem_bytes,
            slots,
            parities,
            coeffs,
        }
    }

    fn slot(&self, (row, col): CellIdx) -> Result<usize, CodeError> {
        if row >= self.rows || col >= self.cols {
            return Err(CodeError::InvalidPattern(format!(
                "({row},{col}) out of range"
            )));
        }
        self.slots[row * self.cols + col].ok_or_else(|| {
            CodeError::InvalidPattern(format!(
                "({row},{col}) is a parity sector; updates must target data"
            ))
        })
    }

    /// The parity cells an update of data cell `data` patches.
    ///
    /// # Errors
    ///
    /// [`CodeError::InvalidPattern`] if `data` is out of range or not a
    /// data cell.
    pub fn dependents(&self, data: CellIdx) -> Result<&[CellIdx], CodeError> {
        Ok(&self.parities[self.slot(data)?])
    }

    /// Folds `delta = old ⊕ new` of data cell `data` into the contents
    /// of its dependent `parity` through the field's
    /// `mult_xor(parity, delta, c)`.
    ///
    /// # Errors
    ///
    /// * [`CodeError::InvalidPattern`] if `parity` does not depend on
    ///   `data`;
    /// * [`CodeError::ShapeMismatch`] if the regions differ in length or
    ///   are not whole field elements.
    pub fn fold(
        &self,
        data: CellIdx,
        parity: CellIdx,
        delta: &[u8],
        into: &mut [u8],
        mult_xor: impl FnOnce(&mut [u8], &[u8], E),
    ) -> Result<(), CodeError> {
        let d = self.slot(data)?;
        let Some(k) = self.parities[d].iter().position(|&p| p == parity) else {
            return Err(CodeError::InvalidPattern(format!(
                "{parity:?} does not depend on {data:?}"
            )));
        };
        if delta.len() != into.len() || !delta.len().is_multiple_of(self.elem_bytes.max(1)) {
            return Err(CodeError::ShapeMismatch(format!(
                "delta is {} bytes, parity {}, field elements {}",
                delta.len(),
                into.len(),
                self.elem_bytes
            )));
        }
        mult_xor(into, delta, self.coeffs[d][k]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 2×3 toy: data (0,0),(0,1),(1,0); parities (0,2),(1,2),(1,1)
    /// with the dense relation below (0 = no dependence).
    fn toy() -> UpdateMap<u8> {
        let dense = [[3u8, 5, 0], [0, 0, 7], [2, 0, 9]];
        UpdateMap::new(
            (2, 3),
            1,
            &[(0, 0), (0, 1), (1, 0)],
            &[(0, 2), (1, 2), (1, 1)],
            0,
            |p, d| dense[p][d],
        )
    }

    #[test]
    fn dependents_are_the_nonzero_column_in_parity_order() {
        let map = toy();
        assert_eq!(map.dependents((0, 0)).unwrap(), &[(0, 2), (1, 1)]);
        assert_eq!(map.dependents((0, 1)).unwrap(), &[(0, 2)]);
        assert_eq!(map.dependents((1, 0)).unwrap(), &[(1, 2), (1, 1)]);
        for bad in [(0, 2), (1, 1), (2, 0), (0, 3)] {
            assert!(matches!(
                map.dependents(bad),
                Err(CodeError::InvalidPattern(_))
            ));
        }
    }

    #[test]
    fn fold_hands_the_pair_its_coefficient_and_checks_shapes() {
        let map = toy();
        let mut parity = [0u8; 2];
        let scale = |dst: &mut [u8], src: &[u8], c: u8| {
            for (d, s) in dst.iter_mut().zip(src) {
                *d ^= s.wrapping_mul(c);
            }
        };
        map.fold((1, 0), (1, 1), &[1, 2], &mut parity, scale)
            .unwrap();
        assert_eq!(parity, [9, 18]);
        assert!(matches!(
            map.fold((0, 1), (1, 1), &[1, 2], &mut parity, scale),
            Err(CodeError::InvalidPattern(_))
        ));
        assert!(matches!(
            map.fold((1, 0), (1, 1), &[1], &mut parity, scale),
            Err(CodeError::ShapeMismatch(_))
        ));
    }
}
