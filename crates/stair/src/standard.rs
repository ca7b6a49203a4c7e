//! Standard (dense) encoding and the uneven parity relations of §5.2.
//!
//! After relocating the global parities inside the stripe, each parity
//! symbol is some fixed linear combination of the data symbols. This module
//! derives that dense relation by executing an encode plan *symbolically*
//! (unit vectors in place of sectors), yielding:
//!
//! * the **standard encoding** method of §5.3 (each parity computed directly
//!   from its contributing data symbols, as in classical Reed–Solomon);
//! * the **update map** behind §6.3's update penalty (which parity sectors
//!   must be rewritten when one data sector changes, and with what
//!   coefficient);
//! * a machine-checkable form of **Property 5.1** (parity symbol at
//!   `(i₀, j₀)` depends only on data symbols `(i, j)` with `i ≤ i₀`,
//!   `j ≤ j₀`, with tread/riser exclusions).

use stair_code::{CodeError, CodecId, Plan, UpdateMap};
use stair_gf::Field;

use crate::layout::{Cell, Layout};

/// The dense data→parity coefficient map of one configuration.
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct ParityRelations<F: Field> {
    data_cells: Vec<Cell>,
    parity_cells: Vec<Cell>,
    /// `coeffs[p][d]`: coefficient of data cell `d` in parity cell `p`.
    coeffs: Vec<Vec<F::Elem>>,
}

impl<F: Field> ParityRelations<F> {
    /// Derives the relations by executing `encode` symbolically: each
    /// slot holds its coefficients over the data cells — a unit vector per
    /// data source, zero for a slot no step writes (the pinned-zero
    /// globals) — and each step combines them as it would sectors. Any
    /// encode plan gives the same relation; its targets are the parity
    /// cells.
    pub(crate) fn derive(layout: &Layout, encode: &Plan) -> Self {
        let data_cells = layout.data_cells();
        let basis = data_cells.len();
        let mut values = vec![vec![F::zero(); basis]; encode.slots().len()];
        for (slot, cell) in encode.sources().iter().enumerate() {
            // Row-major order is sorted order.
            if let Ok(d) = data_cells.binary_search(cell) {
                values[slot][d] = F::one();
            }
        }
        for (out, inputs, coeffs) in encode.steps() {
            let mut acc = vec![F::zero(); basis];
            for (&input, &c) in inputs.iter().zip(coeffs) {
                let c = F::elem(usize::from(c));
                for (a, &v) in acc.iter_mut().zip(&values[input]) {
                    *a = F::add(*a, F::mul(c, v));
                }
            }
            values[out] = acc;
        }
        let parity_cells = encode.recovers().to_vec();
        let coeffs = values.split_off(values.len() - parity_cells.len());
        ParityRelations {
            data_cells,
            parity_cells,
            coeffs,
        }
    }

    /// The data cells, in payload (row-major) order.
    pub fn data_cells(&self) -> &[Cell] {
        &self.data_cells
    }

    /// The parity cells this relation produces.
    pub fn parity_cells(&self) -> &[Cell] {
        &self.parity_cells
    }

    /// The coefficient of `data` in `parity`, or `None` if either cell is
    /// not part of this relation.
    pub fn coefficient(&self, parity: Cell, data: Cell) -> Option<F::Elem> {
        let p = self.parity_cells.iter().position(|&c| c == parity)?;
        let d = self.data_cells.iter().position(|&c| c == data)?;
        Some(self.coeffs[p][d])
    }

    /// How many data symbols contribute to the `p`-th parity cell.
    pub fn contributors(&self, p: usize) -> usize {
        self.coeffs[p].iter().filter(|&&c| c != F::zero()).count()
    }

    /// Total `Mult_XOR` cost of standard encoding: the sum over parities of
    /// their contributing data symbols (§5.3).
    pub fn standard_mult_xors(&self) -> usize {
        (0..self.parity_cells.len())
            .map(|p| self.contributors(p))
            .sum()
    }

    /// The relation transposed for the small-write path: per data cell,
    /// the parities with a non-zero coefficient (the cells §6.3 counts).
    pub(crate) fn update_map(&self, id: CodecId, layout: &Layout) -> Result<UpdateMap, CodeError> {
        let coeff = |p: usize, d: usize| F::value(self.coeffs[p][d]) as u16;
        let grid = (layout.r(), layout.n());
        UpdateMap::new(id, grid, &self.data_cells, &self.parity_cells, coeff)
    }

    /// The standard encoding method as a plan: every parity cell straight
    /// from the data cells it depends on.
    pub(crate) fn plan(&self, codec: CodecId) -> Result<Plan, CodeError> {
        let coeff = |p: usize, d: usize| F::value(self.coeffs[p][d]) as u16;
        Plan::dense(codec, self.data_cells.clone(), &self.parity_cells, coeff)
    }
}
