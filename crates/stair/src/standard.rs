//! Standard (dense) encoding and the uneven parity relations of §5.2.
//!
//! After relocating the global parities inside the stripe, each parity
//! symbol is some fixed linear combination of the data symbols. This module
//! derives that dense relation by executing an encoding schedule
//! *symbolically* (unit vectors in place of sectors), yielding:
//!
//! * the **standard encoding** method of §5.3 (each parity computed directly
//!   from its contributing data symbols, as in classical Reed–Solomon);
//! * the **update penalty** metric of §6.3 (how many parity sectors must be
//!   rewritten when one data sector changes);
//! * a machine-checkable form of **Property 5.1** (parity symbol at
//!   `(i₀, j₀)` depends only on data symbols `(i, j)` with `i ≤ i₀`,
//!   `j ≤ j₀`, with tread/riser exclusions).

use stair_code::UpdateMap;
use stair_gf::Field;

use crate::layout::{Cell, Layout};
use crate::schedule::{Canvas, Schedule};
use crate::Error;

/// The dense data→parity coefficient map of one configuration.
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct ParityRelations<F: Field> {
    data_cells: Vec<Cell>,
    parity_cells: Vec<Cell>,
    /// `coeffs[p][d]`: coefficient of data cell `d` in parity cell `p`.
    coeffs: Vec<Vec<F::Elem>>,
}

impl<F: Field> ParityRelations<F> {
    /// Derives the relations by symbolically executing `schedule`, which
    /// must compute every parity cell from the data cells and pinned-zero
    /// (or outside) globals.
    pub(crate) fn derive(layout: &Layout, schedule: &Schedule<F>, parity_cells: Vec<Cell>) -> Self {
        let data_cells = layout.data_cells();
        let basis = data_cells.len();
        let index_of = |cell: Cell| data_cells.iter().position(|&c| c == cell);
        let values = schedule.execute_symbolic(layout, basis, |cell| {
            if let Some(i) = index_of(cell) {
                let mut v = vec![F::zero(); basis];
                v[i] = F::one();
                return Some(v);
            }
            // Outside/pinned-zero globals contribute nothing to the
            // data-relative relation.
            if matches!(layout.kind(cell), crate::CellKind::OutsideGlobal { .. }) {
                return Some(vec![F::zero(); basis]);
            }
            None
        });
        let coeffs = parity_cells
            .iter()
            .map(|c| {
                values
                    .get(c)
                    .unwrap_or_else(|| panic!("parity {c:?} not computed"))
                    .clone()
            })
            .collect();
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
    pub(crate) fn update_map(&self, layout: &Layout) -> UpdateMap<F::Elem> {
        let coeff = |p: usize, d: usize| self.coeffs[p][d];
        let (data, parity) = (&self.data_cells, &self.parity_cells);
        UpdateMap::new(
            (layout.r(), layout.n()),
            F::ELEM_BYTES,
            data,
            parity,
            F::zero(),
            coeff,
        )
    }

    /// The update-penalty statistics of §6.3.
    pub fn update_penalty(&self) -> UpdatePenalty {
        let n_data = self.data_cells.len();
        let per_data: Vec<usize> = (0..n_data)
            .map(|d| self.coeffs.iter().filter(|row| row[d] != F::zero()).count())
            .collect();
        let sum: usize = per_data.iter().sum();
        UpdatePenalty {
            average: sum as f64 / n_data as f64,
            min: per_data.iter().copied().min().unwrap_or(0),
            max: per_data.iter().copied().max().unwrap_or(0),
            per_data,
        }
    }

    /// Standard encoding over byte regions: every parity cell is computed
    /// directly as its dense combination of data cells.
    pub(crate) fn encode(&self, canvas: &mut Canvas<'_>) -> Result<(), Error> {
        for (coeffs, &pcell) in self.coeffs.iter().zip(&self.parity_cells) {
            let data = self.data_cells.iter().copied().zip(coeffs.iter().copied());
            canvas.combine::<F>(pcell, data.filter(|&(_, c)| c != F::zero()));
        }
        Ok(())
    }
}

/// Update-penalty statistics: the number of parity sectors that must be
/// updated when a single data sector is modified (§6.3).
#[derive(Clone, Debug, PartialEq)]
pub struct UpdatePenalty {
    /// Mean over all data symbols — the quantity plotted in Figs. 14–15.
    pub average: f64,
    /// Cheapest data symbol to update.
    pub min: usize,
    /// Most expensive data symbol to update.
    pub max: usize,
    /// Penalty of each data symbol, in payload order.
    pub per_data: Vec<usize>,
}
