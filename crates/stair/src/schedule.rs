//! Coding schedules: precomputed sequences of `C_row`/`C_col` steps.
//!
//! Every STAIR operation — upstairs decoding (§4), upstairs encoding,
//! downstairs encoding (§5.1) — is expressed as a [`Schedule`]: an ordered
//! list of [`Step`]s, each of which recovers some cells of the canonical
//! stripe as a linear combination of already-available cells of one row
//! (via `C_row`) or one column (via `C_col`).
//!
//! Schedules are built once per configuration (or per erasure pattern),
//! carry their Galois-field coefficient matrices, and are then *executed*
//! against sector-sized byte regions using the `Mult_XOR` kernel. The
//! planned `Mult_XOR` count of a schedule (`Σ |inputs|·|outputs|`) is the
//! quantity the paper's Eq. (5)/(6) predict.

use core::fmt::Write as _;

use stair_code::StripeBuf;
use stair_gf::Field;
use stair_gfmatrix::Matrix;

use crate::layout::{Cell, CellKind, Layout};
use crate::stripe::Stripe;
use crate::Error;

/// Which constituent code a step applies, and to which row/column.
#[derive(Clone, Copy, Debug, Eq, Hash, PartialEq)]
pub enum StepCode {
    /// A `C_row` step on canonical row `i` (an original row if `i < r`, an
    /// augmented row otherwise).
    Row(usize),
    /// A `C_col` step on canonical column `j`.
    Col(usize),
}

/// One step of a schedule: `outputs = inputs · coeff` over byte regions.
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct Step<F: Field> {
    /// Which code is applied, and where.
    pub code: StepCode,
    /// Cells read by this step (exactly κ of the applied code).
    pub inputs: Vec<Cell>,
    /// Cells produced by this step.
    pub outputs: Vec<Cell>,
    pub(crate) coeff: Matrix<F>,
}

impl<F: Field> Step<F> {
    /// `Mult_XOR` operations this step performs: `|inputs| · |outputs|`.
    pub fn mult_xors(&self) -> usize {
        self.inputs.len() * self.outputs.len()
    }
}

/// An ordered list of steps which, executed in order, computes every
/// output cell from initially-available cells.
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct Schedule<F: Field> {
    pub(crate) steps: Vec<Step<F>>,
}

impl<F: Field> Schedule<F> {
    /// The steps, in execution order.
    pub fn steps(&self) -> &[Step<F>] {
        &self.steps
    }

    /// Total planned `Mult_XOR` operations (the paper's cost metric, §5.3).
    pub fn mult_xors(&self) -> usize {
        self.steps.iter().map(Step::mult_xors).sum()
    }

    /// Executes the schedule over the byte regions of a [`Canvas`] — how
    /// a stripe is encoded. (Decoding runs the schedule lowered to a
    /// [`stair_code::Plan`].)
    ///
    /// A step's outputs are by construction disjoint from its inputs (an
    /// output was unavailable when its inputs were read), so writing one
    /// output never corrupts another's inputs.
    pub(crate) fn execute(&self, canvas: &mut Canvas<'_>) {
        for step in &self.steps {
            for (j, &oc) in step.outputs.iter().enumerate() {
                let inputs = step.inputs.iter().enumerate();
                canvas.combine::<F>(oc, inputs.map(|(i, &ic)| (ic, step.coeff.get(i, j))));
            }
        }
    }

    /// Renders the schedule in the style of the paper's Tables 2–3, e.g.
    ///
    /// ```text
    /// 1  d0,0, d1,0, d2,0, d3,0 => d*0,0, d*1,0   [Ccol]
    /// ```
    pub fn render(&self, layout: &Layout) -> String {
        let mut out = String::new();
        for (i, step) in self.steps.iter().enumerate() {
            let ins: Vec<String> = step.inputs.iter().map(|&c| cell_name(layout, c)).collect();
            let outs: Vec<String> = step.outputs.iter().map(|&c| cell_name(layout, c)).collect();
            let code = match step.code {
                StepCode::Row(_) => "Crow",
                StepCode::Col(_) => "Ccol",
            };
            let _ = writeln!(
                out,
                "{:>3}  {} => {}   [{}]",
                i + 1,
                ins.join(", "),
                outs.join(", "),
                code
            );
        }
        out
    }
}

/// Formats a canonical cell with the paper's symbol names: `d_{i,j}` data,
/// `p_{i,k}` row parity, `p'_{i,l}` intermediate, `g_{h,l}` outside global,
/// `g^_{h,l}` inside global, `d*`/`p*` virtual, `*` dummy.
pub(crate) fn cell_name(layout: &Layout, cell: Cell) -> String {
    let (row, col) = cell;
    let (r, n, m) = (layout.r(), layout.n(), layout.m());
    let data_cols = n - m;
    match layout.kind(cell) {
        CellKind::Data => format!("d{row},{col}"),
        CellKind::RowParity => format!("p{row},{}", col - data_cols),
        CellKind::InsideGlobal { h, l } => format!("g^{h},{l}"),
        CellKind::Intermediate => format!("p'{row},{}", col - n),
        CellKind::OutsideGlobal { h, l } => format!("g{h},{l}"),
        CellKind::Virtual => {
            if col < data_cols {
                format!("d*{},{col}", row - r)
            } else if col < n {
                format!("p*{},{}", row - r, col - data_cols)
            } else {
                format!("*{},{}", row - r, col - n)
            }
        }
    }
}

/// The byte-region workspace for encoding one stripe: stored cells live
/// in the borrowed flat [`StripeBuf`] grid; virtual cells (augmented rows,
/// intermediate chunks, and the global-parity corner) are carved from one
/// freshly zeroed arena, where the outside globals read as the zeros
/// encoding pins them to.
pub(crate) struct Canvas<'a> {
    ccols: usize,
    r: usize,
    n: usize,
    symbol: usize,
    grid: &'a mut StripeBuf,
    /// Outside-placement global buffers of the borrowed stripe (empty when
    /// the canvas wraps a bare grid or an inside-placement stripe).
    outside: &'a mut [Vec<u8>],
    /// Every canonical cell outside the stored grid, one sector each: the
    /// intermediate parities of the stored rows (`r × m'`), then the
    /// augmented rows at full canonical width (`e_max × (n + m')`).
    virt: Vec<u8>,
    /// One output sector, accumulated here before it is copied into place.
    scratch: Vec<u8>,
}

impl<'a> Canvas<'a> {
    /// Builds a canvas over a stripe, zero-initializing all virtual cells.
    pub(crate) fn new(layout: &Layout, stripe: &'a mut Stripe) -> Self {
        let (grid, outside) = stripe.parts_mut();
        Self::build(layout, grid, outside)
    }

    /// Builds a canvas directly over a bare grid — the codec-generic
    /// [`stair_code::ErasureCode`] path. Inside placement only (a bare
    /// grid has nowhere to store outside globals).
    ///
    /// # Panics
    ///
    /// Debug-asserts that the grid matches the layout's stored shape.
    pub(crate) fn over(layout: &Layout, grid: &'a mut StripeBuf) -> Self {
        debug_assert!(
            grid.has_shape(layout.r(), layout.n()),
            "grid shape does not match layout"
        );
        Self::build(layout, grid, &mut [])
    }

    fn build(layout: &Layout, grid: &'a mut StripeBuf, outside: &'a mut [Vec<u8>]) -> Self {
        let symbol = grid.symbol();
        let ccols = layout.canonical_cols();
        let n = layout.n();
        let r = layout.r();
        let virtual_cells = layout.canonical_rows() * ccols - r * n;
        Canvas {
            ccols,
            r,
            n,
            symbol,
            virt: vec![0u8; virtual_cells * symbol],
            scratch: vec![0u8; symbol],
            grid,
            outside,
        }
    }

    /// Copies the global corner back into the stripe's outside-global
    /// buffers (used after outside-placement encoding).
    pub(crate) fn export_outside_globals(&mut self, layout: &Layout) {
        for (i, &cell) in layout.outside_global_cells().iter().enumerate() {
            let at = self.virt_range(cell);
            self.outside[i].copy_from_slice(&self.virt[at]);
        }
    }

    /// The bytes of `virt` holding a canonical cell outside the stored grid.
    fn virt_range(&self, (row, col): Cell) -> std::ops::Range<usize> {
        let m_prime = self.ccols - self.n;
        let index = if row < self.r {
            row * m_prime + (col - self.n)
        } else {
            self.r * m_prime + (row - self.r) * self.ccols + col
        };
        index * self.symbol..(index + 1) * self.symbol
    }

    fn is_stored(&self, (row, col): Cell) -> bool {
        row < self.r && col < self.n
    }

    pub(crate) fn get(&self, cell: Cell) -> &[u8] {
        if self.is_stored(cell) {
            self.grid.cell(cell)
        } else {
            &self.virt[self.virt_range(cell)]
        }
    }

    /// Overwrites canonical cell `out` with `Σ coeff · cell` over `inputs`,
    /// none of which may be `out` itself.
    pub(crate) fn combine<F: Field>(
        &mut self,
        out: Cell,
        inputs: impl Iterator<Item = (Cell, F::Elem)>,
    ) {
        let mut acc = std::mem::take(&mut self.scratch);
        F::dot_regions(&mut acc, inputs.map(|(cell, c)| (self.get(cell), c)));
        if self.is_stored(out) {
            self.grid.set_cell(out, &acc);
        } else {
            let at = self.virt_range(out);
            self.virt[at].copy_from_slice(&acc);
        }
        self.scratch = acc;
    }
}

impl<F: Field> Schedule<F> {
    /// Executes the schedule *symbolically*: every canonical cell holds a
    /// dense coefficient vector over the `basis` cells, and each step
    /// propagates those vectors instead of bytes. Used to derive the
    /// standard-encoding generator (and from it, update penalties and the
    /// uneven parity relations of §5.2).
    ///
    /// `init(cell)` must return `Some(vector)` for every initially-available
    /// cell (unit vectors for data cells, zero vectors for pinned-zero
    /// globals) and `None` for cells this schedule will produce.
    pub(crate) fn execute_symbolic(
        &self,
        layout: &Layout,
        basis_len: usize,
        init: impl Fn(Cell) -> Option<Vec<F::Elem>>,
    ) -> std::collections::HashMap<Cell, Vec<F::Elem>> {
        let mut values: std::collections::HashMap<Cell, Vec<F::Elem>> = Default::default();
        for row in 0..layout.canonical_rows() {
            for col in 0..layout.canonical_cols() {
                if let Some(v) = init((row, col)) {
                    assert_eq!(v.len(), basis_len, "init vector length mismatch");
                    values.insert((row, col), v);
                }
            }
        }
        for step in &self.steps {
            for (j, &out) in step.outputs.iter().enumerate() {
                let mut acc = vec![F::zero(); basis_len];
                for (i, &ic) in step.inputs.iter().enumerate() {
                    let c = step.coeff.get(i, j);
                    if c == F::zero() {
                        continue;
                    }
                    let src = values
                        .get(&ic)
                        .unwrap_or_else(|| panic!("step input {ic:?} not yet available"));
                    for (a, &s) in acc.iter_mut().zip(src) {
                        *a = F::add(*a, F::mul(c, s));
                    }
                }
                values.insert(out, acc);
            }
        }
        values
    }

    /// Validates internal consistency: every step's inputs must be available
    /// before the step runs (initially-available cells or prior outputs).
    /// Exercised by debug builds only (see `Peeler::build`).
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    pub(crate) fn check_dataflow(
        &self,
        layout: &Layout,
        initially_available: impl Fn(Cell) -> bool,
    ) -> Result<(), Error> {
        let ccols = layout.canonical_cols();
        let idx = |c: Cell| c.0 * ccols + c.1;
        let mut avail = vec![false; layout.canonical_rows() * ccols];
        for row in 0..layout.canonical_rows() {
            for col in 0..ccols {
                if initially_available((row, col)) {
                    avail[idx((row, col))] = true;
                }
            }
        }
        for (k, step) in self.steps.iter().enumerate() {
            for &i in &step.inputs {
                if !avail[idx(i)] {
                    return Err(Error::InvalidPattern(format!(
                        "step {k} reads unavailable cell {i:?}"
                    )));
                }
            }
            for &o in &step.outputs {
                avail[idx(o)] = true;
            }
        }
        Ok(())
    }
}
