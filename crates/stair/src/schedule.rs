//! Coding schedules: sequences of `C_row`/`C_col` steps, as the paper
//! writes them.
//!
//! Every STAIR operation — upstairs decoding (§4), upstairs encoding,
//! downstairs encoding (§5.1) — is a peel of the canonical stripe: an
//! ordered list of [`Step`]s, each of which recovers some cells as a
//! linear combination of already-available cells of one row (via
//! `C_row`) or one column (via `C_col`). The codec lowers each peel
//! straight to a [`stair_code::Plan`], which is what runs. A [`Schedule`]
//! is the same peel with its steps whole and their coefficient matrices
//! solved: [`Schedule::render`] prints it as the paper's Tables 2–3 do,
//! and its planned `Mult_XOR` count (`Σ |inputs|·|outputs|`) is the
//! quantity the paper's Eq. (5)/(6) predict — and the plan's.

use core::fmt::Write as _;
use std::sync::Arc;

use stair_code::CodeError;
use stair_gf::Field;
use stair_gfmatrix::Matrix;

use crate::layout::{Cell, CellKind, Layout};

/// Which constituent code a step applies, and to which row/column.
#[derive(Clone, Copy, Debug, Eq, Hash, PartialEq)]
pub enum StepCode {
    /// A `C_row` step on canonical row `i` (an original row if `i < r`, an
    /// augmented row otherwise).
    Row(usize),
    /// A `C_col` step on canonical column `j`.
    Col(usize),
}

impl StepCode {
    /// The cell at position `at` along this step's line: column `at` of
    /// the row, or row `at` of the column.
    pub(crate) fn cell(self, at: usize) -> Cell {
        match self {
            StepCode::Row(i) => (i, at),
            StepCode::Col(j) => (at, j),
        }
    }
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
    /// `|inputs| × |outputs|`, shared with the code's memo.
    pub(crate) coeff: Arc<Matrix<F>>,
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

impl<F: Field> Schedule<F> {
    /// Validates internal consistency: every step's inputs must be available
    /// before the step runs (initially-available cells or prior outputs).
    /// Exercised by debug builds only (see `Peeler::schedule`).
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    pub(crate) fn check_dataflow(
        &self,
        layout: &Layout,
        initially_available: impl Fn(Cell) -> bool,
    ) -> Result<(), CodeError> {
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
                    return Err(CodeError::InvalidPattern(format!(
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
