//! The peeling scheduler: builds upstairs/downstairs schedules by
//! iteratively finding rows/columns of the canonical stripe with enough
//! available cells to recover the rest.
//!
//! This single engine generalizes all three schedule shapes of the paper:
//!
//! * **upstairs decoding** (§4.2): columns left→right, then augmented rows,
//!   with whole stored-row `C_row` recovery as the last resort — exactly the
//!   order of the worked example in Fig. 4 / Table 2;
//! * **upstairs encoding** (§5.1.1): the same order, with the parity cells
//!   declared "erased" and the outside globals pinned to zero;
//! * **downstairs encoding** (§5.1.2): stored rows top→bottom, then
//!   intermediate columns right→left — the order of Fig. 6 / Table 3.
//!
//! The raw peel recovers *every* recoverable cell it encounters; a
//! backwards pruning pass then keeps only what the requested targets
//! need, which reproduces the paper's "recover only the symbols that will
//! later be used" optimization (§4.2.1).
//!
//! Planning costs what the targets need, too: peeling and pruning work
//! on availability and step *shapes* alone (which cells a step reads and
//! produces), and recovery coefficients — a Gaussian elimination each —
//! are solved only for the steps, and the outputs of those steps, that
//! survive pruning. `G_A⁻¹·G_W` restricted to some columns of `W` is
//! `G_A⁻¹·G_{W'}`, so the schedule is the one solving first would give.

use stair_gf::Field;
use stair_rs::MdsCode;

use crate::layout::{Cell, Layout};
use crate::schedule::{Schedule, Step, StepCode};
use crate::Error;

/// Pass ordering for the peeler.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub(crate) enum PeelOrder {
    /// Columns left→right, augmented rows top→bottom; whole stored rows only
    /// when nothing else makes progress (upstairs, §4.2).
    Upstairs,
    /// Stored rows top→bottom, then intermediate columns right→left
    /// (downstairs, §5.1.2). Never uses augmented rows of the first `n`
    /// columns.
    Downstairs,
}

/// A step before its coefficients are solved.
struct Shape {
    code: StepCode,
    inputs: Vec<Cell>,
    outputs: Vec<Cell>,
}

pub(crate) struct Peeler<'a, F: Field> {
    layout: &'a Layout,
    crow: &'a MdsCode<F>,
    ccol: &'a MdsCode<F>,
    available: Vec<bool>,
    /// Available cells per canonical row and per canonical column: a line
    /// that cannot make a step costs a comparison, not a scan.
    row_avail: Vec<usize>,
    col_avail: Vec<usize>,
    /// Columns excluded from `C_col` recovery. The paper always recovers the
    /// `m` "failed" chunks row-by-row *last* (§4.2.2 step 3); modelling that
    /// exclusion keeps schedule costs exactly on the Eq. (5) formula.
    no_col: Vec<bool>,
    shapes: Vec<Shape>,
}

impl<'a, F: Field> Peeler<'a, F> {
    pub(crate) fn new(
        layout: &'a Layout,
        crow: &'a MdsCode<F>,
        ccol: &'a MdsCode<F>,
        available: Vec<bool>,
    ) -> Self {
        let (crows, ccols) = (layout.canonical_rows(), layout.canonical_cols());
        debug_assert_eq!(available.len(), crows * ccols);
        let mut row_avail = vec![0; crows];
        let mut col_avail = vec![0; ccols];
        for (at, _) in available.iter().enumerate().filter(|(_, &a)| a) {
            row_avail[at / ccols] += 1;
            col_avail[at % ccols] += 1;
        }
        Peeler {
            layout,
            crow,
            ccol,
            available,
            row_avail,
            col_avail,
            no_col: vec![false; ccols],
            shapes: Vec::new(),
        }
    }

    /// Marks columns that must be recovered by `C_row` steps only (the
    /// designated "failed chunks").
    pub(crate) fn with_excluded_cols(mut self, cols: &[usize]) -> Self {
        for &c in cols {
            self.no_col[c] = true;
        }
        self
    }

    fn idx(&self, cell: Cell) -> usize {
        cell.0 * self.layout.canonical_cols() + cell.1
    }

    /// Peels, prunes to the targets, and solves what is left.
    pub(crate) fn build(
        mut self,
        targets: &[Cell],
        order: PeelOrder,
    ) -> Result<Schedule<F>, Error> {
        #[cfg(debug_assertions)]
        let initial = self.available.clone();
        match order {
            PeelOrder::Upstairs => self.run_upstairs(),
            PeelOrder::Downstairs => self.run_downstairs(),
        }
        let remaining = targets
            .iter()
            .filter(|&&t| !self.available[self.idx(t)])
            .count();
        if remaining > 0 {
            return Err(Error::Unrecoverable { remaining });
        }
        self.prune(targets);
        let steps = std::mem::take(&mut self.shapes).into_iter();
        let steps = steps.map(|s| self.solve(s)).collect::<Result<_, _>>()?;
        let schedule = Schedule { steps };
        #[cfg(debug_assertions)]
        schedule
            .check_dataflow(self.layout, |c| {
                initial[c.0 * self.layout.canonical_cols() + c.1]
            })
            .expect("pruned schedule must remain topologically valid");
        Ok(schedule)
    }

    fn run_upstairs(&mut self) {
        let r = self.layout.r();
        let crows = self.layout.canonical_rows();
        let ccols = self.layout.canonical_cols();
        loop {
            let mut progress = false;
            for j in 0..ccols {
                progress |= self.try_step(StepCode::Col(j));
            }
            for i in r..crows {
                progress |= self.try_step(StepCode::Row(i));
            }
            if !progress {
                let mut last_resort = false;
                for i in 0..r {
                    last_resort |= self.try_step(StepCode::Row(i));
                }
                if !last_resort {
                    return;
                }
            }
        }
    }

    fn run_downstairs(&mut self) {
        let r = self.layout.r();
        let n = self.layout.n();
        let ccols = self.layout.canonical_cols();
        loop {
            let mut progress = false;
            // Only cells in stored rows are ever produced by the
            // downstairs order.
            for i in 0..r {
                progress |= self.try_step(StepCode::Row(i));
            }
            for j in (n..ccols).rev() {
                progress |= self.try_step(StepCode::Col(j));
            }
            if !progress {
                return;
            }
        }
    }

    /// One `C_row` recovery on a canonical row (needs `n − m` available
    /// cells) or `C_col` recovery on a canonical column (needs `r`): the
    /// first κ available cells of the line produce all its unknown ones.
    fn try_step(&mut self, code: StepCode) -> bool {
        let (k, len, have) = match code {
            StepCode::Row(i) => (
                self.crow.data_len(),
                self.layout.canonical_cols(),
                self.row_avail[i],
            ),
            StepCode::Col(j) if self.no_col[j] => return false,
            StepCode::Col(j) => (
                self.ccol.data_len(),
                self.layout.canonical_rows(),
                self.col_avail[j],
            ),
        };
        if have < k || have == len {
            return false;
        }
        let line = (0..len).map(|x| match code {
            StepCode::Row(i) => (i, x),
            StepCode::Col(j) => (x, j),
        });
        let (mut inputs, outputs): (Vec<Cell>, Vec<Cell>) =
            line.partition(|&c| self.available[self.idx(c)]);
        inputs.truncate(k);
        for &(row, col) in &outputs {
            let at = self.idx((row, col));
            self.available[at] = true;
            self.row_avail[row] += 1;
            self.col_avail[col] += 1;
        }
        self.shapes.push(Shape {
            code,
            inputs,
            outputs,
        });
        true
    }

    /// Drops every output (and every step) the `targets` do not need,
    /// walking the steps backwards (§4.2.1: "we only need to recover the
    /// symbols that will later be used").
    fn prune(&mut self, targets: &[Cell]) {
        let mut needed = vec![false; self.available.len()];
        for &t in targets {
            needed[self.idx(t)] = true;
        }
        let mut kept = Vec::with_capacity(self.shapes.len());
        for mut shape in std::mem::take(&mut self.shapes).into_iter().rev() {
            shape.outputs.retain(|&o| needed[self.idx(o)]);
            if shape.outputs.is_empty() {
                continue;
            }
            for &i in &shape.inputs {
                needed[self.idx(i)] = true;
            }
            kept.push(shape);
        }
        kept.reverse();
        self.shapes = kept;
    }

    /// Solves a shape's recovery coefficients, making it a step.
    fn solve(&self, shape: Shape) -> Result<Step<F>, Error> {
        let along = |cells: &[Cell]| -> Vec<usize> {
            let pick = |&(row, col): &Cell| match shape.code {
                StepCode::Row(_) => col,
                StepCode::Col(_) => row,
            };
            cells.iter().map(pick).collect()
        };
        let code = match shape.code {
            StepCode::Row(_) => self.crow,
            StepCode::Col(_) => self.ccol,
        };
        let coeff = code.recovery_coefficients(&along(&shape.inputs), &along(&shape.outputs))?;
        Ok(Step {
            code: shape.code,
            inputs: shape.inputs,
            outputs: shape.outputs,
            coeff,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_availability, encode_availability};
    use crate::{Config, GlobalPlacement};
    use stair_gf::Gf8;

    /// The planner this one replaced, kept as the oracle: solve every
    /// raw step in full, then prune by dropping coefficient columns.
    fn solve_then_prune(
        mut peeler: Peeler<'_, Gf8>,
        targets: &[Cell],
        order: PeelOrder,
    ) -> Schedule<Gf8> {
        match order {
            PeelOrder::Upstairs => peeler.run_upstairs(),
            PeelOrder::Downstairs => peeler.run_downstairs(),
        }
        let mut needed = vec![false; peeler.available.len()];
        for &t in targets {
            needed[peeler.idx(t)] = true;
        }
        let mut steps = Vec::new();
        for shape in std::mem::take(&mut peeler.shapes).into_iter().rev() {
            let mut step = peeler.solve(shape).unwrap();
            let keep: Vec<usize> = (0..step.outputs.len())
                .filter(|&j| needed[peeler.idx(step.outputs[j])])
                .collect();
            if keep.is_empty() {
                continue;
            }
            step.outputs = keep.iter().map(|&j| step.outputs[j]).collect();
            step.coeff = step.coeff.select_cols(&keep);
            for &i in &step.inputs {
                needed[peeler.idx(i)] = true;
            }
            steps.push(step);
        }
        steps.reverse();
        Schedule { steps }
    }

    struct Parts {
        layout: Layout,
        crow: MdsCode<Gf8>,
        ccol: MdsCode<Gf8>,
    }

    impl Parts {
        fn new(placement: GlobalPlacement) -> Self {
            let config = Config::with_placement(8, 4, 2, &[1, 1, 2], placement).unwrap();
            Parts {
                layout: Layout::new(&config),
                crow: MdsCode::new(8 + 3, 6).unwrap(),
                ccol: MdsCode::new(4 + 2, 4).unwrap(),
            }
        }

        fn peeler(&self, available: Vec<bool>, excluded: &[usize]) -> Peeler<'_, Gf8> {
            Peeler::new(&self.layout, &self.crow, &self.ccol, available)
                .with_excluded_cols(excluded)
        }

        /// Both planners on one decode problem; returns the schedule
        /// they agree on.
        fn decode(&self, erased: &[Cell], wanted: &[Cell], excluded: &[usize]) -> Schedule<Gf8> {
            let mut available = decode_availability(&self.layout);
            for &(row, col) in erased {
                available[row * self.layout.canonical_cols() + col] = false;
            }
            let old = solve_then_prune(
                self.peeler(available.clone(), excluded),
                wanted,
                PeelOrder::Upstairs,
            );
            let new = self
                .peeler(available, excluded)
                .build(wanted, PeelOrder::Upstairs)
                .unwrap();
            assert_eq!(new, old, "erased {erased:?} wanted {wanted:?}");
            new
        }
    }

    /// Fig. 4's worst case: chunks 6 and 7 failed, sector failures at
    /// the bottom of chunks 3, 4 and 5 (Table 2 decodes it).
    fn worst_case() -> Vec<Cell> {
        (0..4)
            .flat_map(|i| [(i, 6), (i, 7)])
            .chain([(3, 3), (3, 4), (2, 5), (3, 5)])
            .collect()
    }

    #[test]
    fn worked_examples_plan_step_for_step_as_before() {
        for placement in [GlobalPlacement::Outside, GlobalPlacement::Inside] {
            let parts = Parts::new(placement);
            let erased = worst_case();
            // Table 2's twelve steps, whole ...
            let full = parts.decode(&erased, &erased, &[6, 7]);
            assert_eq!(full.steps().len(), 12);
            // ... and pruned to every single lost sector in turn.
            for &cell in &erased {
                let one = parts.decode(&erased, &[cell], &[6, 7]);
                assert!(one.mult_xors() < full.mult_xors());
            }
        }
    }

    #[test]
    fn encode_schedules_plan_step_for_step_as_before() {
        let parts = Parts::new(GlobalPlacement::Inside);
        let targets = parts.layout.parity_cells();
        let available = encode_availability(&parts.layout);
        for (order, excluded) in [
            (PeelOrder::Upstairs, &[6, 7][..]),
            (PeelOrder::Downstairs, &[][..]),
        ] {
            let old = solve_then_prune(parts.peeler(available.clone(), excluded), &targets, order);
            let new = parts.peeler(available.clone(), excluded);
            assert_eq!(new.build(&targets, order).unwrap(), old);
        }
    }

    #[test]
    fn random_patterns_and_wanted_subsets_plan_as_before() {
        let parts = Parts::new(GlobalPlacement::Inside);
        let mut state = 0x5EED_u64;
        let mut below = |n: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % n
        };
        for _ in 0..200 {
            // Up to m = 2 whole chunks, plus a burst of up to e_max = 2
            // in one further chunk: inside the coverage.
            let mut chunks: Vec<usize> = (0..8).collect();
            for i in (1..8).rev() {
                chunks.swap(i, below(i + 1));
            }
            let failed = &chunks[..below(3)];
            let mut erased: Vec<Cell> = failed
                .iter()
                .flat_map(|&c| (0..4).map(move |i| (i, c)))
                .collect();
            let burst = 1 + below(2);
            let start = below(4 - burst + 1);
            erased.extend((start..start + burst).map(|i| (i, chunks[2])));
            let wanted: Vec<Cell> = erased.iter().copied().filter(|_| below(3) == 0).collect();
            if wanted.is_empty() {
                continue;
            }
            parts.decode(&erased, &wanted, failed);
        }
    }
}
