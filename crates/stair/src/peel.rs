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
//! produces), and recovery coefficients — a Gaussian elimination each,
//! remembered by the constituent code — are solved only for the steps,
//! and the outputs of those steps, that survive pruning. `G_A⁻¹·G_W`
//! restricted to some columns of `W` is `G_A⁻¹·G_{W'}`, so the schedule
//! is the one solving first would give.
//!
//! Availability is a bit set per canonical row and per canonical column
//! ([`Availability`]), so whether a line can make a step is a popcount and
//! its inputs and outputs are a scan of its bits; every shape's cells sit
//! in one flat buffer of positions along their lines. Encode and decode
//! plans alike are lowered from the pruned shapes directly
//! ([`Peeler::lower`]); [`Peeler::schedule`] turns them into a
//! [`Schedule`] for rendering Tables 2 and 3.

use std::sync::Arc;

use stair_code::{CodeError, CodecId, Matrix, MdsCode, Plan};
use stair_gf::Field;

use crate::layout::{Cell, Layout};
use crate::schedule::{Schedule, Step, StepCode};

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
    /// The targets' stored rows alone, top→bottom, one `C_row` step
    /// each. A row whose every lost cell is in an excluded column is one
    /// no column step reaches, so upstairs steps it in its first
    /// last-resort pass over the same first κ cells: when every target
    /// sits in such a row, this is the upstairs peel pruned to the
    /// targets, without the walk over every other line.
    TargetRows,
}

/// Which cells of the canonical stripe are available: one bit set per
/// canonical row (bit `col`) and one per canonical column (bit `row`),
/// each `⌈len / 64⌉` words, whatever the stripe's size.
#[derive(Clone, Debug)]
pub(crate) struct Availability {
    row_words: usize,
    col_words: usize,
    rows: Vec<u64>,
    cols: Vec<u64>,
}

impl Availability {
    /// No cell available.
    pub(crate) fn none(layout: &Layout) -> Self {
        let (crows, ccols) = (layout.canonical_rows(), layout.canonical_cols());
        let (row_words, col_words) = (ccols.div_ceil(64), crows.div_ceil(64));
        Availability {
            row_words,
            col_words,
            rows: vec![0; crows * row_words],
            cols: vec![0; ccols * col_words],
        }
    }

    pub(crate) fn contains(&self, (row, col): Cell) -> bool {
        self.rows[row * self.row_words + col / 64] >> (col % 64) & 1 == 1
    }

    pub(crate) fn insert(&mut self, (row, col): Cell) {
        self.rows[row * self.row_words + col / 64] |= 1 << (col % 64);
        self.cols[col * self.col_words + row / 64] |= 1 << (row % 64);
    }

    pub(crate) fn remove(&mut self, (row, col): Cell) {
        self.rows[row * self.row_words + col / 64] &= !(1 << (col % 64));
        self.cols[col * self.col_words + row / 64] &= !(1 << (row % 64));
    }

    /// The bits of a step's line: its row's, or its column's.
    fn line(&self, code: StepCode) -> &[u64] {
        match code {
            StepCode::Row(i) => &self.rows[i * self.row_words..][..self.row_words],
            StepCode::Col(j) => &self.cols[j * self.col_words..][..self.col_words],
        }
    }
}

/// Appends to `out` the first `limit` positions below `len` whose bit in
/// `words` is `set`, ascending.
fn push_positions(out: &mut Vec<usize>, words: &[u64], len: usize, set: bool, mut limit: usize) {
    for (w, &bits) in words.iter().enumerate() {
        let mut bits = if set { bits } else { !bits };
        while bits != 0 && limit > 0 {
            let at = w * 64 + bits.trailing_zeros() as usize;
            if at >= len {
                return;
            }
            out.push(at);
            bits &= bits - 1;
            limit -= 1;
        }
    }
}

/// A step before its coefficients are solved: a line, and its inputs
/// then its outputs as positions along it, at `start` in the peeler's
/// flat buffer.
#[derive(Clone, Copy, Debug)]
struct Shape {
    code: StepCode,
    start: usize,
    inputs: usize,
    outputs: usize,
}

/// A step the pruned peel kept, its coefficients not yet solved.
pub(crate) struct Peeled<'p> {
    pub(crate) code: StepCode,
    /// Positions along the line of the κ cells the step reads.
    pub(crate) inputs: &'p [usize],
    /// Positions along the line of the cells it produces.
    pub(crate) outputs: &'p [usize],
}

impl Peeled<'_> {
    pub(crate) fn input_cells(&self) -> impl Iterator<Item = Cell> + '_ {
        self.inputs.iter().map(|&at| self.code.cell(at))
    }

    pub(crate) fn output_cells(&self) -> impl Iterator<Item = Cell> + '_ {
        self.outputs.iter().map(|&at| self.code.cell(at))
    }
}

pub(crate) struct Peeler<'a, F: Field> {
    layout: &'a Layout,
    crow: &'a MdsCode<F>,
    ccol: &'a MdsCode<F>,
    available: Availability,
    /// Columns excluded from `C_col` recovery. The paper always recovers the
    /// `m` "failed" chunks row-by-row *last* (§4.2.2 step 3); modelling that
    /// exclusion keeps schedule costs exactly on the Eq. (5) formula.
    no_col: Vec<bool>,
    shapes: Vec<Shape>,
    /// Every shape's inputs and outputs, as positions along its line.
    lines: Vec<usize>,
}

impl<'a, F: Field> Peeler<'a, F> {
    pub(crate) fn new(
        layout: &'a Layout,
        crow: &'a MdsCode<F>,
        ccol: &'a MdsCode<F>,
        available: Availability,
    ) -> Self {
        Peeler {
            layout,
            crow,
            ccol,
            available,
            no_col: vec![false; layout.canonical_cols()],
            // Each line steps at most once (afterwards it is whole), with
            // at most its length in inputs and outputs: every row and
            // every column once is 2·rows·cols positions.
            shapes: Vec::with_capacity(layout.canonical_rows() + layout.canonical_cols()),
            lines: Vec::with_capacity(2 * layout.canonical_rows() * layout.canonical_cols()),
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

    /// Peels, then prunes every step and output the targets do not need:
    /// what is left is [`Peeler::steps`].
    ///
    /// # Errors
    ///
    /// [`CodeError::Unrecoverable`] if the peel stalls short of a target.
    pub(crate) fn peel(&mut self, targets: &[Cell], order: PeelOrder) -> Result<(), CodeError> {
        match order {
            PeelOrder::Upstairs => self.run_upstairs(),
            PeelOrder::Downstairs => self.run_downstairs(),
            PeelOrder::TargetRows => self.run_target_rows(targets),
        }
        let remaining = targets
            .iter()
            .filter(|&&t| !self.available.contains(t))
            .count();
        if remaining > 0 {
            return Err(CodeError::Unrecoverable(format!(
                "peeling stalled with {remaining} cells unrecovered"
            )));
        }
        self.prune(targets);
        Ok(())
    }

    /// The pruned steps, in execution order.
    pub(crate) fn steps(&self) -> impl Iterator<Item = Peeled<'_>> {
        self.shapes.iter().filter(|s| s.outputs > 0).map(|s| {
            let (inputs, rest) = self.lines[s.start..].split_at(s.inputs);
            Peeled {
                code: s.code,
                inputs,
                outputs: &rest[..s.outputs],
            }
        })
    }

    /// A pruned step's recovery coefficients, `|inputs| × |outputs|`.
    ///
    /// # Errors
    ///
    /// [`CodeError::Internal`] if the constituent code refuses the step
    /// (a bug: a peeled step always reads κ distinct cells of its line).
    pub(crate) fn coefficients(&self, step: &Peeled<'_>) -> Result<Arc<Matrix<F>>, CodeError> {
        let code = match step.code {
            StepCode::Row(_) => self.crow,
            StepCode::Col(_) => self.ccol,
        };
        code.recovery_coefficients(step.inputs, step.outputs)
            .map_err(|e| CodeError::Internal(format!("MDS code error: {e}")))
    }

    /// The pruned steps with their coefficients solved: the schedule of
    /// a peel that started from `initial`.
    pub(crate) fn schedule(&self, initial: &Availability) -> Result<Schedule<F>, CodeError> {
        let step = |s: Peeled<'_>| -> Result<Step<F>, CodeError> {
            Ok(Step {
                code: s.code,
                inputs: s.input_cells().collect(),
                outputs: s.output_cells().collect(),
                coeff: self.coefficients(&s)?,
            })
        };
        let schedule = Schedule {
            steps: self.steps().map(step).collect::<Result<_, _>>()?,
        };
        debug_assert!(
            schedule
                .check_dataflow(self.layout, |c| initial.contains(c))
                .is_ok(),
            "pruned schedule must remain topologically valid"
        );
        Ok(schedule)
    }

    /// Lowers the pruned peel, which started from `initial`, to a [`Plan`]
    /// for `codec` recovering `wanted`: one step per output cell, over all
    /// of its peeled step's inputs — zero coefficients too, so the plan
    /// costs exactly what the schedule does. An input that was available
    /// from the start is a source if the stripe stores it (the grid, and
    /// the outside globals where the placement keeps them); the pinned-zero
    /// globals of inside placement share one zero slot. Every other input
    /// is an earlier step's output.
    ///
    /// # Errors
    ///
    /// As [`Peeler::coefficients`] and [`stair_code::PlanBuilder::finish`]
    /// (a wanted cell named twice).
    pub(crate) fn lower(
        &self,
        codec: &CodecId,
        initial: &Availability,
        wanted: &[Cell],
    ) -> Result<Plan, CodeError> {
        // Slots by canonical cell index, marked first, numbered after; a
        // cell left unset is no slot, which `finish` refuses.
        const SOURCE: usize = usize::MAX - 3;
        const PINNED: usize = usize::MAX - 2;
        const WANTED: usize = usize::MAX - 1;
        const UNSET: usize = usize::MAX;
        let ccols = self.layout.canonical_cols();
        let at = |(row, col): Cell| row * ccols + col;
        let mut slot = vec![UNSET; self.layout.canonical_rows() * ccols];
        for &w in wanted {
            slot[at(w)] = WANTED;
        }
        let mut zero_cell = None;
        for step in self.steps() {
            for c in step.input_cells() {
                if initial.contains(c) {
                    let stored = self.layout.is_stored(c) || codec.outside_globals;
                    slot[at(c)] = if stored { SOURCE } else { PINNED };
                    zero_cell = zero_cell.or((!stored).then_some(c));
                }
            }
        }
        // Row-major index order is sorted (row, col) order.
        let mut sources = Vec::new();
        for (i, s) in slot.iter_mut().enumerate().filter(|(_, s)| **s == SOURCE) {
            *s = sources.len();
            sources.push((i / ccols, i % ccols));
        }
        let mut intermediates = Vec::new();
        for step in self.steps() {
            for out in step.output_cells() {
                if slot[at(out)] != WANTED {
                    slot[at(out)] = sources.len() + intermediates.len();
                    intermediates.push(out);
                }
            }
        }
        let zero = sources.len() + intermediates.len();
        intermediates.extend(zero_cell);
        for s in slot.iter_mut().filter(|s| **s == PINNED) {
            *s = zero;
        }
        let first_target = sources.len() + intermediates.len();
        for (k, &w) in wanted.iter().enumerate() {
            slot[at(w)] = first_target + k;
        }

        let mut plan = Plan::builder(codec.clone(), sources, intermediates, wanted);
        let (steps, terms) = self.steps().fold((0, 0), |(steps, terms), s| {
            (
                steps + s.outputs.len(),
                terms + s.outputs.len() * s.inputs.len(),
            )
        });
        plan.reserve(steps, terms);
        let mut inputs = Vec::new();
        for step in self.steps() {
            let coeff = self.coefficients(&step)?;
            inputs.clear();
            inputs.extend(step.input_cells().map(|c| slot[at(c)]));
            for (j, out) in step.output_cells().enumerate() {
                let coeffs = (0..inputs.len()).map(|i| F::value(coeff.get(i, j)) as u16);
                plan.step(slot[at(out)], inputs.iter().copied().zip(coeffs));
            }
        }
        plan.finish()
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

    fn run_target_rows(&mut self, targets: &[Cell]) {
        let mut rows: Vec<usize> = targets.iter().map(|&(row, _)| row).collect();
        rows.sort_unstable();
        rows.dedup();
        for i in rows {
            self.try_step(StepCode::Row(i));
        }
    }

    /// One `C_row` recovery on a canonical row (needs `n − m` available
    /// cells) or `C_col` recovery on a canonical column (needs `r`): the
    /// first κ available cells of the line produce all its unknown ones.
    fn try_step(&mut self, code: StepCode) -> bool {
        let (k, len) = match code {
            StepCode::Row(_) => (self.crow.data_len(), self.layout.canonical_cols()),
            StepCode::Col(j) if self.no_col[j] => return false,
            StepCode::Col(_) => (self.ccol.data_len(), self.layout.canonical_rows()),
        };
        let line = self.available.line(code);
        let have: u32 = line.iter().map(|w| w.count_ones()).sum();
        if (have as usize) < k || have as usize == len {
            return false;
        }
        let start = self.lines.len();
        push_positions(&mut self.lines, line, len, true, k);
        push_positions(&mut self.lines, line, len, false, usize::MAX);
        for &at in &self.lines[start + k..] {
            self.available.insert(code.cell(at));
        }
        self.shapes.push(Shape {
            code,
            start,
            inputs: k,
            outputs: self.lines.len() - start - k,
        });
        true
    }

    /// Drops every output (and every step) the `targets` do not need,
    /// walking the steps backwards (§4.2.1: "we only need to recover the
    /// symbols that will later be used"). A shape's kept outputs move to
    /// the front of its output positions; a shape that keeps none is left
    /// with zero.
    fn prune(&mut self, targets: &[Cell]) {
        let mut needed = Availability::none(self.layout);
        for &t in targets {
            needed.insert(t);
        }
        for shape in self.shapes.iter_mut().rev() {
            let first = shape.start + shape.inputs;
            let mut kept = first;
            for k in first..first + shape.outputs {
                let pos = self.lines[k];
                if needed.contains(shape.code.cell(pos)) {
                    self.lines[kept] = pos;
                    kept += 1;
                }
            }
            shape.outputs = kept - first;
            if shape.outputs > 0 {
                for &pos in &self.lines[shape.start..first] {
                    needed.insert(shape.code.cell(pos));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_availability, encode_availability};
    use crate::{Config, GlobalPlacement};
    use stair_gf::Gf8;

    /// The planner this one replaced, kept as the oracle: the line scan
    /// over a `Vec<bool>` that peeled before availability became bit
    /// sets, with every raw step solved in full, then pruned by dropping
    /// coefficient columns.
    fn solve_then_prune(
        parts: &Parts,
        start: &Availability,
        excluded: &[usize],
        targets: &[Cell],
        order: PeelOrder,
    ) -> Schedule<Gf8> {
        let layout = &parts.layout;
        let (crows, ccols) = (layout.canonical_rows(), layout.canonical_cols());
        let (r, n) = (layout.r(), layout.n());
        let idx = |(row, col): Cell| row * ccols + col;
        let mut avail: Vec<bool> = (0..crows * ccols)
            .map(|i| start.contains((i / ccols, i % ccols)))
            .collect();
        let mut raw: Vec<(StepCode, Vec<Cell>, Vec<Cell>)> = Vec::new();
        {
            let mut try_step = |code: StepCode| {
                let (k, len) = match code {
                    StepCode::Row(_) => (parts.crow.data_len(), ccols),
                    StepCode::Col(j) if excluded.contains(&j) => return false,
                    StepCode::Col(_) => (parts.ccol.data_len(), crows),
                };
                let line = (0..len).map(|x| match code {
                    StepCode::Row(i) => (i, x),
                    StepCode::Col(j) => (x, j),
                });
                let (mut inputs, outputs): (Vec<Cell>, Vec<Cell>) =
                    line.partition(|&c| avail[idx(c)]);
                if inputs.len() < k || outputs.is_empty() {
                    return false;
                }
                inputs.truncate(k);
                for &c in &outputs {
                    avail[idx(c)] = true;
                }
                raw.push((code, inputs, outputs));
                true
            };
            loop {
                let mut progress = false;
                if order == PeelOrder::Upstairs {
                    for j in 0..ccols {
                        progress |= try_step(StepCode::Col(j));
                    }
                    for i in r..crows {
                        progress |= try_step(StepCode::Row(i));
                    }
                    if !progress {
                        for i in 0..r {
                            progress |= try_step(StepCode::Row(i));
                        }
                    }
                } else {
                    for i in 0..r {
                        progress |= try_step(StepCode::Row(i));
                    }
                    for j in (n..ccols).rev() {
                        progress |= try_step(StepCode::Col(j));
                    }
                }
                if !progress {
                    break;
                }
            }
        }
        assert!(targets.iter().all(|&t| avail[idx(t)]), "the oracle stalled");
        let mut needed = vec![false; crows * ccols];
        for &t in targets {
            needed[idx(t)] = true;
        }
        let mut steps = Vec::new();
        for (code, inputs, outputs) in raw.into_iter().rev() {
            let (mds, along): (_, fn(&Cell) -> usize) = match code {
                StepCode::Row(_) => (&parts.crow, |c| c.1),
                StepCode::Col(_) => (&parts.ccol, |c| c.0),
            };
            let all: Vec<usize> = outputs.iter().map(along).collect();
            let ins: Vec<usize> = inputs.iter().map(along).collect();
            let coeff = mds.recovery_coefficients(&ins, &all).unwrap();
            let keep: Vec<usize> = (0..outputs.len())
                .filter(|&j| needed[idx(outputs[j])])
                .collect();
            if keep.is_empty() {
                continue;
            }
            for &i in &inputs {
                needed[idx(i)] = true;
            }
            steps.push(Step {
                code,
                inputs,
                outputs: keep.iter().map(|&j| outputs[j]).collect(),
                coeff: Arc::new(coeff.select_cols(&keep)),
            });
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
            Self::of(Config::with_placement(8, 4, 2, &[1, 1, 2], placement).unwrap())
        }

        fn of(config: Config) -> Self {
            let (n, r, m) = (config.n(), config.r(), config.m());
            Parts {
                layout: Layout::new(&config),
                crow: MdsCode::new(n + config.m_prime(), n - m).unwrap(),
                ccol: MdsCode::new(r + config.e_max(), r).unwrap(),
            }
        }

        /// The schedule the planner under test peels from `available`.
        fn peeled(
            &self,
            available: &Availability,
            excluded: &[usize],
            targets: &[Cell],
            order: PeelOrder,
        ) -> Schedule<Gf8> {
            let mut peeler = Peeler::new(&self.layout, &self.crow, &self.ccol, available.clone())
                .with_excluded_cols(excluded);
            peeler.peel(targets, order).unwrap();
            peeler.schedule(available).unwrap()
        }

        /// Both planners on one decode problem; returns the schedule
        /// they agree on.
        fn decode(&self, erased: &[Cell], wanted: &[Cell], excluded: &[usize]) -> Schedule<Gf8> {
            let mut available = decode_availability(&self.layout);
            for &cell in erased {
                available.remove(cell);
            }
            let old = solve_then_prune(self, &available, excluded, wanted, PeelOrder::Upstairs);
            let new = self.peeled(&available, excluded, wanted, PeelOrder::Upstairs);
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
            let old = solve_then_prune(&parts, &available, excluded, &targets, order);
            assert_eq!(parts.peeled(&available, excluded, &targets, order), old);
        }
    }

    /// `cases` covered patterns — up to `m` whole chunks plus a burst of
    /// up to `e_max` in one further chunk — each with a random subset of
    /// its cells wanted, planned by both planners.
    fn random_patterns_plan_as_before(parts: &Parts, cases: usize, seed: u64) {
        let layout = &parts.layout;
        let (n, r) = (layout.n(), layout.r());
        let mut state = seed;
        let mut below = |n: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % n
        };
        let mut planned = 0;
        while planned < cases {
            let mut chunks: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                chunks.swap(i, below(i + 1));
            }
            let failed = &chunks[..below(layout.m() + 1)];
            let mut erased: Vec<Cell> = failed
                .iter()
                .flat_map(|&c| (0..r).map(move |i| (i, c)))
                .collect();
            let burst = 1 + below(layout.e_max());
            let start = below(r - burst + 1);
            erased.extend((start..start + burst).map(|i| (i, chunks[layout.m()])));
            let wanted: Vec<Cell> = erased.iter().copied().filter(|_| below(3) == 0).collect();
            if !wanted.is_empty() {
                parts.decode(&erased, &wanted, failed);
                planned += 1;
            }
        }
    }

    #[test]
    fn random_patterns_and_wanted_subsets_plan_as_before() {
        random_patterns_plan_as_before(&Parts::new(GlobalPlacement::Inside), 200, 0x5EED);
    }

    /// More than 64 canonical rows and columns: a line's bits span two
    /// words.
    #[test]
    fn wide_stripes_plan_as_before() {
        let parts = Parts::of(Config::new(66, 65, 2, &[1, 2]).unwrap());
        assert!(parts.layout.canonical_rows() > 64 && parts.layout.canonical_cols() > 64);
        random_patterns_plan_as_before(&parts, 6, 0xD1DE);
        // The whole of both failed chunks, the widest plan.
        let erased: Vec<Cell> = (0..65)
            .flat_map(|i| [(i, 0), (i, 65)])
            .chain([(64, 3)])
            .collect();
        parts.decode(&erased, &erased, &[0, 65]);
    }
}
