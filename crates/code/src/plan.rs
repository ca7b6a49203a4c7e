//! Decoding plans: straight-line programs of dot products, and the one
//! executor that runs them.
//!
//! Every codec lowers what its planner works out — STAIR's pruned
//! peeling schedule, SD's solved recovery matrix, RS's per-row
//! coefficients — to the same [`Plan`]:
//!
//! * **slots**, one sector each: the *sources* (stored cells the plan
//!   reads, sorted), then *intermediates* (cells the plan computes on the
//!   way and throws away — STAIR's virtual cells and the erased cells it
//!   was not asked for), then *targets* (the cells it recovers, in the
//!   order they were asked for);
//! * **steps**, in execution order. A step writes one slot as the dot
//!   product `Σ c·slot` over a range of terms; the terms of all steps sit
//!   in two flat arrays, input slots and `u16` coefficients, so the terms
//!   of step `k` are `inputs[start..end]` with `coeffs[start..end]` —
//!   the row-major layout of a sparse matrix. A step may read an earlier
//!   step's output, which is how STAIR's upstairs/downstairs parity reuse
//!   survives lowering; SD and RS plans are one layer of steps.
//!
//! An intermediate no step writes reads as zero: STAIR's outside global
//! parities are pinned to zero under inside placement and all of them
//! share one such slot. [`Plan::mult_xors`] is the number of terms, each
//! one `Mult_XOR` (§5.3), so the paper's decoding costs are properties of
//! the plan, and one execution ticks `stair_gf::counters` by exactly that.
//!
//! [`Plan::execute`] is the only decoder in the workspace. It reads the
//! sources through a [`CellLookup`] — a whole [`crate::StripeBuf`], a
//! STAIR stripe with its outside globals, or just the sectors a store
//! read for one degraded fragment — keeps intermediates and targets in
//! one buffer the size of the plan, and hands each target to the lookup.
//! A plan records the codec that built it ([`CodecId`]) and runs for that
//! codec only.

use core::fmt;
use std::ops::Range;

use stair_gf::{Field, Gf16, Gf8};

use crate::{CellIdx, CodeError, CodecSpec};

/// Which codec built a [`Plan`]: two codecs with equal ids build
/// interchangeable plans, and a plan runs for no other.
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct CodecId {
    /// The codec's spec.
    pub spec: CodecSpec,
    /// The field width `w` of its coefficients: 8 or 16.
    pub width: u32,
    /// STAIR's outside global placement, which no spec names: its plans
    /// read the global parities as sources instead of pinning them to
    /// zero. `false` for every other codec.
    pub outside_globals: bool,
}

impl CodecId {
    /// Bytes per field element: a sector must hold whole ones.
    pub fn elem_bytes(&self) -> usize {
        self.width.div_ceil(8) as usize
    }
}

impl fmt::Display for CodecId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} over GF(2^{})", self.spec, self.width)?;
        if self.outside_globals {
            write!(f, " with outside globals")?;
        }
        Ok(())
    }
}

/// Where a plan's stored cells live while it runs: the sources it reads
/// and the targets it recovers.
pub trait CellLookup {
    /// Bytes per sector.
    fn symbol(&self) -> usize;

    /// The bytes of source `cell`, or `None` if this lookup does not hold
    /// it.
    fn source(&self, cell: CellIdx) -> Option<&[u8]>;

    /// Takes the recovered bytes of target `cell`.
    ///
    /// # Errors
    ///
    /// Whatever the lookup refuses, e.g. a cell it has no room for.
    fn recovered(&mut self, cell: CellIdx, bytes: &[u8]) -> Result<(), CodeError>;
}

/// One step: `slots[out] = Σ coeffs[k] · slots[inputs[k]]` over `terms`.
#[derive(Clone, Debug, Eq, PartialEq)]
struct Step {
    out: usize,
    terms: Range<usize>,
}

/// A reusable recovery recipe for one erasure pattern: a straight-line
/// program of dot products over sector-sized slots (see the module
/// documentation).
///
/// Plans separate the expensive part of decoding (solving for recovery
/// coefficients, scheduling peeling steps) from the cheap part (streaming
/// byte regions through the coefficients), so one plan repairs any number
/// of stripes carrying the same pattern — the idiom `stair-store` uses
/// for whole-device rebuilds.
///
/// A plan names its [`sources`](Plan::sources): the stored cells it reads.
/// A caller holding a stripe on disk loads those and nothing else.
///
/// # Example
///
/// ```
/// use stair_code::{CodeError, CodecId, Plan, StripeBuf};
///
/// let id = CodecId { spec: "rs:3,1,1".parse()?, width: 8, outside_globals: false };
/// // Cell (0,2) is the XOR of (0,0) and (0,1): one step, two terms.
/// let mut plan = Plan::builder(id.clone(), vec![(0, 0), (0, 1)], [], &[(0, 2)]);
/// plan.step(2, [(0, 1), (1, 1)]);
/// let plan = plan.finish()?;
/// assert_eq!(plan.mult_xors(), 2);
///
/// let mut stripe = StripeBuf::new(1, 3, 4)?;
/// stripe.set_cell((0, 0), &[1, 2, 3, 4]);
/// stripe.set_cell((0, 1), &[4, 4, 4, 4]);
/// plan.execute(&id, &mut stripe)?;
/// assert_eq!(stripe.cell((0, 2)), &[5, 6, 7, 0]);
/// # Ok::<(), CodeError>(())
/// ```
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct Plan {
    codec: CodecId,
    /// The cell each slot holds: sources, intermediates, targets.
    slots: Vec<CellIdx>,
    sources: usize,
    targets: usize,
    steps: Vec<Step>,
    /// Per term, the slot it reads.
    inputs: Vec<usize>,
    /// Per term, its coefficient, below `2^width`.
    coeffs: Vec<u16>,
}

/// Assembles a [`Plan`] step by step; [`PlanBuilder::finish`] checks it.
#[derive(Debug)]
pub struct PlanBuilder {
    plan: Plan,
}

impl Plan {
    /// Starts a plan for `codec` over its slots, numbered in this order:
    /// `sources` (sorted, duplicate-free), `intermediates`, `targets`.
    pub fn builder(
        codec: CodecId,
        sources: Vec<CellIdx>,
        intermediates: impl IntoIterator<Item = CellIdx>,
        targets: &[CellIdx],
    ) -> PlanBuilder {
        let (n_sources, n_targets) = (sources.len(), targets.len());
        let mut slots = sources;
        slots.extend(intermediates);
        slots.extend_from_slice(targets);
        PlanBuilder {
            plan: Plan {
                codec,
                slots,
                sources: n_sources,
                targets: n_targets,
                steps: Vec::new(),
                inputs: Vec::new(),
                coeffs: Vec::new(),
            },
        }
    }

    /// The cells this plan reconstructs, in the order they were asked
    /// for.
    pub fn recovers(&self) -> &[CellIdx] {
        &self.slots[self.slots.len() - self.targets..]
    }

    /// The stored cells the plan reads and does not itself produce,
    /// sorted and duplicate-free: with these holding their true contents,
    /// [`Plan::execute`] reconstructs every cell of [`Plan::recovers`].
    /// Disjoint from the erased set the plan was built for.
    pub fn sources(&self) -> &[CellIdx] {
        &self.slots[..self.sources]
    }

    /// The cell each slot holds: the [`sources`](Plan::sources), then the
    /// intermediates, then the targets ([`Plan::recovers`]).
    pub fn slots(&self) -> &[CellIdx] {
        &self.slots
    }

    /// The program, in execution order: per step, the slot it writes and
    /// its terms — the input slots and their coefficients, pairwise.
    pub fn steps(&self) -> impl Iterator<Item = (usize, &[usize], &[u16])> {
        self.steps.iter().map(|s| {
            let terms = s.terms.clone();
            (s.out, &self.inputs[terms.clone()], &self.coeffs[terms])
        })
    }

    /// Planned `Mult_XOR` operations per stripe (the paper's decoding
    /// cost, §5.3): the number of terms. One execution ticks
    /// `stair_gf::counters` by exactly this.
    pub fn mult_xors(&self) -> usize {
        self.inputs.len()
    }

    /// Runs the plan for `codec`: reads the sources from `cells`, then
    /// hands it every target, in [`Plan::recovers`] order.
    ///
    /// # Errors
    ///
    /// * [`CodeError::InvalidPattern`] if another codec built the plan,
    ///   or `cells` lacks a source;
    /// * [`CodeError::ShapeMismatch`] if a source is not one sector, or
    ///   sectors do not hold whole field elements;
    /// * whatever [`CellLookup::recovered`] returns.
    pub fn execute(
        &self,
        codec: &CodecId,
        cells: &mut (impl CellLookup + ?Sized),
    ) -> Result<(), CodeError> {
        if *codec != self.codec {
            return Err(CodeError::InvalidPattern(format!(
                "plan was built by {}, not {codec}",
                self.codec
            )));
        }
        match self.codec.width {
            8 => self.run::<Gf8>(cells),
            _ => self.run::<Gf16>(cells),
        }
    }

    fn run<F: Field>(&self, cells: &mut (impl CellLookup + ?Sized)) -> Result<(), CodeError> {
        let sym = cells.symbol();
        if sym == 0 || !sym.is_multiple_of(F::ELEM_BYTES) {
            return Err(CodeError::ShapeMismatch(format!(
                "{sym}-byte sectors do not hold whole GF(2^{}) elements",
                F::W
            )));
        }
        let s = self.sources;
        // Intermediates and targets. Zeroed: each slot is written at most
        // once, accumulated into from zero, and one no step writes is the
        // zero slot.
        let mut work = vec![0u8; (self.slots.len() - s) * sym];
        {
            let mut sources = Vec::with_capacity(s);
            for &cell in self.sources() {
                match cells.source(cell) {
                    Some(bytes) if bytes.len() == sym => sources.push(bytes),
                    Some(bytes) => {
                        return Err(CodeError::ShapeMismatch(format!(
                            "source {cell:?} is {} bytes, sectors are {sym}",
                            bytes.len()
                        )))
                    }
                    None => {
                        return Err(CodeError::InvalidPattern(format!(
                            "plan reads {cell:?}, which the lookup does not hold"
                        )))
                    }
                }
            }
            let mut spare = Vec::new();
            for step in &self.steps {
                let at = (step.out - s) * sym;
                let (before, rest) = work.split_at_mut(at);
                let (out, after) = rest.split_at_mut(sym);
                let mut terms = reuse(spare);
                for k in step.terms.clone() {
                    let slot = self.inputs[k];
                    let region: &[u8] = if slot < s {
                        sources[slot]
                    } else if (slot - s) * sym < at {
                        &before[(slot - s) * sym..][..sym]
                    } else {
                        &after[(slot - s) * sym - at - sym..][..sym]
                    };
                    terms.push((region, F::elem(usize::from(self.coeffs[k]))));
                }
                F::mult_xor_regions(out, &terms);
                spare = reuse(terms);
            }
        }
        let first = self.slots.len() - self.targets;
        let targets = work[(first - s) * sym..].chunks_exact(sym);
        for (&cell, bytes) in self.recovers().iter().zip(targets) {
            cells.recovered(cell, bytes)?;
        }
        Ok(())
    }
}

/// Empties a term list and hands its allocation back for borrows of
/// another step: one buffer serves every step of an execution.
#[expect(
    clippy::unnecessary_filter_map,
    reason = "the map is what gives the borrows a new lifetime; `filter` cannot"
)]
fn reuse<'b, E>(mut terms: Vec<(&[u8], E)>) -> Vec<(&'b [u8], E)> {
    terms.clear();
    terms.into_iter().filter_map(|_| None).collect()
}

impl PlanBuilder {
    /// Makes room for `steps` more steps of `terms` terms in all.
    pub fn reserve(&mut self, steps: usize, terms: usize) {
        self.plan.steps.reserve(steps);
        self.plan.inputs.reserve(terms);
        self.plan.coeffs.reserve(terms);
    }

    /// Appends a step writing slot `out` as `Σ coeff · slot` over
    /// `terms`, each `(input slot, coefficient)`.
    pub fn step(&mut self, out: usize, terms: impl IntoIterator<Item = (usize, u16)>) {
        let plan = &mut self.plan;
        let start = plan.inputs.len();
        for (slot, coeff) in terms {
            plan.inputs.push(slot);
            plan.coeffs.push(coeff);
        }
        let end = plan.inputs.len();
        plan.steps.push(Step {
            out,
            terms: start..end,
        });
    }

    /// Checks the program and returns the plan: sources sorted and
    /// distinct, targets distinct and each written exactly once, no slot
    /// written twice or a source written at all, every slot read after it
    /// was written (or, for an intermediate no step writes, as zero), and
    /// every coefficient a field element.
    ///
    /// # Errors
    ///
    /// * [`CodeError::InvalidPattern`] if a target is named twice;
    /// * [`CodeError::Internal`] for any other broken rule — a codec bug.
    pub fn finish(self) -> Result<Plan, CodeError> {
        let plan = self.plan;
        let bad = |what: String| Err(CodeError::Internal(format!("malformed plan: {what}")));
        if !matches!(plan.codec.width, 8 | 16) {
            return bad(format!("field width {}", plan.codec.width));
        }
        if !plan.sources().windows(2).all(|w| w[0] < w[1]) {
            return bad("sources are not sorted and distinct".into());
        }
        let mut targets = plan.recovers().to_vec();
        targets.sort_unstable();
        if let Some(w) = targets.windows(2).find(|w| w[0] == w[1]) {
            return Err(CodeError::InvalidPattern(format!(
                "wanted cell {:?} named twice",
                w[0]
            )));
        }
        let (total, s) = (plan.slots.len(), plan.sources);
        let first_target = total - plan.targets;
        // Which step writes each slot: a step may read only what an
        // earlier one wrote.
        let mut writer = vec![None; total];
        for (k, step) in plan.steps.iter().enumerate() {
            if step.out < s || step.out >= total {
                return bad(format!("step {k} writes slot {}", step.out));
            }
            if writer[step.out].replace(k).is_some() {
                return bad(format!("slot {} written twice", step.out));
            }
        }
        if let Some(t) = (first_target..total).find(|&t| writer[t].is_none()) {
            return bad(format!("target {:?} is never written", plan.slots[t]));
        }
        let limit = 1usize << plan.codec.width;
        for (k, step) in plan.steps.iter().enumerate() {
            for term in step.terms.clone() {
                let (slot, coeff) = (plan.inputs[term], plan.coeffs[term]);
                if usize::from(coeff) >= limit {
                    return bad(format!("coefficient {coeff} in step {k}"));
                }
                match writer.get(slot) {
                    None => return bad(format!("step {k} reads slot {slot} of {total}")),
                    Some(Some(w)) if *w >= k => {
                        return bad(format!("step {k} reads slot {slot} before it is written"))
                    }
                    _ => {}
                }
            }
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StripeBuf;

    fn id(width: u32) -> CodecId {
        CodecId {
            spec: "rs:4,1,2".parse().unwrap(),
            width,
            outside_globals: false,
        }
    }

    /// Sources (0,0), (0,1); intermediates: a computed one and the zero
    /// slot; targets (0,3) then (0,2).
    fn builder() -> PlanBuilder {
        Plan::builder(
            id(8),
            vec![(0, 0), (0, 1)],
            [(1, 0), (1, 1)],
            &[(0, 3), (0, 2)],
        )
    }

    #[test]
    fn executes_a_chain_through_intermediates_and_the_zero_slot() {
        let mut plan = builder();
        plan.step(2, [(0, 2), (1, 1)]); // t = 2·a + b
        plan.step(5, [(2, 1), (0, 1), (3, 7)]); // (0,2) = t + a + 7·0
        plan.step(4, [(5, 1), (1, 1)]); // (0,3) = (0,2) + b
        let plan = plan.finish().unwrap();
        assert_eq!(plan.sources(), &[(0, 0), (0, 1)]);
        assert_eq!(plan.recovers(), &[(0, 3), (0, 2)]);
        assert_eq!(plan.mult_xors(), 7);

        let mut stripe = StripeBuf::new(1, 4, 2).unwrap();
        stripe.set_cell((0, 0), &[1, 0x80]);
        stripe.set_cell((0, 1), &[3, 5]);
        plan.execute(&id(8), &mut stripe).unwrap();
        let (a, b) = ([1u8, 0x80], [3u8, 5]);
        for i in 0..2 {
            let t = Gf8::mul(2, a[i]) ^ b[i];
            assert_eq!(stripe.cell((0, 2))[i], t ^ a[i]);
            assert_eq!(stripe.cell((0, 3))[i], t ^ a[i] ^ b[i]);
        }
    }

    #[test]
    fn refuses_other_codecs_and_missing_sources() {
        let mut plan = builder();
        plan.step(5, [(0, 1)]);
        plan.step(4, [(1, 1)]);
        let plan = plan.finish().unwrap();
        let mut stripe = StripeBuf::new(1, 4, 2).unwrap();
        for other in [
            id(16),
            CodecId {
                outside_globals: true,
                ..id(8)
            },
        ] {
            assert!(matches!(
                plan.execute(&other, &mut stripe),
                Err(CodeError::InvalidPattern(_))
            ));
        }
        let mut narrow = StripeBuf::new(1, 1, 2).unwrap();
        assert!(matches!(
            plan.execute(&id(8), &mut narrow),
            Err(CodeError::InvalidPattern(_))
        ));
    }

    #[test]
    fn malformed_programs_are_refused() {
        let internal = |steps: &[(usize, Vec<(usize, u16)>)]| {
            let mut plan = builder();
            for (out, terms) in steps {
                plan.step(*out, terms.iter().copied());
            }
            matches!(plan.finish(), Err(CodeError::Internal(_)))
        };
        assert!(!internal(&[(5, vec![(0, 1)]), (4, vec![(1, 1)])]));
        assert!(internal(&[(5, vec![(0, 1)])]), "a target never written");
        let source_written = [(1, vec![(0, 1)]), (5, vec![]), (4, vec![])];
        assert!(internal(&source_written));
        assert!(
            internal(&[(5, vec![]), (5, vec![]), (4, vec![])]),
            "written twice"
        );
        assert!(
            internal(&[(4, vec![(5, 1)]), (5, vec![])]),
            "read before written"
        );
        assert!(
            internal(&[(4, vec![(4, 1)]), (5, vec![])]),
            "a step reads itself"
        );
        assert!(internal(&[(4, vec![(9, 1)]), (5, vec![])]), "no such slot");
        assert!(
            internal(&[(4, vec![(0, 256)]), (5, vec![])]),
            "not in GF(2^8)"
        );
        let unsorted = Plan::builder(id(8), vec![(0, 1), (0, 0)], [], &[]);
        assert!(matches!(unsorted.finish(), Err(CodeError::Internal(_))));
        let twice = Plan::builder(id(8), vec![], [], &[(0, 0), (0, 0)]);
        assert!(matches!(twice.finish(), Err(CodeError::InvalidPattern(_))));
    }
}
