//! Plans: straight-line programs of dot products, and the one executor
//! that runs them — for encoding and decoding alike.
//!
//! Every codec lowers what its planner works out — STAIR's pruned
//! peeling schedule, SD's solved recovery matrix, RS's per-row
//! coefficients — to the same [`Plan`], and builds its encoder as one
//! too (§5.1: upstairs and downstairs encoding are peels that treat the
//! parity cells as lost; §6.2: SD "encodes stripes in a decoding
//! manner"):
//!
//! * **slots**, one sector each: the *sources* (stored cells the plan
//!   reads, sorted), then *intermediates* (cells the plan computes on the
//!   way and throws away — STAIR's virtual cells and the erased cells it
//!   was not asked for), then *targets* (the cells it recovers or
//!   encodes, in the order they were asked for);
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
//! one `Mult_XOR` (§5.3), so the paper's encoding and decoding costs are
//! properties of the plan, and one execution ticks `stair_gf::counters` by
//! exactly that.
//!
//! [`Plan::execute`] is the only encoder, the only decoder and the only
//! small-write patcher in the workspace. It reads the sources through a
//! [`CellLookup`] — a whole [`crate::StripeBuf`], a STAIR stripe with its
//! outside globals, just the sectors a store read for one degraded
//! fragment, or a small write's deltas ([`crate::Patch`]) — and keeps the
//! intermediates in one buffer. A whole stripe lends the targets' own
//! sectors, so an encode writes the parity where it is stored, and a
//! store's degraded read lends the caller's buffer, so a lost block is
//! decoded where it is wanted; any other lookup gets each target handed
//! over from the same buffer. A plan
//! records the codec that built it ([`CodecId`]) and runs for that codec
//! only.

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

    /// Lends the plan's `sources`, one sector each, and the sectors of its
    /// `targets` to be written in place, in the orders asked — when this
    /// lookup holds all of them, each cell once: a whole stripe does, so
    /// encoding writes the parity where it is stored. `None` (the
    /// default): the executor reads through [`CellLookup::source`] and
    /// hands each target to [`CellLookup::recovered`].
    fn lend(&mut self, sources: &[CellIdx], targets: &[CellIdx]) -> Option<Lent<'_>> {
        let _ = (sources, targets);
        None
    }

    /// Whether each step's output is added into its lent target
    /// (`target ^= Σ c·slot`) instead of written over it: a small write's
    /// parities take their update that way ([`crate::Patch`]). `false`
    /// (the default) for every lookup that recovers or encodes.
    fn adds(&self) -> bool {
        false
    }
}

/// What a [`CellLookup`] lends a plan: its sources' sectors to read, and
/// its targets' to write in place.
pub type Lent<'a> = (Vec<&'a [u8]>, Vec<&'a mut [u8]>);

/// One step: `slots[out] = Σ coeffs[k] · slots[inputs[k]]` over `terms`.
#[derive(Clone, Debug, Eq, PartialEq)]
struct Step {
    out: usize,
    terms: Range<usize>,
}

/// A reusable recipe — a codec's encoder, or the recovery of one erasure
/// pattern: a straight-line program of dot products over sector-sized
/// slots (see the module documentation).
///
/// Plans separate the expensive part of coding (solving for
/// coefficients, scheduling peeling steps) from the cheap part (streaming
/// byte regions through the coefficients), so one plan encodes, or
/// repairs, any number of stripes — the idiom `stair-store` uses for
/// every write and for whole-device rebuilds.
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

    /// A plan of one step per target, each a dense combination of the
    /// sources: target `t` is `Σ coeff(t, s) · sources[s]` over the
    /// non-zero coefficients — how SD, RS and STAIR's standard method
    /// encode (§5.3), every parity straight from the data.
    ///
    /// # Errors
    ///
    /// As [`PlanBuilder::finish`].
    pub fn dense(
        codec: CodecId,
        sources: Vec<CellIdx>,
        targets: &[CellIdx],
        coeff: impl Fn(usize, usize) -> u16,
    ) -> Result<Plan, CodeError> {
        let n = sources.len();
        let mut plan = Plan::builder(codec, sources, [], targets);
        for t in 0..targets.len() {
            let terms = (0..n).map(|s| (s, coeff(t, s)));
            plan.step(n + t, terms.filter(|&(_, c)| c != 0));
        }
        plan.finish()
    }

    /// The cells this plan reconstructs, in the order they were asked
    /// for.
    pub fn recovers(&self) -> &[CellIdx] {
        &self.slots[self.slots.len() - self.targets..]
    }

    /// The cells the plan reads and does not itself produce, sorted and
    /// duplicate-free: with these holding their true contents,
    /// [`Plan::execute`] computes every cell of [`Plan::recovers`]. A
    /// recovery plan's are stored cells, disjoint from the erased set it
    /// was built for; an update plan's are the changed data cells, which
    /// its lookup reads as their deltas.
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

    /// Runs the plan for `codec`: reads the sources from `cells` and
    /// writes every target into it — in place, where the lookup lends the
    /// targets' sectors ([`CellLookup::lend`]), else through
    /// [`CellLookup::recovered`], in [`Plan::recovers`] order.
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
        // Intermediates, then targets: a sector each of one zeroed buffer
        // (each slot is written at most once, and one no step writes is
        // the zero slot), or the targets in the lookup itself.
        let (s, first) = (self.sources, self.slots.len() - self.targets);
        let adds = cells.adds();
        if let Some((sources, targets)) = cells.lend(self.sources(), self.recovers()) {
            let mut work = vec![0u8; (first - s) * sym];
            let mut homes: Vec<&mut [u8]> = work.chunks_exact_mut(sym).collect();
            homes.extend(targets);
            let kept = if adds { homes.len() } else { first - s };
            self.compute::<F>(&sources, &mut homes, kept);
            return Ok(());
        }
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
            let mut homes: Vec<&mut [u8]> = work.chunks_exact_mut(sym).collect();
            let kept = homes.len();
            self.compute::<F>(&sources, &mut homes, kept);
        }
        let targets = work[(first - s) * sym..].chunks_exact(sym);
        for (&cell, bytes) in self.recovers().iter().zip(targets) {
            cells.recovered(cell, bytes)?;
        }
        Ok(())
    }

    /// The program over `sources` and `homes`, one sector per slot after
    /// the sources. A step adds into the first `kept` homes — zeros, or a
    /// lent target that adds ([`CellLookup::adds`]) — and overwrites any
    /// other in the same pass.
    fn compute<F: Field>(&self, sources: &[&[u8]], homes: &mut [&mut [u8]], kept: usize) {
        let s = self.sources;
        let mut spare = Vec::new();
        for step in &self.steps {
            let at = step.out - s;
            let (before, rest) = homes.split_at_mut(at);
            let Some((out, after)) = rest.split_first_mut() else {
                continue; // `finish` refuses a step past the last slot
            };
            let mut terms = reuse(spare);
            for k in step.terms.clone() {
                let slot = self.inputs[k];
                let region: &[u8] = if slot < s {
                    sources[slot]
                } else if slot - s < at {
                    &*before[slot - s]
                } else {
                    &*after[slot - s - at - 1]
                };
                terms.push((region, F::elem(usize::from(self.coeffs[k]))));
            }
            if at < kept {
                F::mult_xor_regions(out, &terms);
            } else {
                F::mult_regions(out, &terms);
            }
            spare = reuse(terms);
        }
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
