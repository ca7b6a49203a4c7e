//! The user-facing STAIR codec: construction, encoding (upstairs /
//! downstairs / standard / baseline two-phase), and upstairs decoding.

use stair_code::{CodecId, Plan, UpdateMap};
use stair_gf::{Field, Gf8};
use stair_rs::MdsCode;

use crate::layout::{Cell, CellKind, Layout};
use crate::peel::{Availability, PeelOrder, Peeler};
use crate::schedule::{Canvas, Schedule};
use crate::standard::ParityRelations;
use crate::stripe::Stripe;
use crate::{Config, Error, GlobalPlacement, MultXorCounts};

/// The encoding methods of the paper.
#[derive(Clone, Copy, Debug, Eq, Hash, PartialEq)]
pub enum EncodingMethod {
    /// Recovery-based bottom-up encoding (§5.1.1). Inside placement only.
    Upstairs,
    /// Top-down, right-to-left encoding (§5.1.2). Inside placement only.
    Downstairs,
    /// Dense per-parity combination of data symbols (§5.3), as in classical
    /// Reed–Solomon. Works for both placements.
    Standard,
    /// The baseline two-phase encoding of §3 (row phase producing row and
    /// intermediate parities, then column phase producing global parities).
    /// Outside placement only.
    TwoPhase,
}

/// A STAIR encoder/decoder for one configuration.
///
/// Construction precomputes the `C_row`/`C_col` codes, both encoding
/// schedules, the dense parity relations, and the per-method `Mult_XOR`
/// counts; the cheapest method is then used by [`StairCodec::encode`]
/// (§5.3: "we always pre-compute the number of Mult_XORs for each of the
/// encoding methods, and then choose the one with the fewest").
///
/// # Example
///
/// ```
/// use stair::{Config, EncodingMethod, StairCodec, Stripe};
///
/// let config = Config::new(8, 4, 2, &[1, 1, 2])?;
/// let codec: StairCodec = StairCodec::new(config.clone())?;
/// // For this configuration upstairs encoding is the cheapest.
/// assert_eq!(codec.best_method(), EncodingMethod::Upstairs);
/// # Ok::<(), stair::Error>(())
/// ```
#[derive(Clone, Debug)]
pub struct StairCodec<F: Field = Gf8> {
    config: Config,
    layout: Layout,
    crow: MdsCode<F>,
    ccol: MdsCode<F>,
    enc_upstairs: Option<Schedule<F>>,
    enc_downstairs: Option<Schedule<F>>,
    enc_two_phase: Option<Schedule<F>>,
    /// Which canonical cells a decode starts from, before erasures.
    decode_avail: Availability,
    relations: ParityRelations<F>,
    /// `relations` per data cell: the parities a small write patches.
    pub(crate) updates: UpdateMap<F::Elem>,
    counts: MultXorCounts,
    best: EncodingMethod,
    /// What the plans this codec builds record, and it requires.
    pub(crate) id: CodecId,
}

impl<F: Field> StairCodec<F> {
    /// Builds the codec for a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the configuration needs a wider
    /// field than `F` (`n + m' > F::ORDER` or `r + e_max > F::ORDER`), and
    /// propagates construction failures of the constituent codes.
    pub fn new(config: Config) -> Result<Self, Error> {
        let n = config.n();
        let r = config.r();
        let m = config.m();
        let m_prime = config.m_prime();
        let e_max = config.e_max();
        if n + m_prime > F::ORDER || r + e_max > F::ORDER {
            return Err(Error::InvalidConfig(format!(
                "code lengths (n+m'={}, r+e_max={}) exceed field order {}",
                n + m_prime,
                r + e_max,
                F::ORDER
            )));
        }
        let layout = Layout::new(&config);
        let crow = MdsCode::new(n + m_prime, n - m)?;
        let ccol = MdsCode::new(r + e_max, r)?;

        let parity_targets: Vec<Cell> = match config.placement() {
            GlobalPlacement::Inside => layout.parity_cells(),
            GlobalPlacement::Outside => {
                let mut t = layout.parity_cells();
                t.extend(layout.outside_global_cells());
                t
            }
        };

        let (enc_upstairs, enc_downstairs, enc_two_phase) = match config.placement() {
            GlobalPlacement::Inside => {
                let avail = encode_availability(&layout);
                // The m row-parity chunks play the role of the "failed
                // chunks" during upstairs encoding and are recovered
                // row-by-row last (§5.1.1), never by column steps.
                let parity_cols: Vec<usize> = (n - m..n).collect();
                let up = Peeler::new(&layout, &crow, &ccol, avail.clone())
                    .with_excluded_cols(&parity_cols)
                    .build(&parity_targets, PeelOrder::Upstairs)?;
                let down = Peeler::new(&layout, &crow, &ccol, avail)
                    .build(&parity_targets, PeelOrder::Downstairs)?;
                (Some(up), Some(down), None)
            }
            GlobalPlacement::Outside => {
                let two = two_phase_schedule(&layout, &crow, &ccol)?;
                (None, None, Some(two))
            }
        };

        let relation_schedule = enc_upstairs
            .as_ref()
            .or(enc_two_phase.as_ref())
            .expect("one encode schedule always exists");
        let relations = ParityRelations::derive(&layout, relation_schedule, parity_targets.clone());

        let updates = relations.update_map(&layout);

        let mut counts = MultXorCounts::analytic(&config);
        counts.standard = relations.standard_mult_xors();
        let best = match config.placement() {
            GlobalPlacement::Inside => counts.best(),
            GlobalPlacement::Outside => EncodingMethod::TwoPhase,
        };

        let id = CodecId {
            spec: config.spec(),
            width: F::W,
            outside_globals: config.placement() == GlobalPlacement::Outside,
        };
        Ok(StairCodec {
            decode_avail: decode_availability(&layout),
            id,
            config,
            layout,
            crow,
            ccol,
            enc_upstairs,
            enc_downstairs,
            enc_two_phase,
            relations,
            updates,
            counts,
            best,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// The coordinate layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Per-method `Mult_XOR` counts (upstairs/downstairs analytic, standard
    /// from the dense relations).
    pub fn mult_xor_counts(&self) -> MultXorCounts {
        self.counts
    }

    /// The encoding method [`StairCodec::encode`] will use.
    pub fn best_method(&self) -> EncodingMethod {
        self.best
    }

    /// The dense data→parity relations (standard encoding matrix, update
    /// penalties, Property 5.1).
    pub fn relations(&self) -> &ParityRelations<F> {
        &self.relations
    }

    /// The encoding schedule for a method, if available for this placement.
    pub fn encode_schedule(&self, method: EncodingMethod) -> Option<&Schedule<F>> {
        match method {
            EncodingMethod::Upstairs => self.enc_upstairs.as_ref(),
            EncodingMethod::Downstairs => self.enc_downstairs.as_ref(),
            EncodingMethod::TwoPhase => self.enc_two_phase.as_ref(),
            EncodingMethod::Standard => None,
        }
    }

    /// Encodes a stripe in place with the cheapest method.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if the stripe was allocated for a
    /// different configuration.
    pub fn encode(&self, stripe: &mut Stripe) -> Result<(), Error> {
        self.encode_with(self.best, stripe)
    }

    /// Encodes a stripe in place with an explicit method.
    ///
    /// # Errors
    ///
    /// * [`Error::ShapeMismatch`] if the stripe belongs to another config;
    /// * [`Error::InvalidConfig`] if the method is unavailable for this
    ///   placement (e.g. upstairs with outside globals).
    pub fn encode_with(&self, method: EncodingMethod, stripe: &mut Stripe) -> Result<(), Error> {
        self.check_stripe(stripe)?;
        let mut canvas = Canvas::new(&self.layout, stripe);
        self.encode_on(method, &mut canvas)?;
        if self.config.placement() == GlobalPlacement::Outside {
            canvas.export_outside_globals(&self.layout);
        }
        Ok(())
    }

    /// Runs one encoding method against an already-built canvas (shared by
    /// the inherent API and the [`stair_code::ErasureCode`] impl).
    pub(crate) fn encode_on(
        &self,
        method: EncodingMethod,
        canvas: &mut Canvas<'_>,
    ) -> Result<(), Error> {
        match method {
            EncodingMethod::Standard => self.relations.encode(canvas),
            _ => {
                let schedule = self.encode_schedule(method).ok_or_else(|| {
                    Error::InvalidConfig(format!(
                        "{method:?} encoding is unavailable for {:?} placement",
                        self.config.placement()
                    ))
                })?;
                schedule.execute(canvas);
                Ok(())
            }
        }
    }

    /// Builds a reusable decoding plan for an erasure pattern.
    ///
    /// The plan implements the practical decoding strategy of §4.3: rows
    /// repairable locally (≤ m erased symbols) never touch global parities,
    /// and only the virtual symbols actually needed are computed.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidPattern`] for malformed patterns;
    /// * [`Error::Unrecoverable`] if peeling cannot repair the pattern
    ///   (never happens within the `(m, e)` coverage).
    pub fn plan_decode(&self, erased: &[(usize, usize)]) -> Result<Plan, Error> {
        self.plan_recover(erased, erased)
    }

    /// Builds a plan that recovers only the `wanted` subset of the erased
    /// sectors — the degraded-read path: serving one lost sector does not
    /// require repairing the whole stripe. The pruned peel of
    /// [`StairCodec::decode_schedule`], lowered to one step per output
    /// cell.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidPattern`] if `wanted` is not a subset of `erased`
    ///   or either set is malformed;
    /// * [`Error::Unrecoverable`] if peeling cannot reach the wanted cells.
    pub fn plan_recover(
        &self,
        erased: &[(usize, usize)],
        wanted: &[(usize, usize)],
    ) -> Result<Plan, Error> {
        let (peeler, avail) = self.peel_decode(erased, wanted)?;
        self.lower(&peeler, &avail, wanted)
    }

    /// The upstairs decoding schedule a plan for `wanted` is lowered
    /// from, pruned to what `wanted` needs (Table 2 renders it).
    ///
    /// # Errors
    ///
    /// As [`StairCodec::plan_recover`].
    pub fn decode_schedule(
        &self,
        erased: &[(usize, usize)],
        wanted: &[(usize, usize)],
    ) -> Result<Schedule<F>, Error> {
        let (peeler, avail) = self.peel_decode(erased, wanted)?;
        peeler.schedule(&avail)
    }

    /// Peels the pattern and prunes it to `wanted`; returns the peeler
    /// holding the pruned steps and which canonical cells were available
    /// before it ran.
    fn peel_decode(
        &self,
        erased: &[Cell],
        wanted: &[Cell],
    ) -> Result<(Peeler<'_, F>, Availability), Error> {
        let counts = self.config.erasure_counts(erased)?;
        let mut avail = self.decode_avail.clone();
        for &cell in erased {
            avail.remove(cell);
        }
        if let Some(w) = wanted
            .iter()
            .find(|&&w| !self.layout.is_stored(w) || avail.contains(w))
        {
            return Err(Error::InvalidPattern(format!(
                "wanted cell {w:?} is not in the erased set"
            )));
        }

        // §4.3: designate the m chunks with the most lost symbols as the
        // "failed chunks" recovered by row parities last; everything else
        // may use column recovery. Retry unrestricted if the restricted
        // peel stalls (can only happen outside the guaranteed coverage).
        let mut order: Vec<usize> = (0..self.config.n()).collect();
        order.sort_by_key(|&c| std::cmp::Reverse(counts[c]));
        order.truncate(self.config.m());
        order.retain(|&c| counts[c] > 0);
        let peel = |excluded: &[usize]| {
            let mut peeler = Peeler::new(&self.layout, &self.crow, &self.ccol, avail.clone())
                .with_excluded_cols(excluded);
            peeler.peel(wanted, PeelOrder::Upstairs).map(|()| peeler)
        };
        let peeler = match peel(&order) {
            Err(Error::Unrecoverable { .. }) => peel(&[])?,
            other => other?,
        };
        Ok((peeler, avail))
    }

    /// Lowers a pruned decode peel to a [`Plan`]: one step per output
    /// cell, over all of its peeled step's inputs — zero coefficients
    /// too, so the plan costs exactly what the schedule does. An input
    /// that was available from the start is a source if the stripe stores
    /// it (the grid, and the outside globals where the placement keeps
    /// them); the pinned-zero globals of inside placement share one zero
    /// slot. Every other input is an earlier step's output.
    fn lower(
        &self,
        peeler: &Peeler<'_, F>,
        avail: &Availability,
        wanted: &[Cell],
    ) -> Result<Plan, Error> {
        // Slots by canonical cell index, marked first, numbered after; a
        // cell left unset is no slot, which `finish` refuses.
        const SOURCE: usize = usize::MAX - 3;
        const PINNED: usize = usize::MAX - 2;
        const WANTED: usize = usize::MAX - 1;
        const UNSET: usize = usize::MAX;
        let ccols = self.layout.canonical_cols();
        let at = |(row, col): Cell| row * ccols + col;
        let outside = self.config.placement() == GlobalPlacement::Outside;
        let mut slot = vec![UNSET; self.layout.canonical_rows() * ccols];
        for &w in wanted {
            slot[at(w)] = WANTED;
        }
        let mut zero_cell = None;
        for step in peeler.steps() {
            for c in step.input_cells() {
                if avail.contains(c) {
                    let stored = self.layout.is_stored(c) || outside;
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
        for step in peeler.steps() {
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

        let mut plan = Plan::builder(self.id.clone(), sources, intermediates, wanted);
        let (steps, terms) = peeler.steps().fold((0, 0), |(steps, terms), s| {
            (
                steps + s.outputs.len(),
                terms + s.outputs.len() * s.inputs.len(),
            )
        });
        plan.reserve(steps, terms);
        let mut inputs = Vec::new();
        for step in peeler.steps() {
            let coeff = peeler.coefficients(&step)?;
            inputs.clear();
            inputs.extend(step.input_cells().map(|c| slot[at(c)]));
            for (j, out) in step.output_cells().enumerate() {
                let coeffs = (0..inputs.len()).map(|i| F::value(coeff.get(i, j)) as u16);
                plan.step(slot[at(out)], inputs.iter().copied().zip(coeffs));
            }
        }
        Ok(plan.finish()?)
    }

    /// Repairs a stripe in place according to a plan: the one executor,
    /// [`Plan::execute`], over the stripe's grid and outside globals.
    ///
    /// # Errors
    ///
    /// * [`Error::ShapeMismatch`] if the stripe belongs to another
    ///   configuration;
    /// * [`Error::InvalidPattern`] if another codec built the plan.
    pub fn apply_plan(&self, plan: &Plan, stripe: &mut Stripe) -> Result<(), Error> {
        self.check_stripe(stripe)?;
        Ok(plan.execute(&self.id, stripe)?)
    }

    /// Repairs the listed erased sectors in place (plan + apply).
    ///
    /// # Errors
    ///
    /// See [`StairCodec::plan_decode`] and [`StairCodec::apply_plan`].
    pub fn decode(&self, stripe: &mut Stripe, erased: &[(usize, usize)]) -> Result<(), Error> {
        let plan = self.plan_decode(erased)?;
        self.apply_plan(&plan, stripe)
    }

    /// Degraded read: returns the contents of sector `(row, col)` while the
    /// stripe carries the given erasures, reconstructing (and repairing in
    /// place) only what that one sector needs.
    ///
    /// # Errors
    ///
    /// See [`StairCodec::plan_recover`]; reads of healthy sectors never
    /// fail.
    pub fn read_sector_degraded(
        &self,
        stripe: &mut Stripe,
        erased: &[(usize, usize)],
        row: usize,
        col: usize,
    ) -> Result<Vec<u8>, Error> {
        self.check_stripe(stripe)?;
        if row >= self.config.r() || col >= self.config.n() {
            return Err(Error::InvalidPattern(format!("({row},{col}) out of range")));
        }
        if erased.contains(&(row, col)) {
            let plan = self.plan_recover(erased, &[(row, col)])?;
            self.apply_plan(&plan, stripe)?;
        }
        Ok(stripe.cell(row, col).to_vec())
    }

    fn check_stripe(&self, stripe: &Stripe) -> Result<(), Error> {
        if stripe.config() != &self.config {
            return Err(Error::ShapeMismatch(
                "stripe was allocated for a different configuration".into(),
            ));
        }
        Ok(())
    }
}

/// Initial availability for encoding: data cells and pinned/outside global
/// cells are available; every parity and virtual cell is unknown.
pub(crate) fn encode_availability(layout: &Layout) -> Availability {
    grid_availability(layout, |kind| {
        matches!(kind, CellKind::Data | CellKind::OutsideGlobal { .. })
    })
}

/// Initial availability for decoding: all stored cells plus global cells
/// (outside globals are assumed always available, §3; pinned zeros under
/// inside placement).
pub(crate) fn decode_availability(layout: &Layout) -> Availability {
    grid_availability(layout, |kind| {
        matches!(
            kind,
            CellKind::Data
                | CellKind::RowParity
                | CellKind::InsideGlobal { .. }
                | CellKind::OutsideGlobal { .. }
        )
    })
}

fn grid_availability(layout: &Layout, f: impl Fn(CellKind) -> bool) -> Availability {
    let mut avail = Availability::none(layout);
    for row in 0..layout.canonical_rows() {
        for col in 0..layout.canonical_cols() {
            if f(layout.kind((row, col))) {
                avail.insert((row, col));
            }
        }
    }
    avail
}

/// The literal two-phase baseline encoding of §3 (outside placement):
/// Phase 1 encodes every row from its data symbols; Phase 2 encodes each
/// intermediate chunk down to its real global parities.
fn two_phase_schedule<F: Field>(
    layout: &Layout,
    crow: &MdsCode<F>,
    ccol: &MdsCode<F>,
) -> Result<Schedule<F>, Error> {
    let (n, r, m) = (layout.n(), layout.r(), layout.m());
    let m_prime = layout.m_prime();
    let mut steps = Vec::new();
    let data_idx: Vec<usize> = (0..n - m).collect();
    let parity_idx: Vec<usize> = (n - m..n + m_prime).collect();
    let row_coeff = crow.recovery_coefficients(&data_idx, &parity_idx)?;
    for i in 0..r {
        steps.push(crate::schedule::Step {
            code: crate::schedule::StepCode::Row(i),
            inputs: data_idx.iter().map(|&j| (i, j)).collect(),
            outputs: parity_idx.iter().map(|&j| (i, j)).collect(),
            coeff: row_coeff.clone(),
        });
    }
    let col_in: Vec<usize> = (0..r).collect();
    for l in 0..m_prime {
        let el = layout_e(layout, l);
        let wanted: Vec<usize> = (r..r + el).collect();
        let coeff = ccol.recovery_coefficients(&col_in, &wanted)?;
        steps.push(crate::schedule::Step {
            code: crate::schedule::StepCode::Col(n + l),
            inputs: col_in.iter().map(|&i| (i, n + l)).collect(),
            outputs: wanted.iter().map(|&i| (i, n + l)).collect(),
            coeff,
        });
    }
    Ok(Schedule { steps })
}

fn layout_e(layout: &Layout, l: usize) -> usize {
    layout
        .outside_global_cells()
        .iter()
        .filter(|&&(_, col)| col == layout.n() + l)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_codec() -> StairCodec {
        StairCodec::new(Config::new(8, 4, 2, &[1, 1, 2]).unwrap()).unwrap()
    }

    fn encode_round_trip(codec: &StairCodec, method: EncodingMethod) -> Stripe {
        let mut stripe = Stripe::new(codec.config().clone(), 8).unwrap();
        stripe.fill_pattern(42);
        codec.encode_with(method, &mut stripe).unwrap();
        stripe
    }

    #[test]
    fn all_encoding_methods_agree() {
        let codec = paper_codec();
        let up = encode_round_trip(&codec, EncodingMethod::Upstairs);
        let down = encode_round_trip(&codec, EncodingMethod::Downstairs);
        let std_ = encode_round_trip(&codec, EncodingMethod::Standard);
        assert_eq!(
            up, down,
            "upstairs and downstairs must produce identical parities"
        );
        assert_eq!(up, std_, "standard must produce identical parities");
    }

    #[test]
    fn worst_case_pattern_decodes() {
        let codec = paper_codec();
        let mut stripe = encode_round_trip(&codec, EncodingMethod::Upstairs);
        let pristine = stripe.clone();
        // m = 2 failed chunks (6, 7) + sector failures (1,1,2) in chunks
        // 3, 4, 5 at the chunk bottoms — Fig. 4's worst case.
        let erased: Vec<(usize, usize)> = (0..4)
            .flat_map(|i| [(i, 6), (i, 7)])
            .chain([(3, 3), (3, 4), (2, 5), (3, 5)])
            .collect();
        stripe.erase(&erased).unwrap();
        codec.decode(&mut stripe, &erased).unwrap();
        assert_eq!(stripe, pristine);
    }

    #[test]
    fn decode_beyond_coverage_fails_cleanly() {
        let codec = paper_codec();
        let mut stripe = encode_round_trip(&codec, EncodingMethod::Upstairs);
        // 3 fully-failed chunks > m + anything e can absorb with r = 4.
        let erased: Vec<(usize, usize)> = (0..4)
            .flat_map(|i| [(i, 5), (i, 6), (i, 7)])
            .chain([(0, 0)])
            .collect();
        assert!(!codec
            .config()
            .spec()
            .covers(&erased.iter().copied().collect()));
        let err = codec.decode(&mut stripe, &erased).unwrap_err();
        assert!(matches!(err, Error::Unrecoverable { .. }));
    }

    #[test]
    fn two_phase_outside_round_trip() {
        let config = Config::with_placement(8, 4, 2, &[1, 1, 2], GlobalPlacement::Outside).unwrap();
        let codec: StairCodec = StairCodec::new(config.clone()).unwrap();
        assert_eq!(codec.best_method(), EncodingMethod::TwoPhase);
        let mut stripe = Stripe::new(config, 8).unwrap();
        stripe.fill_pattern(7);
        codec.encode(&mut stripe).unwrap();
        assert!(
            stripe
                .outside_globals()
                .iter()
                .any(|g| g.iter().any(|&b| b != 0)),
            "globals must be populated"
        );
        let pristine = stripe.clone();
        let erased: Vec<(usize, usize)> = (0..4)
            .flat_map(|i| [(i, 6), (i, 7)])
            .chain([(3, 3), (3, 4), (2, 5), (3, 5)])
            .collect();
        stripe.erase(&erased).unwrap();
        codec.decode(&mut stripe, &erased).unwrap();
        assert_eq!(stripe, pristine);
    }

    #[test]
    fn upstairs_unavailable_for_outside_placement() {
        let config = Config::with_placement(8, 4, 2, &[1, 1, 2], GlobalPlacement::Outside).unwrap();
        let codec: StairCodec = StairCodec::new(config.clone()).unwrap();
        let mut stripe = Stripe::new(config, 8).unwrap();
        assert!(matches!(
            codec.encode_with(EncodingMethod::Upstairs, &mut stripe),
            Err(Error::InvalidConfig(_))
        ));
    }

    #[test]
    fn schedule_costs_match_analytic_formulas() {
        let codec = paper_codec();
        let counts = codec.mult_xor_counts();
        assert_eq!(
            codec
                .encode_schedule(EncodingMethod::Upstairs)
                .unwrap()
                .mult_xors(),
            counts.upstairs
        );
        assert_eq!(
            codec
                .encode_schedule(EncodingMethod::Downstairs)
                .unwrap()
                .mult_xors(),
            counts.downstairs
        );
    }

    #[test]
    fn degraded_read_recovers_single_sector_cheaply() {
        let codec = paper_codec();
        let mut stripe = encode_round_trip(&codec, EncodingMethod::Upstairs);
        let pristine = stripe.clone();
        // Two devices fail; read one sector from the first.
        let erased: Vec<(usize, usize)> = (0..4).flat_map(|i| [(i, 6), (i, 7)]).collect();
        stripe.erase(&erased).unwrap();
        let got = codec
            .read_sector_degraded(&mut stripe, &erased, 2, 6)
            .unwrap();
        assert_eq!(got.as_slice(), pristine.cell(2, 6));
        // A single-sector plan must be cheaper than the full repair plan.
        let single = codec.plan_recover(&erased, &[(2, 6)]).unwrap();
        let full = codec.plan_decode(&erased).unwrap();
        assert!(single.mult_xors() < full.mult_xors());
        // Healthy sectors read straight through.
        let healthy = codec
            .read_sector_degraded(&mut stripe, &erased, 0, 0)
            .unwrap();
        assert_eq!(healthy.as_slice(), pristine.cell(0, 0));
        // Wanted-not-erased is rejected.
        assert!(matches!(
            codec.plan_recover(&erased, &[(0, 0)]),
            Err(Error::InvalidPattern(_))
        ));
    }

    #[test]
    fn plan_reuse_across_stripes() {
        let codec = paper_codec();
        let erased = vec![(0, 0), (1, 1), (0, 6)];
        let plan = codec.plan_decode(&erased).unwrap();
        for seed in 0..3 {
            let mut stripe = Stripe::new(codec.config().clone(), 8).unwrap();
            stripe.fill_pattern(seed);
            codec.encode(&mut stripe).unwrap();
            let pristine = stripe.clone();
            stripe.erase(&erased).unwrap();
            codec.apply_plan(&plan, &mut stripe).unwrap();
            assert_eq!(stripe, pristine);
        }
    }
}
