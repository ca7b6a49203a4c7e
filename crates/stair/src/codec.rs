//! The user-facing STAIR codec: construction, encoding (upstairs /
//! downstairs / standard / baseline two-phase), and upstairs decoding —
//! each lowered to a [`Plan`] and run by [`Plan::execute`].

use stair_code::{CodeError, CodecId, MdsCode, Plan, UpdateMap};
use stair_gf::{Field, Gf8};

use crate::layout::{Cell, CellKind, Layout};
use crate::peel::{Availability, PeelOrder, Peeler};
use crate::schedule::Schedule;
use crate::standard::ParityRelations;
use crate::stripe::Stripe;
use crate::{Config, GlobalPlacement, MultXorCounts};

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
/// Construction precomputes the `C_row`/`C_col` codes, the dense parity
/// relations, the per-method `Mult_XOR` counts, and the encode plan of
/// the cheapest method, which [`StairCodec::encode`] runs (§5.3: "we
/// always pre-compute the number of Mult_XORs for each of the encoding
/// methods, and then choose the one with the fewest").
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
/// # Ok::<(), stair_code::CodeError>(())
/// ```
#[derive(Clone, Debug)]
pub struct StairCodec<F: Field = Gf8> {
    config: Config,
    layout: Layout,
    crow: MdsCode<F>,
    ccol: MdsCode<F>,
    /// Which canonical cells a decode starts from, before erasures.
    decode_avail: Availability,
    relations: ParityRelations<F>,
    /// `relations` per data cell: the parities a small write patches.
    pub(crate) updates: UpdateMap,
    counts: MultXorCounts,
    best: EncodingMethod,
    /// The `best` method's plan: the data cells to every parity cell (and
    /// outside global, under outside placement).
    pub(crate) encode: Plan,
    /// What the plans this codec builds record, and it requires.
    pub(crate) id: CodecId,
}

impl<F: Field> StairCodec<F> {
    /// Builds the codec for a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidConfig`] if the configuration needs a wider
    /// field than `F` (`n + m' > F::ORDER` or `r + e_max > F::ORDER`), and
    /// propagates construction failures of the constituent codes.
    pub fn new(config: Config) -> Result<Self, CodeError> {
        let n = config.n();
        let r = config.r();
        let m = config.m();
        let m_prime = config.m_prime();
        let e_max = config.e_max();
        if n + m_prime > F::ORDER || r + e_max > F::ORDER {
            return Err(CodeError::InvalidConfig(format!(
                "code lengths (n+m'={}, r+e_max={}) exceed field order {}",
                n + m_prime,
                r + e_max,
                F::ORDER
            )));
        }
        let layout = Layout::new(&config);
        let crow = MdsCode::new(n + m_prime, n - m)?;
        let ccol = MdsCode::new(r + e_max, r)?;
        let id = CodecId {
            spec: config.spec(),
            width: F::W,
            outside_globals: config.placement() == GlobalPlacement::Outside,
        };

        // Upstairs encodes inside placement and two-phase outside: the
        // plan of either yields the dense relations, and from them the
        // standard method's cost.
        let first = match config.placement() {
            GlobalPlacement::Inside => EncodingMethod::Upstairs,
            GlobalPlacement::Outside => EncodingMethod::TwoPhase,
        };
        let (peeler, avail) = peel_encode(&layout, &crow, &ccol, first)?;
        let encode = peeler.lower(&id, &avail, &layout.encode_targets())?;
        let relations = ParityRelations::derive(&layout, &encode);
        let updates = relations.update_map(id.clone(), &layout)?;
        let mut counts = MultXorCounts::analytic(&config);
        counts.standard = relations.standard_mult_xors();
        let best = match config.placement() {
            GlobalPlacement::Inside => counts.best(),
            GlobalPlacement::Outside => EncodingMethod::TwoPhase,
        };

        let mut codec = StairCodec {
            decode_avail: decode_availability(&layout),
            id,
            config,
            layout,
            crow,
            ccol,
            relations,
            updates,
            counts,
            best,
            encode,
        };
        if best != first {
            codec.encode = codec.plan_encode(best)?;
        }
        Ok(codec)
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

    /// The peeling schedule of an encoding method, solved (Table 3
    /// renders the downstairs one). Built on the call.
    ///
    /// # Errors
    ///
    /// [`CodeError::InvalidConfig`] for [`EncodingMethod::Standard`], which is
    /// no peel, and for a method this placement lacks.
    pub fn encode_schedule(&self, method: EncodingMethod) -> Result<Schedule<F>, CodeError> {
        let (peeler, avail) = peel_encode(&self.layout, &self.crow, &self.ccol, method)?;
        peeler.schedule(&avail)
    }

    /// An encoding method's plan: its peel lowered as a decode's is, or
    /// for [`EncodingMethod::Standard`] the dense relations.
    fn plan_encode(&self, method: EncodingMethod) -> Result<Plan, CodeError> {
        if method == EncodingMethod::Standard {
            return self.relations.plan(self.id.clone());
        }
        let (peeler, avail) = peel_encode(&self.layout, &self.crow, &self.ccol, method)?;
        peeler.lower(&self.id, &avail, &self.layout.encode_targets())
    }

    /// Encodes a stripe in place with the cheapest method.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::ShapeMismatch`] if the stripe was allocated for a
    /// different configuration, or its sectors do not hold whole field
    /// elements.
    pub fn encode(&self, stripe: &mut Stripe) -> Result<(), CodeError> {
        self.apply_plan(&self.encode, stripe)
    }

    /// Encodes a stripe in place with an explicit method; any but
    /// [`StairCodec::best_method`] is lowered to a plan on the call.
    ///
    /// # Errors
    ///
    /// * [`CodeError::ShapeMismatch`] as [`StairCodec::encode`];
    /// * [`CodeError::InvalidConfig`] if the method is unavailable for this
    ///   placement (e.g. upstairs with outside globals).
    pub fn encode_with(
        &self,
        method: EncodingMethod,
        stripe: &mut Stripe,
    ) -> Result<(), CodeError> {
        if method == self.best {
            return self.encode(stripe);
        }
        self.apply_plan(&self.plan_encode(method)?, stripe)
    }

    /// Builds a reusable decoding plan for an erasure pattern.
    ///
    /// The plan implements the practical decoding strategy of §4.3: rows
    /// repairable locally (≤ m erased symbols) never touch global parities,
    /// and only the virtual symbols actually needed are computed.
    ///
    /// # Errors
    ///
    /// * [`CodeError::InvalidPattern`] for malformed patterns;
    /// * [`CodeError::Unrecoverable`] if peeling cannot repair the pattern
    ///   (never happens within the `(m, e)` coverage).
    pub fn plan_decode(&self, erased: &[(usize, usize)]) -> Result<Plan, CodeError> {
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
    /// * [`CodeError::InvalidPattern`] if `wanted` is not a subset of `erased`
    ///   or either set is malformed;
    /// * [`CodeError::Unrecoverable`] if peeling cannot reach the wanted cells.
    pub fn plan_recover(
        &self,
        erased: &[(usize, usize)],
        wanted: &[(usize, usize)],
    ) -> Result<Plan, CodeError> {
        let (peeler, avail) = self.peel_decode(erased, wanted)?;
        peeler.lower(&self.id, &avail, wanted)
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
    ) -> Result<Schedule<F>, CodeError> {
        let (peeler, avail) = self.peel_decode(erased, wanted)?;
        peeler.schedule(&avail)
    }

    /// Peels the pattern and prunes it to `wanted`; returns the peeler
    /// holding the pruned steps and which canonical cells were available
    /// before it ran.
    ///
    /// When every wanted cell sits in a row that lost only cells of the
    /// designated failed chunks — a degraded read around failed devices,
    /// mostly — the plan is those rows' `C_row` steps and nothing else
    /// ([`PeelOrder::TargetRows`]): the steps the full peel would keep,
    /// found without walking every other line.
    fn peel_decode(
        &self,
        erased: &[Cell],
        wanted: &[Cell],
    ) -> Result<(Peeler<'_, F>, Availability), CodeError> {
        let (avail, failed) = self.decode_start(erased, wanted)?;
        let mut mixed = vec![false; self.config.r()];
        for &(row, col) in erased {
            mixed[row] |= !failed.contains(&col);
        }
        if wanted.iter().all(|&(row, _)| !mixed[row]) {
            let mut peeler = Peeler::new(&self.layout, &self.crow, &self.ccol, avail.clone())
                .with_excluded_cols(&failed);
            peeler.peel(wanted, PeelOrder::TargetRows)?;
            return Ok((peeler, avail));
        }
        self.peel_upstairs(avail, &failed, wanted)
    }

    /// Where a decode starts: the canonical cells available once `erased`
    /// is gone, and the designated failed chunks.
    ///
    /// §4.3: the `m` chunks with the most lost symbols are the "failed
    /// chunks", recovered by row parities last; everything else may use
    /// column recovery.
    fn decode_start(
        &self,
        erased: &[Cell],
        wanted: &[Cell],
    ) -> Result<(Availability, Vec<usize>), CodeError> {
        let counts = self.config.erasure_counts(erased)?;
        let mut avail = self.decode_avail.clone();
        for &cell in erased {
            avail.remove(cell);
        }
        if let Some(w) = wanted
            .iter()
            .find(|&&w| !self.layout.is_stored(w) || avail.contains(w))
        {
            return Err(CodeError::InvalidPattern(format!(
                "wanted cell {w:?} is not in the erased set"
            )));
        }
        let mut failed: Vec<usize> = (0..self.config.n()).collect();
        failed.sort_by_key(|&c| std::cmp::Reverse(counts[c]));
        failed.truncate(self.config.m());
        failed.retain(|&c| counts[c] > 0);
        Ok((avail, failed))
    }

    /// The full upstairs peel from `avail` with the `failed` chunks
    /// excluded from column recovery, pruned to `wanted`. Retries
    /// unrestricted if the restricted peel stalls (which can only happen
    /// outside the guaranteed coverage).
    fn peel_upstairs(
        &self,
        avail: Availability,
        failed: &[usize],
        wanted: &[Cell],
    ) -> Result<(Peeler<'_, F>, Availability), CodeError> {
        let peel = |excluded: &[usize]| {
            let mut peeler = Peeler::new(&self.layout, &self.crow, &self.ccol, avail.clone())
                .with_excluded_cols(excluded);
            peeler.peel(wanted, PeelOrder::Upstairs).map(|()| peeler)
        };
        let peeler = match peel(failed) {
            Err(CodeError::Unrecoverable(_)) => peel(&[])?,
            other => other?,
        };
        Ok((peeler, avail))
    }

    /// Runs a plan — a repair, or an encode — over a stripe in place: the
    /// one executor, [`Plan::execute`], over the stripe's grid and outside
    /// globals.
    ///
    /// # Errors
    ///
    /// * [`CodeError::ShapeMismatch`] if the stripe belongs to another
    ///   configuration or its sectors do not hold whole field elements;
    /// * [`CodeError::InvalidPattern`] if another codec built the plan.
    pub fn apply_plan(&self, plan: &Plan, stripe: &mut Stripe) -> Result<(), CodeError> {
        self.check_stripe(stripe)?;
        plan.execute(&self.id, stripe)
    }

    /// Repairs the listed erased sectors in place (plan + apply).
    ///
    /// # Errors
    ///
    /// See [`StairCodec::plan_decode`] and [`StairCodec::apply_plan`].
    pub fn decode(&self, stripe: &mut Stripe, erased: &[(usize, usize)]) -> Result<(), CodeError> {
        let plan = self.plan_decode(erased)?;
        self.apply_plan(&plan, stripe)
    }

    fn check_stripe(&self, stripe: &Stripe) -> Result<(), CodeError> {
        if stripe.config() != &self.config {
            return Err(CodeError::ShapeMismatch(
                "stripe was allocated for a different configuration".into(),
            ));
        }
        Ok(())
    }
}

/// The peel that encodes with `method` (§5.1): every cell it writes
/// (the parity cells, and the outside globals where they are stored)
/// treated as lost. Upstairs recovers the row-parity chunks by rows alone
/// and last (§5.1.1); downstairs goes rows first (§5.1.2), and so does
/// two-phase, its form for outside globals (§3). Returns the peel and
/// which cells it started from.
fn peel_encode<'a, F: Field>(
    layout: &'a Layout,
    crow: &'a MdsCode<F>,
    ccol: &'a MdsCode<F>,
    method: EncodingMethod,
) -> Result<(Peeler<'a, F>, Availability), CodeError> {
    let placement = layout.placement();
    let (order, row_only) = match (method, placement) {
        (EncodingMethod::Upstairs, GlobalPlacement::Inside) => {
            (PeelOrder::Upstairs, layout.n() - layout.m()..layout.n())
        }
        (EncodingMethod::Downstairs, GlobalPlacement::Inside)
        | (EncodingMethod::TwoPhase, GlobalPlacement::Outside) => (PeelOrder::Downstairs, 0..0),
        (EncodingMethod::Standard, _) => {
            return Err(CodeError::InvalidConfig(
                "standard encoding is one dense combination per parity, not a peel".into(),
            ))
        }
        _ => {
            return Err(CodeError::InvalidConfig(format!(
                "{method:?} encoding is unavailable for {placement:?} placement"
            )))
        }
    };
    let avail = encode_availability(layout);
    let row_only: Vec<usize> = row_only.collect();
    let mut peeler = Peeler::new(layout, crow, ccol, avail.clone()).with_excluded_cols(&row_only);
    peeler.peel(&layout.encode_targets(), order)?;
    Ok((peeler, avail))
}

/// Initial availability for encoding: the data cells, and under inside
/// placement the outside globals, pinned to zero (§5.1); every parity and
/// virtual cell is unknown.
pub(crate) fn encode_availability(layout: &Layout) -> Availability {
    let inside = layout.placement() == GlobalPlacement::Inside;
    grid_availability(layout, |kind| match kind {
        CellKind::Data => true,
        CellKind::OutsideGlobal { .. } => inside,
        _ => false,
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
        assert!(matches!(err, CodeError::Unrecoverable(_)));
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
            Err(CodeError::InvalidConfig(_))
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
    fn one_lost_sector_recovers_cheaply() {
        let codec = paper_codec();
        let mut stripe = encode_round_trip(&codec, EncodingMethod::Upstairs);
        let pristine = stripe.clone();
        // Two devices fail; recover one sector of the first.
        let erased: Vec<(usize, usize)> = (0..4).flat_map(|i| [(i, 6), (i, 7)]).collect();
        stripe.erase(&erased).unwrap();
        let single = codec.plan_recover(&erased, &[(2, 6)]).unwrap();
        codec.apply_plan(&single, &mut stripe).unwrap();
        assert_eq!(stripe.cell(2, 6), pristine.cell(2, 6));
        // A single-sector plan must be cheaper than the full repair plan.
        let full = codec.plan_decode(&erased).unwrap();
        assert!(single.mult_xors() < full.mult_xors());
        // Wanted-not-erased is rejected.
        assert!(matches!(
            codec.plan_recover(&erased, &[(0, 0)]),
            Err(CodeError::InvalidPattern(_))
        ));
    }

    /// The plan of the full upstairs peel, whatever the pattern: the
    /// oracle for the plans built on demand.
    fn full_peel_plan(codec: &StairCodec, erased: &[Cell], wanted: &[Cell]) -> Plan {
        let (avail, failed) = codec.decode_start(erased, wanted).unwrap();
        let (peeler, avail) = codec.peel_upstairs(avail, &failed, wanted).unwrap();
        peeler.lower(&codec.id, &avail, wanted).unwrap()
    }

    /// `cases` random covered patterns — up to `m` failed chunks and up
    /// to `m'` bursts of up to `e_max` in other chunks — each with a
    /// random wanted subset (every cell with chance ⅓) and a read
    /// window's (the lost cells of one to three consecutive rows): the
    /// plan must equal the full peel's, step for step, source for source
    /// and coefficient for coefficient. Returns how many of the plans
    /// were built from the wanted rows alone.
    fn on_demand_plans_are_the_full_peels(codec: &StairCodec, cases: usize, seed: u64) -> usize {
        let config = codec.config();
        let (n, r, m) = (config.n(), config.r(), config.m());
        let spec = config.spec();
        let mut state = seed;
        let mut below = |n: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % n
        };
        let (mut planned, mut on_demand) = (0, 0);
        while planned < cases {
            let mut chunks: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                chunks.swap(i, below(i + 1));
            }
            let failed = below(m + 1);
            let mut erased: Vec<Cell> = chunks[..failed]
                .iter()
                .flat_map(|&c| (0..r).map(move |i| (i, c)))
                .collect();
            for &chunk in &chunks[failed..failed + below(config.m_prime() + 1)] {
                let burst = 1 + below(config.e_max());
                let start = below(r - burst + 1);
                erased.extend((start..start + burst).map(|i| (i, chunk)));
            }
            erased.sort_unstable();
            if erased.is_empty() || !spec.covers(&erased.iter().copied().collect()) {
                continue;
            }
            let first = below(r);
            let rows = first..r.min(first + 1 + below(3));
            let subsets: [Vec<Cell>; 2] = [
                erased.iter().copied().filter(|_| below(3) == 0).collect(),
                erased
                    .iter()
                    .copied()
                    .filter(|c| rows.contains(&c.0))
                    .collect(),
            ];
            for wanted in subsets.iter().filter(|w| !w.is_empty()) {
                let plan = codec.plan_recover(&erased, wanted).unwrap();
                let full = full_peel_plan(codec, &erased, wanted);
                assert_eq!(plan, full, "erased {erased:?} wanted {wanted:?}");
                let (_, failed) = codec.decode_start(&erased, wanted).unwrap();
                let mixed = |row| erased.iter().any(|&c| c.0 == row && !failed.contains(&c.1));
                on_demand += usize::from(wanted.iter().all(|&(row, _)| !mixed(row)));
                planned += 1;
            }
        }
        on_demand
    }

    #[test]
    fn plans_on_demand_equal_the_full_peel() {
        for (config, cases, seed) in [
            (Config::new(8, 4, 2, &[1, 1, 2]).unwrap(), 400, 0x5EED),
            (
                Config::with_placement(8, 4, 2, &[1, 1, 2], GlobalPlacement::Outside).unwrap(),
                200,
                0xACE,
            ),
            (Config::new(8, 16, 2, &[1, 2]).unwrap(), 400, 0xF00D),
            (Config::new(66, 65, 2, &[1, 2]).unwrap(), 12, 0xD1DE),
        ] {
            let codec: StairCodec = StairCodec::new(config.clone()).unwrap();
            let on_demand = on_demand_plans_are_the_full_peels(&codec, cases, seed);
            assert!(
                on_demand > 0 && on_demand < cases,
                "{config:?}: {on_demand} of {cases} plans on demand"
            );
        }
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
