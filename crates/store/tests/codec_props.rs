//! Cross-codec property test: every [`ErasureCode`] implementation must
//! round-trip random payloads through encode → erase → plan/apply, for
//! randomized within-coverage failure patterns (whole devices plus
//! sector bursts), all through the one shared trait interface the store
//! uses.

use proptest::prelude::*;
use stair_code::{CodecSpec, ErasureCode, ErasureSet, StripeBuf};
use stair_store::build_codec;

/// Deterministic small RNG so cases reproduce exactly.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() as usize) % n.max(1)
    }
    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// The codec specs under test. Small geometries keep the solve/peel work
/// per case cheap; every family is represented, including an SD code with
/// `m = 0` (pure sector parity) analogue avoided — the store requires
/// device parity — so all specs carry `m ≥ 1`.
const SPECS: &[&str] = &[
    "stair:8,4,2,1-1-2",
    "stair:6,4,1,2",
    "stair:5,3,1,1-1",
    "sd:6,4,1,2",
    "sd:5,3,1,1",
    "rs:6,4,2",
    "rs:5,3,1",
];

/// A random within-coverage erasure pattern for a codec: up to `m` whole
/// devices, plus (where the codec tolerates sector damage) a burst of up
/// to [`Geometry::burst`] rows in one further device — the codec's own
/// advertised single-chunk tolerance.
fn random_pattern(code: &dyn ErasureCode, rng: &mut Lcg) -> ErasureSet {
    let geom = code.geometry();
    let mut devices: Vec<usize> = (0..geom.n).collect();
    rng.shuffle(&mut devices);
    let failed = rng.below(geom.m + 1);
    let mut cells: Vec<(usize, usize)> = devices
        .iter()
        .take(failed)
        .flat_map(|&d| (0..geom.r).map(move |row| (row, d)))
        .collect();
    if geom.burst > 0 {
        let burst_dev = devices[geom.m]; // never one of the failed devices
        let max_burst = geom.burst.min(geom.r);
        let burst = 1 + rng.below(max_burst);
        let start = rng.below(geom.r - burst + 1);
        cells.extend((start..start + burst).map(|row| (row, burst_dev)));
    }
    ErasureSet::new(cells)
}

fn filled_buf(code: &dyn ErasureCode, symbol: usize, seed: u64) -> StripeBuf {
    let geom = code.geometry();
    let mut buf = StripeBuf::new(geom.r, geom.n, symbol).unwrap();
    let payload: Vec<u8> = (0..geom.data_per_stripe() * symbol)
        .map(|i| ((i as u64).wrapping_mul(2654435761).wrapping_add(seed) >> 3) as u8)
        .collect();
    buf.write_cells(&geom.data_cells, &payload).unwrap();
    code.encode(&mut buf).unwrap();
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// encode → erase (devices + burst) → plan → apply restores every
    /// cell, for every codec family, through the shared trait.
    #[test]
    fn all_codecs_round_trip_within_coverage(seed in any::<u64>()) {
        let mut rng = Lcg(seed | 1);
        for spec_text in SPECS {
            let spec: CodecSpec = spec_text.parse().unwrap();
            let code = build_codec(&spec).unwrap();
            let buf = filled_buf(code.as_ref(), 8, seed);
            let erased = random_pattern(code.as_ref(), &mut rng);
            if erased.is_empty() {
                continue;
            }
            let mut damaged = buf.clone();
            damaged.erase(erased.cells());
            let plan = code.plan(&erased)
                .unwrap_or_else(|e| panic!("{spec_text}: plan failed for {erased:?}: {e}"));
            code.apply(&plan, &mut damaged).unwrap();
            prop_assert_eq!(&damaged, &buf, "{}: pattern {:?}", spec_text, erased);
        }
    }

    /// Partial recovery (the degraded-read path) restores exactly the
    /// wanted cells for every codec.
    #[test]
    fn all_codecs_partial_recovery_restores_wanted_cells(seed in any::<u64>()) {
        let mut rng = Lcg(seed | 1);
        for spec_text in SPECS {
            let spec: CodecSpec = spec_text.parse().unwrap();
            let code = build_codec(&spec).unwrap();
            let buf = filled_buf(code.as_ref(), 8, seed ^ 0xDEAD);
            let erased = random_pattern(code.as_ref(), &mut rng);
            if erased.is_empty() {
                continue;
            }
            let wanted = [erased.cells()[rng.below(erased.len())]];
            let mut damaged = buf.clone();
            damaged.erase(erased.cells());
            let plan = code.plan_recover(&erased, &wanted).unwrap();
            code.apply(&plan, &mut damaged).unwrap();
            prop_assert_eq!(
                damaged.cell(wanted[0]),
                buf.cell(wanted[0]),
                "{}: wanted {:?} of {:?}",
                spec_text,
                wanted,
                erased
            );
        }
    }

    /// A plan is honest about what it reads: its sources avoid every
    /// erased cell, and with garbage in every cell *outside* the sources
    /// — erased or not — applying it still restores each wanted cell
    /// bit for bit. (So a store that loads the sources and nothing else
    /// has loaded enough.)
    #[test]
    fn all_codecs_plans_read_their_sources_and_nothing_else(seed in any::<u64>()) {
        let mut rng = Lcg(seed | 1);
        for spec_text in SPECS {
            let spec: CodecSpec = spec_text.parse().unwrap();
            let code = build_codec(&spec).unwrap();
            let geom = code.geometry();
            let buf = filled_buf(code.as_ref(), 8, seed ^ 0xF00D);
            let erased = random_pattern(code.as_ref(), &mut rng);
            let wanted: Vec<_> = erased.iter().filter(|_| rng.below(2) == 0).collect();
            if wanted.is_empty() {
                continue;
            }
            let plan = code.plan_recover(&erased, &wanted).unwrap();
            prop_assert_eq!(plan.recovers(), &wanted[..]);
            prop_assert!(
                plan.sources().iter().all(|&c| !erased.contains(c)),
                "{}: sources {:?} of {:?}", spec_text, plan.sources(), erased
            );
            let mut sparse = StripeBuf::new(geom.r, geom.n, 8).unwrap();
            for row in 0..geom.r {
                for col in 0..geom.n {
                    let garbage = rng.next() as u8 | 1;
                    sparse.cell_mut((row, col)).fill(garbage);
                }
            }
            for &cell in plan.sources() {
                sparse.set_cell(cell, buf.cell(cell));
            }
            code.apply(&plan, &mut sparse).unwrap();
            for &cell in &wanted {
                prop_assert_eq!(
                    sparse.cell(cell),
                    buf.cell(cell),
                    "{}: wanted {:?} of {:?} from {:?}",
                    spec_text, cell, erased, plan.sources()
                );
            }
        }
    }

    /// The parity-delta update path equals a full re-encode of the
    /// updated payload, for every codec.
    #[test]
    fn all_codecs_update_equals_reencode(seed in any::<u64>(), fill in any::<u8>()) {
        let mut rng = Lcg(seed | 1);
        for spec_text in SPECS {
            let spec: CodecSpec = spec_text.parse().unwrap();
            let code = build_codec(&spec).unwrap();
            let geom = code.geometry();
            let mut buf = filled_buf(code.as_ref(), 8, seed ^ 0xBEEF);
            let cell = geom.data_cells[rng.below(geom.data_cells.len())];
            let touched = code.update(&mut buf, cell, &[fill; 8]).unwrap();
            prop_assert!(!touched.is_empty() || geom.parity_cells.is_empty());
            let mut reference = StripeBuf::new(geom.r, geom.n, 8).unwrap();
            reference
                .write_cells(&geom.data_cells, &buf.read_cells(&geom.data_cells))
                .unwrap();
            code.encode(&mut reference).unwrap();
            prop_assert_eq!(&buf, &reference, "{}: update {:?}", spec_text, cell);
        }
    }
}
