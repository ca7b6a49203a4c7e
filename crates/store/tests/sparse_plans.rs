//! A plan needs its sources and nothing else, on every family: executed
//! through a lookup that holds only `Plan::sources()` — the shape of a
//! degraded store read — it recovers the same bytes as `apply` on a
//! whole damaged `StripeBuf`, which are the pristine ones. And one
//! `apply` ticks the `stair-gf` counters by exactly `Plan::mult_xors()`.
//!
//! One test function on purpose: the counters are process-global, so
//! nothing else in this binary may run alongside the measurement.

use std::collections::BTreeMap;

use stair::{Config, StairCodec};
use stair_code::{CellIdx, CellLookup, CodeError, CodecSpec, ErasureCode, ErasureSet, StripeBuf};
use stair_gf::{counters, Gf16};
use stair_store::build_codec;

const SYMBOL: usize = 16;

/// Deterministic small RNG so cases reproduce exactly.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as usize % n.max(1)
    }

    /// `k` distinct draws from `0..n`.
    fn distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut all: Vec<usize> = (0..n).collect();
        for i in 0..k.min(n) {
            let j = i + self.below(n - i);
            all.swap(i, j);
        }
        all.truncate(k);
        all
    }
}

/// Holds exactly a plan's sources; reading any other cell is an error.
struct SourcesOnly {
    sources: BTreeMap<CellIdx, Vec<u8>>,
    recovered: BTreeMap<CellIdx, Vec<u8>>,
}

impl CellLookup for SourcesOnly {
    fn symbol(&self) -> usize {
        SYMBOL
    }

    fn source(&self, cell: CellIdx) -> Option<&[u8]> {
        self.sources.get(&cell).map(Vec::as_slice)
    }

    fn recovered(&mut self, cell: CellIdx, bytes: &[u8]) -> Result<(), CodeError> {
        match self.recovered.insert(cell, bytes.to_vec()) {
            None => Ok(()),
            Some(_) => Err(CodeError::InvalidPattern(format!(
                "{cell:?} recovered twice"
            ))),
        }
    }
}

/// A pattern the codec's spec covers: up to `m` whole devices, plus
/// STAIR's bursts (one chunk per `e_i`, at most `e_i` long), SD's `s`
/// sectors anywhere else, or RS's extra sectors in rows with room.
fn covered_pattern(spec: &CodecSpec, rng: &mut Lcg) -> ErasureSet {
    let (n, r, m) = (spec.n(), spec.r(), spec.m());
    let chunks = rng.distinct(n, n);
    let failed = rng.below(m + 1);
    let mut cells: Vec<CellIdx> = chunks[..failed]
        .iter()
        .flat_map(|&dev| (0..r).map(move |row| (row, dev)))
        .collect();
    let rest = &chunks[failed..];
    match spec {
        CodecSpec::Stair { e, .. } => {
            for (&el, &dev) in e.iter().zip(rest) {
                let len = rng.below(el + 1);
                let start = rng.below(r - len + 1);
                cells.extend((start..start + len).map(|row| (row, dev)));
            }
        }
        CodecSpec::Sd { s, .. } => {
            let spare: Vec<CellIdx> = rest
                .iter()
                .flat_map(|&dev| (0..r).map(move |row| (row, dev)))
                .collect();
            let extra = rng.below(s + 1);
            cells.extend(
                rng.distinct(spare.len(), extra)
                    .into_iter()
                    .map(|k| spare[k]),
            );
        }
        CodecSpec::Rs { .. } => {
            for _ in 0..3 {
                let cell = (rng.below(r), rest[rng.below(rest.len())]);
                if cells.iter().filter(|c| c.0 == cell.0).count() < m {
                    cells.push(cell);
                }
            }
        }
    }
    ErasureSet::new(cells)
}

fn encoded(code: &dyn ErasureCode, seed: usize) -> StripeBuf {
    let geom = code.geometry();
    let mut buf = StripeBuf::new(geom.r, geom.n, SYMBOL).unwrap();
    let payload: Vec<u8> = (0..geom.data_per_stripe() * SYMBOL)
        .map(|i| (i.wrapping_mul(2654435761).wrapping_add(seed) >> 3) as u8)
        .collect();
    buf.write_cells(&geom.data_cells, &payload).unwrap();
    code.encode(&mut buf).unwrap();
    buf
}

#[test]
fn sparse_execution_equals_whole_stripe_apply_and_counts_its_mult_xors() {
    let mut codecs: Vec<Box<dyn ErasureCode>> = [
        "stair:8,16,2,1-2",
        "sd:8,16,2,3",
        "rs:8,16,2",
        "stair:8,4,2,1-1-2",
    ]
    .iter()
    .map(|spec| build_codec(&spec.parse().unwrap()).unwrap())
    .collect();
    let wide: StairCodec<Gf16> = StairCodec::new(Config::new(8, 6, 2, &[1, 2]).unwrap()).unwrap();
    codecs.push(Box::new(wide));

    let mut rng = Lcg(0x5EED_2026);
    for code in &codecs {
        let id = code.codec_id();
        let pristine = encoded(code.as_ref(), rng.below(1 << 20));
        let mut cases = 0;
        while cases < 40 {
            let erased = covered_pattern(&id.spec, &mut rng);
            let wanted: Vec<CellIdx> = erased.iter().filter(|_| rng.below(2) == 0).collect();
            if wanted.is_empty() {
                continue;
            }
            cases += 1;
            let plan = code.plan_recover(&erased, &wanted).unwrap();
            assert_eq!(plan.recovers(), &wanted[..]);
            assert!(plan.sources().iter().all(|&c| !erased.contains(c)));

            // Sparse: the sources and nothing else.
            let mut sparse = SourcesOnly {
                sources: (plan.sources().iter())
                    .map(|&c| (c, pristine.cell(c).to_vec()))
                    .collect(),
                recovered: BTreeMap::new(),
            };
            plan.execute(id, &mut sparse).unwrap();
            assert_eq!(sparse.recovered.len(), wanted.len());

            // Whole: a damaged stripe, counted.
            let mut whole = pristine.clone();
            for &cell in erased.cells() {
                whole.cell_mut(cell).fill(0xA5);
            }
            let (m0, b0) = (counters::mult_xors(), counters::region_bytes());
            code.apply(&plan, &mut whole).unwrap();
            let (mults, bytes) = (counters::mult_xors() - m0, counters::region_bytes() - b0);
            assert_eq!(mults as usize, plan.mult_xors(), "{id}: {erased:?}");
            assert_eq!(bytes as usize, plan.mult_xors() * SYMBOL, "{id}");

            for &cell in &wanted {
                assert_eq!(whole.cell(cell), pristine.cell(cell), "{id}: {cell:?}");
                assert_eq!(&sparse.recovered[&cell][..], pristine.cell(cell), "{id}");
            }

            // One source short, the plan refuses to run.
            if let Some(&gone) = plan.sources().first() {
                sparse.sources.remove(&gone);
                sparse.recovered.clear();
                assert!(matches!(
                    plan.execute(id, &mut sparse),
                    Err(CodeError::InvalidPattern(_))
                ));
            }
        }
    }
}
