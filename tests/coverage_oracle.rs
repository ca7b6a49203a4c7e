//! The decode oracle for the paper's central guarantee (§2, §4.2):
//! coverage is what the decoder does. [`CodecSpec::covers`] is the one
//! definition of which failure patterns a code promises to survive; this
//! oracle holds every codec family to it through `&dyn ErasureCode`, built
//! exactly as the store builds it ([`build_codec`], GF(2^8)):
//!
//! * covered ⇒ `plan` succeeds and the recovered bytes match;
//! * any `Ok` ⇒ the bytes match, and any error is `Unrecoverable`.
//!
//! It is exhaustive on small geometries — every pattern of at most
//! `m·r + s` cells, which includes every covered one — and seeded-sampled
//! on every spec the repository ships. Coverage is a guarantee, not a
//! characterisation: the census also counts the uncovered patterns a
//! decoder recovers anyway ("lucky").
//!
//! SD over GF(2^8) breaks the guarantee on the shipped SD specs (see the
//! `stair_sd` module docs). Those counts are pinned: if one moves, the SD
//! construction changed.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use stair_code::{CellIdx, CodeError, CodecSpec, ErasureCode, ErasureSet, StripeBuf};
use stair_gf::Gf16;
use stair_sd::SdCode;
use stair_store::build_codec;

/// What the oracle saw for one spec.
#[derive(Default)]
struct Census {
    /// Covered patterns that decoded.
    covered: usize,
    /// Uncovered patterns the decoder recovered anyway.
    lucky: usize,
    /// Uncovered patterns refused as `Unrecoverable`.
    refused: usize,
    /// Covered patterns refused as `Unrecoverable`: broken promises.
    broken: Vec<ErasureSet>,
}

impl Census {
    /// Fails the test if a covered pattern was refused.
    fn assert_kept(&self, what: &str) {
        let (broken, first) = (self.broken.len(), self.broken.first());
        assert_eq!(
            broken, 0,
            "{what}: covered patterns refused, first {first:?}"
        );
    }
}

/// The store's codec for `spec`.
fn store_codec(spec: &str) -> Box<dyn ErasureCode> {
    build_codec(&spec.parse().unwrap()).unwrap()
}

/// One stripe of `code` over seeded random data, encoded.
fn encoded(code: &dyn ErasureCode, seed: u64) -> StripeBuf {
    let g = code.geometry();
    let mut stripe = StripeBuf::new(g.r, g.n, 8).unwrap();
    let mut rng = SmallRng::seed_from_u64(seed);
    for &cell in &g.data_cells {
        stripe.cell_mut(cell).fill_with(|| rng.gen());
    }
    code.encode(&mut stripe).unwrap();
    stripe
}

/// Runs one pattern through the oracle's two checks.
fn check(code: &dyn ErasureCode, pristine: &StripeBuf, erased: &ErasureSet, census: &mut Census) {
    let spec = &code.codec_id().spec;
    let covered = spec.covers(erased);
    match code.plan(erased) {
        Ok(plan) => {
            let mut damaged = pristine.clone();
            for cell in erased.iter() {
                damaged.cell_mut(cell).fill(0xDB);
            }
            code.apply(&plan, &mut damaged).unwrap();
            assert!(
                damaged == *pristine,
                "{spec}: {erased:?} decoded to wrong bytes"
            );
            if covered {
                census.covered += 1;
            } else {
                census.lucky += 1;
            }
        }
        Err(CodeError::Unrecoverable(_)) if covered => census.broken.push(erased.clone()),
        Err(CodeError::Unrecoverable(_)) => census.refused += 1,
        Err(e) => panic!("{spec}: {erased:?} failed with `{e}`, not Unrecoverable"),
    }
}

/// Calls `f` on every non-empty subset of `cells` of at most `max` cells.
fn subsets(
    cells: &[CellIdx],
    max: usize,
    picked: &mut Vec<CellIdx>,
    f: &mut impl FnMut(&[CellIdx]),
) {
    if !picked.is_empty() {
        f(picked);
    }
    if picked.len() == max {
        return;
    }
    for (i, &cell) in cells.iter().enumerate() {
        picked.push(cell);
        subsets(&cells[i + 1..], max, picked, f);
        picked.pop();
    }
}

/// Every pattern of at most `m·r + s` cells — the largest covered size.
fn exhaustive(spec: &str) -> Census {
    let code = store_codec(spec);
    let pristine = encoded(&*code, 77);
    let g = code.geometry();
    let cells: Vec<CellIdx> = (0..g.r)
        .flat_map(|row| (0..g.n).map(move |col| (row, col)))
        .collect();
    let mut census = Census::default();
    subsets(&cells, g.m * g.r + g.s, &mut Vec::new(), &mut |pattern| {
        check(&*code, &pristine, &ErasureSet::from(pattern), &mut census);
    });
    census
}

/// `k` distinct values from `0..n`, uniformly.
fn pick(rng: &mut SmallRng, n: usize, k: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.gen_range(i..n);
        all.swap(i, j);
    }
    all.truncate(k);
    all
}

/// A random maximal covered pattern: `m` whole devices plus the most
/// sectors coverage allows elsewhere — `e` over `m'` further devices
/// (STAIR), `s` cells anywhere (SD), nothing (RS).
fn maximal_covered(spec: &CodecSpec, rng: &mut SmallRng) -> ErasureSet {
    let (n, r, m) = (spec.n(), spec.r(), spec.m());
    let devices = pick(rng, n, n);
    let mut cells: Vec<CellIdx> = devices[..m]
        .iter()
        .flat_map(|&dev| (0..r).map(move |row| (row, dev)))
        .collect();
    let rest = &devices[m..];
    match spec {
        CodecSpec::Stair { e, .. } => {
            for (&dev, &count) in rest.iter().zip(e) {
                cells.extend(pick(rng, r, count).into_iter().map(|row| (row, dev)));
            }
        }
        CodecSpec::Sd { s, .. } => {
            let cells_left = pick(rng, rest.len() * r, *s);
            cells.extend(cells_left.into_iter().map(|q| (q % r, rest[q / r])));
        }
        CodecSpec::Rs { .. } => {}
    }
    ErasureSet::new(cells)
}

/// A random pattern around the coverage boundary: up to `m + 1` whole
/// devices plus up to `s + 2` cells anywhere.
fn around_boundary(spec: &CodecSpec, rng: &mut SmallRng) -> ErasureSet {
    let (n, r) = (spec.n(), spec.r());
    let (whole, loose) = (
        rng.gen_range(0..=spec.m() + 1),
        rng.gen_range(1..=spec.s() + 2),
    );
    let (devices, sectors) = (pick(rng, n, whole.min(n)), pick(rng, n * r, loose));
    let whole = devices
        .into_iter()
        .flat_map(|dev| (0..r).map(move |row| (row, dev)));
    ErasureSet::new(whole.chain(sectors.into_iter().map(|q| (q / n, q % n))))
}

/// `samples` maximal covered patterns and `samples` boundary patterns.
fn sampled(code: &dyn ErasureCode, samples: usize, seed: u64) -> Census {
    let pristine = encoded(code, seed);
    let spec = &code.codec_id().spec;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut census = Census::default();
    for _ in 0..samples {
        check(
            code,
            &pristine,
            &maximal_covered(spec, &mut rng),
            &mut census,
        );
        check(
            code,
            &pristine,
            &around_boundary(spec, &mut rng),
            &mut census,
        );
    }
    census
}

/// The Fig. 11 configuration grid (§6.2): for each `(n, r)`, `m ∈ 1..=3`
/// and `s ∈ 1..=4`, the `e` of the fewest chunks that builds.
fn fig11_grid() -> Vec<String> {
    let mut specs = Vec::new();
    for (n, r) in [(8, 16), (16, 16), (24, 16), (16, 8), (16, 24), (32, 16)] {
        for m in 1..=3 {
            for s in 1..=4 {
                let mut shapes = (1..=s).map(|parts| {
                    let e: Vec<String> = (0..parts)
                        .map(|i| (s / parts + usize::from(i >= parts - s % parts)).to_string())
                        .collect();
                    format!("stair:{n},{r},{m},{}", e.join("-"))
                });
                specs.extend(shapes.find(|spec| build_codec(&spec.parse().unwrap()).is_ok()));
            }
        }
    }
    specs
}

#[test]
fn every_covered_pattern_decodes_and_no_success_is_wrong() {
    for spec in ["stair:5,3,1,1-2", "sd:4,3,1,1", "sd:6,4,1,2", "rs:5,3,2"] {
        let census = exhaustive(spec);
        census.assert_kept(spec);
        assert!(census.covered > 100 && census.refused > 0, "{spec}");
        // Every family decodes patterns beyond its coverage (STAIR's
        // peeling e.g. one erasure in each of m + m' + 1 rows): coverage
        // is a guarantee, not a characterisation.
        assert!(census.lucky > 0, "{spec}");
    }
}

#[test]
fn shipped_specs_keep_their_promise() {
    let shipped = [
        "stair:8,16,2,1-2",
        "rs:8,16,2",
        "stair:8,4,2,1-1-2",
        "rs:8,4,2",
    ];
    let grid = fig11_grid();
    assert_eq!(grid.len(), 72);
    for spec in shipped.iter().map(|s| s.to_string()).chain(grid) {
        let census = sampled(&*store_codec(&spec), 20, 11);
        census.assert_kept(&spec);
        assert!(census.covered >= 20, "{spec}");
    }
}

/// SD over GF(2^8), as the store builds it, is not SD on the shipped
/// specs: some covered patterns are refused. The exact seeded counts are
/// pinned (of 3 000 maximal covered and 3 000 boundary patterns each); a
/// change here is a change to the SD construction. The same patterns all
/// decode over GF(2^16).
#[test]
fn sd_over_gf8_breaks_coverage_on_the_shipped_specs() {
    for (text, broken) in [("sd:8,16,2,3", 17), ("sd:8,4,2,2", 9)] {
        let census = sampled(&*store_codec(text), 3000, 28);
        let first = census.broken.first();
        assert_eq!(census.broken.len(), broken, "{text}: first {first:?}");
        let Ok(CodecSpec::Sd { n, r, m, s }) = text.parse() else {
            unreachable!()
        };
        let wide: SdCode<Gf16> = SdCode::new(n, r, m, s).unwrap();
        sampled(&wide, 3000, 28).assert_kept(&format!("{text} over GF(2^16)"));
    }
}
