//! Small writes are plans: for every spec of `encoded_bytes.rs`, over
//! GF(2^8) as the store builds it and over GF(2^16), seeded random
//! multi-cell updates run through the shared `Patch` lookup leave every
//! parity they hold equal to a re-encode of the new data — and every
//! parity they do not hold untouched — and tick the `stair-gf` counters
//! by one `Mult_XOR` per (data cell, parity cell) pair.

use std::collections::BTreeMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use stair_code::{CellIdx, CellLookup, ErasureCode, Patch, StripeBuf};
use stair_gf::counters;
use stair_store::build_codec;

mod common;
use common::{specs, wide};

const SYMBOL: usize = 16;

fn random_bytes(rng: &mut SmallRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.gen()).collect()
}

/// `rounds` random updates of `code`, each checked against a re-encode.
fn updates_equal_reencodes(code: &dyn ErasureCode, rng: &mut SmallRng, rounds: usize) {
    let g = code.geometry();
    let spec = &code.codec_id().spec;
    let mut stripe = StripeBuf::new(g.r, g.n, SYMBOL).unwrap();
    let data = random_bytes(rng, g.data_per_stripe() * SYMBOL);
    stripe.write_cells(&g.data_cells, &data).unwrap();
    code.encode(&mut stripe).unwrap();
    for round in 0..rounds {
        // Up to 8 changed data cells, possibly repeated, and a random
        // half of the parities held.
        let count = rng.gen_range(1..=8usize.min(g.data_cells.len()));
        let cells: Vec<CellIdx> = (0..count)
            .map(|_| g.data_cells[rng.gen_range(0..g.data_cells.len())])
            .collect();
        let held: Vec<CellIdx> = g
            .parity_cells
            .iter()
            .copied()
            .filter(|_| round == 0 || rng.gen_bool(0.5))
            .collect();
        let plan = code.update_plan(&cells, &|c| held.contains(&c)).unwrap();

        let mut fresh = stripe.clone();
        for &cell in &cells {
            fresh.set_cell(cell, &random_bytes(rng, SYMBOL));
        }
        let deltas: BTreeMap<CellIdx, Vec<u8>> = cells
            .iter()
            .map(|&c| (c, stripe.delta(c, fresh.cell(c)).unwrap()))
            .collect();
        let mut patched = stripe.clone();
        let (_, parities) = patched.lend(&[], plan.recovers()).unwrap();
        let mut patch = Patch {
            symbol: SYMBOL,
            deltas: &deltas,
            parities: plan.recovers().iter().copied().zip(parities).collect(),
        };
        let before = counters::mult_xors();
        plan.execute(code.codec_id(), &mut patch).unwrap();
        let ticked = counters::mult_xors() - before;
        for &cell in deltas.keys() {
            patched.set_cell(cell, fresh.cell(cell));
        }

        let pairs: usize = deltas
            .keys()
            .map(|&c| {
                let deps = code.dependents(c).unwrap();
                deps.iter().filter(|p| held.contains(p)).count()
            })
            .sum();
        assert_eq!(plan.mult_xors(), pairs, "{spec} round {round}");
        assert_eq!(ticked, pairs as u64, "{spec} round {round}");
        let mut reencoded = fresh.clone();
        code.encode(&mut reencoded).unwrap();
        for &p in &g.parity_cells {
            let want = if held.contains(&p) {
                reencoded.cell(p)
            } else {
                stripe.cell(p)
            };
            assert_eq!(patched.cell(p), want, "{spec} round {round} parity {p:?}");
        }
        if held.len() == g.parity_cells.len() {
            stripe = patched;
        }
    }
}

/// One test in this binary on purpose: the counters are process-global.
#[test]
fn random_update_plans_equal_a_reencode_at_both_widths() {
    for (seed, spec) in (0u64..).zip(specs()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        updates_equal_reencodes(&*build_codec(&spec).unwrap(), &mut rng, 4);
        updates_equal_reencodes(&*wide(&spec), &mut rng, 4);
    }
}
