//! Regression: the process-global `stair-gf` operation counters — the
//! ones the observability layer reports as `gf.mult_xors` /
//! `gf.region_bytes` — tick exactly as the paper's costs predict when a
//! codec encodes and decodes, and the plan a codec encodes with is the
//! method the cost model picks (§5.3: "choose the one with the fewest").

use stair::{Config, EncodingMethod, StairCodec, Stripe};
use stair_code::{ErasureCode, StripeBuf};
use stair_gf::{counters, Gf8};
use stair_sd::{RsArrayCode, SdCode};

const SYMBOL: usize = 16;

/// The `Mult_XOR`s and region bytes `f` ticks.
fn measure(f: &mut dyn FnMut()) -> (usize, usize) {
    let (m0, b0) = (counters::mult_xors(), counters::region_bytes());
    f();
    let (m1, b1) = (counters::mult_xors(), counters::region_bytes());
    ((m1 - m0) as usize, (b1 - b0) as usize)
}

/// What one encode through the trait ticks, on a stripe of `code`.
fn trait_encode(code: &dyn ErasureCode) -> (usize, usize) {
    let g = code.geometry();
    let mut stripe = StripeBuf::new(g.r, g.n, SYMBOL).unwrap();
    measure(&mut || code.encode(&mut stripe).unwrap())
}

/// Fig. 9's grid — n = 8, m = 2, s = 4, every `e`, r ∈ {8, 16, 24, 32} —
/// and the Fig. 11 grid of `coverage_oracle.rs`: per `(n, r, m, s)`, the
/// `e` of the fewest chunks that builds.
fn fig9_and_fig11() -> Vec<Config> {
    let mut configs = Vec::new();
    for r in [8, 16, 24, 32] {
        for e in [&[4][..], &[1, 3], &[2, 2], &[1, 1, 2], &[1, 1, 1, 1]] {
            configs.push(Config::new(8, r, 2, e).unwrap());
        }
    }
    let fig9 = configs.len();
    for (n, r) in [(8, 16), (16, 16), (24, 16), (16, 8), (16, 24), (32, 16)] {
        for m in 1..=3 {
            for s in 1..=4 {
                let mut shapes = (1..=s).map(|parts| {
                    (0..parts)
                        .map(|i| s / parts + usize::from(i >= parts - s % parts))
                        .collect::<Vec<_>>()
                });
                configs.extend(shapes.find_map(|e| Config::new(n, r, m, &e).ok()));
            }
        }
    }
    assert_eq!((fig9, configs.len() - fig9), (20, 72));
    configs
}

/// One test function on purpose: the counters are process-global, so
/// measurements must not interleave with concurrent tests in this
/// binary.
#[test]
fn encode_and_decode_tick_the_global_counters_as_planned() {
    let codec: StairCodec = StairCodec::new(Config::new(8, 4, 2, &[1, 1, 2]).unwrap()).unwrap();
    let counts = codec.mult_xor_counts();

    // Encoding: the measured Mult_XOR count equals the planned schedule
    // cost for each method (which the codec's own tests tie to the
    // analytic Eq. 5/6 formulas), and every operation moved one
    // symbol-sized region.
    for (method, expected) in [
        (EncodingMethod::Upstairs, counts.upstairs),
        (EncodingMethod::Downstairs, counts.downstairs),
        (EncodingMethod::Standard, counts.standard),
    ] {
        let mut stripe = Stripe::new(codec.config().clone(), SYMBOL).unwrap();
        stripe.fill_pattern(3);
        let (mults, bytes) = measure(&mut || codec.encode_with(method, &mut stripe).unwrap());
        assert_eq!(mults, expected, "{method:?} Mult_XORs");
        assert_eq!(bytes, expected * SYMBOL, "{method:?} bytes");
    }

    // The plan a codec encodes with costs min(Eq. 5, Eq. 6, standard),
    // and running it costs exactly that.
    for config in fig9_and_fig11() {
        let codec: StairCodec = StairCodec::new(config).unwrap();
        let c = codec.mult_xor_counts();
        let cheapest = c.upstairs.min(c.downstairs).min(c.standard);
        let spec = codec.config().spec();
        assert_eq!(codec.encode_plan().unwrap().mult_xors(), cheapest, "{spec}");
        let (mults, bytes) = trait_encode(&codec);
        assert_eq!((mults, bytes), (cheapest, cheapest * SYMBOL), "{spec}");
    }

    // SD and RS encode straight from the data: one Mult_XOR per non-zero
    // coefficient of the dense encoding matrix — for SD the dependents
    // of every data cell, for RS κ·(η − κ) per row.
    let sd: SdCode<Gf8> = SdCode::new(8, 16, 2, 3).unwrap();
    let rs: RsArrayCode<Gf8> = RsArrayCode::new(8, 16, 2).unwrap();
    let dense = |code: &dyn ErasureCode| -> usize {
        let data = code.geometry().data_cells;
        data.iter()
            .map(|&c| code.dependents(c).unwrap().len())
            .sum()
    };
    for (code, expected) in [(&sd as &dyn ErasureCode, dense(&sd)), (&rs, 16 * 6 * 2)] {
        let spec = &code.codec_id().spec;
        assert_eq!(dense(code), expected, "{spec}");
        assert_eq!(code.encode_plan().unwrap().mult_xors(), expected, "{spec}");
        assert_eq!(trait_encode(code), (expected, expected * SYMBOL), "{spec}");
    }

    // Decoding the worst-case pattern: the executed plan costs exactly
    // what it planned.
    let mut stripe = Stripe::new(codec.config().clone(), SYMBOL).unwrap();
    stripe.fill_pattern(9);
    codec.encode(&mut stripe).unwrap();
    let pristine = stripe.clone();
    let erased: Vec<(usize, usize)> = (0..4)
        .flat_map(|i| [(i, 6), (i, 7)])
        .chain([(3, 3), (3, 4), (2, 5), (3, 5)])
        .collect();
    stripe.erase(&erased).unwrap();
    let plan = codec.plan_decode(&erased).unwrap();
    let (mults, bytes) = measure(&mut || codec.decode(&mut stripe, &erased).unwrap());
    assert_eq!(stripe, pristine);
    assert_eq!(mults, plan.mult_xors(), "decode Mult_XORs");
    assert_eq!(bytes, plan.mult_xors() * SYMBOL, "decode bytes");
}
