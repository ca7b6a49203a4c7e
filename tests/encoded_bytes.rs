//! The bytes every encoder writes, pinned against
//! `fixtures/encoded_bytes.txt`: per codec and field width — and, for
//! STAIR with its global parities outside the grid, per encoding method —
//! the FNV-64 of one encoded stripe and the `Mult_XOR`s that encode ticked
//! on the `stair-gf` counters.
//!
//! The codecs are every spec the decode oracle (`coverage_oracle.rs`)
//! holds to its coverage, built as the store builds them (GF(2^8)) and over
//! GF(2^16), and every STAIR spec among them with outside placement. The
//! fixture was written by the per-family encoders that preceded the encode
//! plans, so an encoder that reproduces it writes the same parity with the
//! same work. Its format is in its header.

use std::fmt::Write as _;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use stair::{Config, EncodingMethod, GlobalPlacement, StairCodec, Stripe};
use stair_code::{CodeError, CodecSpec, ErasureCode, StripeBuf};
use stair_gf::counters;
use stair_store::build_codec;

mod common;
use common::{specs, wide};

const FIXTURE: &str = include_str!("fixtures/encoded_bytes.txt");

const HEADER: &str = "\
# Encoded stripes of every coverage_oracle.rs spec (tests/encoded_bytes.rs).
#
# <spec> w<field width> <FNV-64 of the stripe> <Mult_XORs of one encode>
#     16-byte sectors, every one 0xdb before the data cells are written
#     from a generator seeded with the spec's position in this list.
# outside <spec> <method> <FNV-64 of the grid, then the globals> <Mult_XORs>
#     The spec with outside global parities, the same seed; `unavailable`
#     where the placement has no such method.
";

const SYMBOL: usize = 16;

/// FNV-1a, 64 bits.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

fn payload(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen()).collect()
}

/// Runs `encode`, returning what it ticked the `Mult_XOR` counter by.
fn counted(encode: impl FnOnce()) -> u64 {
    let before = counters::mult_xors();
    encode();
    counters::mult_xors() - before
}

/// One encode through the trait: `<fnv> <Mult_XORs>`.
fn through_trait(code: &dyn ErasureCode, seed: u64) -> String {
    let g = code.geometry();
    let mut stripe = StripeBuf::new(g.r, g.n, SYMBOL).unwrap();
    let all: Vec<_> = (0..g.r)
        .flat_map(|i| (0..g.n).map(move |j| (i, j)))
        .collect();
    stripe
        .write_cells(&all, &vec![0xdb; all.len() * SYMBOL])
        .unwrap();
    let data = payload(g.data_per_stripe() * SYMBOL, seed);
    stripe.write_cells(&g.data_cells, &data).unwrap();
    let mult_xors = counted(|| code.encode(&mut stripe).unwrap());
    format!("{:016x} {mult_xors}", fnv64(stripe.as_flat()))
}

/// One encode with `method` of `spec` with outside globals.
fn outside(spec: &CodecSpec, method: EncodingMethod, seed: u64) -> String {
    let CodecSpec::Stair { n, r, m, e } = spec else {
        unreachable!("only STAIR places globals")
    };
    let config = Config::with_placement(*n, *r, *m, e, GlobalPlacement::Outside).unwrap();
    let codec: StairCodec = StairCodec::new(config.clone()).unwrap();
    let mut stripe = Stripe::new(config, SYMBOL).unwrap();
    for (i, j) in (0..*r).flat_map(|i| (0..*n).map(move |j| (i, j))) {
        stripe.cell_mut(i, j).fill(0xdb);
    }
    stripe
        .write_data(&payload(stripe.data_capacity(), seed))
        .unwrap();
    let mut result = Ok(());
    let mult_xors = counted(|| result = codec.encode_with(method, &mut stripe));
    match result {
        Ok(()) => {
            let mut bytes = stripe.grid().as_flat().to_vec();
            stripe
                .outside_globals()
                .iter()
                .for_each(|g| bytes.extend(g));
            format!("{:016x} {mult_xors}", fnv64(&bytes))
        }
        Err(CodeError::InvalidConfig(_)) => "unavailable".into(),
        Err(e) => panic!("{spec} {method:?}: {e}"),
    }
}

/// The fixture, as the encoders under test write it.
fn render() -> String {
    let mut out = String::from(HEADER);
    for (seed, spec) in (0u64..).zip(specs()) {
        let narrow = build_codec(&spec).unwrap();
        writeln!(out, "{spec} w8 {}", through_trait(&*narrow, seed)).unwrap();
        writeln!(out, "{spec} w16 {}", through_trait(&*wide(&spec), seed)).unwrap();
        if let CodecSpec::Stair { .. } = spec {
            for method in [
                EncodingMethod::Upstairs,
                EncodingMethod::Downstairs,
                EncodingMethod::Standard,
                EncodingMethod::TwoPhase,
            ] {
                let line = outside(&spec, method, seed);
                writeln!(out, "outside {spec} {method:?} {line}").unwrap();
            }
        }
    }
    out
}

/// One test in this binary on purpose: the counters are process-global.
#[test]
fn every_encoder_writes_the_fixture_bytes_with_the_fixture_work() {
    let rendered = render();
    let mut expected = FIXTURE.lines();
    for (k, line) in rendered.lines().enumerate() {
        assert_eq!(Some(line), expected.next(), "fixture line {}", k + 1);
    }
    assert_eq!(expected.next(), None, "the fixture has more lines");
}
