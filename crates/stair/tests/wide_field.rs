//! The codec is generic over the Galois field: GF(2^16) lifts the
//! GF(2^8) limits `n + m' ≤ 256` and `r + e_max ≤ 256`, allowing very tall
//! chunks (large r) — the regime where STAIR's space saving approaches m'
//! (Fig. 10).

use stair::{Config, EncodingMethod, StairCodec, Stripe};
use stair_code::CodeError;
use stair_gf::Gf16;

#[test]
fn gf16_codec_round_trips() {
    let config = Config::new(8, 6, 2, &[1, 2]).unwrap();
    let codec: StairCodec<Gf16> = StairCodec::new(config.clone()).unwrap();
    // Symbol size must hold whole u16 elements.
    let mut stripe = Stripe::new(config, 16).unwrap();
    stripe.fill_pattern(3);
    codec.encode(&mut stripe).unwrap();
    let pristine = stripe.clone();
    let erased: Vec<(usize, usize)> = (0..6)
        .flat_map(|i| [(i, 6), (i, 7)])
        .chain([(5, 4), (4, 5), (5, 5)])
        .collect();
    stripe.erase(&erased).unwrap();
    codec.decode(&mut stripe, &erased).unwrap();
    assert_eq!(stripe, pristine);
}

#[test]
fn gf16_and_gf8_choose_same_methods() {
    // Method selection is driven by the Mult_XOR model, which is
    // field-independent.
    let config = Config::new(8, 16, 2, &[4]).unwrap();
    let c8: StairCodec = StairCodec::new(config.clone()).unwrap();
    let c16: StairCodec<Gf16> = StairCodec::new(config).unwrap();
    assert_eq!(c8.best_method(), c16.best_method());
    assert_eq!(
        c8.mult_xor_counts().upstairs,
        c16.mult_xor_counts().upstairs
    );
}

#[test]
fn gf16_encoding_methods_agree() {
    let config = Config::new(6, 4, 1, &[1, 1]).unwrap();
    let codec: StairCodec<Gf16> = StairCodec::new(config.clone()).unwrap();
    let mut stripes = Vec::new();
    for method in [
        EncodingMethod::Upstairs,
        EncodingMethod::Downstairs,
        EncodingMethod::Standard,
    ] {
        let mut stripe = Stripe::new(config.clone(), 8).unwrap();
        stripe.fill_pattern(11);
        codec.encode_with(method, &mut stripe).unwrap();
        stripes.push(stripe);
    }
    assert_eq!(stripes[0], stripes[1]);
    assert_eq!(stripes[0], stripes[2]);
}

/// Regression: a sector that does not hold whole GF(2^16) elements used
/// to panic inside the region kernel when encoded, where decoding the
/// same stripe returned `ShapeMismatch`. Every encode now says so too,
/// and leaves the stripe as it was.
#[test]
fn gf16_refuses_odd_sectors_without_panicking() {
    let config = Config::new(8, 4, 2, &[1, 1, 2]).unwrap();
    let codec: StairCodec<Gf16> = StairCodec::new(config.clone()).unwrap();
    let mut stripe = Stripe::new(config, 7).unwrap();
    stripe.fill_pattern(4);
    let before = stripe.clone();
    assert!(matches!(
        codec.encode(&mut stripe),
        Err(CodeError::ShapeMismatch(_))
    ));
    for method in [
        EncodingMethod::Upstairs,
        EncodingMethod::Downstairs,
        EncodingMethod::Standard,
    ] {
        assert!(
            matches!(
                codec.encode_with(method, &mut stripe),
                Err(CodeError::ShapeMismatch(_))
            ),
            "{method:?}"
        );
    }
    assert!(matches!(
        codec.decode(&mut stripe, &[(0, 0)]),
        Err(CodeError::ShapeMismatch(_))
    ));
    assert_eq!(stripe, before);
}

/// GF(2^8) caps r + e_max at 256; GF(2^16) goes beyond.
#[test]
fn gf16_supports_tall_chunks() {
    let config = Config::with_placement(4, 255, 1, &[2], stair::GlobalPlacement::Inside);
    // r + e_max = 257 > 256: the Config itself validates against GF(2^8).
    assert!(config.is_err());
    // A slightly smaller configuration works for both fields.
    let config = Config::new(4, 254, 1, &[2]).unwrap();
    let codec: StairCodec<Gf16> = StairCodec::new(config.clone()).unwrap();
    let mut stripe = Stripe::new(config, 2).unwrap();
    stripe.fill_pattern(1);
    codec.encode(&mut stripe).unwrap();
    let pristine = stripe.clone();
    let erased = vec![(253, 0), (252, 1), (253, 1)];
    stripe.erase(&erased).unwrap();
    codec.decode(&mut stripe, &erased).unwrap();
    assert_eq!(stripe, pristine);
}
