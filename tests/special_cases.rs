//! Cross-crate tests of the paper's §2 special-case equivalences: specific
//! `e` vectors make STAIR behave like an SD code, like a plain systematic
//! `(n, n−m−1)` code, or like the IDR scheme.

use stair::{Config, SpaceComparison, StairCodec, Stripe};
use stair_code::{CodecCore, ErasureCode, ErasureSet, StripeBuf};
use stair_gf::Gf8;
use stair_sd::SdCode;

fn encoded(config: &Config, seed: u8) -> (StairCodec, Stripe) {
    let codec: StairCodec = StairCodec::new(config.clone()).unwrap();
    let mut stripe = Stripe::new(config.clone(), 8).unwrap();
    stripe.fill_pattern(seed);
    codec.encode(&mut stripe).unwrap();
    (codec, stripe)
}

/// e = (1): "the STAIR code is a new construction of such a PMDS/SD code
/// with s = 1" — both repair any m devices plus any one extra sector.
#[test]
fn e_equals_1_matches_sd_coverage() {
    let (n, r, m) = (6usize, 4usize, 1usize);
    let config = Config::new(n, r, m, &[1]).unwrap();
    let (codec, pristine) = encoded(&config, 3);
    let sd: SdCode<Gf8> = SdCode::new(n, r, m, 1).unwrap();
    let g = sd.geometry();
    let mut sd_pristine = StripeBuf::new(r, n, 8).unwrap();
    let data: Vec<u8> = (0..g.data_per_stripe() * 8).map(|b| b as u8).collect();
    sd_pristine.write_cells(&g.data_cells, &data).unwrap();
    sd.encode(&mut sd_pristine).unwrap();

    // Every (device, extra-sector) combination must be repairable by both.
    for dev in 0..n {
        for q in 0..r * n {
            let (row, col) = (q / n, q % n);
            if col == dev {
                continue;
            }
            let mut erased: Vec<(usize, usize)> = (0..r).map(|i| (i, dev)).collect();
            erased.push((row, col));

            let mut damaged = pristine.clone();
            damaged.erase(&erased).unwrap();
            codec.decode(&mut damaged, &erased).unwrap();
            assert_eq!(
                damaged, pristine,
                "STAIR failed at dev={dev} extra=({row},{col})"
            );

            let mut sd_damaged = sd_pristine.clone();
            sd_damaged.erase(&erased);
            let plan = sd.plan(&ErasureSet::from(&erased[..])).unwrap();
            sd.apply(&plan, &mut sd_damaged).unwrap();
            assert_eq!(
                sd_damaged, sd_pristine,
                "SD failed at dev={dev} extra=({row},{col})"
            );
        }
    }
}

/// e = (r): "the corresponding STAIR code has the same function as a
/// systematic (n, n−m−1)-code" — i.e., it tolerates m + 1 full device
/// failures.
#[test]
fn e_equals_r_tolerates_one_extra_device() {
    let (n, r, m) = (7usize, 4usize, 2usize);
    let config = Config::new(n, r, m, &[r]).unwrap();
    let (codec, pristine) = encoded(&config, 9);
    // Any 3 = m + 1 devices may fail.
    for d1 in 0..n {
        for d2 in d1 + 1..n {
            for d3 in d2 + 1..n {
                let erased: Vec<(usize, usize)> = [d1, d2, d3]
                    .iter()
                    .flat_map(|&d| (0..r).map(move |i| (i, d)))
                    .collect();
                assert!(codec.config().spec().covers(&ErasureSet::from(&erased[..])));
                let mut damaged = pristine.clone();
                damaged.erase(&erased).unwrap();
                codec.decode(&mut damaged, &erased).unwrap();
                assert_eq!(damaged, pristine, "failed for devices {d1},{d2},{d3}");
            }
        }
    }
}

/// e = (ε, …, ε) with m' = n − m: "the same function as an intra-device
/// redundancy (IDR) scheme" — every surviving chunk may lose ε sectors.
#[test]
fn e_uniform_matches_idr_coverage() {
    let (n, r, m, eps) = (6usize, 6usize, 1usize, 2usize);
    let e = vec![eps; n - m];
    let config = Config::new(n, r, m, &e).unwrap();
    let (codec, pristine) = encoded(&config, 17);

    // One full device + ε failures in every other *data* chunk (IDR keeps
    // no local parity inside its device-parity chunks, so the comparable
    // pattern confines sector failures to data chunks).
    let dev = 2usize;
    let mut erased: Vec<(usize, usize)> = (0..r).map(|i| (i, dev)).collect();
    for c in 0..n - m {
        if c != dev {
            erased.push((c % r, c));
            erased.push(((c + 3) % r, c));
        }
    }
    assert!(codec.config().spec().covers(&ErasureSet::from(&erased[..])));
    let mut damaged = pristine.clone();
    damaged.erase(&erased).unwrap();
    codec.decode(&mut damaged, &erased).unwrap();
    assert_eq!(damaged, pristine);

    // IDR protects every chunk against an ε-sector burst at (n−m)·ε
    // redundant sectors; STAIR's uniform e costs the same, and STAIR can
    // shrink e. Space accounting from §2:
    let idr_cost = SpaceComparison::for_config(codec.config()).idr_sectors;
    let stair_cost = m * r + codec.config().s();
    assert_eq!(idr_cost, stair_cost, "with e uniform the two coincide");
    let leaner = Config::new(n, r, m, &[1, eps]).unwrap();
    let leaner_cost = SpaceComparison::for_config(&leaner).stair_sectors;
    assert!(leaner_cost < idr_cost, "a leaner e saves space");
}
