//! The codec-generic face of the baseline codes: `ErasureCode` round
//! trips for [`SdCode`] and [`RsArrayCode`] on flat stripe buffers.

use stair_code::{CodeError, ErasureCode, ErasureSet, StripeBuf};
use stair_gf::Gf8;
use stair_sd::{RsArrayCode, SdCode};

fn filled_buf(code: &dyn ErasureCode, symbol: usize, seed: u8) -> StripeBuf {
    let geom = code.geometry();
    let mut buf = StripeBuf::new(geom.r, geom.n, symbol).unwrap();
    let payload: Vec<u8> = (0..geom.data_per_stripe() * symbol)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
        .collect();
    buf.write_cells(&geom.data_cells, &payload).unwrap();
    code.encode(&mut buf).unwrap();
    buf
}

#[test]
fn sd_device_plus_sectors_round_trip() {
    let code: SdCode<Gf8> = SdCode::new(6, 4, 1, 2).unwrap();
    let mut buf = filled_buf(&code, 8, 17);
    let pristine = buf.clone();
    // One whole device plus two extra sectors — the full claimed coverage.
    let erased = ErasureSet::new((0..4).map(|i| (i, 2)).chain([(0, 0), (3, 5)]));
    buf.erase(erased.cells());
    let plan = code.plan(&erased).unwrap();
    assert!(plan.mult_xors() > 0);
    code.apply(&plan, &mut buf).unwrap();
    assert_eq!(buf, pristine);
}

#[test]
fn sd_trait_encode_matches_inherent_encode() {
    let code: SdCode<Gf8> = SdCode::new(6, 4, 1, 2).unwrap();
    let buf = filled_buf(&code, 8, 3);
    let geom = code.geometry();
    let mut stripe = stair_sd::SdStripe::new(&code, 8);
    for &(row, col) in &geom.data_cells {
        stripe
            .cell_mut(row, col)
            .copy_from_slice(buf.cell((row, col)));
    }
    code.encode(&mut stripe).unwrap();
    for row in 0..4 {
        for col in 0..6 {
            assert_eq!(stripe.cell(row, col), buf.cell((row, col)), "({row},{col})");
        }
    }
}

#[test]
fn sd_update_equals_reencode() {
    let code: SdCode<Gf8> = SdCode::new(6, 4, 1, 2).unwrap();
    let mut buf = filled_buf(&code, 8, 29);
    let geom = code.geometry();
    let cell = geom.data_cells[5];
    let touched = code.update(&mut buf, cell, &[0xAB; 8]).unwrap();
    // At least the row parity plus the global sectors depend on this cell.
    assert!(!touched.is_empty() && touched.len() <= geom.parity_cells.len());
    let mut reference = StripeBuf::new(geom.r, geom.n, 8).unwrap();
    reference
        .write_cells(&geom.data_cells, &buf.read_cells(&geom.data_cells))
        .unwrap();
    ErasureCode::encode(&code, &mut reference).unwrap();
    assert_eq!(buf, reference);
}

#[test]
fn sd_beyond_coverage_unrecoverable() {
    let code: SdCode<Gf8> = SdCode::new(6, 4, 1, 1).unwrap();
    let erased = ErasureSet::devices(&[0, 1], 4);
    assert!(matches!(
        code.plan(&erased),
        Err(CodeError::Unrecoverable(_))
    ));
}

#[test]
fn rs_device_failures_round_trip() {
    let code: RsArrayCode<Gf8> = RsArrayCode::new(6, 4, 2).unwrap();
    let mut buf = filled_buf(&code, 16, 41);
    let pristine = buf.clone();
    let erased = ErasureSet::devices(&[1, 4], 4);
    buf.erase(erased.cells());
    let plan = code.plan(&erased).unwrap();
    code.apply(&plan, &mut buf).unwrap();
    assert_eq!(buf, pristine);
}

#[test]
fn rs_has_no_sector_tolerance_beyond_m_per_row() {
    let code: RsArrayCode<Gf8> = RsArrayCode::new(6, 4, 2).unwrap();
    assert_eq!(code.geometry().s, 0);
    // Three erasures in one row exceed m = 2.
    let erased = ErasureSet::new([(1, 0), (1, 2), (1, 5)]);
    assert!(matches!(
        code.plan(&erased),
        Err(CodeError::Unrecoverable(_))
    ));
    // But m erasures per row, across many rows, are fine.
    let mut buf = filled_buf(&code, 4, 2);
    let pristine = buf.clone();
    let spread = ErasureSet::new([(0, 0), (0, 3), (1, 1), (1, 2), (2, 4), (3, 5)]);
    buf.erase(spread.cells());
    let plan = code.plan(&spread).unwrap();
    code.apply(&plan, &mut buf).unwrap();
    assert_eq!(buf, pristine);
}

#[test]
fn rs_update_patches_row_parities_only() {
    let code: RsArrayCode<Gf8> = RsArrayCode::new(6, 4, 2).unwrap();
    let mut buf = filled_buf(&code, 8, 13);
    let touched = code.update(&mut buf, (2, 1), &[0x5A; 8]).unwrap();
    assert_eq!(touched, vec![(2, 4), (2, 5)]);
    let geom = code.geometry();
    let mut reference = StripeBuf::new(geom.r, geom.n, 8).unwrap();
    reference
        .write_cells(&geom.data_cells, &buf.read_cells(&geom.data_cells))
        .unwrap();
    code.encode(&mut reference).unwrap();
    assert_eq!(buf, reference);
    // Parity targets rejected.
    assert!(matches!(
        code.update(&mut buf, (0, 5), &[0; 8]),
        Err(CodeError::InvalidPattern(_))
    ));
}

/// A plan runs for the codec that built it only — across families, and
/// (the regression) between two codecs of one family, shape and field,
/// in both directions.
#[test]
fn plans_do_not_cross_codecs() {
    let pairs: [(Box<dyn ErasureCode>, Box<dyn ErasureCode>); 3] = [
        (
            Box::new(SdCode::<Gf8>::new(6, 4, 1, 2).unwrap()),
            Box::new(RsArrayCode::<Gf8>::new(6, 4, 1).unwrap()),
        ),
        (
            Box::new(SdCode::<Gf8>::new(8, 4, 2, 1).unwrap()),
            Box::new(SdCode::<Gf8>::new(8, 4, 2, 2).unwrap()),
        ),
        (
            Box::new(RsArrayCode::<Gf8>::new(8, 4, 2).unwrap()),
            Box::new(RsArrayCode::<Gf8>::new(8, 4, 3).unwrap()),
        ),
    ];
    let erased = ErasureSet::devices(&[0], 4);
    for (a, b) in &pairs {
        for (from, to) in [(a, b), (b, a)] {
            let plan = from.plan(&erased).unwrap();
            let mut buf = filled_buf(to.as_ref(), 8, 7);
            let before = buf.clone();
            assert!(matches!(
                to.apply(&plan, &mut buf),
                Err(CodeError::InvalidPattern(_))
            ));
            assert_eq!(buf, before);
        }
    }
}
