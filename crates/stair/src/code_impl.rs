//! The codec-generic face of STAIR: [`stair_code::CodecCore`] for
//! [`StairCodec`], and so [`stair_code::ErasureCode`].
//!
//! The impl operates directly on flat [`stair_code::StripeBuf`] grids —
//! the same memory `stair-store` reads sectors into: encoding and decoding
//! are the provided `encode` and `apply`, the shared executor running the
//! codec's encode plan or a lowered decode plan. Only
//! [`GlobalPlacement::Inside`] configurations are supported through this
//! interface: a bare `r × n` grid has nowhere to store outside globals.

use stair_code::{CellIdx, CodeError, CodecCore, CodecId, ErasureSet, Geometry, Plan, UpdateMap};
use stair_gf::Field;

use crate::{GlobalPlacement, StairCodec};

impl<F: Field> StairCodec<F> {
    fn check_inside(&self) -> Result<(), CodeError> {
        if self.config().placement() != GlobalPlacement::Inside {
            return Err(CodeError::Unsupported(
                "outside-placement STAIR stripes store globals outside the r×n grid; \
                 use the inherent Stripe API"
                    .into(),
            ));
        }
        Ok(())
    }
}

impl<F: Field> CodecCore for StairCodec<F> {
    fn geometry(&self) -> Geometry {
        let layout = self.layout();
        Geometry {
            n: layout.n(),
            r: layout.r(),
            m: layout.m(),
            s: self.config().s(),
            burst: self.config().e_max(),
            data_cells: layout.data_cells(),
            parity_cells: layout.parity_cells(),
        }
    }

    fn codec_id(&self) -> &CodecId {
        &self.id
    }

    fn encode_plan(&self) -> Result<&Plan, CodeError> {
        self.check_inside()?;
        Ok(&self.encode)
    }

    fn plan_recover(&self, erased: &ErasureSet, wanted: &[CellIdx]) -> Result<Plan, CodeError> {
        self.check_inside()?;
        StairCodec::plan_recover(self, erased.cells(), wanted)
    }

    fn update_map(&self) -> Result<&UpdateMap, CodeError> {
        self.check_inside()?;
        Ok(&self.updates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Config, Stripe};
    use stair_code::{ErasureCode, StripeBuf};

    fn codec() -> StairCodec {
        StairCodec::new(Config::new(8, 4, 2, &[1, 1, 2]).unwrap()).unwrap()
    }

    fn encoded_buf(codec: &StairCodec, seed: u8) -> StripeBuf {
        let geom = codec.geometry();
        let mut buf = StripeBuf::new(geom.r, geom.n, 16).unwrap();
        let payload: Vec<u8> = (0..geom.data_per_stripe() * 16)
            .map(|i| (i as u8).wrapping_mul(7).wrapping_add(seed))
            .collect();
        buf.write_cells(&geom.data_cells, &payload).unwrap();
        ErasureCode::encode(codec, &mut buf).unwrap();
        buf
    }

    #[test]
    fn plan_apply_round_trip_on_buf() {
        let codec = codec();
        let mut buf = encoded_buf(&codec, 9);
        let pristine = buf.clone();
        let erased = ErasureSet::new((0..4).flat_map(|i| [(i, 6), (i, 7)]).chain([
            (3, 3),
            (3, 4),
            (2, 5),
            (3, 5),
        ]));
        buf.erase(erased.cells());
        let plan = ErasureCode::plan(&codec, &erased).unwrap();
        assert!(plan.mult_xors() > 0);
        codec.apply(&plan, &mut buf).unwrap();
        assert_eq!(buf, pristine);
    }

    #[test]
    fn partial_recovery_is_cheaper_than_full() {
        let codec = codec();
        let erased = ErasureSet::devices(&[6, 7], 4);
        let full = ErasureCode::plan(&codec, &erased).unwrap();
        let partial = CodecCore::plan_recover(&codec, &erased, &[(2, 6)]).unwrap();
        assert_eq!(partial.recovers(), &[(2, 6)]);
        assert!(partial.mult_xors() < full.mult_xors());
    }

    #[test]
    fn trait_update_patches_parities() {
        let codec = codec();
        let mut buf = encoded_buf(&codec, 5);
        let touched = codec.update(&mut buf, (1, 2), &[0xEE; 16]).unwrap();
        assert!(!touched.is_empty());
        // Re-encoding from the updated payload must agree.
        let geom = codec.geometry();
        let payload = buf.read_cells(&geom.data_cells);
        let mut reference = StripeBuf::new(geom.r, geom.n, 16).unwrap();
        reference.write_cells(&geom.data_cells, &payload).unwrap();
        ErasureCode::encode(&codec, &mut reference).unwrap();
        assert_eq!(buf, reference);
    }

    /// An update touches exactly its cell's dependents, and its plan
    /// costs one `Mult_XOR` per dependent (§6.3's penalty).
    #[test]
    fn touched_cells_are_the_dependents() {
        let codec = codec();
        let mut buf = encoded_buf(&codec, 7);
        for (d, &cell) in codec.geometry().data_cells.iter().enumerate() {
            let touched = codec.update(&mut buf, cell, &[d as u8 + 1; 16]).unwrap();
            let dependents = codec.dependents(cell).unwrap();
            assert_eq!(touched, dependents, "data cell {cell:?}");
            let plan = codec.update_plan(&[cell], &|_| true).unwrap();
            assert_eq!(plan.mult_xors(), dependents.len());
        }
    }

    #[test]
    fn updated_stripe_still_decodes() {
        let codec = codec();
        let mut buf = encoded_buf(&codec, 7);
        codec.update(&mut buf, (0, 0), &[0x99; 16]).unwrap();
        codec.update(&mut buf, (3, 1), &[0x77; 16]).unwrap();
        let pristine = buf.clone();
        let erased = ErasureSet::new((0..4).flat_map(|i| [(i, 6), (i, 7)]).chain([
            (3, 3),
            (3, 4),
            (2, 5),
            (3, 5),
        ]));
        buf.erase(erased.cells());
        codec
            .apply(&ErasureCode::plan(&codec, &erased).unwrap(), &mut buf)
            .unwrap();
        assert_eq!(buf, pristine);
    }

    #[test]
    fn updates_of_parity_or_wrong_lengths_are_refused() {
        let codec = codec();
        let mut buf = encoded_buf(&codec, 7);
        let before = buf.clone();
        // (0, 6) is a row parity; (3, 3) is an inside global.
        for parity in [(0, 6), (3, 3)] {
            assert!(matches!(
                codec.update(&mut buf, parity, &[0; 16]),
                Err(CodeError::InvalidPattern(_))
            ));
        }
        assert!(matches!(
            codec.update(&mut buf, (0, 0), &[0; 5]),
            Err(CodeError::ShapeMismatch(_))
        ));
        assert_eq!(buf, before, "a refused update writes nothing");
    }

    #[test]
    fn foreign_buffers_rejected() {
        let codec = codec();
        let mut wrong = StripeBuf::new(3, 8, 16).unwrap();
        assert!(matches!(
            ErasureCode::encode(&codec, &mut wrong),
            Err(CodeError::ShapeMismatch(_))
        ));
        let plan = ErasureCode::plan(&codec, &ErasureSet::devices(&[0], 4)).unwrap();
        assert!(matches!(
            codec.apply(&plan, &mut wrong),
            Err(CodeError::ShapeMismatch(_))
        ));
    }

    /// Regression: the two codecs share a shape and a field, so a plan
    /// of one used to run on the other — `Ok` with wrong bytes one way,
    /// a panic inside the canvas the other.
    #[test]
    fn plans_from_another_stair_codec_are_refused() {
        let codec = |e: &[usize]| -> StairCodec {
            StairCodec::new(Config::new(8, 4, 2, e).unwrap()).unwrap()
        };
        let (a, b) = (codec(&[2, 2]), codec(&[1, 1, 2]));
        let erased = ErasureSet::devices(&[0, 3], 4)
            .iter()
            .chain([(2, 5), (3, 5), (3, 4)])
            .collect();
        for (from, to) in [(&a, &b), (&b, &a)] {
            let plan = ErasureCode::plan(from, &erased).unwrap();
            let mut buf = encoded_buf(to, 2);
            let before = buf.clone();
            assert!(matches!(
                to.apply(&plan, &mut buf),
                Err(CodeError::InvalidPattern(_))
            ));
            assert_eq!(buf, before, "a refused plan writes nothing");
        }
        // The same spec over GF(2^16) ...
        let wide: StairCodec<stair_gf::Gf16> = StairCodec::new(b.config().clone()).unwrap();
        let plan = ErasureCode::plan(&wide, &erased).unwrap();
        let mut buf = encoded_buf(&b, 2);
        assert!(matches!(
            b.apply(&plan, &mut buf),
            Err(CodeError::InvalidPattern(_))
        ));
        // ... and with the globals kept outside the grid: refused through
        // the inherent API too.
        let outside: StairCodec = StairCodec::new(
            Config::with_placement(8, 4, 2, &[1, 1, 2], GlobalPlacement::Outside).unwrap(),
        )
        .unwrap();
        let plan = outside.plan_decode(erased.cells()).unwrap();
        let mut stripe = Stripe::new(b.config().clone(), 16).unwrap();
        assert!(matches!(
            b.apply_plan(&plan, &mut stripe),
            Err(CodeError::InvalidPattern(_))
        ));
    }

    /// Every trait method that reaches the codec refuses an outside
    /// placement (`apply` only runs plans, and this codec gives none).
    /// Regression: the small-write path used to patch cells outside the
    /// grid.
    #[test]
    fn outside_placement_unsupported_via_trait() {
        let config = Config::with_placement(6, 4, 1, &[1, 2], GlobalPlacement::Outside).unwrap();
        let codec: StairCodec = StairCodec::new(config).unwrap();
        let mut buf = StripeBuf::new(4, 6, 16).unwrap();
        let erased = ErasureSet::devices(&[0], 4);
        let calls: [(&str, Result<(), CodeError>); 8] = [
            ("encode_plan", codec.encode_plan().map(drop)),
            ("encode", ErasureCode::encode(&codec, &mut buf)),
            ("plan", ErasureCode::plan(&codec, &erased).map(drop)),
            (
                "plan_recover",
                CodecCore::plan_recover(&codec, &erased, &[(1, 0)]).map(drop),
            ),
            ("update_map", codec.update_map().map(drop)),
            ("dependents", codec.dependents((0, 0)).map(drop)),
            (
                "update_plan",
                codec.update_plan(&[(0, 0)], &|_| true).map(drop),
            ),
            ("update", codec.update(&mut buf, (0, 0), &[1; 16]).map(drop)),
        ];
        for (method, result) in calls {
            assert!(
                matches!(result, Err(CodeError::Unsupported(_))),
                "{method}: {result:?}"
            );
        }
        assert_eq!(buf, StripeBuf::new(4, 6, 16).unwrap());
    }
}
