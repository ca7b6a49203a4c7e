//! The codec-generic face of STAIR: [`stair_code::ErasureCode`] for
//! [`StairCodec`], plus the [`CodeError`] conversion.
//!
//! The impl operates directly on flat [`StripeBuf`] grids — the same
//! memory `stair-store` reads sectors into: encoding builds the
//! scheduling [`Canvas`] over the buffer, and decoding is the provided
//! `apply`, the shared executor running the lowered plan. Only
//! [`GlobalPlacement::Inside`] configurations are supported through this
//! interface: a bare `r × n` grid has nowhere to store outside globals.

use stair_code::{CellIdx, CodeError, CodecId, ErasureCode, ErasureSet, Geometry, Plan, StripeBuf};
use stair_gf::Field;

use crate::schedule::Canvas;
use crate::{Error, GlobalPlacement, StairCodec};

impl From<Error> for CodeError {
    fn from(e: Error) -> CodeError {
        match e {
            Error::InvalidConfig(m) => CodeError::InvalidConfig(m),
            Error::InvalidPattern(m) => CodeError::InvalidPattern(m),
            Error::Unrecoverable { remaining } => CodeError::Unrecoverable(format!(
                "peeling stalled with {remaining} cells unrecovered"
            )),
            Error::ShapeMismatch(m) => CodeError::ShapeMismatch(m),
            Error::Code(e) => e,
            other => CodeError::Internal(other.to_string()),
        }
    }
}

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

impl<F: Field> ErasureCode for StairCodec<F> {
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

    fn encode(&self, stripe: &mut StripeBuf) -> Result<(), CodeError> {
        self.check_inside()?;
        stripe.check_shape(self.config().r(), self.config().n(), F::ELEM_BYTES)?;
        let mut canvas = Canvas::over(self.layout(), stripe);
        self.encode_on(self.best_method(), &mut canvas)?;
        Ok(())
    }

    fn plan_recover(&self, erased: &ErasureSet, wanted: &[CellIdx]) -> Result<Plan, CodeError> {
        self.check_inside()?;
        Ok(StairCodec::plan_recover(self, erased.cells(), wanted)?)
    }

    fn dependents(&self, cell: CellIdx) -> Result<&[CellIdx], CodeError> {
        self.check_inside()?;
        self.updates.dependents(cell)
    }

    fn fold_delta(
        &self,
        cell: CellIdx,
        parity: CellIdx,
        delta: &[u8],
        into: &mut [u8],
    ) -> Result<(), CodeError> {
        self.updates
            .fold(cell, parity, delta, into, F::mult_xor_region)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Config, Stripe};

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
    fn trait_encode_matches_inherent_encode() {
        let codec = codec();
        let buf = encoded_buf(&codec, 3);
        let geom = codec.geometry();
        let mut stripe = Stripe::new(codec.config().clone(), 16).unwrap();
        stripe
            .write_data(&buf.read_cells(&geom.data_cells))
            .unwrap();
        codec.encode(&mut stripe).unwrap();
        assert_eq!(stripe.grid(), &buf);
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
        let partial = ErasureCode::plan_recover(&codec, &erased, &[(2, 6)]).unwrap();
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
            Err(Error::InvalidPattern(_))
        ));
    }

    #[test]
    fn outside_placement_unsupported_via_trait() {
        let config = Config::with_placement(8, 4, 2, &[1, 1, 2], GlobalPlacement::Outside).unwrap();
        let codec: StairCodec = StairCodec::new(config).unwrap();
        let mut buf = StripeBuf::new(4, 8, 16).unwrap();
        assert!(matches!(
            ErasureCode::encode(&codec, &mut buf),
            Err(CodeError::Unsupported(_))
        ));
        assert!(matches!(
            ErasureCode::plan(&codec, &ErasureSet::devices(&[0], 4)),
            Err(CodeError::Unsupported(_))
        ));
    }
}
