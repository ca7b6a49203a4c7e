//! Incremental updates: rewrite one data sector and patch only the parity
//! sectors that depend on it.
//!
//! This is the operational counterpart of the §6.3 update-penalty metric:
//! updating data symbol `d` costs exactly `penalty(d)` parity read-modify-
//! writes, where the penalty is the number of non-zero coefficients in
//! `d`'s column of the dense parity relation (§5.2). Erasure codes are
//! linear, so a change `Δ = old ⊕ new` in a data sector changes each
//! dependent parity by `c·Δ`.

use stair_code::{CodeError, ErasureCode};
use stair_gf::Field;

use crate::stripe::Stripe;
use crate::{Error, StairCodec};

impl<F: Field> StairCodec<F> {
    /// Overwrites data sector `(row, col)` with `new_contents` and patches
    /// every dependent parity sector in place. Returns how many parity
    /// sectors were updated (the realized update penalty).
    ///
    /// The stripe must already be consistently encoded; after the call it
    /// is again consistently encoded. This is [`ErasureCode::update`] on
    /// the stripe's grid — the one definition of the delta arithmetic.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidPattern`] if `(row, col)` is not a data sector
    ///   (row parities and inside global parities cannot be updated
    ///   directly) or the stripe keeps its globals outside the grid;
    /// * [`Error::ShapeMismatch`] if the stripe belongs to another
    ///   configuration or `new_contents` has the wrong length.
    pub fn update_data(
        &self,
        stripe: &mut Stripe,
        row: usize,
        col: usize,
        new_contents: &[u8],
    ) -> Result<usize, Error> {
        if stripe.config() != self.config() {
            return Err(Error::ShapeMismatch(
                "stripe was allocated for a different configuration".into(),
            ));
        }
        let (grid, _) = stripe.parts_mut();
        match self.update(grid, (row, col), new_contents) {
            Ok(touched) => Ok(touched.len()),
            Err(CodeError::ShapeMismatch(m)) => Err(Error::ShapeMismatch(m)),
            Err(CodeError::InvalidPattern(m)) => Err(Error::InvalidPattern(m)),
            Err(other) => Err(Error::InvalidPattern(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Config;

    fn setup() -> (StairCodec, Stripe) {
        let config = Config::new(8, 4, 2, &[1, 1, 2]).unwrap();
        let codec: StairCodec = StairCodec::new(config.clone()).unwrap();
        let mut stripe = Stripe::new(config, 16).unwrap();
        stripe.fill_pattern(7);
        codec.encode(&mut stripe).unwrap();
        (codec, stripe)
    }

    #[test]
    fn incremental_update_equals_full_reencode() {
        let (codec, mut stripe) = setup();
        let new = vec![0xEE; 16];
        codec.update_data(&mut stripe, 1, 2, &new).unwrap();
        // Full re-encode from the updated payload must agree.
        let mut reference = Stripe::new(codec.config().clone(), 16).unwrap();
        reference.write_data(&stripe.read_data().unwrap()).unwrap();
        codec.encode(&mut reference).unwrap();
        assert_eq!(stripe, reference);
    }

    #[test]
    fn touched_count_matches_update_penalty() {
        let (codec, mut stripe) = setup();
        let relations = codec.relations();
        let penalty = relations.update_penalty();
        for (d, &(row, col)) in relations.data_cells().to_vec().iter().enumerate() {
            let new = vec![(d + 1) as u8; 16];
            let touched = codec.update_data(&mut stripe, row, col, &new).unwrap();
            assert_eq!(touched, penalty.per_data[d], "data cell ({row},{col})");
        }
    }

    #[test]
    fn updated_stripe_still_decodes() {
        let (codec, mut stripe) = setup();
        codec.update_data(&mut stripe, 0, 0, &[0x99; 16]).unwrap();
        codec.update_data(&mut stripe, 3, 1, &[0x77; 16]).unwrap();
        let pristine = stripe.clone();
        let erased: Vec<(usize, usize)> = (0..4)
            .flat_map(|i| [(i, 6), (i, 7)])
            .chain([(3, 3), (3, 4), (2, 5), (3, 5)])
            .collect();
        stripe.erase(&erased).unwrap();
        codec.decode(&mut stripe, &erased).unwrap();
        assert_eq!(stripe, pristine);
    }

    #[test]
    fn parity_targets_rejected() {
        let (codec, mut stripe) = setup();
        // (0, 6) is a row parity; (3, 3) is an inside global.
        assert!(matches!(
            codec.update_data(&mut stripe, 0, 6, &[0; 16]),
            Err(Error::InvalidPattern(_))
        ));
        assert!(matches!(
            codec.update_data(&mut stripe, 3, 3, &[0; 16]),
            Err(Error::InvalidPattern(_))
        ));
        assert!(matches!(
            codec.update_data(&mut stripe, 0, 0, &[0; 5]),
            Err(Error::ShapeMismatch(_))
        ));
    }
}
