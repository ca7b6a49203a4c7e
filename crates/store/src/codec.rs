//! The codec registry: turning a [`CodecSpec`] into a live
//! [`ErasureCode`].
//!
//! This is the only place in the store that names concrete codec types;
//! everything downstream works through the trait object. Adding a codec
//! family means one more arm here (plus a grammar arm in
//! [`stair_code::CodecSpec`]).

use stair::{Config, StairCodec};
use stair_code::{CodecSpec, ErasureCode};
use stair_sd::{RsArrayCode, SdCode};

use crate::Error;

/// Builds the erasure code a spec describes, over GF(2^8).
///
/// # Errors
///
/// Returns [`Error::Code`] when the parameters are invalid for the family
/// (or, for SD, when the algebraic construction does not exist at these
/// parameters — the paper's motivating limitation).
pub fn build_codec(spec: &CodecSpec) -> Result<Box<dyn ErasureCode>, Error> {
    match spec {
        CodecSpec::Stair { n, r, m, e } => {
            let codec: StairCodec = StairCodec::new(Config::new(*n, *r, *m, e)?)?;
            Ok(Box::new(codec))
        }
        CodecSpec::Sd { n, r, m, s } => {
            let code: SdCode<stair_gf::Gf8> = SdCode::new(*n, *r, *m, *s)?;
            Ok(Box::new(code))
        }
        CodecSpec::Rs { n, r, m } => {
            let code: RsArrayCode<stair_gf::Gf8> = RsArrayCode::new(*n, *r, *m)?;
            Ok(Box::new(code))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stair_code::CodeError;

    #[test]
    fn builds_every_family() {
        for spec in ["stair:8,4,2,1-1-2", "sd:6,4,1,2", "rs:8,4,2"] {
            let spec: CodecSpec = spec.parse().unwrap();
            let codec = build_codec(&spec).unwrap();
            let geom = codec.geometry();
            assert_eq!(geom.n, spec.n());
            assert_eq!(geom.r, spec.r());
            assert_eq!(geom.m, spec.m());
            assert!(!geom.data_cells.is_empty());
        }
    }

    /// Every family refuses parameters it cannot build as a bad
    /// configuration, never as a codec bug: too wide for GF(2^8), or
    /// impossible at any width.
    #[test]
    fn impossible_specs_fail() {
        for spec in [
            "rs:300,4,2",
            "sd:300,4,1,1",
            "stair:300,4,1,1",
            "stair:8,4,2,9-9-9",
            "sd:4,4,3,3",
            "rs:4,4,4",
        ] {
            let parsed: CodecSpec = spec.parse().unwrap();
            let err = build_codec(&parsed).err();
            assert!(
                matches!(err, Some(Error::Code(CodeError::InvalidConfig(_)))),
                "{spec}: {err:?}"
            );
        }
    }
}
