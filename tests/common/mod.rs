//! What the root tests share: the codec specs the decode oracle
//! (`coverage_oracle.rs`) holds to its coverage, and building one over
//! GF(2^16).

use stair::{Config, StairCodec};
use stair_code::{CodecSpec, ErasureCode};
use stair_gf::Gf16;
use stair_sd::{RsArrayCode, SdCode};
use stair_store::build_codec;

/// The oracle's specs: its exhaustive four, the shipped four, the Fig. 11
/// grid (the `e` of the fewest chunks that builds, per `(n, r, m, s)`) and
/// the two SD specs whose refusals it pins.
pub fn specs() -> Vec<CodecSpec> {
    let mut specs: Vec<String> = [
        "stair:5,3,1,1-2",
        "sd:4,3,1,1",
        "sd:6,4,1,2",
        "rs:5,3,2",
        "stair:8,16,2,1-2",
        "rs:8,16,2",
        "stair:8,4,2,1-1-2",
        "rs:8,4,2",
    ]
    .map(String::from)
    .into();
    for (n, r) in [(8, 16), (16, 16), (24, 16), (16, 8), (16, 24), (32, 16)] {
        for m in 1..=3 {
            for s in 1..=4 {
                let mut shapes = (1..=s).map(|parts| {
                    let e: Vec<String> = (0..parts)
                        .map(|i| (s / parts + usize::from(i >= parts - s % parts)).to_string())
                        .collect();
                    format!("stair:{n},{r},{m},{}", e.join("-"))
                });
                specs.extend(shapes.find(|spec| build_codec(&spec.parse().unwrap()).is_ok()));
            }
        }
    }
    specs.extend(["sd:8,16,2,3", "sd:8,4,2,2"].map(String::from));
    specs.iter().map(|s| s.parse().unwrap()).collect()
}

/// `spec` over GF(2^16).
pub fn wide(spec: &CodecSpec) -> Box<dyn ErasureCode> {
    match *spec {
        CodecSpec::Stair { n, r, m, ref e } => {
            let codec: StairCodec<Gf16> =
                StairCodec::new(Config::new(n, r, m, e).unwrap()).unwrap();
            Box::new(codec)
        }
        CodecSpec::Sd { n, r, m, s } => Box::new(SdCode::<Gf16>::new(n, r, m, s).unwrap()),
        CodecSpec::Rs { n, r, m } => Box::new(RsArrayCode::<Gf16>::new(n, r, m).unwrap()),
    }
}
