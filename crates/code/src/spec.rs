//! The codec spec grammar: one-line, space-free codec descriptors.

use core::fmt;
use std::str::FromStr;

use crate::{CodeError, ErasureSet};

/// A parsed codec descriptor.
///
/// The grammar (all fields decimal, no spaces — specs embed in the store
/// superblock and in CLI flags):
///
/// ```text
/// stair:n,r,m,e1-e2-...   a STAIR code (e non-decreasing)
/// sd:n,r,m,s              a sector-disk code
/// rs:n,r,m                a Reed–Solomon array code (no sector parity)
/// ```
///
/// # Example
///
/// ```
/// use stair_code::CodecSpec;
///
/// let spec: CodecSpec = "stair:8,4,2,1-1-2".parse()?;
/// assert_eq!(spec.to_string(), "stair:8,4,2,1-1-2");
/// assert_eq!(spec.n(), 8);
/// assert_eq!("sd:6,4,1,2".parse::<CodecSpec>()?.family(), "sd");
/// # Ok::<(), stair_code::CodeError>(())
/// ```
#[derive(Clone, Debug, Eq, PartialEq)]
pub enum CodecSpec {
    /// A STAIR code `(n, r, m, e)`.
    Stair {
        /// Devices per stripe.
        n: usize,
        /// Sectors per chunk.
        r: usize,
        /// Tolerated device failures.
        m: usize,
        /// Sector-failure coverage vector (non-decreasing).
        e: Vec<usize>,
    },
    /// A sector-disk code `(n, r, m, s)`.
    Sd {
        /// Devices per stripe.
        n: usize,
        /// Sectors per chunk.
        r: usize,
        /// Parity devices.
        m: usize,
        /// Parity sectors beyond the parity devices.
        s: usize,
    },
    /// A Reed–Solomon array code `(n, r, m)`.
    Rs {
        /// Devices per stripe.
        n: usize,
        /// Sectors per chunk.
        r: usize,
        /// Parity devices.
        m: usize,
    },
}

impl CodecSpec {
    /// The codec family name (`"stair"`, `"sd"`, or `"rs"`).
    pub fn family(&self) -> &'static str {
        match self {
            CodecSpec::Stair { .. } => "stair",
            CodecSpec::Sd { .. } => "sd",
            CodecSpec::Rs { .. } => "rs",
        }
    }

    /// Devices per stripe.
    pub fn n(&self) -> usize {
        match *self {
            CodecSpec::Stair { n, .. } | CodecSpec::Sd { n, .. } | CodecSpec::Rs { n, .. } => n,
        }
    }

    /// Sectors per chunk.
    pub fn r(&self) -> usize {
        match *self {
            CodecSpec::Stair { r, .. } | CodecSpec::Sd { r, .. } | CodecSpec::Rs { r, .. } => r,
        }
    }

    /// Tolerated whole-device failures.
    pub fn m(&self) -> usize {
        match *self {
            CodecSpec::Stair { m, .. } | CodecSpec::Sd { m, .. } | CodecSpec::Rs { m, .. } => m,
        }
    }

    /// Tolerated sector failures beyond the `m` devices (STAIR's
    /// `s = Σ e_i`, SD's `s`, `0` for plain Reed–Solomon) — matches
    /// `Geometry::s` without building the codec.
    pub fn s(&self) -> usize {
        match self {
            CodecSpec::Stair { e, .. } => e.iter().sum(),
            CodecSpec::Sd { s, .. } => *s,
            CodecSpec::Rs { .. } => 0,
        }
    }

    /// Whether the code guarantees to recover `erased` (§2): the one
    /// definition of coverage in the workspace. Drop the `m` devices with
    /// the most erasures; the per-device counts left must fit under `e`
    /// reversed (STAIR), sum to at most `s` (SD), or be empty (RS). A
    /// cell outside the `r × n` stripe is not covered.
    ///
    /// Coverage is a guarantee, not a characterisation: a decoder may
    /// also recover patterns outside it. It is downward-closed — every
    /// subset of a covered pattern is covered.
    ///
    /// # Example
    ///
    /// ```
    /// use stair_code::{CodecSpec, ErasureSet};
    ///
    /// let spec: CodecSpec = "stair:8,4,2,1-1-2".parse()?;
    /// let devices = || (0..4).flat_map(|row| [(row, 6), (row, 7)]);
    /// // Devices 6 and 7, a 2-sector burst in device 2, one sector in 4.
    /// let lost = devices().chain([(1, 2), (2, 2), (0, 4)]);
    /// assert!(spec.covers(&ErasureSet::new(lost)));
    /// // With both device failures spent, a 3-sector burst exceeds e_max = 2.
    /// let lost = devices().chain([(0, 2), (1, 2), (2, 2)]);
    /// assert!(!spec.covers(&ErasureSet::new(lost)));
    /// # Ok::<(), stair_code::CodeError>(())
    /// ```
    pub fn covers(&self, erased: &ErasureSet) -> bool {
        if erased.check_bounds(self.r(), self.n()).is_err() {
            return false;
        }
        let mut counts = erased.per_device(self.n());
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let mut rest = counts.iter().skip(self.m()).copied().take_while(|&c| c > 0);
        match self {
            CodecSpec::Stair { e, .. } => {
                let mut limits = e.iter().rev();
                rest.all(|c| limits.next().is_some_and(|&limit| c <= limit))
            }
            CodecSpec::Sd { s, .. } => rest.sum::<usize>() <= *s,
            CodecSpec::Rs { .. } => rest.count() == 0,
        }
    }
}

impl fmt::Display for CodecSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecSpec::Stair { n, r, m, e } => {
                let e: Vec<String> = e.iter().map(|x| x.to_string()).collect();
                write!(f, "stair:{n},{r},{m},{}", e.join("-"))
            }
            CodecSpec::Sd { n, r, m, s } => write!(f, "sd:{n},{r},{m},{s}"),
            CodecSpec::Rs { n, r, m } => write!(f, "rs:{n},{r},{m}"),
        }
    }
}

impl FromStr for CodecSpec {
    type Err = CodeError;

    fn from_str(text: &str) -> Result<Self, CodeError> {
        let bad = |msg: &str| CodeError::InvalidConfig(format!("codec spec `{text}`: {msg}"));
        let (family, rest) = text
            .split_once(':')
            .ok_or_else(|| bad("expected `family:params`"))?;
        let fields: Vec<&str> = rest.split(',').collect();
        let int = |v: &str| {
            v.trim()
                .parse::<usize>()
                .map_err(|_| bad(&format!("bad integer `{v}`")))
        };
        match family {
            "stair" => {
                let [n, r, m, e] = fields.as_slice() else {
                    return Err(bad("stair expects `stair:n,r,m,e1-e2-...`"));
                };
                let e: Vec<usize> = e
                    .split('-')
                    .map(int)
                    .collect::<Result<_, _>>()
                    .map_err(|_| bad("e expects dash-separated integers, e.g. 1-1-2"))?;
                Ok(CodecSpec::Stair {
                    n: int(n)?,
                    r: int(r)?,
                    m: int(m)?,
                    e,
                })
            }
            "sd" => {
                let [n, r, m, s] = fields.as_slice() else {
                    return Err(bad("sd expects `sd:n,r,m,s`"));
                };
                Ok(CodecSpec::Sd {
                    n: int(n)?,
                    r: int(r)?,
                    m: int(m)?,
                    s: int(s)?,
                })
            }
            "rs" => {
                let [n, r, m] = fields.as_slice() else {
                    return Err(bad("rs expects `rs:n,r,m`"));
                };
                Ok(CodecSpec::Rs {
                    n: int(n)?,
                    r: int(r)?,
                    m: int(m)?,
                })
            }
            other => Err(bad(&format!(
                "unknown family `{other}` (expected stair, sd, or rs)"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        for text in [
            "stair:8,4,2,1-1-2",
            "stair:8,16,2,3",
            "sd:6,4,1,2",
            "rs:8,4,2",
        ] {
            let spec: CodecSpec = text.parse().unwrap();
            assert_eq!(spec.to_string(), text);
        }
    }

    #[test]
    fn accessors() {
        let spec: CodecSpec = "sd:6,4,1,2".parse().unwrap();
        assert_eq!((spec.n(), spec.r(), spec.m()), (6, 4, 1));
        assert_eq!(spec.s(), 2);
        assert_eq!(spec.family(), "sd");
        assert_eq!("stair:8,4,2,1-1-2".parse::<CodecSpec>().unwrap().s(), 4);
        assert_eq!("rs:8,4,2".parse::<CodecSpec>().unwrap().s(), 0);
        let spec: CodecSpec = "stair:8,4,2,1-1-2".parse().unwrap();
        assert_eq!(
            spec,
            CodecSpec::Stair {
                n: 8,
                r: 4,
                m: 2,
                e: vec![1, 1, 2]
            }
        );
    }

    /// Whether `spec` covers `counts[d]` erased sectors (rows from 0) on
    /// each device `d`.
    fn covered(spec: &str, counts: &[usize]) -> bool {
        let spec: CodecSpec = spec.parse().unwrap();
        let cells = counts
            .iter()
            .enumerate()
            .flat_map(|(dev, &c)| (0..c).map(move |row| (row, dev)));
        spec.covers(&ErasureSet::new(cells))
    }

    #[test]
    fn stair_coverage_accepts_patterns_within_m_and_e() {
        let spec = "stair:8,4,2,1-1-2";
        // Worst case: 2 full chunks + (1,1,2) sector failures.
        assert!(covered(spec, &[4, 4, 2, 1, 1, 0, 0, 0]));
        // Fewer failures is always fine.
        assert!(covered(spec, &[0; 8]));
        assert!(covered(spec, &[4, 0, 0, 1, 0, 0, 0, 0]));
        // The m dropped chunks need not be fully failed, nor first.
        assert!(covered(spec, &[3, 3, 2, 1, 1, 0, 0, 0]));
        assert!(covered(spec, &[0, 1, 0, 4, 2, 0, 1, 4]));
    }

    #[test]
    fn stair_coverage_rejects_patterns_beyond_m_and_e() {
        let spec = "stair:8,4,2,1-1-2";
        // Three chunks beyond the m = 2 worst, but (2,2,1) ⋠ (2,1,1).
        assert!(!covered(spec, &[4, 4, 2, 2, 1, 0, 0, 0]));
        // Four partially-failed chunks exceed m' = 3.
        assert!(!covered(spec, &[4, 4, 1, 1, 1, 1, 0, 0]));
        // A burst of 3 exceeds e_max = 2.
        assert!(!covered(spec, &[4, 4, 3, 0, 0, 0, 0, 0]));
    }

    #[test]
    fn sd_coverage_is_m_devices_plus_s_sectors_anywhere() {
        let spec = "sd:6,4,1,2";
        assert!(covered(spec, &[0, 0, 4, 0, 0, 0]));
        assert!(covered(spec, &[1, 0, 4, 0, 0, 1]));
        assert!(covered(spec, &[0, 0, 4, 2, 0, 0]));
        assert!(covered(spec, &[2, 0, 3, 0, 0, 0]));
        assert!(!covered(spec, &[1, 1, 4, 1, 0, 0]));
        assert!(!covered(spec, &[0, 0, 4, 3, 0, 0]));
        // Two full devices exceed m = 1 by far.
        assert!(!covered("sd:6,4,1,1", &[4, 4, 0, 0, 0, 0]));
    }

    #[test]
    fn rs_coverage_is_m_devices() {
        assert!(covered("rs:5,3,2", &[3, 0, 2, 0, 0]));
        assert!(!covered("rs:5,3,2", &[3, 1, 3, 0, 0]));
    }

    #[test]
    fn out_of_range_cells_are_not_covered() {
        let spec: CodecSpec = "stair:8,4,2,1-1-2".parse().unwrap();
        assert!(!spec.covers(&ErasureSet::new([(4, 0)])));
        assert!(!spec.covers(&ErasureSet::new([(0, 8)])));
        assert!(spec.covers(&ErasureSet::new([(0, 0), (1, 0)])));
    }

    #[test]
    fn malformed_specs_rejected() {
        for text in [
            "",
            "stair",
            "stair:8,4,2",
            "stair:8,4,2,1,2",
            "stair:8,4,2,1-x",
            "sd:6,4,1",
            "sd:6,4,1,2,3",
            "rs:8,4",
            "raid5:4,2,1",
            "stair:a,4,2,1",
        ] {
            assert!(
                text.parse::<CodecSpec>().is_err(),
                "`{text}` should not parse"
            );
        }
    }
}
