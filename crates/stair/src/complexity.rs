//! Analytical `Mult_XOR` cost model for the three encoding methods
//! (§5.3 of the paper, Eq. 5 and Eq. 6), used both to regenerate Fig. 9 and
//! to pick the cheapest method at codec-construction time.

use crate::Config;

/// Per-stripe `Mult_XOR` counts of the three encoding methods.
///
/// # Example
///
/// ```
/// use stair::{Config, MultXorCounts};
///
/// // n = 8, m = 2, e = (1,1,2), r = 4 — the paper's running example.
/// let cfg = Config::new(8, 4, 2, &[1, 1, 2])?;
/// let counts = MultXorCounts::analytic(&cfg);
/// assert_eq!(counts.upstairs, 120);
/// assert_eq!(counts.downstairs, 136);
/// # Ok::<(), stair_code::CodeError>(())
/// ```
#[derive(Clone, Copy, Debug, Default, Eq, Hash, PartialEq)]
pub struct MultXorCounts {
    /// Eq. (5): `(n−m)·(m·r + s) + r·(n−m)·e_max`.
    pub upstairs: usize,
    /// Eq. (6): `(n−m)·(m+m')·r + r·s`.
    pub downstairs: usize,
    /// Standard encoding: the total number of data symbols contributing to
    /// each parity symbol (set by [`crate::StairCodec`] from the derived
    /// parity relations; zero when produced by [`MultXorCounts::analytic`]).
    pub standard: usize,
}

impl MultXorCounts {
    /// Computes the closed-form upstairs/downstairs counts of Eq. (5)/(6).
    /// The standard count requires the dense parity relations and is filled
    /// in by the codec.
    pub fn analytic(config: &Config) -> Self {
        let (n, r, m) = (config.n(), config.r(), config.m());
        let (m_prime, s, e_max) = (config.m_prime(), config.s(), config.e_max());
        MultXorCounts {
            upstairs: (n - m) * (m * r + s) + r * ((n - m) * e_max),
            downstairs: (n - m) * ((m + m_prime) * r) + r * s,
            standard: 0,
        }
    }

    /// The cheapest method among the three (ties broken in the order
    /// upstairs, downstairs, standard — reuse-based methods also touch
    /// less memory).
    pub fn best(&self) -> crate::EncodingMethod {
        let mut best = crate::EncodingMethod::Upstairs;
        let mut cost = self.upstairs;
        if self.downstairs < cost {
            best = crate::EncodingMethod::Downstairs;
            cost = self.downstairs;
        }
        if self.standard != 0 && self.standard < cost {
            best = crate::EncodingMethod::Standard;
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formulas_match_hand_computation() {
        // n=8, r=4, m=2, e=(1,1,2): s=4, m'=3, e_max=2.
        let cfg = Config::new(8, 4, 2, &[1, 1, 2]).unwrap();
        let c = MultXorCounts::analytic(&cfg);
        assert_eq!(c.upstairs, 6 * (2 * 4 + 4) + 4 * (6 * 2));
        assert_eq!(c.downstairs, 6 * ((2 + 3) * 4) + 4 * 4);
    }
}
