//! STAIR code configuration `(n, r, m, e)` (§2 of the paper).

use stair_code::CodecSpec;

use crate::Error;

/// Where the `s` global parity symbols live.
///
/// The paper first develops the construction with global parities held
/// *outside* the stripe (§3–§4), then extends it to relocate them *inside*
/// the stripe (§5), replacing `s` data sectors at the bottom of the `m'`
/// rightmost data chunks. Inside placement is what a deployed system uses
/// (no extra device needed) and is the default.
#[derive(Clone, Copy, Debug, Default, Eq, Hash, PartialEq)]
pub enum GlobalPlacement {
    /// Global parities stored in dedicated buffers outside the `r × n`
    /// stripe, assumed always available (the paper's baseline of §3).
    Outside,
    /// Global parities stored inside the stripe in the stair layout of
    /// Fig. 5 (the paper's extended construction of §5).
    #[default]
    Inside,
}

/// The full parameter set of a STAIR code.
///
/// * `n` — devices (chunks) per stripe;
/// * `r` — sectors (symbols) per chunk;
/// * `m` — tolerated whole-chunk failures;
/// * `e` — sector-failure coverage vector, non-decreasing, defining
///   `m' = e.len()` and `s = Σ e_i`.
///
/// # Example
///
/// ```
/// use stair::Config;
///
/// let cfg = Config::new(8, 4, 2, &[1, 1, 2])?;
/// assert_eq!(cfg.m_prime(), 3);
/// assert_eq!(cfg.s(), 4);
/// assert_eq!(cfg.e_max(), 2);
/// # Ok::<(), stair::Error>(())
/// ```
#[derive(Clone, Debug, Eq, Hash, PartialEq)]
pub struct Config {
    n: usize,
    r: usize,
    m: usize,
    e: Vec<usize>,
    placement: GlobalPlacement,
}

impl Config {
    /// Builds and validates a configuration with the default
    /// [`GlobalPlacement::Inside`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when any of the paper's structural
    /// requirements is violated:
    ///
    /// * `m ≥ n` (must leave at least one surviving chunk);
    /// * `e` empty, not non-decreasing, containing zero, or `e_max > r`;
    /// * `m' > n − m` (more partially-failed chunks than survivors);
    /// * no data symbols left (`r·(n−m) ≤ s` for inside placement);
    /// * code lengths exceeding GF(2^8): `n + m' > 256` or `r + e_max > 256`.
    pub fn new(n: usize, r: usize, m: usize, e: &[usize]) -> Result<Self, Error> {
        Self::with_placement(n, r, m, e, GlobalPlacement::Inside)
    }

    /// Builds and validates a configuration with an explicit global-parity
    /// placement.
    ///
    /// # Errors
    ///
    /// Same as [`Config::new`].
    pub fn with_placement(
        n: usize,
        r: usize,
        m: usize,
        e: &[usize],
        placement: GlobalPlacement,
    ) -> Result<Self, Error> {
        if n < 2 {
            return Err(Error::InvalidConfig(format!("n = {n} must be at least 2")));
        }
        if r == 0 {
            return Err(Error::InvalidConfig("r must be positive".into()));
        }
        if m == 0 {
            return Err(Error::InvalidConfig(
                "m must be positive (use a plain intra-device code for m = 0)".into(),
            ));
        }
        if m >= n {
            return Err(Error::InvalidConfig(format!(
                "m = {m} must be less than n = {n}"
            )));
        }
        if e.is_empty() {
            return Err(Error::InvalidConfig(
                "e must be non-empty (use a plain MDS code for s = 0)".into(),
            ));
        }
        if e.contains(&0) {
            return Err(Error::InvalidConfig("all e_i must be positive".into()));
        }
        if e.windows(2).any(|w| w[0] > w[1]) {
            return Err(Error::InvalidConfig(format!(
                "e = {e:?} must be non-decreasing"
            )));
        }
        let m_prime = e.len();
        if m_prime > n - m {
            return Err(Error::InvalidConfig(format!(
                "m' = {m_prime} exceeds the n − m = {} surviving chunks",
                n - m
            )));
        }
        let e_max = *e.last().expect("e is non-empty");
        if e_max > r {
            return Err(Error::InvalidConfig(format!(
                "e_max = {e_max} exceeds the chunk size r = {r}"
            )));
        }
        let s: usize = e.iter().sum();
        if placement == GlobalPlacement::Inside && r * (n - m) <= s {
            return Err(Error::InvalidConfig(format!(
                "no data symbols left: r·(n−m) = {} ≤ s = {s}",
                r * (n - m)
            )));
        }
        if n + m_prime > 256 {
            return Err(Error::InvalidConfig(format!(
                "C_row length n + m' = {} exceeds GF(2^8)",
                n + m_prime
            )));
        }
        if r + e_max > 256 {
            return Err(Error::InvalidConfig(format!(
                "C_col length r + e_max = {} exceeds GF(2^8)",
                r + e_max
            )));
        }
        Ok(Config {
            n,
            r,
            m,
            e: e.to_vec(),
            placement,
        })
    }

    /// Number of devices (chunks) per stripe.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of sectors (symbols) per chunk.
    pub fn r(&self) -> usize {
        self.r
    }

    /// Number of tolerated whole-chunk failures.
    pub fn m(&self) -> usize {
        self.m
    }

    /// The sector-failure coverage vector `e`.
    pub fn e(&self) -> &[usize] {
        &self.e
    }

    /// `m'`: how many chunks may simultaneously contain sector failures.
    pub fn m_prime(&self) -> usize {
        self.e.len()
    }

    /// `s = Σ e_i`: total tolerated sector failures per stripe.
    pub fn s(&self) -> usize {
        self.e.iter().sum()
    }

    /// The largest element of `e` (the paper's `e_{m'−1}`).
    pub fn e_max(&self) -> usize {
        *self.e.last().expect("e is non-empty")
    }

    /// Where global parities are stored.
    pub fn placement(&self) -> GlobalPlacement {
        self.placement
    }

    /// Number of data symbols per stripe: `r·(n−m) − s` for inside
    /// placement, `r·(n−m)` for outside placement.
    pub fn data_symbols(&self) -> usize {
        match self.placement {
            GlobalPlacement::Inside => self.r * (self.n - self.m) - self.s(),
            GlobalPlacement::Outside => self.r * (self.n - self.m),
        }
    }

    /// The codec spec naming this configuration (`stair:n,r,m,e…`);
    /// [`CodecSpec::covers`] is its failure coverage (§2). Placement is
    /// not part of the spec.
    pub fn spec(&self) -> CodecSpec {
        CodecSpec::Stair {
            n: self.n,
            r: self.r,
            m: self.m,
            e: self.e.clone(),
        }
    }

    /// Counts erased sectors per chunk, validating coordinates.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidPattern`] for out-of-range or duplicate
    /// coordinates.
    pub fn erasure_counts(&self, erased: &[(usize, usize)]) -> Result<Vec<usize>, Error> {
        let mut seen = vec![false; self.r * self.n];
        let mut counts = vec![0usize; self.n];
        for &(row, col) in erased {
            if row >= self.r || col >= self.n {
                return Err(Error::InvalidPattern(format!(
                    "coordinate ({row},{col}) out of range for r={} n={}",
                    self.r, self.n
                )));
            }
            let idx = row * self.n + col;
            if seen[idx] {
                return Err(Error::InvalidPattern(format!(
                    "duplicate coordinate ({row},{col})"
                )));
            }
            seen[idx] = true;
            counts[col] += 1;
        }
        Ok(counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_config() {
        let cfg = Config::new(8, 4, 2, &[1, 1, 2]).unwrap();
        assert_eq!(cfg.n(), 8);
        assert_eq!(cfg.r(), 4);
        assert_eq!(cfg.m(), 2);
        assert_eq!(cfg.m_prime(), 3);
        assert_eq!(cfg.s(), 4);
        assert_eq!(cfg.e_max(), 2);
        assert_eq!(cfg.data_symbols(), 4 * 6 - 4);
        assert_eq!(cfg.placement(), GlobalPlacement::Inside);
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(Config::new(1, 4, 0, &[1]).is_err()); // n too small
        assert!(Config::new(8, 0, 2, &[1]).is_err()); // r zero
        assert!(Config::new(8, 4, 0, &[1]).is_err()); // m zero
        assert!(Config::new(8, 4, 8, &[1]).is_err()); // m >= n
        assert!(Config::new(8, 4, 2, &[]).is_err()); // e empty
        assert!(Config::new(8, 4, 2, &[0, 1]).is_err()); // zero entry
        assert!(Config::new(8, 4, 2, &[2, 1]).is_err()); // decreasing
        assert!(Config::new(8, 4, 2, &[1; 7]).is_err()); // m' > n-m
        assert!(Config::new(8, 4, 2, &[1, 5]).is_err()); // e_max > r
        assert!(Config::new(2, 1, 1, &[1]).is_err()); // no data left
        assert!(Config::new(255, 4, 2, &[1, 1]).is_err()); // n+m' > 256
    }

    #[test]
    fn special_cases_from_section_2() {
        // e = (1): a PMDS/SD code with s = 1.
        assert!(Config::new(8, 16, 2, &[1]).is_ok());
        // e = (r): same function as a systematic (n, n−m−1)-code.
        assert!(Config::new(8, 16, 2, &[16]).is_ok());
        // e = (ε,...,ε) with m' = n−m: the IDR scheme.
        assert!(Config::new(8, 16, 2, &[2; 6]).is_ok());
    }
}
