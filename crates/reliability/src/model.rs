//! System-level reliability: storage efficiency, array counts, and the
//! Markov MTTDL model (§7.1.1, Fig. 16).

use stair_code::CodecSpec;

use crate::{p_chk, p_sec, p_str, SectorModel};

/// Storage efficiency `E = (r·(n−m) − s)/(r·n)` (Eq. 8).
pub fn storage_efficiency(n: usize, r: usize, m: usize, s: usize) -> f64 {
    assert!(n > m && r > 0, "need n > m and r > 0");
    assert!(r * (n - m) >= s, "s exceeds capacity");
    (r * (n - m) - s) as f64 / (r * n) as f64
}

/// Number of storage arrays needed for `user_bytes` of data (Eq. 7):
/// `N_arr = ⌈(U/E) / (C·n)⌉`.
pub fn narr(user_bytes: f64, efficiency: f64, device_capacity: f64, n: usize) -> u64 {
    assert!(efficiency > 0.0 && device_capacity > 0.0);
    (user_bytes / efficiency / (device_capacity * n as f64)).ceil() as u64
}

/// The system around the arrays in §7.2's numerical evaluation; each
/// array's shape (`n`, `r`, `m`) and coverage come from the code's
/// [`CodecSpec`].
#[derive(Clone, Debug, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SystemParams {
    /// Total user data in bytes (`U`).
    pub user_bytes: f64,
    /// Device capacity in bytes (`C`).
    pub device_capacity: f64,
    /// Sector size in bytes (`S`).
    pub sector_bytes: usize,
    /// Mean time to device failure `1/λ` in hours.
    pub mttf_hours: f64,
    /// Mean time to rebuild `1/µ` in hours.
    pub rebuild_hours: f64,
}

impl SystemParams {
    /// The configuration of §7.2: 10 PiB of user data on SATA drives with
    /// `C` = 300 GiB, `S` = 512 B, `1/λ` = 500 000 h, `1/µ` = 17.8 h. The
    /// paper's codes are `n` = 8, `r` = 16, `m` = 1 (`rs:8,16,1`,
    /// `sd:8,16,1,s`, `stair:8,16,1,e…`).
    ///
    /// (Binary units reproduce the paper's `N_arr` table exactly:
    /// `s = 0 → 4994`, `s = 12 → 5593`.)
    pub fn paper_defaults() -> Self {
        SystemParams {
            user_bytes: 10.0 * (1u64 << 50) as f64,
            device_capacity: 300.0 * (1u64 << 30) as f64,
            sector_bytes: 512,
            mttf_hours: 500_000.0,
            rebuild_hours: 17.8,
        }
    }

    /// `N_arr` for a code (Eq. 7 with Eq. 8).
    pub fn narr(&self, spec: &CodecSpec) -> u64 {
        let e = storage_efficiency(spec.n(), spec.r(), spec.m(), spec.s());
        narr(self.user_bytes, e, self.device_capacity, spec.n())
    }

    /// `P_arr`: probability that an array in critical mode encounters
    /// unrecoverable sector failures (Eq. 11, exact form).
    pub fn p_arr(&self, spec: &CodecSpec, model: &SectorModel, p_bit: f64) -> f64 {
        let psec = p_sec(p_bit, self.sector_bytes);
        let pchk = p_chk(model, psec, spec.r());
        let pstr = p_str(spec, &pchk);
        let stripes = (self.device_capacity / (self.sector_bytes as f64 * spec.r() as f64)).floor();
        1.0 - (1.0 - pstr).powf(stripes)
    }

    /// `MTTDL_arr` from the Markov model of Fig. 16 (Eq. 10), in hours.
    ///
    /// # Panics
    ///
    /// Panics unless `spec.m() == 1`: Fig. 16 is the one-parity-device
    /// chain.
    pub fn mttdl_arr(&self, spec: &CodecSpec, model: &SectorModel, p_bit: f64) -> f64 {
        assert_eq!(spec.m(), 1, "the Fig. 16 Markov chain models m = 1");
        let n = spec.n() as f64;
        let lambda = 1.0 / self.mttf_hours;
        let mu = 1.0 / self.rebuild_hours;
        let parr = self.p_arr(spec, model, p_bit);
        ((2.0 * n - 1.0) * lambda + mu) / (n * lambda * ((n - 1.0) * lambda + mu * parr))
    }

    /// `MTTDL_sys = MTTDL_arr / N_arr` (Eq. 9), in hours.
    ///
    /// # Panics
    ///
    /// As [`SystemParams::mttdl_arr`].
    pub fn mttdl_sys(&self, spec: &CodecSpec, model: &SectorModel, p_bit: f64) -> f64 {
        self.mttdl_arr(spec, model, p_bit) / self.narr(spec) as f64
    }
}

#[cfg(test)]
mod tests {
    use crate::spec;

    use super::*;

    /// `MTTDL_sys` of a spec under the §7.2 defaults.
    fn mttdl(text: &str, model: &SectorModel, p_bit: f64) -> f64 {
        SystemParams::paper_defaults().mttdl_sys(&spec(text), model, p_bit)
    }

    /// MTTDL decreases monotonically in P_bit (power-law decrease regions
    /// of Figs. 17–18).
    #[test]
    fn mttdl_monotone_in_pbit() {
        let model = SectorModel::Independent;
        let mut last = f64::INFINITY;
        for &pb in &[1e-14, 1e-13, 1e-12, 1e-11, 1e-10] {
            let v = mttdl("stair:8,16,1,2", &model, pb);
            assert!(v < last);
            last = v;
        }
    }

    #[test]
    fn efficiency_and_narr_validation() {
        assert!((storage_efficiency(8, 16, 1, 0) - 0.875).abs() < 1e-12);
        assert_eq!(narr(100.0, 0.5, 10.0, 2), 10);
    }
}
