//! The closed-form `P_str` expressions of Appendix B, kept as an
//! independent implementation to cross-check the general enumerator in
//! [`crate::p_str`].

/// Eq. (18): Reed–Solomon.
pub fn pstr_rs_closed(n: usize, m: usize, pchk: &[f64]) -> f64 {
    let c = (n - m) as f64;
    1.0 - pchk[0].powf(c)
}

/// Appendix B.2: STAIR codes for the special shapes the paper writes out —
/// `e = (s)`, `(1, s−1)`, `(2, s−2)`, `(1, 1, s−2)`, and `(1, …, 1)`.
///
/// Returns `None` for other shapes (use the general enumerator instead).
pub fn pstr_stair_closed(e: &[usize], n: usize, m: usize, pchk: &[f64]) -> Option<f64> {
    let c = (n - m) as f64;
    let p0 = pchk[0];
    let s: usize = e.iter().sum();
    let choose = |n: f64, k: usize| -> f64 {
        let mut acc = 1.0;
        for i in 0..k {
            acc *= (n - i as f64) / (i as f64 + 1.0);
        }
        acc
    };
    match e {
        // Eq. (19): e = (s)
        [es] => {
            let sum1: f64 = (1..=*es).map(|i| pchk[i]).sum();
            Some(1.0 - p0.powf(c) - c * sum1 * p0.powf(c - 1.0))
        }
        // Eq. (23): e = (1, 1, ..., 1)
        ones if ones.iter().all(|&x| x == 1) => {
            let total: f64 = (0..=s)
                .map(|i| choose(c, i) * pchk[1].powi(i as i32) * p0.powf(c - i as f64))
                .sum();
            Some(1.0 - total)
        }
        // Eq. (20): e = (1, s−1), s ≥ 2
        [1, tail] => {
            let t = *tail;
            let mut covered = p0.powf(c);
            covered += c * (1..=t).map(|i| pchk[i]).sum::<f64>() * p0.powf(c - 1.0);
            covered += choose(c, 2) * pchk[1] * pchk[1] * p0.powf(c - 2.0);
            covered +=
                c * (c - 1.0) * (2..=t).map(|i| pchk[i]).sum::<f64>() * pchk[1] * p0.powf(c - 2.0);
            Some(1.0 - covered)
        }
        // Eq. (21): e = (2, s−2), s ≥ 4
        [2, tail] if *tail >= 2 => {
            let t = *tail;
            let mut covered = p0.powf(c);
            covered += c * (1..=t).map(|i| pchk[i]).sum::<f64>() * p0.powf(c - 1.0);
            covered += choose(c, 2) * pchk[1] * pchk[1] * p0.powf(c - 2.0);
            covered +=
                c * (c - 1.0) * (2..=t).map(|i| pchk[i]).sum::<f64>() * pchk[1] * p0.powf(c - 2.0);
            covered += choose(c, 2) * pchk[2] * pchk[2] * p0.powf(c - 2.0);
            covered +=
                c * (c - 1.0) * (3..=t).map(|i| pchk[i]).sum::<f64>() * pchk[2] * p0.powf(c - 2.0);
            Some(1.0 - covered)
        }
        // Eq. (22): e = (1, 1, s−2), s ≥ 3
        [1, 1, tail] => {
            let t = *tail;
            let mut covered = p0.powf(c);
            covered += c * (1..=t).map(|i| pchk[i]).sum::<f64>() * p0.powf(c - 1.0);
            covered += choose(c, 2) * pchk[1] * pchk[1] * p0.powf(c - 2.0);
            covered +=
                c * (c - 1.0) * (2..=t).map(|i| pchk[i]).sum::<f64>() * pchk[1] * p0.powf(c - 2.0);
            covered += choose(c, 3) * pchk[1].powi(3) * p0.powf(c - 3.0);
            covered += choose(c, 2)
                * (c - 2.0)
                * (2..=t).map(|i| pchk[i]).sum::<f64>()
                * pchk[1]
                * pchk[1]
                * p0.powf(c - 3.0);
            Some(1.0 - covered)
        }
        _ => None,
    }
}

/// Appendix B.3, Eqs. (24)–(26): SD codes with `s ≤ 3`.
///
/// Returns `None` for `s > 3` (no closed form is written out in the paper).
pub fn pstr_sd_closed(s: usize, n: usize, m: usize, pchk: &[f64]) -> Option<f64> {
    let c = (n - m) as f64;
    let p0 = pchk[0];
    let choose2 = c * (c - 1.0) / 2.0;
    let choose3 = c * (c - 1.0) * (c - 2.0) / 6.0;
    match s {
        1 => Some(1.0 - p0.powf(c) - c * pchk[1] * p0.powf(c - 1.0)),
        2 => {
            let mut covered = p0.powf(c);
            covered += c * (pchk[1] + pchk[2]) * p0.powf(c - 1.0);
            covered += choose2 * pchk[1] * pchk[1] * p0.powf(c - 2.0);
            Some(1.0 - covered)
        }
        3 => {
            let mut covered = p0.powf(c);
            covered += c * (pchk[1] + pchk[2] + pchk[3]) * p0.powf(c - 1.0);
            covered += choose2 * pchk[1] * pchk[1] * p0.powf(c - 2.0);
            covered += c * (c - 1.0) * pchk[2] * pchk[1] * p0.powf(c - 2.0);
            covered += choose3 * pchk[1].powi(3) * p0.powf(c - 3.0);
            Some(1.0 - covered)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use crate::{p_chk, p_str, spec, BurstModel, SectorModel};

    use super::*;

    fn models(r: usize) -> Vec<Vec<f64>> {
        vec![
            p_chk(&SectorModel::Independent, 1e-4, r),
            p_chk(&SectorModel::Independent, 1e-2, r),
            p_chk(
                &SectorModel::Correlated(BurstModel::from_pareto(0.98, 1.79, r)),
                1e-4,
                r,
            ),
            p_chk(
                &SectorModel::Correlated(BurstModel::from_pareto(0.9, 1.0, r)),
                1e-3,
                r,
            ),
        ]
    }

    #[test]
    fn enumerator_matches_rs_closed_form() {
        for pchk in models(16) {
            let a = p_str(&spec("rs:8,16,1"), &pchk);
            let b = pstr_rs_closed(8, 1, &pchk);
            assert!((a - b).abs() < 1e-15, "{a} vs {b}");
        }
    }

    #[test]
    fn enumerator_matches_stair_closed_forms() {
        let shapes: Vec<Vec<usize>> = vec![
            vec![1],
            vec![3],
            vec![1, 2],
            vec![1, 4],
            vec![2, 2],
            vec![2, 3],
            vec![1, 1, 1],
            vec![1, 1, 2],
            vec![1, 1, 1, 1],
        ];
        for pchk in models(16) {
            for e in &shapes {
                let Some(closed) = pstr_stair_closed(e, 8, 1, &pchk) else {
                    continue;
                };
                let e_text: Vec<String> = e.iter().map(|x| x.to_string()).collect();
                let code = spec(&format!("stair:8,16,1,{}", e_text.join("-")));
                let enumerated = p_str(&code, &pchk);
                assert!(
                    (closed - enumerated).abs() < 1e-15 * (1.0 + closed.abs()),
                    "e={e:?}: closed {closed} vs enumerated {enumerated}"
                );
            }
        }
    }

    #[test]
    fn enumerator_matches_sd_closed_forms() {
        for pchk in models(16) {
            for s in 1..=3 {
                let closed = pstr_sd_closed(s, 8, 1, &pchk).unwrap();
                let enumerated = p_str(&spec(&format!("sd:8,16,1,{s}")), &pchk);
                assert!(
                    (closed - enumerated).abs() < 1e-15 * (1.0 + closed.abs()),
                    "s={s}: closed {closed} vs enumerated {enumerated}"
                );
            }
        }
    }

    #[test]
    fn sd_closed_form_unavailable_beyond_3() {
        let pchk = p_chk(&SectorModel::Independent, 1e-4, 8);
        assert!(pstr_sd_closed(4, 8, 1, &pchk).is_none());
    }
}
