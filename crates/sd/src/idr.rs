//! Intra-device redundancy (IDR) [11, 12, 41]: every chunk carries its own
//! `(r, r−ε)` code so that up to `ε` sector failures per chunk are repaired
//! *locally*; `m` device-level parity chunks handle whole-device failures.
//!
//! The STAIR paper uses IDR as the space baseline for burst protection
//! (§2): protecting every chunk against an `ε`-sector burst costs
//! `(n−m)·ε` redundant sectors per stripe, versus STAIR's `s`.

use stair_code::CodeError;
use stair_gf::Field;
use stair_rs::MdsCode;

/// The IDR scheme: per-chunk `(r, r−ε)` codes plus `m` parity devices.
///
/// Chunk layout: sectors `0..r−ε` of each data chunk hold data, sectors
/// `r−ε..r` hold the chunk's local parity. The last `m` chunks are
/// device-level parity (computed over the *entire* chunk contents,
/// including local parities — so a repaired stripe is consistent).
#[derive(Clone, Debug)]
pub struct IdrScheme<F: Field> {
    n: usize,
    r: usize,
    m: usize,
    epsilon: usize,
    row_code: MdsCode<F>,
    col_code: MdsCode<F>,
}

impl<F: Field> IdrScheme<F> {
    /// Builds the scheme.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidConfig`] for degenerate shapes (`ε = 0`,
    /// `ε ≥ r`, `m ≥ n`, ...).
    pub fn new(n: usize, r: usize, m: usize, epsilon: usize) -> Result<Self, CodeError> {
        if n < 2 || m == 0 || m >= n {
            return Err(CodeError::InvalidConfig(format!(
                "need 0 < m < n (got n={n}, m={m})"
            )));
        }
        if epsilon == 0 || epsilon >= r {
            return Err(CodeError::InvalidConfig(format!(
                "need 0 < ε < r (got ε={epsilon}, r={r})"
            )));
        }
        Ok(IdrScheme {
            n,
            r,
            m,
            epsilon,
            row_code: MdsCode::new(n, n - m)?,
            col_code: MdsCode::new(r, r - epsilon)?,
        })
    }

    /// Devices per stripe.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Sectors per chunk.
    pub fn r(&self) -> usize {
        self.r
    }

    /// Parity devices.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Per-chunk local parity sectors.
    pub fn epsilon(&self) -> usize {
        self.epsilon
    }

    /// Redundant sectors per stripe: `m·r` device parity + `(n−m)·ε` local.
    pub fn redundant_sectors(&self) -> usize {
        self.m * self.r + (self.n - self.m) * self.epsilon
    }

    /// Encodes a stripe of `n` chunks × `r` sectors (row-major cells,
    /// sector `i` of chunk `c` at `i·n + c`): fills each data chunk's
    /// local parity sectors, then the `m` parity chunks.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::ShapeMismatch`] on wrong shapes.
    pub fn encode(&self, cells: &mut [Vec<u8>]) -> Result<(), CodeError> {
        self.check_cells(cells)?;
        let (n, r, m, eps) = (self.n, self.r, self.m, self.epsilon);
        // Local parity inside each data chunk.
        for c in 0..n - m {
            let data: Vec<Vec<u8>> = (0..r - eps).map(|i| cells[i * n + c].clone()).collect();
            let data_refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
            let mut parity: Vec<Vec<u8>> = (0..eps).map(|_| vec![0u8; cells[c].len()]).collect();
            {
                let mut prefs: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
                self.col_code.encode_regions(&data_refs, &mut prefs)?;
            }
            for (k, p) in parity.into_iter().enumerate() {
                cells[(r - eps + k) * n + c] = p;
            }
        }
        // Device-level parity chunks, row by row.
        for i in 0..r {
            let data: Vec<Vec<u8>> = (0..n - m).map(|c| cells[i * n + c].clone()).collect();
            let data_refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
            let mut parity: Vec<Vec<u8>> = (0..m).map(|_| vec![0u8; cells[0].len()]).collect();
            {
                let mut prefs: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
                self.row_code.encode_regions(&data_refs, &mut prefs)?;
            }
            for (k, p) in parity.into_iter().enumerate() {
                cells[i * n + (n - m + k)] = p;
            }
        }
        Ok(())
    }

    /// Repairs a stripe: first local (intra-chunk) repair of chunks with at
    /// most `ε` lost sectors, then device-level repair of chunks lost
    /// entirely or beyond local repair.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::Unrecoverable`] if more than `m` chunks need
    /// device-level repair.
    pub fn decode(
        &self,
        cells: &mut [Vec<u8>],
        erased: &[(usize, usize)],
    ) -> Result<(), CodeError> {
        self.check_cells(cells)?;
        let (n, r, m, eps) = (self.n, self.r, self.m, self.epsilon);
        let mut per_chunk: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(i, c) in erased {
            if i >= r || c >= n {
                return Err(CodeError::InvalidPattern(format!("({i},{c}) out of range")));
            }
            per_chunk[c].push(i);
        }
        let mut device_repair: Vec<usize> = Vec::new();
        for c in 0..n {
            let lost = &per_chunk[c];
            if lost.is_empty() {
                continue;
            }
            // Parity chunks have no local code in this scheme.
            if c >= n - m || lost.len() > eps {
                device_repair.push(c);
                continue;
            }
            // Local repair via the (r, r−ε) column code.
            let survivors: Vec<usize> = (0..r).filter(|i| !lost.contains(i)).collect();
            let use_rows = &survivors[..r - eps];
            let coeff = self.col_code.recovery_coefficients(use_rows, lost)?;
            let avail: Vec<Vec<u8>> = use_rows.iter().map(|&i| cells[i * n + c].clone()).collect();
            let avail_refs: Vec<&[u8]> = avail.iter().map(Vec::as_slice).collect();
            let mut outs: Vec<Vec<u8>> = lost.iter().map(|_| vec![0u8; cells[0].len()]).collect();
            {
                let mut orefs: Vec<&mut [u8]> = outs.iter_mut().map(Vec::as_mut_slice).collect();
                self.col_code
                    .apply_coefficients(&coeff, &avail_refs, &mut orefs)?;
            }
            for (&i, buf) in lost.iter().zip(outs) {
                cells[i * n + c] = buf;
            }
        }
        if device_repair.len() > m {
            return Err(CodeError::Unrecoverable(format!(
                "{} chunks need device-level repair, only {} tolerated",
                device_repair.len(),
                m
            )));
        }
        if device_repair.is_empty() {
            return Ok(());
        }
        // Row-wise repair of the remaining chunks.
        let survivors: Vec<usize> = (0..n)
            .filter(|c| !device_repair.contains(c))
            .take(n - m)
            .collect();
        let coeff = self
            .row_code
            .recovery_coefficients(&survivors, &device_repair)?;
        for i in 0..r {
            let avail: Vec<Vec<u8>> = survivors
                .iter()
                .map(|&c| cells[i * n + c].clone())
                .collect();
            let avail_refs: Vec<&[u8]> = avail.iter().map(Vec::as_slice).collect();
            let mut outs: Vec<Vec<u8>> = device_repair
                .iter()
                .map(|_| vec![0u8; cells[0].len()])
                .collect();
            {
                let mut orefs: Vec<&mut [u8]> = outs.iter_mut().map(Vec::as_mut_slice).collect();
                self.row_code
                    .apply_coefficients(&coeff, &avail_refs, &mut orefs)?;
            }
            for (&c, buf) in device_repair.iter().zip(outs) {
                cells[i * n + c] = buf;
            }
        }
        Ok(())
    }

    fn check_cells(&self, cells: &[Vec<u8>]) -> Result<(), CodeError> {
        if cells.len() != self.n * self.r {
            return Err(CodeError::ShapeMismatch(format!(
                "expected {} cells, got {}",
                self.n * self.r,
                cells.len()
            )));
        }
        let len = cells[0].len();
        if cells.iter().any(|c| c.len() != len) {
            return Err(CodeError::ShapeMismatch(
                "cells must have equal length".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stair_gf::Gf8;

    fn filled(n: usize, r: usize, scheme: &IdrScheme<Gf8>) -> Vec<Vec<u8>> {
        let mut cells = vec![vec![0u8; 8]; n * r];
        for i in 0..r - scheme.epsilon() {
            for c in 0..n - scheme.m() {
                let v = (i * 17 + c * 5 + 1) as u8;
                cells[i * n + c].fill(v);
            }
        }
        cells
    }

    #[test]
    fn local_burst_repaired_without_device_parity() {
        let scheme: IdrScheme<Gf8> = IdrScheme::new(6, 8, 1, 2).unwrap();
        let mut cells = filled(6, 8, &scheme);
        scheme.encode(&mut cells).unwrap();
        let pristine = cells.clone();
        // Two-sector burst in chunk 2: within ε = 2, repaired locally.
        let erased = vec![(3, 2), (4, 2)];
        for &(i, c) in &erased {
            cells[i * 6 + c].fill(0);
        }
        scheme.decode(&mut cells, &erased).unwrap();
        assert_eq!(cells, pristine);
    }

    #[test]
    fn device_failure_plus_local_burst() {
        let scheme: IdrScheme<Gf8> = IdrScheme::new(6, 8, 1, 2).unwrap();
        let mut cells = filled(6, 8, &scheme);
        scheme.encode(&mut cells).unwrap();
        let pristine = cells.clone();
        let mut erased: Vec<(usize, usize)> = (0..8).map(|i| (i, 1)).collect();
        erased.extend([(0, 4), (1, 4)]);
        for &(i, c) in &erased {
            cells[i * 6 + c].fill(0);
        }
        scheme.decode(&mut cells, &erased).unwrap();
        assert_eq!(cells, pristine);
    }

    #[test]
    fn too_many_damaged_chunks_fail() {
        let scheme: IdrScheme<Gf8> = IdrScheme::new(4, 4, 1, 1).unwrap();
        let mut cells = filled(4, 4, &scheme);
        scheme.encode(&mut cells).unwrap();
        // Two chunks each lose 2 > ε sectors: both need device repair > m.
        let erased = vec![(0, 0), (1, 0), (0, 1), (1, 1)];
        assert!(matches!(
            scheme.decode(&mut cells, &erased),
            Err(CodeError::Unrecoverable(_))
        ));
    }

    #[test]
    fn redundancy_accounting_matches_section_2() {
        // §2: n=8, m=2, β=4 → IDR spends 4·6 = 24 extra sectors.
        let scheme: IdrScheme<Gf8> = IdrScheme::new(8, 16, 2, 4).unwrap();
        assert_eq!(scheme.redundant_sectors() - 2 * 16, 24);
    }

    #[test]
    fn validation() {
        assert!(IdrScheme::<Gf8>::new(4, 4, 0, 1).is_err());
        assert!(IdrScheme::<Gf8>::new(4, 4, 1, 0).is_err());
        assert!(IdrScheme::<Gf8>::new(4, 4, 1, 4).is_err());
    }
}
