//! The systematic `(η, κ)` MDS code.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, PoisonError};

use stair_gf::Field;
use stair_gfmatrix::{cauchy_parity, Matrix};

use crate::Error;

/// Most coefficient matrices one code remembers (see
/// [`MdsCode::recovery_coefficients`]). A matrix is at most `κ × (η − κ)`
/// elements and its key `η` indices, so a full memo of the paper's codes
/// is ≈ 150 KiB.
const MEMO_CAPACITY: usize = 512;

/// A systematic `(η, κ)` MDS code over the field `F` (Cauchy Reed–Solomon).
///
/// Symbols `0..κ` of a codeword are the data symbols (stored verbatim);
/// symbols `κ..η` are parity. Any `κ` symbols of a codeword determine the
/// remaining `η − κ`.
///
/// The paper's `C_row` is `MdsCode::new(n + m', n − m)` and `C_col` is
/// `MdsCode::new(r + e_max, r)` (§3).
///
/// # Example
///
/// ```
/// use stair_gf::Gf8;
/// use stair_rs::MdsCode;
///
/// let code: MdsCode<Gf8> = MdsCode::new(5, 3)?;
/// assert_eq!((code.total_len(), code.data_len(), code.parity_len()), (5, 3, 2));
/// # Ok::<(), stair_rs::Error>(())
/// ```
pub struct MdsCode<F: Field> {
    total: usize,
    data: usize,
    /// The κ×η systematic generator `[I | A]`.
    generator: Matrix<F>,
    /// Solved coefficient matrices, keyed by the `available` indices
    /// followed by the `wanted` ones (`available` is always κ long, so
    /// the split is unambiguous). A pure function of the generator:
    /// nothing ever invalidates an entry, and once [`MEMO_CAPACITY`]
    /// entries are held new ones are simply not kept.
    memo: Mutex<HashMap<Vec<usize>, Matrix<F>>>,
}

impl<F: Field> Clone for MdsCode<F> {
    /// The clone is the same code with a cold memo.
    fn clone(&self) -> Self {
        MdsCode {
            total: self.total,
            data: self.data,
            generator: self.generator.clone(),
            memo: Mutex::default(),
        }
    }
}

impl<F: Field> fmt::Debug for MdsCode<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MdsCode")
            .field("total", &self.total)
            .field("data", &self.data)
            .finish_non_exhaustive()
    }
}

impl<F: Field> MdsCode<F> {
    /// Constructs the systematic `(total, data)`-code.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParams`] if `data == 0`, `data >= total`, or
    /// `total` exceeds the field order (not enough Cauchy points).
    pub fn new(total: usize, data: usize) -> Result<Self, Error> {
        if data == 0 {
            return Err(Error::InvalidParams {
                total,
                data,
                reason: "κ must be positive",
            });
        }
        if data >= total {
            return Err(Error::InvalidParams {
                total,
                data,
                reason: "κ must be less than η",
            });
        }
        if total > F::ORDER {
            return Err(Error::InvalidParams {
                total,
                data,
                reason: "η exceeds the field order; use a wider field",
            });
        }
        let parity = cauchy_parity::<F>(data, total - data)?;
        let generator = Matrix::identity(data).hstack(&parity)?;
        Ok(MdsCode {
            total,
            data,
            generator,
            memo: Mutex::default(),
        })
    }

    /// Codeword length η.
    pub fn total_len(&self) -> usize {
        self.total
    }

    /// Number of data symbols κ.
    pub fn data_len(&self) -> usize {
        self.data
    }

    /// Number of parity symbols η − κ.
    pub fn parity_len(&self) -> usize {
        self.total - self.data
    }

    /// The κ×η systematic generator matrix `[I | A]`.
    pub fn generator(&self) -> &Matrix<F> {
        &self.generator
    }

    /// Encodes κ data elements, returning the η − κ parity elements.
    ///
    /// # Errors
    ///
    /// Returns [`Error::WrongSymbolCount`] if `data.len() != κ`.
    pub fn encode_elems(&self, data: &[F::Elem]) -> Result<Vec<F::Elem>, Error> {
        if data.len() != self.data {
            return Err(Error::WrongSymbolCount {
                got: data.len(),
                expected: self.data,
            });
        }
        let mut parity = vec![F::zero(); self.parity_len()];
        for (j, p) in parity.iter_mut().enumerate() {
            let col = self.data + j;
            let mut acc = F::zero();
            for (i, &d) in data.iter().enumerate() {
                acc = F::add(acc, F::mul(self.generator.get(i, col), d));
            }
            *p = acc;
        }
        Ok(parity)
    }

    /// Recovers the *full* codeword from any κ (or more) present symbols.
    ///
    /// `codeword[i]` is `Some` if symbol `i` is available, `None` if erased.
    ///
    /// # Errors
    ///
    /// * [`Error::WrongSymbolCount`] if `codeword.len() != η`;
    /// * [`Error::NotEnoughSymbols`] if fewer than κ symbols are present.
    pub fn decode_elems(&self, codeword: &[Option<F::Elem>]) -> Result<Vec<F::Elem>, Error> {
        if codeword.len() != self.total {
            return Err(Error::WrongSymbolCount {
                got: codeword.len(),
                expected: self.total,
            });
        }
        let present: Vec<usize> = codeword
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|_| i))
            .collect();
        if present.len() < self.data {
            return Err(Error::NotEnoughSymbols {
                available: present.len(),
                needed: self.data,
            });
        }
        let use_idx = &present[..self.data];
        let wanted: Vec<usize> = (0..self.total).collect();
        let coeff = self.recovery_coefficients(use_idx, &wanted)?;
        let avail: Vec<F::Elem> = use_idx.iter().map(|&i| codeword[i].unwrap()).collect();
        let mut out = vec![F::zero(); self.total];
        for (w, o) in out.iter_mut().enumerate() {
            let mut acc = F::zero();
            for (a, &v) in avail.iter().enumerate() {
                acc = F::add(acc, F::mul(coeff.get(a, w), v));
            }
            *o = acc;
        }
        Ok(out)
    }

    /// Computes the κ×|wanted| coefficient matrix `M` such that for a valid
    /// codeword `c`: `c[wanted[j]] = Σ_i M[i][j] · c[available[i]]`.
    ///
    /// This is the workhorse used by the STAIR upstairs/downstairs schedules:
    /// it expresses *any* codeword symbols as linear combinations of *any* κ
    /// available ones (`d = c_A · G_A⁻¹`, then `c_W = d · G_W`).
    ///
    /// Decode planning asks for the same few index sets again and again
    /// (every stripe of a store with two failed devices wants the same
    /// row recovery), so solved matrices are remembered, up to a fixed
    /// number of them.
    ///
    /// # Errors
    ///
    /// * [`Error::WrongSymbolCount`] if `available.len() != κ`;
    /// * [`Error::IndexOutOfRange`] / [`Error::DuplicateIndex`] for bad
    ///   index sets.
    pub fn recovery_coefficients(
        &self,
        available: &[usize],
        wanted: &[usize],
    ) -> Result<Matrix<F>, Error> {
        let key: Vec<usize> = available.iter().chain(wanted).copied().collect();
        // Entries are inserted whole and never changed, so a memo some
        // panicking thread held is still valid.
        let lock = || self.memo.lock().unwrap_or_else(PoisonError::into_inner);
        if available.len() == self.data {
            if let Some(hit) = lock().get(&key) {
                // Debug builds re-solve every hit, so every test that
                // plans a decode also checks the memo against the solver.
                debug_assert_eq!(Ok(hit), self.solve_coefficients(available, wanted).as_ref());
                return Ok(hit.clone());
            }
        }
        let coeff = self.solve_coefficients(available, wanted)?;
        let mut memo = lock();
        if memo.len() < MEMO_CAPACITY {
            memo.insert(key, coeff.clone());
        }
        Ok(coeff)
    }

    /// [`Self::recovery_coefficients`] without the memo: validation and
    /// the solve itself.
    fn solve_coefficients(
        &self,
        available: &[usize],
        wanted: &[usize],
    ) -> Result<Matrix<F>, Error> {
        if available.len() != self.data {
            return Err(Error::WrongSymbolCount {
                got: available.len(),
                expected: self.data,
            });
        }
        self.check_indices(available)?;
        for &w in wanted {
            if w >= self.total {
                return Err(Error::IndexOutOfRange {
                    index: w,
                    total: self.total,
                });
            }
        }
        if wanted.is_empty() {
            return Err(Error::RegionMismatch("wanted set must be non-empty".into()));
        }
        // G_A: columns of the generator at the available positions (κ×κ).
        let ga = self.generator.select_cols(available);
        // MDS ⇒ invertible.
        let ga_inv = ga.inverted()?;
        let gw = self.generator.select_cols(wanted);
        Ok(ga_inv.mul(&gw)?)
    }

    /// Encodes sector-sized regions: `data` holds κ equal-length regions,
    /// `parity` receives the η − κ parity regions (overwritten).
    ///
    /// Costs exactly `κ · (η − κ)` `Mult_XOR` operations, matching how the
    /// paper counts encoding work (§5.3).
    ///
    /// # Errors
    ///
    /// Returns [`Error::WrongSymbolCount`] or [`Error::RegionMismatch`] on
    /// shape violations.
    pub fn encode_regions(&self, data: &[&[u8]], parity: &mut [&mut [u8]]) -> Result<(), Error> {
        if data.len() != self.data {
            return Err(Error::WrongSymbolCount {
                got: data.len(),
                expected: self.data,
            });
        }
        if parity.len() != self.parity_len() {
            return Err(Error::WrongSymbolCount {
                got: parity.len(),
                expected: self.parity_len(),
            });
        }
        let len = data[0].len();
        if data.iter().any(|d| d.len() != len) || parity.iter().any(|p| p.len() != len) {
            return Err(Error::RegionMismatch(
                "all regions must have equal length".into(),
            ));
        }
        for (j, p) in parity.iter_mut().enumerate() {
            let col = self.data + j;
            let terms = data.iter().enumerate();
            F::dot_regions(p, terms.map(|(i, &d)| (d, self.generator.get(i, col))));
        }
        Ok(())
    }

    /// Applies a coefficient matrix from [`Self::recovery_coefficients`] to
    /// regions: `out[j] = Σ_i coeff[i][j] · available[i]`.
    ///
    /// Costs `κ` `Mult_XOR`s per output region.
    ///
    /// # Errors
    ///
    /// Returns [`Error::WrongSymbolCount`] or [`Error::RegionMismatch`] on
    /// shape violations.
    pub fn apply_coefficients(
        &self,
        coeff: &Matrix<F>,
        available: &[&[u8]],
        out: &mut [&mut [u8]],
    ) -> Result<(), Error> {
        if available.len() != coeff.rows() {
            return Err(Error::WrongSymbolCount {
                got: available.len(),
                expected: coeff.rows(),
            });
        }
        if out.len() != coeff.cols() {
            return Err(Error::WrongSymbolCount {
                got: out.len(),
                expected: coeff.cols(),
            });
        }
        let len = available.first().map(|a| a.len()).unwrap_or(0);
        if available.iter().any(|a| a.len() != len) || out.iter().any(|o| o.len() != len) {
            return Err(Error::RegionMismatch(
                "all regions must have equal length".into(),
            ));
        }
        for (j, o) in out.iter_mut().enumerate() {
            let terms = available.iter().enumerate();
            F::dot_regions(o, terms.map(|(i, &a)| (a, coeff.get(i, j))));
        }
        Ok(())
    }

    /// Reconstructs the regions at `wanted` positions from κ `available`
    /// `(index, region)` pairs. Convenience wrapper combining
    /// [`Self::recovery_coefficients`] and [`Self::apply_coefficients`].
    ///
    /// # Errors
    ///
    /// Propagates the errors of the two wrapped steps.
    pub fn decode_regions(
        &self,
        available: &[(usize, &[u8])],
        wanted: &[usize],
        out: &mut [&mut [u8]],
    ) -> Result<(), Error> {
        let idx: Vec<usize> = available.iter().map(|&(i, _)| i).collect();
        let regions: Vec<&[u8]> = available.iter().map(|&(_, r)| r).collect();
        let coeff = self.recovery_coefficients(&idx, wanted)?;
        self.apply_coefficients(&coeff, &regions, out)
    }

    fn check_indices(&self, idx: &[usize]) -> Result<(), Error> {
        let mut seen = vec![false; self.total];
        for &i in idx {
            if i >= self.total {
                return Err(Error::IndexOutOfRange {
                    index: i,
                    total: self.total,
                });
            }
            if seen[i] {
                return Err(Error::DuplicateIndex(i));
            }
            seen[i] = true;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stair_gf::Gf8;

    fn sample_data(k: usize) -> Vec<u8> {
        (0..k).map(|i| ((i * 37 + 11) % 256) as u8).collect()
    }

    #[test]
    fn systematic_property() {
        let code: MdsCode<Gf8> = MdsCode::new(8, 5).unwrap();
        let data = sample_data(5);
        let parity = code.encode_elems(&data).unwrap();
        let full: Vec<Option<u8>> = data.iter().chain(&parity).map(|&x| Some(x)).collect();
        let decoded = code.decode_elems(&full).unwrap();
        assert_eq!(&decoded[..5], &data[..]);
        assert_eq!(&decoded[5..], &parity[..]);
    }

    /// Exhaustive MDS check on a small code: every κ-subset of symbol
    /// positions recovers the full codeword.
    #[test]
    fn any_k_of_n_recovers_exhaustive() {
        let code: MdsCode<Gf8> = MdsCode::new(7, 4).unwrap();
        let data = sample_data(4);
        let parity = code.encode_elems(&data).unwrap();
        let full: Vec<u8> = data.iter().chain(&parity).copied().collect();

        // Iterate all C(7,4) = 35 subsets via bitmasks.
        for mask in 0u32..(1 << 7) {
            if mask.count_ones() != 4 {
                continue;
            }
            let cw: Vec<Option<u8>> = (0..7)
                .map(|i| {
                    if mask & (1 << i) != 0 {
                        Some(full[i])
                    } else {
                        None
                    }
                })
                .collect();
            let decoded = code.decode_elems(&cw).unwrap();
            assert_eq!(decoded, full, "mask {mask:b}");
        }
    }

    #[test]
    fn too_few_symbols_rejected() {
        let code: MdsCode<Gf8> = MdsCode::new(6, 4).unwrap();
        let cw: Vec<Option<u8>> = vec![Some(1), Some(2), Some(3), None, None, None];
        assert_eq!(
            code.decode_elems(&cw),
            Err(Error::NotEnoughSymbols {
                available: 3,
                needed: 4
            })
        );
    }

    #[test]
    fn construction_validation() {
        assert!(matches!(
            MdsCode::<Gf8>::new(4, 0),
            Err(Error::InvalidParams { .. })
        ));
        assert!(matches!(
            MdsCode::<Gf8>::new(4, 4),
            Err(Error::InvalidParams { .. })
        ));
        assert!(matches!(
            MdsCode::<Gf8>::new(257, 4),
            Err(Error::InvalidParams { .. })
        ));
        assert!(MdsCode::<Gf8>::new(256, 4).is_ok());
    }

    #[test]
    fn region_encode_matches_element_encode() {
        let code: MdsCode<Gf8> = MdsCode::new(6, 4).unwrap();
        // Each region holds several independent codewords, element-wise.
        let regions: Vec<Vec<u8>> = (0..4)
            .map(|i| {
                (0..32)
                    .map(|j| ((i * 61 + j * 13 + 7) % 256) as u8)
                    .collect()
            })
            .collect();
        let data_refs: Vec<&[u8]> = regions.iter().map(Vec::as_slice).collect();
        let mut p0 = vec![0u8; 32];
        let mut p1 = vec![0u8; 32];
        {
            let mut parity: Vec<&mut [u8]> = vec![&mut p0, &mut p1];
            code.encode_regions(&data_refs, &mut parity).unwrap();
        }
        for byte in 0..32 {
            let col: Vec<u8> = regions.iter().map(|r| r[byte]).collect();
            let parity = code.encode_elems(&col).unwrap();
            assert_eq!(p0[byte], parity[0]);
            assert_eq!(p1[byte], parity[1]);
        }
    }

    #[test]
    fn region_decode_round_trip() {
        let code: MdsCode<Gf8> = MdsCode::new(6, 4).unwrap();
        let regions: Vec<Vec<u8>> = (0..4)
            .map(|i| {
                (0..16)
                    .map(|j| ((i * 31 + j * 17 + 3) % 256) as u8)
                    .collect()
            })
            .collect();
        let data_refs: Vec<&[u8]> = regions.iter().map(Vec::as_slice).collect();
        let mut p0 = vec![0u8; 16];
        let mut p1 = vec![0u8; 16];
        {
            let mut parity: Vec<&mut [u8]> = vec![&mut p0, &mut p1];
            code.encode_regions(&data_refs, &mut parity).unwrap();
        }
        // Erase data symbols 0 and 2; recover from 1, 3 and both parities.
        let available: Vec<(usize, &[u8])> =
            vec![(1, &regions[1]), (3, &regions[3]), (4, &p0), (5, &p1)];
        let mut r0 = vec![0u8; 16];
        let mut r2 = vec![0u8; 16];
        {
            let mut out: Vec<&mut [u8]> = vec![&mut r0, &mut r2];
            code.decode_regions(&available, &[0, 2], &mut out).unwrap();
        }
        assert_eq!(r0, regions[0]);
        assert_eq!(r2, regions[2]);
    }

    #[test]
    fn recovery_coefficient_errors() {
        let code: MdsCode<Gf8> = MdsCode::new(6, 4).unwrap();
        assert_eq!(
            code.recovery_coefficients(&[0, 1, 2], &[5]),
            Err(Error::WrongSymbolCount {
                got: 3,
                expected: 4
            })
        );
        assert_eq!(
            code.recovery_coefficients(&[0, 1, 2, 9], &[5]),
            Err(Error::IndexOutOfRange { index: 9, total: 6 })
        );
        assert_eq!(
            code.recovery_coefficients(&[0, 1, 2, 2], &[5]),
            Err(Error::DuplicateIndex(2))
        );
    }

    #[test]
    fn memo_matches_the_solver_and_stops_at_capacity() {
        let code: MdsCode<Gf8> = MdsCode::new(20, 10).unwrap();
        let held = || code.memo.lock().unwrap().len();
        // Twice as many distinct (available, wanted) pairs as fit.
        let mut order: Vec<usize> = (0..20).collect();
        let mut state = 0x9E37_79B9u64;
        for round in 0..2 * MEMO_CAPACITY {
            for i in (1..order.len()).rev() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                order.swap(i, (state >> 33) as usize % (i + 1));
            }
            let (available, rest) = order.split_at(10);
            let wanted = &rest[..1 + round % 3];
            let solved = code.solve_coefficients(available, wanted).unwrap();
            // The first call may insert, the second may hit; past
            // capacity both solve. All three agree.
            assert_eq!(
                code.recovery_coefficients(available, wanted),
                Ok(solved.clone())
            );
            assert_eq!(code.recovery_coefficients(available, wanted), Ok(solved));
            assert!(held() <= MEMO_CAPACITY);
        }
        assert_eq!(held(), MEMO_CAPACITY);
        // Failures are not remembered, and a clone starts cold.
        assert!(code
            .recovery_coefficients(&order[..9], &order[10..11])
            .is_err());
        assert_eq!(held(), MEMO_CAPACITY);
        assert_eq!(code.clone().memo.lock().unwrap().len(), 0);
    }

    #[test]
    fn mult_xor_cost_matches_model() {
        let code: MdsCode<Gf8> = MdsCode::new(9, 6).unwrap();
        let regions: Vec<Vec<u8>> = (0..6).map(|_| vec![0u8; 64]).collect();
        let data_refs: Vec<&[u8]> = regions.iter().map(Vec::as_slice).collect();
        let mut ps: Vec<Vec<u8>> = (0..3).map(|_| vec![0u8; 64]).collect();
        let before = stair_gf::counters::mult_xors();
        {
            let mut parity: Vec<&mut [u8]> = ps.iter_mut().map(Vec::as_mut_slice).collect();
            code.encode_regions(&data_refs, &mut parity).unwrap();
        }
        // κ·(η−κ) = 6·3 = 18 Mult_XORs per stripe-row encode.
        assert_eq!(stair_gf::counters::mult_xors() - before, 18);
    }
}
