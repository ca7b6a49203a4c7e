//! The systematic `(η, κ)` MDS code.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Mutex, PoisonError};

use stair_code::CodeError;
use stair_gf::Field;
use stair_gfmatrix::{cauchy_parity, Matrix};

/// Most coefficient matrices one code remembers (see
/// [`MdsCode::recovery_coefficients`]). A matrix is at most `κ × (η − κ)`
/// elements and its key `η` indices, so a full memo of the paper's codes
/// is ≈ 150 KiB.
const MEMO_CAPACITY: usize = 512;

/// Solved coefficient matrices by `available` index set, then by
/// `wanted` index set: a lookup borrows both slices, so a hit allocates
/// nothing and clones an [`Arc`]. A pure function of the generator:
/// nothing ever invalidates an entry, and once [`MEMO_CAPACITY`] entries
/// are held new ones are simply not kept.
struct Memo<F: Field> {
    solved: IndexMap<IndexMap<Arc<Matrix<F>>>>,
    entries: usize,
}

/// A map keyed by an index set.
type IndexMap<V> = HashMap<Box<[usize]>, V, BuildHasherDefault<IndexHasher>>;

/// Hashes the memo's keys — index sets a planner computes, never bytes
/// from outside the program, and at most [`MEMO_CAPACITY`] of them — at
/// one multiply per index rather than SipHash's rounds: the lookup is
/// most of what a remembered matrix costs.
#[derive(Default)]
struct IndexHasher(u64);

impl IndexHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517C_C1B7_2722_0A95);
    }
}

impl Hasher for IndexHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let mut le = [0; 8];
            le.copy_from_slice(word);
            self.mix(u64::from_le_bytes(le));
        }
        for &byte in words.remainder() {
            self.mix(u64::from(byte));
        }
    }

    fn write_usize(&mut self, index: usize) {
        self.mix(index as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl<F: Field> Default for Memo<F> {
    fn default() -> Self {
        Memo {
            solved: IndexMap::default(),
            entries: 0,
        }
    }
}

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
/// # Ok::<(), stair_code::CodeError>(())
/// ```
pub struct MdsCode<F: Field> {
    total: usize,
    data: usize,
    /// The κ×η systematic generator `[I | A]`.
    generator: Matrix<F>,
    memo: Mutex<Memo<F>>,
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
    /// Returns [`CodeError::InvalidConfig`] if `data == 0`, `data >= total`,
    /// or `total` exceeds the field order (not enough Cauchy points).
    pub fn new(total: usize, data: usize) -> Result<Self, CodeError> {
        let invalid = |reason: &str| {
            CodeError::InvalidConfig(format!("invalid ({total},{data})-code: {reason}"))
        };
        if data == 0 {
            return Err(invalid("κ must be positive"));
        }
        if data >= total {
            return Err(invalid("κ must be less than η"));
        }
        if total > F::ORDER {
            return Err(invalid("η exceeds the field order; use a wider field"));
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

    /// Encodes κ data elements, returning the η − κ parity elements.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::ShapeMismatch`] if `data.len() != κ`.
    pub fn encode_elems(&self, data: &[F::Elem]) -> Result<Vec<F::Elem>, CodeError> {
        symbol_count(data.len(), self.data)?;
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
    /// * [`CodeError::ShapeMismatch`] if `codeword.len() != η`;
    /// * [`CodeError::Unrecoverable`] if fewer than κ symbols are present.
    pub fn decode_elems(&self, codeword: &[Option<F::Elem>]) -> Result<Vec<F::Elem>, CodeError> {
        symbol_count(codeword.len(), self.total)?;
        let present: Vec<usize> = codeword
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|_| i))
            .collect();
        if present.len() < self.data {
            return Err(CodeError::Unrecoverable(format!(
                "not enough symbols: {} available, {} needed",
                present.len(),
                self.data
            )));
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
    /// number of them, and shared: a remembered matrix is returned
    /// without copying it.
    ///
    /// # Errors
    ///
    /// * [`CodeError::ShapeMismatch`] if `available.len() != κ` or
    ///   `wanted` is empty;
    /// * [`CodeError::InvalidPattern`] for an index out of range, or one
    ///   `available` names twice.
    pub fn recovery_coefficients(
        &self,
        available: &[usize],
        wanted: &[usize],
    ) -> Result<Arc<Matrix<F>>, CodeError> {
        // Entries are inserted whole and never changed, so a memo some
        // panicking thread held is still valid.
        let lock = || self.memo.lock().unwrap_or_else(PoisonError::into_inner);
        let hit = lock()
            .solved
            .get(available)
            .and_then(|by| by.get(wanted))
            .cloned();
        if let Some(hit) = hit {
            // Debug builds re-solve every hit, so every test that plans
            // a decode also checks the memo against the solver.
            debug_assert_eq!(
                Ok(&*hit),
                self.solve_coefficients(available, wanted).as_ref()
            );
            return Ok(hit);
        }
        let coeff = Arc::new(self.solve_coefficients(available, wanted)?);
        let mut memo = lock();
        if memo.entries < MEMO_CAPACITY {
            let by_wanted = memo.solved.entry(available.into()).or_default();
            if by_wanted
                .insert(wanted.into(), Arc::clone(&coeff))
                .is_none()
            {
                memo.entries += 1;
            }
        }
        Ok(coeff)
    }

    /// [`Self::recovery_coefficients`] without the memo: validation and
    /// the solve itself.
    fn solve_coefficients(
        &self,
        available: &[usize],
        wanted: &[usize],
    ) -> Result<Matrix<F>, CodeError> {
        symbol_count(available.len(), self.data)?;
        self.check_indices(available)?;
        if let Some(w) = wanted.iter().find(|&&w| w >= self.total) {
            return Err(self.out_of_range(*w));
        }
        if wanted.is_empty() {
            return Err(CodeError::ShapeMismatch(
                "region mismatch: wanted set must be non-empty".into(),
            ));
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
    /// Returns [`CodeError::ShapeMismatch`] on shape violations.
    pub fn encode_regions(
        &self,
        data: &[&[u8]],
        parity: &mut [&mut [u8]],
    ) -> Result<(), CodeError> {
        symbol_count(data.len(), self.data)?;
        symbol_count(parity.len(), self.parity_len())?;
        equal_lengths(data, parity)?;
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
    /// Returns [`CodeError::ShapeMismatch`] on shape violations.
    pub fn apply_coefficients(
        &self,
        coeff: &Matrix<F>,
        available: &[&[u8]],
        out: &mut [&mut [u8]],
    ) -> Result<(), CodeError> {
        symbol_count(available.len(), coeff.rows())?;
        symbol_count(out.len(), coeff.cols())?;
        equal_lengths(available, out)?;
        for (j, o) in out.iter_mut().enumerate() {
            let terms = available.iter().enumerate();
            F::dot_regions(o, terms.map(|(i, &a)| (a, coeff.get(i, j))));
        }
        Ok(())
    }

    fn check_indices(&self, idx: &[usize]) -> Result<(), CodeError> {
        let mut seen = vec![false; self.total];
        for &i in idx {
            if i >= self.total {
                return Err(self.out_of_range(i));
            }
            if seen[i] {
                return Err(CodeError::InvalidPattern(format!(
                    "symbol index {i} supplied twice"
                )));
            }
            seen[i] = true;
        }
        Ok(())
    }

    fn out_of_range(&self, index: usize) -> CodeError {
        CodeError::InvalidPattern(format!(
            "symbol index {index} out of range for codeword length {}",
            self.total
        ))
    }
}

/// `got` symbols where the code needs `expected`.
fn symbol_count(got: usize, expected: usize) -> Result<(), CodeError> {
    if got != expected {
        return Err(CodeError::ShapeMismatch(format!(
            "wrong symbol count: got {got}, expected {expected}"
        )));
    }
    Ok(())
}

/// Every input and output region the same length.
fn equal_lengths(inputs: &[&[u8]], outputs: &[&mut [u8]]) -> Result<(), CodeError> {
    let len = inputs.first().map_or(0, |r| r.len());
    if inputs.iter().any(|r| r.len() != len) || outputs.iter().any(|r| r.len() != len) {
        return Err(CodeError::ShapeMismatch(
            "region mismatch: all regions must have equal length".into(),
        ));
    }
    Ok(())
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
            Err(CodeError::Unrecoverable(
                "not enough symbols: 3 available, 4 needed".into()
            ))
        );
    }

    #[test]
    fn construction_validation() {
        for (total, data) in [(4, 0), (4, 4), (257, 4)] {
            assert!(matches!(
                MdsCode::<Gf8>::new(total, data),
                Err(CodeError::InvalidConfig(_))
            ));
        }
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
        let coeff = code.recovery_coefficients(&[1, 3, 4, 5], &[0, 2]).unwrap();
        let available: [&[u8]; 4] = [&regions[1], &regions[3], &p0, &p1];
        let mut r0 = vec![0u8; 16];
        let mut r2 = vec![0u8; 16];
        {
            let mut out: Vec<&mut [u8]> = vec![&mut r0, &mut r2];
            code.apply_coefficients(&coeff, &available, &mut out)
                .unwrap();
        }
        assert_eq!(r0, regions[0]);
        assert_eq!(r2, regions[2]);
    }

    #[test]
    fn recovery_coefficient_errors() {
        let code: MdsCode<Gf8> = MdsCode::new(6, 4).unwrap();
        let err = |available: &[usize]| code.recovery_coefficients(available, &[5]).unwrap_err();
        assert_eq!(
            err(&[0, 1, 2]),
            CodeError::ShapeMismatch("wrong symbol count: got 3, expected 4".into())
        );
        assert_eq!(
            err(&[0, 1, 2, 9]),
            CodeError::InvalidPattern("symbol index 9 out of range for codeword length 6".into())
        );
        assert_eq!(
            err(&[0, 1, 2, 2]),
            CodeError::InvalidPattern("symbol index 2 supplied twice".into())
        );
    }

    #[test]
    fn memo_matches_the_solver_and_stops_at_capacity() {
        let code: MdsCode<Gf8> = MdsCode::new(20, 10).unwrap();
        let held = || code.memo.lock().unwrap().entries;
        // A hit is the remembered matrix itself, not a copy.
        let (available, wanted): (Vec<usize>, _) = ((0..10).collect(), [12, 15]);
        let first = code.recovery_coefficients(&available, &wanted).unwrap();
        let again = code.recovery_coefficients(&available, &wanted).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
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
            let solved = Ok(Arc::new(solved));
            assert_eq!(code.recovery_coefficients(available, wanted), solved);
            assert_eq!(code.recovery_coefficients(available, wanted), solved);
            assert!(held() <= MEMO_CAPACITY);
        }
        assert_eq!(held(), MEMO_CAPACITY);
        // Failures are not remembered, and a clone starts cold.
        assert!(code
            .recovery_coefficients(&order[..9], &order[10..11])
            .is_err());
        assert_eq!(held(), MEMO_CAPACITY);
        assert_eq!(code.clone().memo.lock().unwrap().entries, 0);
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
