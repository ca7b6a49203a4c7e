//! The systematic `(η, κ)` MDS code: Cauchy Reed–Solomon.
//!
//! The paper's STAIR construction composes two systematic MDS codes (§2):
//! `C_row`, an `(n+m', n−m)`-code applied across stripe rows, and `C_col`,
//! an `(r+e_max, r)`-code applied down chunks. Both are Cauchy
//! Reed–Solomon codes [8, 38]: the generator matrix is `[I | A]` with `A`
//! a Cauchy block, which makes any `κ` of the `η` codeword symbols
//! sufficient to recover the rest (the MDS property). A code here is that
//! construction and the coefficients it solves; codecs lower them to a
//! [`crate::Plan`], which is what touches bytes.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Mutex, PoisonError};

use stair_gf::Field;
use stair_gfmatrix::{cauchy_parity, Matrix};

use crate::CodeError;

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
/// use stair_code::MdsCode;
/// use stair_gf::Gf8;
///
/// // A (6,4)-code: 4 data symbols, 2 parity symbols.
/// let code: MdsCode<Gf8> = MdsCode::new(6, 4)?;
/// assert_eq!((code.total_len(), code.data_len(), code.parity_len()), (6, 4, 2));
///
/// // Symbols 4 and 5 are combinations of the data symbols 0..4 ...
/// let data = [1u8, 2, 3, 4];
/// let encode = code.recovery_coefficients(&[0, 1, 2, 3], &[4, 5])?;
/// let parity = encode.transpose().mul_vec(&data)?;
///
/// // ... and any four symbols give back the others: erase 1 and 4.
/// let survivors = [data[0], data[2], data[3], parity[1]];
/// let decode = code.recovery_coefficients(&[0, 2, 3, 5], &[1, 4])?;
/// assert_eq!(decode.transpose().mul_vec(&survivors)?, [data[1], parity[0]]);
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
        if available.len() != self.data {
            return Err(CodeError::ShapeMismatch(format!(
                "wrong symbol count: got {}, expected {}",
                available.len(),
                self.data
            )));
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use stair_gf::Gf8;

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
}
