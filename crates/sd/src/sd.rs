//! Sector-disk (SD) codes, after Plank & Blaum [32, 33].
//!
//! An SD code with parameters `(n, r, m, s)` devotes `m` entire devices and
//! `s` additional sectors to parity, and tolerates the failure of any `m`
//! devices plus any `s` further sectors. The construction here is the
//! algebraic candidate family of Blaum & Plank: the stripe symbols
//! (indexed `q = i·n + c` for sector `i` of device `c`) satisfy
//!
//! * `Σ_c α^(l·c) · x[i,c] = 0`  for every row `i` and `l ∈ 0..m`, and
//! * `Σ_q α^((m+l)·q) · x[q] = 0` for `l ∈ 0..s`,
//!
//! over GF(2^w). Such constructions are *proven* SD only for limited
//! parameter ranges (`s ≤ 3` and bounded `n`, `r` — the paper's motivation
//! for STAIR). The workspace's decode oracle (`tests/coverage_oracle.rs`)
//! checks the property against `CodecSpec::covers`: exhaustively on small
//! stripes, by seeded sampling on the specs the repository ships.
//!
//! **Over GF(2^8) this construction is not SD on the shipped specs.** The
//! store builds every SD spec over GF(2^8), and there `sd:8,16,2,3` (the
//! ledger's and README's SD spec) refuses 17 of 3 000 seeded patterns of
//! two devices and three sectors that its coverage promises, and
//! `sd:8,4,2,2` refuses 9 of the oracle's 6 000 samples. The oracle pins
//! both counts, so a change to the construction shows there. The same
//! patterns all decode over GF(2^16), and the small stripes the oracle
//! enumerates (`sd:4,3,1,1`, `sd:6,4,1,2`) are SD. `SdCode::new` does not
//! reject these parameters: what fixes it — a field width recorded per
//! spec, or a searched construction — changes the store's on-disk format.
//!
//! Encoding deliberately has **no parity reuse**: every parity symbol is a
//! dense combination of the data symbols ("the open-source implementation
//! of SD codes encodes stripes in a decoding manner", §6.2 of the STAIR
//! paper) — this is the property the paper's speed comparison measures.

use stair_code::{
    CellIdx, CellLookup, CodeError, CodecId, CodecSpec, ErasureCode, ErasureSet, Geometry, Plan,
    StripeBuf, UpdateMap,
};
use stair_gf::Field;
use stair_gfmatrix::{Error as MatrixError, Matrix};

use crate::Error;

/// An SD code over the field `F`; see the module documentation for the
/// construction.
#[derive(Clone, Debug)]
pub struct SdCode<F: Field> {
    n: usize,
    r: usize,
    m: usize,
    s: usize,
    /// Parity-check matrix, `(m·r + s) × (r·n)`.
    check: Matrix<F>,
    /// Symbol indices (q = i·n + c) of the parity positions.
    parity_pos: Vec<usize>,
    /// Symbol indices of the data positions.
    data_pos: Vec<usize>,
    /// Dense encoding matrix: `parity = encode · data`.
    encode: Matrix<F>,
    /// `encode` per data symbol: the parities a small write patches.
    updates: UpdateMap<F::Elem>,
    id: CodecId,
}

/// A plain `r × n` stripe of sector buffers for [`SdCode`].
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct SdStripe {
    n: usize,
    r: usize,
    symbol: usize,
    cells: Vec<Vec<u8>>,
    parity_pos: Vec<usize>,
}

impl<F: Field> SdCode<F> {
    /// Builds the code and its dense encoder.
    ///
    /// Parity layout: the last `m` devices, plus the `s` sectors of the
    /// bottom row of devices `n−m−s .. n−m`.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidParams`] for impossible shapes (`m = 0` is allowed
    ///   — a pure-PMDS-style sector-only code — but `m + ⌈s/r⌉ ≥ n` is not);
    /// * [`Error::ConstructionFailed`] if the candidate check matrix cannot
    ///   be solved for the parity positions (the construction does not
    ///   exist at these parameters over this field).
    pub fn new(n: usize, r: usize, m: usize, s: usize) -> Result<Self, Error> {
        if n < 2 || r == 0 {
            return Err(Error::InvalidParams(format!(
                "need n ≥ 2, r ≥ 1 (got n={n}, r={r})"
            )));
        }
        if m >= n {
            return Err(Error::InvalidParams(format!("m = {m} must be < n = {n}")));
        }
        if s > (n - m).saturating_sub(1) {
            return Err(Error::InvalidParams(format!(
                "s = {s} parity sectors must fit in one row of the n−m−1 = {} remaining data \
                 devices",
                n - m - 1
            )));
        }
        if m == 0 && s == 0 {
            return Err(Error::InvalidParams(
                "m = s = 0 provides no redundancy".into(),
            ));
        }
        if r * n > F::ORDER - 1 {
            return Err(Error::ConstructionFailed(format!(
                "stripe has {} symbols but the global-check coefficients α^q only take {} \
                 distinct values; use a wider field",
                r * n,
                F::ORDER - 1
            )));
        }

        let total = r * n;
        let rows = m * r + s;
        let mut check = Matrix::<F>::zero(rows.max(1), total);
        // Row checks: Σ_c α^(l·c) x[i,c] = 0.
        for i in 0..r {
            for l in 0..m {
                for c in 0..n {
                    check.set(i * m + l, i * n + c, F::exp(l * c));
                }
            }
        }
        // Global checks: Σ_q α^((m+l)·q) x[q] = 0.
        for l in 0..s {
            for q in 0..total {
                check.set(m * r + l, q, F::exp((m + l) * q));
            }
        }

        let mut parity_pos: Vec<usize> = Vec::with_capacity(rows);
        for c in n - m..n {
            for i in 0..r {
                parity_pos.push(i * n + c);
            }
        }
        for k in 0..s {
            parity_pos.push((r - 1) * n + (n - m - s + k));
        }
        parity_pos.sort_unstable();
        let data_pos: Vec<usize> = (0..total).filter(|q| !parity_pos.contains(q)).collect();

        let h_p = check.select_cols(&parity_pos);
        let h_d = check.select_cols(&data_pos);
        let encode = match h_p.solve(&h_d) {
            Ok(e) => e,
            Err(MatrixError::Singular | MatrixError::Underdetermined { .. }) => {
                return Err(Error::ConstructionFailed(format!(
                    "parity submatrix is singular for (n={n}, r={r}, m={m}, s={s}) over \
                     GF(2^{})",
                    F::W
                )));
            }
            Err(e) => return Err(e.into()),
        };
        let cells = |pos: &[usize]| pos.iter().map(|&q| (q / n, q % n)).collect::<Vec<_>>();
        let (data, parity) = (cells(&data_pos), cells(&parity_pos));
        let coeff = |p, d| encode.get(p, d);
        let updates = UpdateMap::new((r, n), F::ELEM_BYTES, &data, &parity, F::zero(), coeff);
        Ok(SdCode {
            n,
            r,
            m,
            s,
            check,
            parity_pos,
            data_pos,
            encode,
            updates,
            id: CodecId {
                spec: CodecSpec::Sd { n, r, m, s },
                width: F::W,
                outside_globals: false,
            },
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

    /// Parity sectors beyond the parity devices.
    pub fn s(&self) -> usize {
        self.s
    }

    /// Symbol indices (`q = i·n + c`) of parity positions.
    pub fn parity_positions(&self) -> &[usize] {
        &self.parity_pos
    }

    /// Symbol indices of data positions, in payload order.
    pub fn data_positions(&self) -> &[usize] {
        &self.data_pos
    }

    /// The dense-encoding coefficient of data symbol `data_idx` (index into
    /// [`SdCode::data_positions`]) in parity symbol `parity_idx` (index
    /// into [`SdCode::parity_positions`]). Non-zero entries determine the
    /// update penalty (§6.3 of the STAIR paper).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn encode_coefficient(&self, parity_idx: usize, data_idx: usize) -> F::Elem {
        self.encode.get(parity_idx, data_idx)
    }

    /// `Mult_XOR` cost of one stripe encode (dense, no reuse): the number of
    /// non-zero entries of the encoding matrix.
    pub fn encode_mult_xors(&self) -> usize {
        let mut count = 0;
        for p in 0..self.encode.rows() {
            for d in 0..self.encode.cols() {
                if self.encode.get(p, d) != F::zero() {
                    count += 1;
                }
            }
        }
        count
    }

    /// Encodes a stripe in place (recomputes every parity sector).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if the stripe shape differs.
    pub fn encode(&self, stripe: &mut SdStripe) -> Result<(), Error> {
        self.check_stripe(stripe)?;
        for (p, &ppos) in self.parity_pos.iter().enumerate() {
            let mut buf = std::mem::take(&mut stripe.cells[ppos]);
            let data = self.data_pos.iter().enumerate();
            let terms = data.map(|(d, &dpos)| (&stripe.cells[dpos][..], self.encode.get(p, d)));
            F::dot_regions(&mut buf, terms.filter(nonzero::<F>));
            stripe.cells[ppos] = buf;
        }
        Ok(())
    }

    /// Repairs the erased sectors in place: the pattern's
    /// [`ErasureCode::plan`], run by the one executor over the stripe.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidPattern`] for malformed patterns;
    /// * [`Error::Unrecoverable`] if the pattern exceeds the code's
    ///   capability (`> m` devices, `> s` extra sectors, or an admissible
    ///   pattern at parameters where the construction is simply not SD —
    ///   the situation STAIR codes eliminate).
    pub fn decode(&self, stripe: &mut SdStripe, erased: &[(usize, usize)]) -> Result<(), Error> {
        self.check_stripe(stripe)?;
        let set = ErasureSet::new(erased.iter().copied());
        if set.len() != erased.len() {
            return Err(Error::InvalidPattern(format!(
                "duplicate cell in {erased:?}"
            )));
        }
        let plan = self.plan(&set)?;
        Ok(plan.execute(&self.id, stripe)?)
    }

    /// Solves the check equations symbolically for an erasure pattern,
    /// returning the `|erased| × |known|` recovery matrix.
    ///
    /// # Errors
    ///
    /// See [`SdCode::decode`].
    pub fn recovery_matrix(&self, erased: &[(usize, usize)]) -> Result<Matrix<F>, Error> {
        let total = self.r * self.n;
        let mut seen = vec![false; total];
        for &(i, c) in erased {
            if i >= self.r || c >= self.n {
                return Err(Error::InvalidPattern(format!("({i},{c}) out of range")));
            }
            if seen[i * self.n + c] {
                return Err(Error::InvalidPattern(format!("duplicate ({i},{c})")));
            }
            seen[i * self.n + c] = true;
        }
        if erased.is_empty() {
            return Err(Error::InvalidPattern("empty erasure pattern".into()));
        }
        let erased_q: Vec<usize> = erased.iter().map(|&(i, c)| i * self.n + c).collect();
        let known_q: Vec<usize> = (0..total).filter(|&q| !seen[q]).collect();
        let h_x = self.check.select_cols(&erased_q);
        let h_k = self.check.select_cols(&known_q);
        // Patterns smaller than the check count leave surplus equations
        // relating only surviving symbols; every codeword satisfies them,
        // so the subspace solver ignores them rather than failing.
        match h_x.solve_subspace(&h_k) {
            Ok(m) => Ok(m),
            Err(MatrixError::Singular | MatrixError::Underdetermined { .. }) => {
                Err(Error::Unrecoverable(format!(
                    "{} erasures exceed this SD code's capability",
                    erased.len()
                )))
            }
            Err(e) => Err(e.into()),
        }
    }

    fn check_stripe(&self, stripe: &SdStripe) -> Result<(), Error> {
        if stripe.n != self.n || stripe.r != self.r {
            return Err(Error::ShapeMismatch(format!(
                "stripe is {}x{}, code needs {}x{}",
                stripe.r, stripe.n, self.r, self.n
            )));
        }
        Ok(())
    }
}

impl SdStripe {
    /// Allocates a zeroed stripe matching `code`.
    pub fn new<F: Field>(code: &SdCode<F>, symbol_size: usize) -> Self {
        assert!(symbol_size > 0, "symbol size must be positive");
        assert!(
            symbol_size.is_multiple_of(F::ELEM_BYTES),
            "symbol size must be a multiple of the field element size"
        );
        SdStripe {
            n: code.n(),
            r: code.r(),
            symbol: symbol_size,
            cells: vec![vec![0u8; symbol_size]; code.n() * code.r()],
            parity_pos: code.parity_positions().to_vec(),
        }
    }

    /// Bytes per sector.
    pub fn symbol_size(&self) -> usize {
        self.symbol
    }

    /// Borrows sector `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn cell(&self, row: usize, col: usize) -> &[u8] {
        assert!(row < self.r && col < self.n, "cell out of range");
        &self.cells[row * self.n + col]
    }

    /// Mutably borrows sector `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn cell_mut(&mut self, row: usize, col: usize) -> &mut [u8] {
        assert!(row < self.r && col < self.n, "cell out of range");
        &mut self.cells[row * self.n + col]
    }

    /// Fills every *data* sector with a deterministic pattern.
    pub fn fill_pattern(&mut self, seed: u8) {
        for q in 0..self.r * self.n {
            if self.parity_pos.contains(&q) {
                continue;
            }
            let base = (q as u8).wrapping_mul(37).wrapping_add(seed);
            for (b, byte) in self.cells[q].iter_mut().enumerate() {
                *byte = base.wrapping_add((b as u8).wrapping_mul(11));
            }
        }
    }

    /// Zero-fills the listed sectors (simulated loss).
    pub fn erase(&mut self, erased: &[(usize, usize)]) {
        for &(row, col) in erased {
            self.cell_mut(row, col).fill(0);
        }
    }
}

/// A stripe as a plan's lookup: every cell is a source, and targets are
/// written in place.
impl CellLookup for SdStripe {
    fn symbol(&self) -> usize {
        self.symbol
    }

    fn source(&self, (row, col): CellIdx) -> Option<&[u8]> {
        (row < self.r && col < self.n).then(|| self.cell(row, col))
    }

    fn recovered(&mut self, (row, col): CellIdx, bytes: &[u8]) -> Result<(), CodeError> {
        if row >= self.r || col >= self.n || bytes.len() != self.symbol {
            return Err(CodeError::InvalidPattern(format!(
                "({row},{col}) is not a sector of this {}x{} stripe",
                self.r, self.n
            )));
        }
        self.cell_mut(row, col).copy_from_slice(bytes);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// The codec-generic face: `stair_code::ErasureCode` for `SdCode`.
// ---------------------------------------------------------------------

impl<F: Field> SdCode<F> {
    fn check_buf(&self, buf: &StripeBuf) -> Result<(), CodeError> {
        buf.check_shape(self.r, self.n, F::ELEM_BYTES)
    }

    fn cell_of(&self, q: usize) -> CellIdx {
        (q / self.n, q % self.n)
    }
}

impl<F: Field> ErasureCode for SdCode<F> {
    fn codec_id(&self) -> &CodecId {
        &self.id
    }

    fn geometry(&self) -> Geometry {
        Geometry {
            n: self.n,
            r: self.r,
            m: self.m,
            s: self.s,
            burst: self.s.min(self.r),
            data_cells: self.data_pos.iter().map(|&q| self.cell_of(q)).collect(),
            parity_cells: self.parity_pos.iter().map(|&q| self.cell_of(q)).collect(),
        }
    }

    fn encode(&self, stripe: &mut StripeBuf) -> Result<(), CodeError> {
        self.check_buf(stripe)?;
        // Dense, no parity reuse — the §6.2 "encoding in a decoding
        // manner" the paper measures against.
        let mut scratch = vec![0u8; stripe.symbol()];
        for (p, &ppos) in self.parity_pos.iter().enumerate() {
            let data = self.data_pos.iter().enumerate();
            let terms =
                data.map(|(d, &dpos)| (stripe.cell(self.cell_of(dpos)), self.encode.get(p, d)));
            F::dot_regions(&mut scratch, terms.filter(nonzero::<F>));
            stripe.set_cell(self.cell_of(ppos), &scratch);
        }
        Ok(())
    }

    fn plan_recover(&self, erased: &ErasureSet, wanted: &[CellIdx]) -> Result<Plan, CodeError> {
        erased.check_bounds(self.r, self.n)?;
        if erased.is_empty() {
            return Err(CodeError::InvalidPattern("empty erasure pattern".into()));
        }
        // One recovery-matrix row per erased cell, in `erased` order;
        // the wanted cells keep theirs.
        let mut keep = Vec::with_capacity(wanted.len());
        for w in wanted {
            keep.push(erased.cells().binary_search(w).map_err(|_| {
                CodeError::InvalidPattern(format!("wanted cell {w:?} is not in the erased set"))
            })?);
        }
        let coeff = self.recovery_matrix(erased.cells())?.select_rows(&keep);
        let known_q: Vec<usize> = (0..self.r * self.n)
            .filter(|&q| !erased.contains(self.cell_of(q)))
            .collect();
        // A known symbol is a source iff some kept row weighs it.
        let mut slot = vec![0; known_q.len()];
        let mut sources = Vec::new();
        for (k, &q) in known_q.iter().enumerate() {
            if (0..coeff.rows()).any(|x| coeff.get(x, k) != F::zero()) {
                slot[k] = sources.len();
                sources.push(self.cell_of(q));
            }
        }
        // One step per wanted cell, over the known cells it weighs.
        let first_target = sources.len();
        let mut plan = Plan::builder(self.id.clone(), sources, [], wanted);
        for x in 0..wanted.len() {
            let terms = (0..known_q.len()).map(|k| (slot[k], coeff.get(x, k)));
            let terms = terms.filter(|&(_, c)| c != F::zero());
            plan.step(
                first_target + x,
                terms.map(|(s, c)| (s, F::value(c) as u16)),
            );
        }
        plan.finish()
    }

    fn dependents(&self, cell: CellIdx) -> Result<&[CellIdx], CodeError> {
        self.updates.dependents(cell)
    }

    fn fold_delta(
        &self,
        cell: CellIdx,
        parity: CellIdx,
        delta: &[u8],
        into: &mut [u8],
    ) -> Result<(), CodeError> {
        self.updates
            .fold(cell, parity, delta, into, F::mult_xor_region)
    }
}

/// Keeps the terms that cost a `Mult_XOR`: dense SD matrices have zeros.
fn nonzero<F: Field>(term: &(&[u8], F::Elem)) -> bool {
    term.1 != F::zero()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stair_gf::{Gf16, Gf8};

    #[test]
    fn construction_and_shapes() {
        let code: SdCode<Gf8> = SdCode::new(6, 4, 1, 2).unwrap();
        assert_eq!(code.parity_positions().len(), 4 + 2);
        assert_eq!(code.data_positions().len(), 24 - 6);
        // Parity sectors live in the bottom row next to the parity device.
        assert!(code.parity_positions().contains(&(3 * 6 + 3)));
        assert!(code.parity_positions().contains(&(3 * 6 + 4)));
    }

    #[test]
    fn parameter_validation() {
        assert!(matches!(
            SdCode::<Gf8>::new(1, 4, 0, 1),
            Err(Error::InvalidParams(_))
        ));
        assert!(matches!(
            SdCode::<Gf8>::new(6, 4, 6, 1),
            Err(Error::InvalidParams(_))
        ));
        assert!(matches!(
            SdCode::<Gf8>::new(6, 4, 1, 5),
            Err(Error::InvalidParams(_))
        ));
        assert!(matches!(
            SdCode::<Gf8>::new(6, 4, 0, 0),
            Err(Error::InvalidParams(_))
        ));
        // 16 × 16 = 256 symbols exceed GF(2^8)'s 255 distinct coefficients.
        assert!(matches!(
            SdCode::<Gf8>::new(16, 16, 1, 1),
            Err(Error::ConstructionFailed(_))
        ));
        assert!(SdCode::<Gf16>::new(16, 16, 1, 1).is_ok());
    }

    #[test]
    fn encode_then_checks_hold() {
        let code: SdCode<Gf8> = SdCode::new(5, 3, 1, 1).unwrap();
        let mut stripe = SdStripe::new(&code, 2);
        stripe.fill_pattern(9);
        code.encode(&mut stripe).unwrap();
        // Verify every check equation over the first byte of each sector.
        for row in 0..code.check.rows() {
            let mut acc = 0u8;
            for q in 0..15 {
                let x = stripe.cells[q][0];
                acc ^= Gf8::mul(code.check.get(row, q), x);
            }
            assert_eq!(acc, 0, "check {row} violated");
        }
    }

    #[test]
    fn device_plus_sector_failures_decode() {
        let code: SdCode<Gf8> = SdCode::new(6, 4, 1, 2).unwrap();
        let mut stripe = SdStripe::new(&code, 8);
        stripe.fill_pattern(17);
        code.encode(&mut stripe).unwrap();
        let pristine = stripe.clone();
        let erased = vec![(0, 2), (1, 2), (2, 2), (3, 2), (0, 0), (3, 5)];
        assert!(code.codec_id().spec.covers(&ErasureSet::from(&erased[..])));
        stripe.erase(&erased);
        code.decode(&mut stripe, &erased).unwrap();
        assert_eq!(stripe, pristine);
    }

    /// Regression: patterns *smaller* than the check count must decode.
    /// The recovery solve is overdetermined there, and the surplus checks
    /// (relating only known symbols) used to surface as `Inconsistent`.
    #[test]
    fn partial_patterns_decode() {
        let code: SdCode<Gf8> = SdCode::new(6, 4, 1, 2).unwrap();
        let mut stripe = SdStripe::new(&code, 8);
        stripe.fill_pattern(5);
        code.encode(&mut stripe).unwrap();
        let pristine = stripe.clone();
        for erased in [
            vec![(2, 1)],                                 // one sector
            vec![(0, 0), (3, 4)],                         // two sectors
            vec![(0, 2), (1, 2), (2, 2), (3, 2)],         // one device only
            vec![(0, 5), (1, 5), (2, 5), (3, 5), (1, 3)], // device + one sector
        ] {
            stripe.erase(&erased);
            code.decode(&mut stripe, &erased).unwrap();
            assert_eq!(stripe, pristine, "pattern {erased:?}");
        }
    }

    #[test]
    fn beyond_coverage_fails_cleanly() {
        let code: SdCode<Gf8> = SdCode::new(6, 4, 1, 1).unwrap();
        let mut stripe = SdStripe::new(&code, 4);
        stripe.fill_pattern(3);
        code.encode(&mut stripe).unwrap();
        // Two full devices exceed m = 1 by far.
        let erased: Vec<(usize, usize)> = (0..4).flat_map(|i| [(i, 0), (i, 1)]).collect();
        assert!(!code.codec_id().spec.covers(&ErasureSet::from(&erased[..])));
        assert!(matches!(
            code.decode(&mut stripe, &erased),
            Err(Error::Unrecoverable(_))
        ));
    }
}
