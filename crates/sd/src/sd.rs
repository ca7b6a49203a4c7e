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
//! Encoding deliberately has **no parity reuse**: the encode plan computes
//! every parity symbol as a dense combination of the data symbols ("the
//! open-source implementation of SD codes encodes stripes in a decoding
//! manner", §6.2 of the STAIR paper) — this is the property the paper's
//! speed comparison measures.

use stair_code::{
    CellIdx, CodeError, CodecCore, CodecId, CodecSpec, ErasureSet, Geometry, Matrix, Plan,
    UpdateMap,
};
use stair_gf::Field;

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
    /// The dense encoding matrix per data symbol: the parities a small
    /// write patches.
    updates: UpdateMap,
    /// The dense encoding matrix as a plan: its sources are the data
    /// cells in payload order, its targets the parity cells.
    encode: Plan,
    id: CodecId,
}

impl<F: Field> SdCode<F> {
    /// Builds the code and its dense encoder.
    ///
    /// Parity layout: the last `m` devices, plus the `s` sectors of the
    /// bottom row of devices `n−m−s .. n−m`.
    ///
    /// # Errors
    ///
    /// [`CodeError::InvalidConfig`] for impossible shapes (`m = 0` is
    /// allowed — a pure-PMDS-style sector-only code — but `m + ⌈s/r⌉ ≥ n`
    /// is not), and if the candidate check matrix cannot be solved for the
    /// parity positions (the construction does not exist at these
    /// parameters over this field).
    pub fn new(n: usize, r: usize, m: usize, s: usize) -> Result<Self, CodeError> {
        if n < 2 || r == 0 {
            return Err(CodeError::InvalidConfig(format!(
                "need n ≥ 2, r ≥ 1 (got n={n}, r={r})"
            )));
        }
        if m >= n {
            return Err(CodeError::InvalidConfig(format!(
                "m = {m} must be < n = {n}"
            )));
        }
        if s > (n - m).saturating_sub(1) {
            return Err(CodeError::InvalidConfig(format!(
                "s = {s} parity sectors must fit in one row of the n−m−1 = {} remaining data \
                 devices",
                n - m - 1
            )));
        }
        if m == 0 && s == 0 {
            return Err(CodeError::InvalidConfig(
                "m = s = 0 provides no redundancy".into(),
            ));
        }
        if r * n > F::ORDER - 1 {
            return Err(CodeError::InvalidConfig(format!(
                "stripe has {} symbols but the global-check coefficients α^q only take {} \
                 distinct values; use a wider field",
                r * n,
                F::ORDER - 1
            )));
        }

        let total = r * n;
        let rows = m * r + s;
        let mut check = Matrix::<F>::zero(rows, total);
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
        // `parity = dense · data`; the system is square.
        let dense = h_p.solve(&h_d).ok_or_else(|| {
            CodeError::InvalidConfig(format!(
                "parity submatrix is singular for (n={n}, r={r}, m={m}, s={s}) over GF(2^{})",
                F::W
            ))
        })?;
        let cells = |pos: &[usize]| pos.iter().map(|&q| (q / n, q % n)).collect::<Vec<_>>();
        let (data, parity) = (cells(&data_pos), cells(&parity_pos));
        let coeff = |p, d| F::value(dense.get(p, d)) as u16;
        let id = CodecId {
            spec: CodecSpec::Sd { n, r, m, s },
            width: F::W,
            outside_globals: false,
        };
        let updates = UpdateMap::new(id.clone(), (r, n), &data, &parity, coeff)?;
        let encode = Plan::dense(id.clone(), data, &parity, coeff)?;
        Ok(SdCode {
            n,
            r,
            m,
            s,
            check,
            updates,
            encode,
            id,
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

    /// Solves the check equations symbolically for `erased`, a pattern
    /// the caller has validated, returning the `|erased| × |known|`
    /// recovery matrix over the `known` positions `q = i·n + c`.
    ///
    /// # Errors
    ///
    /// [`CodeError::Unrecoverable`] if the pattern exceeds the code's
    /// capability (`> m` devices, `> s` extra sectors, or an admissible
    /// pattern at parameters where the construction is simply not SD —
    /// the situation STAIR codes eliminate).
    fn recovery_matrix(
        &self,
        erased: &ErasureSet,
        known: &[usize],
    ) -> Result<Matrix<F>, CodeError> {
        // More unknowns than check equations never solve; this also
        // refuses a stripe with no survivors, which has nothing to solve
        // from.
        if erased.len() > self.check.rows() {
            return Err(CodeError::Unrecoverable(format!(
                "{} erasures exceed the {} check equations",
                erased.len(),
                self.check.rows()
            )));
        }
        let erased_q: Vec<usize> = erased.iter().map(|(i, c)| i * self.n + c).collect();
        let h_x = self.check.select_cols(&erased_q);
        // Patterns smaller than the check count leave surplus equations
        // relating only surviving symbols; every codeword satisfies them,
        // and the solver ignores them.
        h_x.solve(&self.check.select_cols(known)).ok_or_else(|| {
            CodeError::Unrecoverable(format!(
                "{} erasures exceed this SD code's capability",
                erased.len()
            ))
        })
    }

    fn cell_of(&self, q: usize) -> CellIdx {
        (q / self.n, q % self.n)
    }
}

impl<F: Field> CodecCore for SdCode<F> {
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
            data_cells: self.encode.sources().to_vec(),
            parity_cells: self.encode.recovers().to_vec(),
        }
    }

    fn encode_plan(&self) -> Result<&Plan, CodeError> {
        Ok(&self.encode)
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
        let known_q: Vec<usize> = (0..self.r * self.n)
            .filter(|&q| !erased.contains(self.cell_of(q)))
            .collect();
        let coeff = self.recovery_matrix(erased, &known_q)?.select_rows(&keep);
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

    fn update_map(&self) -> Result<&UpdateMap, CodeError> {
        Ok(&self.updates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stair_code::{ErasureCode, StripeBuf};
    use stair_gf::{Gf16, Gf8};

    /// An encoded `symbol`-byte stripe of `code` over seeded data.
    fn encoded(code: &SdCode<Gf8>, symbol: usize, seed: u8) -> StripeBuf {
        let g = code.geometry();
        let mut stripe = StripeBuf::new(g.r, g.n, symbol).unwrap();
        let data: Vec<u8> = (0..g.data_per_stripe() * symbol)
            .map(|b| (b as u8).wrapping_mul(37).wrapping_add(seed))
            .collect();
        stripe.write_cells(&g.data_cells, &data).unwrap();
        code.encode(&mut stripe).unwrap();
        stripe
    }

    #[test]
    fn construction_and_shapes() {
        let code: SdCode<Gf8> = SdCode::new(6, 4, 1, 2).unwrap();
        let g = code.geometry();
        assert_eq!(g.parity_cells.len(), 4 + 2);
        assert_eq!(g.data_cells.len(), 24 - 6);
        // Parity sectors live in the bottom row next to the parity device.
        assert!(g.parity_cells.contains(&(3, 3)));
        assert!(g.parity_cells.contains(&(3, 4)));
        assert_eq!(code.encode_plan().unwrap().recovers(), g.parity_cells);
    }

    #[test]
    fn parameter_validation() {
        assert!(matches!(
            SdCode::<Gf8>::new(1, 4, 0, 1),
            Err(CodeError::InvalidConfig(_))
        ));
        assert!(matches!(
            SdCode::<Gf8>::new(6, 4, 6, 1),
            Err(CodeError::InvalidConfig(_))
        ));
        assert!(matches!(
            SdCode::<Gf8>::new(6, 4, 1, 5),
            Err(CodeError::InvalidConfig(_))
        ));
        assert!(matches!(
            SdCode::<Gf8>::new(6, 4, 0, 0),
            Err(CodeError::InvalidConfig(_))
        ));
        // 16 × 16 = 256 symbols exceed GF(2^8)'s 255 distinct coefficients.
        assert!(matches!(
            SdCode::<Gf8>::new(16, 16, 1, 1),
            Err(CodeError::InvalidConfig(_))
        ));
        assert!(SdCode::<Gf16>::new(16, 16, 1, 1).is_ok());
    }

    #[test]
    fn encode_then_checks_hold() {
        let code: SdCode<Gf8> = SdCode::new(5, 3, 1, 1).unwrap();
        let stripe = encoded(&code, 2, 9);
        // Verify every check equation over the first byte of each sector.
        for row in 0..code.check.rows() {
            let mut acc = 0u8;
            for q in 0..15 {
                let x = stripe.cell((q / 5, q % 5))[0];
                acc ^= Gf8::mul(code.check.get(row, q), x);
            }
            assert_eq!(acc, 0, "check {row} violated");
        }
    }

    /// Wanting none of the erased cells plans nothing and reads nothing,
    /// as on the other codecs.
    #[test]
    fn wanting_nothing_is_an_empty_plan() {
        let code: SdCode<Gf8> = SdCode::new(6, 4, 1, 2).unwrap();
        let plan = code.plan_recover(&ErasureSet::from(&[(2, 1)][..]), &[]);
        let plan = plan.unwrap();
        assert!(plan.recovers().is_empty() && plan.sources().is_empty());
    }

    /// Regression: patterns *smaller* than the check count must decode.
    /// The recovery solve is overdetermined there, and the surplus checks
    /// (relating only known symbols) used to surface as `Inconsistent`.
    #[test]
    fn partial_patterns_decode() {
        let code: SdCode<Gf8> = SdCode::new(6, 4, 1, 2).unwrap();
        let pristine = encoded(&code, 8, 5);
        for erased in [
            vec![(2, 1)],                                 // one sector
            vec![(0, 0), (3, 4)],                         // two sectors
            vec![(0, 2), (1, 2), (2, 2), (3, 2)],         // one device only
            vec![(0, 5), (1, 5), (2, 5), (3, 5), (1, 3)], // device + one sector
        ] {
            let mut stripe = pristine.clone();
            stripe.erase(&erased);
            let plan = code.plan(&ErasureSet::from(&erased[..])).unwrap();
            code.apply(&plan, &mut stripe).unwrap();
            assert_eq!(stripe, pristine, "pattern {erased:?}");
        }
    }
}
