//! Plain Reed–Solomon array coding: `m` parity devices, no sector-level
//! protection. The paper's "traditional erasure code" baseline (§6.1, §7).

use stair_code::{
    CellIdx, CodeError, CodecId, CodecSpec, ErasureCode, ErasureSet, Geometry, MdsCode, Plan,
    UpdateMap,
};
use stair_gf::Field;

/// An `r × n` array protected row-wise by an `(n, n−m)` MDS code.
///
/// # Example
///
/// ```
/// use stair_code::{ErasureCode, ErasureSet, StripeBuf};
/// use stair_gf::Gf8;
/// use stair_sd::RsArrayCode;
///
/// let code: RsArrayCode<Gf8> = RsArrayCode::new(8, 16, 2)?;
/// let g = code.geometry();
/// let mut stripe = StripeBuf::new(16, 8, 4)?;
/// stripe.write_cells(&g.data_cells, &vec![0x5a; g.data_cells.len() * 4])?;
/// code.encode(&mut stripe)?;
///
/// // Any two devices may fail.
/// let pristine = stripe.clone();
/// let lost = ErasureSet::devices(&[1, 6], 16);
/// stripe.erase(lost.cells());
/// code.apply(&code.plan(&lost)?, &mut stripe)?;
/// assert_eq!(stripe, pristine);
/// # Ok::<(), stair_code::CodeError>(())
/// ```
#[derive(Clone, Debug)]
pub struct RsArrayCode<F: Field> {
    n: usize,
    r: usize,
    m: usize,
    code: MdsCode<F>,
    /// The row code's data→parity coefficients per data cell,
    /// precomputed so the small-write path pays no per-call solve.
    updates: UpdateMap,
    /// The same coefficients as a plan, each row's parities from its
    /// data: its sources and targets are the geometry's data and parity
    /// cells.
    encode: Plan,
    id: CodecId,
}

impl<F: Field> RsArrayCode<F> {
    /// Builds the code.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidConfig`] for degenerate shapes.
    pub fn new(n: usize, r: usize, m: usize) -> Result<Self, CodeError> {
        if n < 2 || r == 0 || m == 0 || m >= n {
            return Err(CodeError::InvalidConfig(format!(
                "need n ≥ 2, r ≥ 1, 0 < m < n (got n={n}, r={r}, m={m})"
            )));
        }
        let code = MdsCode::new(n, n - m)?;
        let data_idx: Vec<usize> = (0..n - m).collect();
        let parity_idx: Vec<usize> = (n - m..n).collect();
        let row_coeff = code.recovery_coefficients(&data_idx, &parity_idx)?;
        let grid = |cols: &[usize]| -> Vec<CellIdx> {
            let cells = (0..r).flat_map(|i| cols.iter().map(move |&c| (i, c)));
            cells.collect()
        };
        let (data, parity) = (grid(&data_idx), grid(&parity_idx));
        // A parity depends only on the data cells of its own row.
        let coeff = |p: usize, d: usize| match (parity[p], data[d]) {
            ((pi, pc), (di, dc)) if pi == di => F::value(row_coeff.get(dc, pc - (n - m))) as u16,
            _ => 0,
        };
        let id = CodecId {
            spec: CodecSpec::Rs { n, r, m },
            width: F::W,
            outside_globals: false,
        };
        let updates = UpdateMap::new(id.clone(), (r, n), &data, &parity, coeff)?;
        let encode = Plan::dense(id.clone(), data.clone(), &parity, coeff)?;
        Ok(RsArrayCode {
            n,
            r,
            m,
            code,
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
}

// ---------------------------------------------------------------------
// The codec-generic face: `stair_code::ErasureCode` for `RsArrayCode`.
//
// Each stripe row is one (n, n−m) MDS codeword, so every operation is
// row-local: a row with more than m erasures is unrecoverable (plain RS
// has no sector-level protection — the comparison point of §6.1/§7).
// ---------------------------------------------------------------------

impl<F: Field> ErasureCode for RsArrayCode<F> {
    fn codec_id(&self) -> &CodecId {
        &self.id
    }

    fn geometry(&self) -> Geometry {
        Geometry {
            n: self.n,
            r: self.r,
            m: self.m,
            s: 0,
            burst: 0,
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
        // Rows are independent codewords: only a row holding a wanted
        // cell is planned (or can fail the plan), and only its wanted
        // cells are rebuilt. Each keeps its place among the targets.
        let mut wanted_by_row: Vec<Vec<(usize, usize)>> = vec![Vec::new(); self.r];
        for (target, &(row, col)) in wanted.iter().enumerate() {
            if !erased.contains((row, col)) {
                return Err(CodeError::InvalidPattern(format!(
                    "wanted cell {:?} is not in the erased set",
                    (row, col)
                )));
            }
            wanted_by_row[row].push((col, target));
        }
        let mut sources = Vec::new();
        let mut rows = Vec::new();
        for (row, lost) in wanted_by_row.into_iter().enumerate() {
            if lost.is_empty() {
                continue;
            }
            let gone = erased.iter().filter(|&(i, _)| i == row).count();
            if gone > self.m {
                return Err(CodeError::Unrecoverable(format!(
                    "row {row} lost {gone} sectors, an (n, n-m) MDS row repairs at most {}",
                    self.m
                )));
            }
            let survivors: Vec<usize> = (0..self.n)
                .filter(|&c| !erased.contains((row, c)))
                .take(self.n - self.m)
                .collect();
            let cols: Vec<usize> = lost.iter().map(|&(col, _)| col).collect();
            let coeff = self.code.recovery_coefficients(&survivors, &cols)?;
            rows.push((sources.len(), lost, coeff));
            sources.extend(survivors.iter().map(|&c| (row, c)));
        }
        // One step per wanted cell, over its row's survivors.
        let first_target = sources.len();
        let mut plan = Plan::builder(self.id.clone(), sources, [], wanted);
        for (base, lost, coeff) in rows {
            for (x, &(_, target)) in lost.iter().enumerate() {
                let terms = (0..coeff.rows()).map(|k| (base + k, coeff.get(k, x)));
                let terms = terms.filter(|&(_, c)| c != F::zero());
                plan.step(
                    first_target + target,
                    terms.map(|(s, c)| (s, F::value(c) as u16)),
                );
            }
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
    use stair_gf::Gf8;

    #[test]
    fn validation() {
        assert!(RsArrayCode::<Gf8>::new(4, 0, 1).is_err());
        assert!(RsArrayCode::<Gf8>::new(4, 2, 4).is_err());
        assert!(RsArrayCode::<Gf8>::new(4, 2, 0).is_err());
    }
}
