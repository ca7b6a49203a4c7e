//! Plain Reed–Solomon array coding: `m` parity devices, no sector-level
//! protection. The paper's "traditional erasure code" baseline (§6.1, §7).

use stair_code::{
    CellIdx, CodeError, CodecId, CodecSpec, ErasureCode, ErasureSet, Geometry, Plan, StripeBuf,
    UpdateMap,
};
use stair_gf::Field;
use stair_rs::MdsCode;

use crate::Error;

/// An `r × n` array protected row-wise by an `(n, n−m)` MDS code.
///
/// # Example
///
/// ```
/// use stair_gf::Gf8;
/// use stair_sd::RsArrayCode;
///
/// let code: RsArrayCode<Gf8> = RsArrayCode::new(8, 16, 2)?;
/// let mut chunks: Vec<Vec<u8>> = (0..8).map(|c| vec![c as u8; 16 * 4]).collect();
/// code.encode_chunks(&mut chunks)?;
/// # Ok::<(), stair_sd::Error>(())
/// ```
#[derive(Clone, Debug)]
pub struct RsArrayCode<F: Field> {
    n: usize,
    r: usize,
    m: usize,
    code: MdsCode<F>,
    /// The row code's data→parity coefficients per data cell,
    /// precomputed so the small-write path pays no per-call solve.
    updates: UpdateMap<F::Elem>,
    id: CodecId,
}

impl<F: Field> RsArrayCode<F> {
    /// Builds the code.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParams`] for degenerate shapes.
    pub fn new(n: usize, r: usize, m: usize) -> Result<Self, Error> {
        if n < 2 || r == 0 || m == 0 || m >= n {
            return Err(Error::InvalidParams(format!(
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
            ((pi, pc), (di, dc)) if pi == di => row_coeff.get(dc, pc - (n - m)),
            _ => F::zero(),
        };
        let updates = UpdateMap::new((r, n), F::ELEM_BYTES, &data, &parity, F::zero(), coeff);
        Ok(RsArrayCode {
            n,
            r,
            m,
            code,
            updates,
            id: CodecId {
                spec: CodecSpec::Rs { n, r, m },
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

    /// Encodes whole chunks: `chunks[0..n−m]` are data, the last `m` are
    /// overwritten with parity. Each chunk is one contiguous buffer of
    /// `r · sector` bytes (row interleaving is irrelevant to RS coding).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] on wrong chunk count or sizes.
    pub fn encode_chunks(&self, chunks: &mut [Vec<u8>]) -> Result<(), Error> {
        if chunks.len() != self.n {
            return Err(Error::ShapeMismatch(format!(
                "expected {} chunks, got {}",
                self.n,
                chunks.len()
            )));
        }
        let len = chunks[0].len();
        if chunks.iter().any(|c| c.len() != len) {
            return Err(Error::ShapeMismatch("chunks must have equal length".into()));
        }
        let (data, parity) = chunks.split_at_mut(self.n - self.m);
        let data_refs: Vec<&[u8]> = data.iter().map(|c| c.as_slice()).collect();
        let mut parity_refs: Vec<&mut [u8]> = parity.iter_mut().map(|c| c.as_mut_slice()).collect();
        self.code.encode_regions(&data_refs, &mut parity_refs)?;
        Ok(())
    }

    /// Recovers up to `m` lost chunks from the survivors.
    ///
    /// # Errors
    ///
    /// * [`Error::Unrecoverable`] if more than `m` chunks are lost;
    /// * [`Error::ShapeMismatch`] / [`Error::InvalidPattern`] on malformed
    ///   input.
    pub fn decode_chunks(&self, chunks: &mut [Vec<u8>], lost: &[usize]) -> Result<(), Error> {
        if chunks.len() != self.n {
            return Err(Error::ShapeMismatch(format!(
                "expected {} chunks, got {}",
                self.n,
                chunks.len()
            )));
        }
        if lost.iter().any(|&c| c >= self.n) {
            return Err(Error::InvalidPattern(
                "lost chunk index out of range".into(),
            ));
        }
        if lost.len() > self.m {
            return Err(Error::Unrecoverable(format!(
                "{} chunks lost, only {} tolerated",
                lost.len(),
                self.m
            )));
        }
        let survivors: Vec<usize> = (0..self.n)
            .filter(|c| !lost.contains(c))
            .take(self.n - self.m)
            .collect();
        let available: Vec<(usize, &[u8])> = survivors
            .iter()
            .map(|&c| (c, chunks[c].as_slice()))
            .collect();
        let coeff = self.code.recovery_coefficients(&survivors, lost)?;
        let len = chunks[0].len();
        let mut outs: Vec<Vec<u8>> = lost.iter().map(|_| vec![0u8; len]).collect();
        {
            let avail_refs: Vec<&[u8]> = available.iter().map(|&(_, r)| r).collect();
            let mut out_refs: Vec<&mut [u8]> = outs.iter_mut().map(Vec::as_mut_slice).collect();
            self.code
                .apply_coefficients(&coeff, &avail_refs, &mut out_refs)?;
        }
        for (&c, buf) in lost.iter().zip(outs) {
            chunks[c] = buf;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// The codec-generic face: `stair_code::ErasureCode` for `RsArrayCode`.
//
// Each stripe row is one (n, n−m) MDS codeword, so every operation is
// row-local: a row with more than m erasures is unrecoverable (plain RS
// has no sector-level protection — the comparison point of §6.1/§7).
// ---------------------------------------------------------------------

impl<F: Field> RsArrayCode<F> {
    fn check_buf(&self, buf: &StripeBuf) -> Result<(), CodeError> {
        buf.check_shape(self.r, self.n, F::ELEM_BYTES)
    }
}

impl<F: Field> ErasureCode for RsArrayCode<F> {
    fn codec_id(&self) -> &CodecId {
        &self.id
    }

    fn geometry(&self) -> Geometry {
        let data_cells = (0..self.r)
            .flat_map(|i| (0..self.n - self.m).map(move |c| (i, c)))
            .collect();
        let parity_cells = (0..self.r)
            .flat_map(|i| (self.n - self.m..self.n).map(move |c| (i, c)))
            .collect();
        Geometry {
            n: self.n,
            r: self.r,
            m: self.m,
            s: 0,
            burst: 0,
            data_cells,
            parity_cells,
        }
    }

    fn encode(&self, stripe: &mut StripeBuf) -> Result<(), CodeError> {
        self.check_buf(stripe)?;
        let symbol = stripe.symbol();
        // Rows are contiguous in the flat buffer, so each row splits into
        // data and parity regions without copying.
        for i in 0..self.r {
            let row = stripe.row_mut(i);
            let (data, parity) = row.split_at_mut((self.n - self.m) * symbol);
            let data_refs: Vec<&[u8]> = data.chunks(symbol).collect();
            let mut parity_refs: Vec<&mut [u8]> = parity.chunks_mut(symbol).collect();
            self.code.encode_regions(&data_refs, &mut parity_refs)?;
        }
        Ok(())
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

#[cfg(test)]
mod tests {
    use super::*;
    use stair_gf::Gf8;

    #[test]
    fn chunk_round_trip() {
        let code: RsArrayCode<Gf8> = RsArrayCode::new(6, 4, 2).unwrap();
        let mut chunks: Vec<Vec<u8>> = (0..6)
            .map(|c| (0..32).map(|b| (c * 31 + b) as u8).collect())
            .collect();
        code.encode_chunks(&mut chunks).unwrap();
        let pristine = chunks.clone();
        chunks[1].fill(0);
        chunks[5].fill(0);
        code.decode_chunks(&mut chunks, &[1, 5]).unwrap();
        assert_eq!(chunks, pristine);
    }

    #[test]
    fn too_many_losses_rejected() {
        let code: RsArrayCode<Gf8> = RsArrayCode::new(4, 2, 1).unwrap();
        let mut chunks: Vec<Vec<u8>> = (0..4).map(|_| vec![0u8; 8]).collect();
        code.encode_chunks(&mut chunks).unwrap();
        assert!(matches!(
            code.decode_chunks(&mut chunks, &[0, 1]),
            Err(Error::Unrecoverable(_))
        ));
    }

    #[test]
    fn validation() {
        assert!(RsArrayCode::<Gf8>::new(4, 0, 1).is_err());
        assert!(RsArrayCode::<Gf8>::new(4, 2, 4).is_err());
        assert!(RsArrayCode::<Gf8>::new(4, 2, 0).is_err());
    }
}
