//! The small write of a linear code, as a plan: which parity cells depend
//! on each data cell, with what coefficient, and the [`Patch`] lookup
//! that adds a change into them.

use std::borrow::Cow;
use std::collections::BTreeMap;

use crate::{CellIdx, CellLookup, CodeError, CodecId, Lent, Plan};

/// Per data cell, the parity cells its update patches and the
/// coefficient `c` of each `parity ^= c·(old ⊕ new)` — the non-zero
/// column of the codec's dense data→parity relation, extracted once at
/// construction so the small-write path neither searches nor solves per
/// call. Coefficients are `u16`, as [`Plan`] stores them.
#[derive(Clone, Debug)]
pub struct UpdateMap {
    codec: CodecId,
    rows: usize,
    cols: usize,
    /// `slots[row·cols + col]`: the data cell's index into `terms` /
    /// `single`; `None` for parity cells.
    slots: Vec<Option<usize>>,
    parity_cells: Vec<CellIdx>,
    /// Per data cell, per dependent: its index in `parity_cells` and its
    /// coefficient.
    terms: Vec<Vec<(usize, u16)>>,
    /// Per data cell, the plan of its write alone with every dependent
    /// held — the usual small write; its targets are the dependents.
    single: Vec<Plan>,
}

impl UpdateMap {
    /// Builds `codec`'s map for a `rows × cols` grid from the dense
    /// relation `coeff(p, d)` — the coefficient of `data_cells[d]` in
    /// `parity_cells[p]` — keeping the non-zero entries. Dependents keep
    /// `parity_cells`' order.
    ///
    /// # Errors
    ///
    /// As [`crate::PlanBuilder::finish`], for a coefficient too wide.
    ///
    /// # Panics
    ///
    /// Panics if a data cell lies outside the grid.
    pub fn new(
        codec: CodecId,
        (rows, cols): (usize, usize),
        data_cells: &[CellIdx],
        parity_cells: &[CellIdx],
        coeff: impl Fn(usize, usize) -> u16,
    ) -> Result<Self, CodeError> {
        let mut slots = vec![None; rows * cols];
        let mut terms = Vec::with_capacity(data_cells.len());
        for (d, &(row, col)) in data_cells.iter().enumerate() {
            assert!(row < rows && col < cols, "data cell outside the grid");
            slots[row * cols + col] = Some(d);
            let column = (0..parity_cells.len()).map(|p| (p, coeff(p, d)));
            terms.push(column.filter(|&(_, c)| c != 0).collect());
        }
        let mut map = UpdateMap {
            codec,
            rows,
            cols,
            slots,
            parity_cells: parity_cells.to_vec(),
            terms,
            single: Vec::new(),
        };
        for &cell in data_cells {
            map.single.push(map.plan(&[cell], &|_| true)?.into_owned());
        }
        Ok(map)
    }

    fn slot(&self, (row, col): CellIdx) -> Result<usize, CodeError> {
        if row >= self.rows || col >= self.cols {
            return Err(CodeError::InvalidPattern(format!(
                "({row},{col}) out of range"
            )));
        }
        self.slots[row * self.cols + col].ok_or_else(|| {
            CodeError::InvalidPattern(format!(
                "({row},{col}) is a parity sector; updates must target data"
            ))
        })
    }

    /// The parity cells an update of data cell `data` patches.
    ///
    /// # Errors
    ///
    /// [`CodeError::InvalidPattern`] if `data` is out of range or not a
    /// data cell.
    pub fn dependents(&self, data: CellIdx) -> Result<&[CellIdx], CodeError> {
        Ok(self.single[self.slot(data)?].recovers())
    }

    /// The plan of a small write: its sources are the changed data
    /// `cells` (sorted, each once), which its lookup reads as their
    /// deltas `Δ = old ⊕ new`; its targets are their dependents that lie
    /// `within` the cells the caller holds, in parity-cell order, each one
    /// step `Σ c·Δ` over every delta that reaches it. Running it through a
    /// [`Patch`] adds that into each target: [`Plan::mult_xors`] is the
    /// number of (data cell, parity cell) pairs. One cell with all of its
    /// dependents held is the plan built at construction.
    ///
    /// # Errors
    ///
    /// [`CodeError::InvalidPattern`] if a cell is out of range or not a
    /// data cell.
    pub fn plan(
        &self,
        cells: &[CellIdx],
        within: &dyn Fn(CellIdx) -> bool,
    ) -> Result<Cow<'_, Plan>, CodeError> {
        if let &[cell] = cells {
            // Empty until `new` has planned every cell this way.
            let single = self.single.get(self.slot(cell)?);
            if let Some(single) = single.filter(|s| s.recovers().iter().all(|&p| within(p))) {
                return Ok(Cow::Borrowed(single));
            }
        }
        let mut sources = cells.to_vec();
        sources.sort_unstable();
        sources.dedup();
        // (parity index, source slot, coefficient), grouped by parity.
        let mut terms = Vec::new();
        for (s, &cell) in sources.iter().enumerate() {
            for &(p, c) in &self.terms[self.slot(cell)?] {
                if within(self.parity_cells[p]) {
                    terms.push((p, s, c));
                }
            }
        }
        terms.sort_unstable();
        let per_target = terms.chunk_by(|a, b| a.0 == b.0);
        let targets: Vec<CellIdx> = per_target
            .clone()
            .map(|step| self.parity_cells[step[0].0])
            .collect();
        let first_target = sources.len();
        let mut plan = Plan::builder(self.codec.clone(), sources, [], &targets);
        plan.reserve(targets.len(), terms.len());
        for (t, step) in per_target.enumerate() {
            plan.step(first_target + t, step.iter().map(|&(_, s, c)| (s, c)));
        }
        plan.finish().map(Cow::Owned)
    }
}

/// The one lookup a small write's plan ([`UpdateMap::plan`]) runs over:
/// each changed data cell reads as its delta `old ⊕ new`, and each target
/// parity is lent to the executor, which adds its step into it —
/// `parity ^= Σ c·Δ`, what a parity-delta update always meant, in one
/// pass over the parity. The provided [`crate::ErasureCode::update`]
/// holds one delta and a whole stripe's parities; `stair-store` holds a
/// write's accumulated deltas and only the parities its footprint staged.
#[derive(Debug)]
pub struct Patch<'a> {
    /// Bytes per sector.
    pub symbol: usize,
    /// The changed data cells' deltas.
    pub deltas: &'a BTreeMap<CellIdx, Vec<u8>>,
    /// The parities a plan may target, each once.
    pub parities: Vec<(CellIdx, &'a mut [u8])>,
}

impl CellLookup for Patch<'_> {
    fn symbol(&self) -> usize {
        self.symbol
    }

    fn source(&self, cell: CellIdx) -> Option<&[u8]> {
        self.deltas.get(&cell).map(Vec::as_slice)
    }

    /// Only a target the patch does not hold, or holds at another size,
    /// comes here: the ones it holds are lent.
    fn recovered(&mut self, cell: CellIdx, _: &[u8]) -> Result<(), CodeError> {
        Err(CodeError::Internal(format!(
            "{cell:?} is not a {}-byte parity this update holds",
            self.symbol
        )))
    }

    fn lend(&mut self, sources: &[CellIdx], targets: &[CellIdx]) -> Option<Lent<'_>> {
        let (deltas, sym) = (self.deltas, self.symbol);
        let sources = sources.iter().map(|c| {
            let delta = deltas.get(c)?;
            (delta.len() == sym).then_some(&delta[..])
        });
        // The targets to the front, in the plan's order.
        for (i, &t) in targets.iter().enumerate() {
            let at = self.parities.get(i..)?.iter().position(|(c, _)| *c == t)?;
            self.parities.swap(i, i + at);
        }
        let held = self.parities.get_mut(..targets.len())?.iter_mut();
        let targets = held.map(|(_, p)| (p.len() == sym).then_some(&mut **p));
        Some((
            sources.collect::<Option<_>>()?,
            targets.collect::<Option<_>>()?,
        ))
    }

    fn adds(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 2×3 toy: data (0,0),(0,1),(1,0); parities (0,2),(1,2),(1,1)
    /// with the dense relation below (0 = no dependence).
    fn toy() -> UpdateMap {
        let dense = [[3u16, 5, 0], [0, 0, 7], [2, 0, 9]];
        UpdateMap::new(
            id(),
            (2, 3),
            &[(0, 0), (0, 1), (1, 0)],
            &[(0, 2), (1, 2), (1, 1)],
            |p, d| dense[p][d],
        )
        .unwrap()
    }

    fn id() -> CodecId {
        CodecId {
            spec: "rs:3,2,1".parse().unwrap(),
            width: 8,
            outside_globals: false,
        }
    }

    #[test]
    fn dependents_are_the_nonzero_column_in_parity_order() {
        let map = toy();
        assert_eq!(map.dependents((0, 0)).unwrap(), &[(0, 2), (1, 1)]);
        assert_eq!(map.dependents((0, 1)).unwrap(), &[(0, 2)]);
        assert_eq!(map.dependents((1, 0)).unwrap(), &[(1, 2), (1, 1)]);
        for bad in [(0, 2), (1, 1), (2, 0), (0, 3)] {
            assert!(matches!(
                map.dependents(bad),
                Err(CodeError::InvalidPattern(_))
            ));
        }
    }

    #[test]
    fn a_plan_fuses_every_delta_per_parity_within_the_held_cells() {
        let map = toy();
        let all = map.plan(&[(1, 0), (0, 0), (0, 1)], &|_| true).unwrap();
        assert_eq!(all.sources(), &[(0, 0), (0, 1), (1, 0)]);
        assert_eq!(all.recovers(), &[(0, 2), (1, 2), (1, 1)]);
        assert_eq!(all.mult_xors(), 5, "one term per (cell, parity) pair");
        let steps: Vec<(usize, Vec<usize>, Vec<u16>)> = all
            .steps()
            .map(|(out, inputs, coeffs)| (out, inputs.to_vec(), coeffs.to_vec()))
            .collect();
        assert_eq!(steps[2], (5, vec![0, 2], vec![2, 9]));

        let held = map.plan(&[(0, 0)], &|c| c != (1, 1)).unwrap();
        assert_eq!(held.recovers(), &[(0, 2)]);
        assert!(matches!(held, Cow::Owned(_)));
        // One cell with every dependent held is the plan built at
        // construction, equal to one built for the call (a repeated cell).
        let single = map.plan(&[(0, 0)], &|_| true).unwrap();
        assert!(matches!(single, Cow::Borrowed(_)));
        let built = map.plan(&[(0, 0), (0, 0)], &|_| true).unwrap();
        assert!(matches!(built, Cow::Owned(_)));
        assert_eq!(single, built);
        assert!(matches!(
            map.plan(&[(1, 1)], &|_| true),
            Err(CodeError::InvalidPattern(_))
        ));
    }

    #[test]
    fn a_patch_adds_the_plan_into_its_parities() {
        let map = toy();
        let plan = map.plan(&[(0, 0), (1, 0)], &|_| true).unwrap();
        let deltas = BTreeMap::from([((0, 0), vec![1u8]), ((1, 0), vec![0u8])]);
        let mut parity = [[0x10u8], [0x20], [0x30]];
        let [a, b, c] = &mut parity;
        let held = [
            ((0, 2), &mut a[..]),
            ((1, 2), &mut b[..]),
            ((1, 1), &mut c[..]),
        ];
        let mut patch = Patch {
            symbol: 1,
            deltas: &deltas,
            parities: held.into(),
        };
        plan.execute(&id(), &mut patch).unwrap();
        // Δ(0,0) = 1 reaches (0,2) times 3 and (1,1) times 2.
        assert_eq!(parity, [[0x13], [0x20], [0x32]]);

        let mut none = Patch {
            symbol: 1,
            deltas: &deltas,
            parities: Vec::new(),
        };
        assert!(matches!(
            plan.execute(&id(), &mut none),
            Err(CodeError::Internal(_))
        ));
    }
}
