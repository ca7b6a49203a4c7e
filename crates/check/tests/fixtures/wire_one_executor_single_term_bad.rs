// Fixture: a small write beside the update plan — the single-term kernel
// handed on to a per-parity fold, and called on a delta directly.
use stair_code::{CellIdx, CodeError, UpdateMap};
use stair_gf::Field;

pub fn fold_delta<F: Field>(
    updates: &UpdateMap,
    cell: CellIdx,
    parity: CellIdx,
    delta: &[u8],
    into: &mut [u8],
) -> Result<(), CodeError> {
    updates.fold(cell, parity, delta, into, F::mult_xor_region)
}

pub fn patch<F: Field>(into: &mut [u8], delta: &[u8], c: F::Elem) {
    F::mult_xor_region(into, delta, c);
}
