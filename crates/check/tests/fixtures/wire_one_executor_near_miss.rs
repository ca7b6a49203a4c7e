// Fixture: what the one-executor rule must NOT flag in a codec crate —
// the single-term kernel handed to `UpdateMap::fold`, and the fused
// kernels' names in comments and strings.
use stair_code::{CellIdx, CodeError, UpdateMap};
use stair_gf::Field;

// Encoding is `Plan::execute`'s: it alone calls F::mult_xor_regions.
/* Nor F::dot_regions: a delta is one term. */
pub fn fold_delta<F: Field>(
    updates: &UpdateMap,
    cell: CellIdx,
    parity: CellIdx,
    delta: &[u8],
    into: &mut [u8],
) -> Result<(), CodeError> {
    updates.fold(cell, parity, delta, into, F::mult_xor_region)
}

pub fn describe() -> &'static str {
    "mult_xor_regions and dot_regions are named in crates/code/src/plan.rs"
}
