// Fixture: what the one-executor rule must NOT flag in a codec or store
// crate — the region kernels' names in comments and strings.
use stair_code::{CellIdx, CodeError, ErasureCode, Patch};

// Encoding is `Plan::execute`'s: it alone calls F::mult_xor_regions.
/* Nor F::dot_regions, nor F::mult_xor_region: a delta is a plan too. */
pub fn patch(codec: &dyn ErasureCode, cells: &[CellIdx], into: &mut Patch) -> Result<(), CodeError> {
    codec.update_plan(cells, &|_| true)?.execute(codec.codec_id(), into)
}

pub fn describe() -> &'static str {
    "mult_xor_regions, dot_regions and mult_xor_region are named in crates/code/src/plan.rs"
}
