// Fixture: a second encoder and decoder beside `Plan::execute` — a codec
// that overrides the provided `encode` and `apply`, and one that writes
// its own `plan`, `dependents` and `update` and never defines its encode
// plan.
pub struct Fork {
    encode: Plan,
}

impl ErasureCode for Fork {
    fn encode_plan(&self) -> Result<&Plan, CodeError> {
        Ok(&self.encode)
    }

    fn encode(&self, stripe: &mut StripeBuf) -> Result<(), CodeError> {
        dense_loop(stripe)
    }

    fn apply(&self, plan: &Plan, stripe: &mut StripeBuf) -> Result<(), CodeError> {
        canvas(plan, stripe)
    }
}

pub struct Legacy<F>(F);

impl<F: Field> stair_code::ErasureCode for Legacy<F> {
    fn plan(&self, erased: &ErasureSet) -> Result<Plan, CodeError> {
        solve(erased)
    }

    fn dependents(&self, cell: CellIdx) -> Result<&[CellIdx], CodeError> {
        self.updates.dependents(cell)
    }

    fn update(&self, stripe: &mut StripeBuf, cell: CellIdx, new: &[u8]) -> Result<Vec<CellIdx>, CodeError> {
        patch(stripe, cell, new)
    }
}
