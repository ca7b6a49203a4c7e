// Fixture: everything the one-executor rule must NOT flag — a codec that
// defines `encode_plan` beside its other required methods (a nested
// helper fn named `encode` is not a method of the impl), the codec's own
// inherent `encode` and `apply_plan` over its native stripe, another
// trait's `plan`/`apply`/`update`, and names that merely start with the
// provided ones.
pub struct Codec {
    encode: Plan,
}

impl<F: Field> ErasureCode for Codec<F> {
    fn encode_plan(&self) -> Result<&Plan, CodeError> {
        fn encode(n: usize) -> usize {
            n
        }
        encode(0);
        Ok(&self.encode)
    }

    fn plan_recover(&self, erased: &ErasureSet, wanted: &[CellIdx]) -> Result<Plan, CodeError> {
        self.peel(erased, wanted)
    }

    fn encode_with(&self) {}
}

impl Codec {
    pub fn encode(&self, stripe: &mut Stripe) -> Result<(), Error> {
        self.apply_plan(&self.encode, stripe)
    }

    pub fn apply_plan(&self, plan: &Plan, stripe: &mut Stripe) -> Result<(), Error> {
        Ok(plan.execute(&self.id, stripe)?)
    }
}

impl Scheduler for Codec {
    fn plan(&self) -> Schedule {
        Schedule::new()
    }

    fn apply(&self) {}

    fn update(&self) {}
}
