//! Type-erased decoding plans.

use std::any::Any;

use crate::CellIdx;

/// A reusable recovery recipe for one erasure pattern.
///
/// Plans separate the expensive part of decoding (solving for recovery
/// coefficients, scheduling peeling steps) from the cheap part (streaming
/// byte regions through the coefficients), so one plan repairs any number
/// of stripes carrying the same pattern — the idiom `stair-store` uses
/// for whole-device rebuilds.
///
/// The `detail` payload is codec-private: each [`crate::ErasureCode`]
/// implementation stores its own schedule/matrix type and downcasts it in
/// `apply`. Handing a plan to a different codec yields
/// [`crate::CodeError::InvalidPattern`], not a wrong answer.
///
/// A plan also names its [`sources`](Plan::sources): the stored cells
/// `apply` reads. A caller holding a stripe on disk loads those and
/// nothing else — which is why no plan can be built without them.
#[derive(Debug)]
pub struct Plan {
    recovers: Vec<CellIdx>,
    sources: Vec<CellIdx>,
    mult_xors: Option<usize>,
    detail: Box<dyn Any + Send + Sync>,
}

impl Plan {
    /// Wraps a codec-private plan payload that reconstructs `recovers`
    /// from `sources` (any order, duplicates allowed).
    pub fn new(
        recovers: Vec<CellIdx>,
        mut sources: Vec<CellIdx>,
        detail: impl Any + Send + Sync,
    ) -> Self {
        sources.sort_unstable();
        sources.dedup();
        Plan {
            recovers,
            sources,
            mult_xors: None,
            detail: Box::new(detail),
        }
    }

    /// Attaches the planned `Mult_XOR` count (the paper's decoding-cost
    /// metric), where the codec can compute it.
    pub fn with_mult_xors(mut self, count: usize) -> Self {
        self.mult_xors = Some(count);
        self
    }

    /// The cells this plan reconstructs.
    pub fn recovers(&self) -> &[CellIdx] {
        &self.recovers
    }

    /// The stored cells `apply` reads and does not itself produce,
    /// sorted and duplicate-free: with these holding their true contents
    /// (and anything at all everywhere else), `apply` reconstructs every
    /// cell of [`Plan::recovers`]. Disjoint from the erased set the plan
    /// was built for.
    pub fn sources(&self) -> &[CellIdx] {
        &self.sources
    }

    /// Planned `Mult_XOR` operations per stripe, if the codec reports it.
    pub fn mult_xors(&self) -> Option<usize> {
        self.mult_xors
    }

    /// Borrows the codec-private payload, if it is a `T`.
    pub fn detail<T: Any>(&self) -> Option<&T> {
        self.detail.downcast_ref::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detail_downcasts_to_the_stored_type_only() {
        let sources = vec![(1, 1), (0, 0), (1, 1)];
        let plan = Plan::new(vec![(0, 1)], sources, String::from("payload")).with_mult_xors(7);
        assert_eq!(plan.recovers(), &[(0, 1)]);
        assert_eq!(plan.sources(), &[(0, 0), (1, 1)]);
        assert_eq!(plan.mult_xors(), Some(7));
        assert_eq!(plan.detail::<String>().unwrap(), "payload");
        assert!(plan.detail::<usize>().is_none());
    }
}
