//! Offline stand-in for `proptest`.
//!
//! Implements the subset of the proptest API this workspace's property
//! tests use: the [`Strategy`] trait with `prop_map`, `any::<T>()`, integer
//! range strategies, tuple strategies, [`collection::vec`] /
//! [`collection::btree_set`], [`ProptestConfig::with_cases`], and the
//! [`proptest!`] / [`prop_assert!`] / [`prop_assert_eq!`] /
//! [`prop_assume!`] macros.
//!
//! Differences from the real crate, acceptable for this workspace:
//!
//! * **no shrinking** — a failing case reports its inputs (tests carry
//!   them in panic messages via `assert!` formatting) but is not minimized;
//! * **deterministic seeding** — each test derives its RNG seed from the
//!   test name, so failures reproduce exactly; set `PROPTEST_SEED` to
//!   explore a different stream;
//! * `prop_assume!` skips the current case rather than drawing a
//!   replacement, so a test runs *up to* `cases` cases.

#![warn(missing_docs)]

use rand::rngs::SmallRng;
use rand::SeedableRng;

pub use rand::Rng as TestRngCore;

/// The RNG handed to strategies by the [`proptest!`] runner.
pub type TestRng = SmallRng;

/// Runner configuration; only `cases` is interpreted.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Real proptest defaults to 256; 64 keeps the workspace's heavier
        // codec properties fast while still exploring the space.
        ProptestConfig { cases: 64 }
    }
}

/// Builds the deterministic RNG for a named test, honouring
/// `PROPTEST_SEED` when set.
pub fn test_rng(test_name: &str) -> TestRng {
    let mut seed: u64 = 0xcbf29ce484222325; // FNV offset basis
    for b in test_name.bytes() {
        seed ^= b as u64;
        seed = seed.wrapping_mul(0x100000001b3);
    }
    if let Ok(extra) = std::env::var("PROPTEST_SEED") {
        if let Ok(x) = extra.trim().parse::<u64>() {
            seed ^= x;
        }
    }
    SmallRng::seed_from_u64(seed)
}

/// A generator of random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy adapter produced by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Always generates a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Draws an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_uint {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rand::Rng::gen::<$t>(rng)
            }
        }
    )*};
}

impl_arbitrary_uint!(u8, u16, u32, u64, usize, bool);

/// Marker strategy returned by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

/// The "any value of `T`" strategy.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                rand::Rng::gen_range(rng, self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                rand::Rng::gen_range(rng, self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! impl_tuple_strategy {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A: 0);
impl_tuple_strategy!(A: 0, B: 1);
impl_tuple_strategy!(A: 0, B: 1, C: 2);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4);

/// Collection strategies (`vec`, `btree_set`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::collections::BTreeSet;

    /// Lengths acceptable to [`vec()`]: a fixed size or a half-open range.
    pub trait SizeRange {
        /// Draws a concrete length.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for std::ops::Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            rand::Rng::gen_range(rng, self.clone())
        }
    }

    impl SizeRange for std::ops::RangeInclusive<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            rand::Rng::gen_range(rng, self.clone())
        }
    }

    /// Strategy for `Vec<S::Value>` with the given size.
    pub struct VecStrategy<S, L> {
        element: S,
        size: L,
    }

    /// Generates vectors whose elements come from `element`.
    pub fn vec<S: Strategy, L: SizeRange>(element: S, size: L) -> VecStrategy<S, L> {
        VecStrategy { element, size }
    }

    impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = self.size.pick(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Strategy for `BTreeSet<S::Value>` with exactly `size` distinct
    /// elements (caller must ensure the element domain is large enough).
    pub struct BTreeSetStrategy<S, L> {
        element: S,
        size: L,
    }

    /// Generates sets of distinct elements from `element`.
    pub fn btree_set<S, L>(element: S, size: L) -> BTreeSetStrategy<S, L>
    where
        S: Strategy,
        S::Value: Ord,
        L: SizeRange,
    {
        BTreeSetStrategy { element, size }
    }

    impl<S, L> Strategy for BTreeSetStrategy<S, L>
    where
        S: Strategy,
        S::Value: Ord,
        L: SizeRange,
    {
        type Value = BTreeSet<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let target = self.size.pick(rng);
            let mut set = BTreeSet::new();
            let mut attempts = 0usize;
            while set.len() < target {
                set.insert(self.element.generate(rng));
                attempts += 1;
                assert!(
                    attempts < 10_000 * (target + 1),
                    "btree_set strategy cannot reach {target} distinct elements; \
                     element domain too small?"
                );
            }
            set
        }
    }
}

/// Everything a property test module needs in scope.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Any, Arbitrary,
        Just, ProptestConfig, Strategy,
    };
}

/// Asserts a condition inside a property, reporting the failing case.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Skips the current case unless the precondition holds.
///
/// Must appear directly inside a [`proptest!`] body (it expands to
/// `continue` targeting the case loop).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            continue;
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            continue;
        }
    };
}

/// Declares property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { config = $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = $cfg:expr; $(
        $(#[$attr:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {
        $(
            $(#[$attr])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::test_rng(concat!(module_path!(), "::", stringify!($name)));
                for _case in 0..config.cases {
                    $(let $pat = $crate::Strategy::generate(&($strat), &mut rng);)+
                    $body
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[derive(Debug, Clone)]
    struct Pair {
        lo: usize,
        hi: usize,
    }

    fn arb_pair() -> impl Strategy<Value = Pair> {
        (0usize..100, 100usize..200).prop_map(|(lo, hi)| Pair { lo, hi })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds(a in 3usize..10, b in 0u8..=255) {
            prop_assert!((3..10).contains(&a));
            let _ = b;
        }

        #[test]
        fn mapped_strategies_compose(p in arb_pair(), seed in any::<u64>()) {
            prop_assume!(seed.is_multiple_of(2));
            prop_assert!(p.lo < p.hi, "lo {} hi {}", p.lo, p.hi);
        }

        #[test]
        fn collections_hit_requested_sizes(
            v in crate::collection::vec(any::<u8>(), 1..20),
            s in crate::collection::btree_set(0usize..50, 7),
        ) {
            prop_assert!(!v.is_empty() && v.len() < 20);
            prop_assert_eq!(s.len(), 7);
        }
    }

    #[test]
    fn seeding_is_deterministic_per_name() {
        use crate::Strategy;
        let s = crate::collection::vec(crate::any::<u64>(), 8);
        let a = s.generate(&mut crate::test_rng("x"));
        let b = s.generate(&mut crate::test_rng("x"));
        let c = s.generate(&mut crate::test_rng("y"));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
