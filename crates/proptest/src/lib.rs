//! Offline stand-in for the `proptest` crate.
//!
//! The build environment for this repository cannot reach a crate
//! registry, so the workspace vendors the subset of proptest it uses:
//! the [`proptest!`] macro, [`strategy::Strategy`] with `prop_map`,
//! integer-range and tuple strategies, [`arbitrary::any`],
//! [`collection::vec`], and [`sample::select`].
//!
//! Differences from upstream, deliberately accepted:
//!
//! * **No shrinking.** A failing case reports its inputs via the assert
//!   message (every call site formats its inputs) but is not minimized.
//! * **Deterministic cases.** Each test function derives its RNG stream
//!   from its own name, so runs are reproducible and CI-stable; upstream
//!   reseeds per run.

#![forbid(unsafe_code)]

/// Strategy trait and combinators.
pub mod strategy {
    use crate::test_runner::TestRng;
    use core::marker::PhantomData;
    use core::ops::{Range, RangeInclusive};

    /// A recipe for generating values of `Value`.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Generates one value.
        fn new_value(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    #[derive(Clone, Debug)]
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn new_value(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.new_value(rng))
        }
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn new_value(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let v = (u128::from(rng.next_u64()) % span) as i128;
                    (self.start as i128 + v) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128) as u128 + 1;
                    let v = (u128::from(rng.next_u64()) % span) as i128;
                    (lo as i128 + v) as $t
                }
            }
        )*};
    }
    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! tuple_strategy {
        ($(($($n:ident),+))*) => {$(
            #[allow(non_snake_case)]
            impl<$($n: Strategy),+> Strategy for ($($n,)+) {
                type Value = ($($n::Value,)+);
                fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($n,)+) = self;
                    ($($n.new_value(rng),)+)
                }
            }
        )*};
    }
    tuple_strategy! {
        (A)
        (A, B)
        (A, B, C)
        (A, B, C, D)
        (A, B, C, D, E)
        (A, B, C, D, E, F)
    }

    /// Strategy for [`crate::arbitrary::any`].
    #[derive(Clone, Debug)]
    pub struct Any<T>(pub(crate) PhantomData<T>);

    impl<T: crate::arbitrary::Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            T::arbitrary_value(rng)
        }
    }
}

/// `any::<T>()` for primitive types.
pub mod arbitrary {
    use crate::strategy::Any;
    use crate::test_runner::TestRng;
    use core::marker::PhantomData;

    /// Types with a default generation strategy.
    pub trait Arbitrary: Sized {
        /// Draws one value.
        fn arbitrary_value(rng: &mut TestRng) -> Self;
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary_value(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary_value(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    /// The default strategy for `T`.
    #[must_use]
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

/// Collection strategies.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use core::ops::{Range, RangeInclusive};

    /// Admissible element-count specifications for [`vec()`].
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi_incl: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi_incl: n }
        }
    }
    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                lo: r.start,
                hi_incl: r.end - 1,
            }
        }
    }
    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            Self {
                lo: *r.start(),
                hi_incl: *r.end(),
            }
        }
    }

    /// Strategy returned by [`vec()`].
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi_incl - self.size.lo) as u64 + 1;
            let len = self.size.lo + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }

    /// A vector of `size` elements generated by `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Sampling strategies.
pub mod sample {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy returned by [`select`].
    #[derive(Clone, Debug)]
    pub struct Select<T: Clone> {
        options: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            let i = (rng.next_u64() % self.options.len() as u64) as usize;
            self.options[i].clone()
        }
    }

    /// Uniformly selects one of `options`.
    ///
    /// # Panics
    ///
    /// Panics when `options` is empty.
    #[must_use]
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select requires at least one option");
        Select { options }
    }
}

/// Test-runner configuration and RNG.
pub mod test_runner {
    /// Per-test configuration (only `cases` is honoured by the stand-in).
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of cases each test executes.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self { cases: 256 }
        }
    }

    impl ProptestConfig {
        /// A configuration running `cases` cases.
        #[must_use]
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    /// Deterministic xorshift64* generator driving value generation.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// RNG for one `(test name, case index)` pair: every case gets an
        /// independent, reproducible stream.
        #[must_use]
        pub fn for_case(test_name: &str, case: u32) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in test_name.bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
            h = (h ^ u64::from(case)).wrapping_mul(0x100_0000_01b3);
            // splitmix64 finalizer; xorshift state must be nonzero.
            let mut z = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            Self { state: z | 1 }
        }

        /// Next word of the stream.
        pub fn next_u64(&mut self) -> u64 {
            let mut x = self.state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.state = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }
    }
}

/// The customary glob import.
pub mod prelude {
    /// Alias of the crate root (upstream exposes the same alias).
    pub use crate as prop;
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Asserts a condition inside a proptest case (no shrinking: panics).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a proptest case (no shrinking: panics).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a proptest case (no shrinking: panics).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Declares property tests: each `fn` runs `config.cases` times with
/// fresh strategy-generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr)
      $( $(#[$meta:meta])*
         fn $name:ident ( $($pat:pat in $strat:expr),+ $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                for case in 0..config.cases {
                    let mut rng = $crate::test_runner::TestRng::for_case(
                        concat!(module_path!(), "::", stringify!($name)),
                        case,
                    );
                    $(
                        let $pat =
                            $crate::strategy::Strategy::new_value(&($strat), &mut rng);
                    )+
                    $body
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_and_tuples_generate_in_bounds() {
        let mut rng = TestRng::for_case("unit", 0);
        let s = (0usize..5, -8i64..=8, any::<bool>());
        for _ in 0..500 {
            let (a, b, _c) = s.new_value(&mut rng);
            assert!(a < 5);
            assert!((-8..=8).contains(&b));
        }
    }

    #[test]
    fn vec_lengths_respect_size_range() {
        let mut rng = TestRng::for_case("unit-vec", 0);
        let s = crate::collection::vec(0u64..10, 1..4);
        for _ in 0..200 {
            let v = s.new_value(&mut rng);
            assert!((1..=3).contains(&v.len()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_binds_patterns((a, b) in (0u32..10, 0u32..10), c in any::<bool>()) {
            prop_assert!(a < 10 && b < 10);
            let _ = c;
        }
    }
}
