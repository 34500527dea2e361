//! Offline stand-in for the [`proptest`](https://crates.io/crates/proptest)
//! property-testing crate.
//!
//! The workspace builds with no network access, so this crate provides
//! the exact macro-and-trait surface its property tests use — the
//! [`proptest!`] macro (with `#![proptest_config(..)]` support), the
//! [`Strategy`] trait with [`Strategy::prop_map`], range / tuple /
//! [`Just`] / [`prop_oneof!`] / [`collection::vec`] strategies, and the
//! [`prop_assert!`] / [`prop_assert_eq!`] assertion forms.
//!
//! Semantics: each test samples its strategies from a deterministic
//! per-test generator (seeded from the test's module path and name) and
//! runs [`ProptestConfig::cases`] cases. Unlike upstream proptest there
//! is no shrinking — a failing case reports the case number and message
//! and the deterministic seeding makes the failure reproducible on every
//! run, which is what the simulator's CI discipline needs.
//!
//! ```
//! use proptest::prelude::*;
//!
//! // In a real test module the function would also carry #[test]; this
//! // doctest invokes it directly instead.
//! proptest! {
//!     fn addition_commutes(a in 0u32..1000, b in 0u32..1000) {
//!         prop_assert_eq!(a + b, b + a);
//!     }
//! }
//! addition_commutes();
//! ```

#![warn(missing_docs)]

use std::fmt;

/// Everything tests import (`use proptest::prelude::*`).
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Just, ProptestConfig,
        Strategy, TestCaseError,
    };
}

// ---------------------------------------------------------------------
// Configuration and errors.
// ---------------------------------------------------------------------

/// Per-test run configuration.
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of random cases the test body runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Upstream defaults to 256; 64 keeps whole-workspace test runs
        // fast while still exercising each property broadly. Tests that
        // need a specific count set it via `#![proptest_config(..)]`.
        ProptestConfig { cases: 64 }
    }
}

/// A failed property-test case (carried by `return Err(..)` out of the
/// generated test body; the harness turns it into a panic).
#[derive(Clone, Debug)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// An error with message `msg`.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError {
            message: msg.into(),
        }
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

// ---------------------------------------------------------------------
// Deterministic test generator.
// ---------------------------------------------------------------------

/// The deterministic generator behind each property test.
pub mod test_runner {
    /// SplitMix64 over a seed hashed from the test's full name: stable
    /// across runs and across test-order permutations.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// A generator keyed to `name` (typically `module_path!() +
        /// test name`).
        pub fn deterministic(name: &str) -> Self {
            // FNV-1a over the name, folded into a nonzero seed.
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in name.as_bytes() {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng { state: h | 1 }
        }

        /// The next raw 64 bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform draw from `[0, n)`; `n` must be nonzero.
        pub fn below(&mut self, n: u64) -> u64 {
            debug_assert!(n > 0);
            ((self.next_u64() as u128 * n as u128) >> 64) as u64
        }

        /// Uniform draw from `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

use test_runner::TestRng;

// ---------------------------------------------------------------------
// Strategies.
// ---------------------------------------------------------------------

/// A recipe for generating values of [`Strategy::Value`].
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draw one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (**self).sample(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (**self).sample(rng)
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Clone, Copy, Debug)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// The result of [`Strategy::prop_map`].
#[derive(Clone, Copy, Debug)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i32, i64);

impl Strategy for core::ops::Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + (self.end - self.start) * rng.unit_f64()
    }
}

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    };
}

tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);

/// A uniform choice among boxed alternatives (built by [`prop_oneof!`]).
pub struct OneOf<T> {
    options: Vec<Box<dyn Strategy<Value = T>>>,
}

impl<T> core::fmt::Debug for OneOf<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("OneOf")
            .field("options", &self.options.len())
            .finish()
    }
}

impl<T> Strategy for OneOf<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.options.len() as u64) as usize;
        self.options[i].sample(rng)
    }
}

/// Build a [`OneOf`] from boxed alternatives — the target of
/// [`prop_oneof!`]; call directly when the macro form is inconvenient.
pub fn one_of<T>(options: Vec<Box<dyn Strategy<Value = T>>>) -> OneOf<T> {
    assert!(!options.is_empty(), "prop_oneof! needs at least one option");
    OneOf { options }
}

/// Collection strategies (mirrors `proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// A `Vec` whose length is drawn from `len` and whose elements are
    /// drawn from `element`.
    pub fn vec<S: Strategy>(element: S, len: core::ops::Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end || len.start == 0, "bad length range");
        VecStrategy { element, len }
    }

    /// The result of [`vec()`].
    #[derive(Debug)]
    pub struct VecStrategy<S> {
        element: S,
        len: core::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start).max(1) as u64;
            let n = self.len.start + rng.below(span) as usize;
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

// ---------------------------------------------------------------------
// Macros.
// ---------------------------------------------------------------------

/// Define deterministic property tests.
///
/// Accepts the upstream surface the workspace uses: an optional leading
/// `#![proptest_config(expr)]`, then any number of `#[test] fn name(pat
/// in strategy, ..) { body }` items. Each body runs once per case and
/// may `return Ok(())` early or fail via [`prop_assert!`] /
/// [`prop_assert_eq!`].
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; $(
        $(#[$attr:meta])*
        fn $name:ident( $($arg:pat in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$attr])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::test_runner::TestRng::deterministic(
                concat!(module_path!(), "::", stringify!($name)),
            );
            for __case in 0..__cfg.cases {
                let __outcome: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                    let ($($arg,)+) =
                        ($($crate::Strategy::sample(&($strat), &mut __rng),)+);
                    $body
                    #[allow(unreachable_code)]
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(__e) = __outcome {
                    panic!(
                        "proptest {}: case {}/{} failed: {}",
                        stringify!($name),
                        __case + 1,
                        __cfg.cases,
                        __e
                    );
                }
            }
        }
    )*};
}

/// A uniform choice among strategies yielding the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::one_of(vec![$(::std::boxed::Box::new($strat)),+])
    };
}

/// Assert a condition inside a property-test body; failure aborts the
/// case with an optional formatted message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Assert equality inside a property-test body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?} == {:?}`",
                __l, __r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?} == {:?}`: {}",
                __l,
                __r,
                format!($($fmt)+)
            )));
        }
    }};
}

/// Assert inequality inside a property-test body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if *__l == *__r {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?} != {:?}`",
                __l, __r
            )));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Kind {
        A,
        B,
    }

    fn arb_kind() -> impl Strategy<Value = Kind> {
        prop_oneof![Just(Kind::A), Just(Kind::B)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(50))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u32..17, y in -5i64..5, z in 0.25f64..0.75) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-5..5).contains(&y));
            prop_assert!((0.25..0.75).contains(&z));
        }

        #[test]
        fn tuples_and_vecs(pair in (0u32..10, 0u32..10),
                           mut xs in crate::collection::vec(0u64..100, 1..20)) {
            prop_assert!(pair.0 < 10 && pair.1 < 10);
            prop_assert!(!xs.is_empty() && xs.len() < 20);
            xs.sort_unstable();
            prop_assert!(xs.windows(2).all(|w| w[0] <= w[1]));
        }

        #[test]
        fn oneof_and_map(k in arb_kind(),
                         doubled in (1u32..50).prop_map(|v| v * 2)) {
            prop_assert!(k == Kind::A || k == Kind::B);
            prop_assert_eq!(doubled % 2, 0);
            if doubled > 200 {
                return Ok(()); // unreachable; exercises early-return form
            }
        }
    }

    #[test]
    fn deterministic_across_instances() {
        use crate::test_runner::TestRng;
        let mut a = TestRng::deterministic("some::test");
        let mut b = TestRng::deterministic("some::test");
        assert_eq!(
            (0..64).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..64).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
        let mut c = TestRng::deterministic("some::other");
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn failing_case_panics_with_context() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(3))]
            fn always_fails(x in 0u32..10) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        let err = std::panic::catch_unwind(always_fails).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("case 1/3"), "got panic message: {msg}");
    }
}
