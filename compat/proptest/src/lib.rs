//! Offline stand-in for the `proptest` crate.
//!
//! The build container cannot reach crates.io, so the workspace vendors
//! the subset of proptest it uses: the [`Strategy`] trait with
//! `prop_map`, [`any`] for primitives and arrays, range strategies,
//! tuple composition, [`collection::vec`], [`array::uniform16`], a
//! character-class string strategy, and the [`proptest!`],
//! [`prop_oneof!`], [`prop_assert!`] and [`prop_assert_eq!`] macros.
//!
//! Semantics match upstream where it matters for these tests: each case
//! draws fresh random inputs from a deterministic generator and a failed
//! `prop_assert*` aborts the case with a readable message. Shrinking is
//! intentionally not implemented — a failure reports the un-shrunk
//! inputs.

use std::fmt;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

use rand::rngs::StdRng;
use rand::Rng;

/// The generator threaded through every strategy.
pub type TestRng = StdRng;

/// A failed property case (carried by `prop_assert*`).
#[derive(Clone, Debug)]
pub struct TestCaseError(pub String);

impl TestCaseError {
    /// Creates a failure with the given message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Runner configuration (the subset used: case count).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// A generator of random values of one type.
pub trait Strategy {
    /// The type of the generated values.
    type Value;

    /// Draws one value.
    fn new_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<T, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy for heterogeneous composition.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> T {
        (**self).new_value(rng)
    }
}

/// The result of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> T {
        (self.f)(self.inner.new_value(rng))
    }
}

/// Always yields a clone of the held value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn new_value(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between boxed alternatives (built by [`prop_oneof!`]).
pub struct Union<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Creates a union over `options`.
    ///
    /// # Panics
    ///
    /// Panics if `options` is empty.
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
        Union { options }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> T {
        let i = rng.gen_range(0..self.options.len());
        self.options[i].new_value(rng)
    }
}

/// Types with a canonical "anything goes" strategy.
pub trait Arbitrary: Sized {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.gen::<u64>() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.gen()
    }
}

impl Arbitrary for f32 {
    /// Arbitrary bit patterns — including infinities and NaNs, which the
    /// wire-format roundtrip tests rely on exercising.
    fn arbitrary(rng: &mut TestRng) -> Self {
        f32::from_bits(rng.gen::<u32>())
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        f64::from_bits(rng.gen::<u64>())
    }
}

impl<T: Arbitrary, const N: usize> Arbitrary for [T; N] {
    fn arbitrary(rng: &mut TestRng) -> Self {
        core::array::from_fn(|_| T::arbitrary(rng))
    }
}

/// Strategy yielding unconstrained values of `T`.
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for `T` (mirrors `proptest::arbitrary::any`).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

/// Simple character-class string strategy.
///
/// Interprets the exact pattern shape `[<lo>-<hi>]{min,max}` the way the
/// real regex strategy would; any other pattern falls back to printable
/// ASCII of length 0–32.
impl Strategy for &str {
    type Value = String;
    fn new_value(&self, rng: &mut TestRng) -> String {
        let (lo, hi, min, max) = parse_charclass(self).unwrap_or((b' ', b'~', 0, 32));
        let len = rng.gen_range(min..=max);
        (0..len).map(|_| rng.gen_range(lo..=hi) as char).collect()
    }
}

fn parse_charclass(pattern: &str) -> Option<(u8, u8, usize, usize)> {
    let bytes = pattern.as_bytes();
    // Shape: [ x - y ] { min , max }
    if bytes.len() < 9 || bytes[0] != b'[' || bytes[2] != b'-' || bytes[4] != b']' {
        return None;
    }
    let rest = pattern.get(5..)?;
    let inner = rest.strip_prefix('{')?.strip_suffix('}')?;
    let (min, max) = inner.split_once(',')?;
    Some((
        bytes[1],
        bytes[3],
        min.trim().parse().ok()?,
        max.trim().parse().ok()?,
    ))
}

macro_rules! impl_tuple_strategy {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.new_value(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A: 0);
impl_tuple_strategy!(A: 0, B: 1);
impl_tuple_strategy!(A: 0, B: 1, C: 2);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

/// Collection strategies (mirrors `proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// Accepted element-count specifications for [`vec()`].
    pub trait SizeRange {
        /// Draws a length.
        fn sample_len(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for Range<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    impl SizeRange for RangeInclusive<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    impl SizeRange for usize {
        fn sample_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    /// Strategy for vectors of `element` with a length in `size`.
    pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }

    /// The result of [`vec()`].
    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.sample_len(rng);
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

/// Fixed-size array strategies (mirrors `proptest::array`).
pub mod array {
    use super::{Strategy, TestRng};

    /// Strategy for `[T; 16]` drawing each element from `element`.
    pub fn uniform16<S: Strategy>(element: S) -> Uniform<S, 16> {
        Uniform { element }
    }

    /// An `N`-element array strategy.
    pub struct Uniform<S, const N: usize> {
        element: S,
    }

    impl<S: Strategy, const N: usize> Strategy for Uniform<S, N> {
        type Value = [S::Value; N];
        fn new_value(&self, rng: &mut TestRng) -> [S::Value; N] {
            core::array::from_fn(|_| self.element.new_value(rng))
        }
    }
}

/// Everything a property test module needs in scope.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Arbitrary,
        BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError,
    };

    /// Namespaced access to submodule strategies (`prop::collection::vec`).
    pub mod prop {
        pub use crate::array;
        pub use crate::collection;
    }
}

/// Runtime support for the macros (callers need not depend on `rand`).
#[doc(hidden)]
pub mod __rt {
    pub use rand::SeedableRng;
}

/// Uniform choice among strategies of a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strategy)),+])
    };
}

/// Asserts a condition inside a property, failing the case (not the
/// process) so the runner can report the generated inputs.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: {:?} != {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, $($fmt)*);
    }};
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, "assertion failed: both sides = {:?}", l);
    }};
}

/// Declares property tests: each `fn` runs `cases` times with fresh
/// random inputs drawn from the given strategies.
#[macro_export]
macro_rules! proptest {
    (@cfg ($config:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            // Seed derived from the test name so sibling properties draw
            // independent streams, deterministically across runs.
            let mut __seed: u64 = 0xcbf2_9ce4_8422_2325;
            for b in stringify!($name).bytes() {
                __seed ^= b as u64;
                __seed = __seed.wrapping_mul(0x0000_0100_0000_01b3);
            }
            let mut __rng = <$crate::TestRng as $crate::__rt::SeedableRng>::seed_from_u64(__seed);
            for __case in 0..config.cases {
                let __result: ::core::result::Result<(), $crate::TestCaseError> = {
                    $(let $arg = $crate::Strategy::new_value(&($strategy), &mut __rng);)+
                    #[allow(clippy::redundant_closure_call)]
                    (|| { $body ::core::result::Result::Ok(()) })()
                };
                if let ::core::result::Result::Err(e) = __result {
                    panic!("proptest case {}/{} failed: {}", __case + 1, config.cases, e);
                }
            }
        }
    )*};
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::proptest!(@cfg ($config) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg ($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn oneof_and_map_compose() {
        let strat = prop_oneof![Just(1u32), (2u32..10).prop_map(|v| v * 2)];
        let mut rng = <crate::TestRng as rand::SeedableRng>::seed_from_u64(1);
        for _ in 0..100 {
            let v = strat.new_value(&mut rng);
            assert!(v == 1 || (4..20).contains(&v));
        }
    }

    #[test]
    fn charclass_parses() {
        let mut rng = <crate::TestRng as rand::SeedableRng>::seed_from_u64(2);
        for _ in 0..50 {
            let s = "[ -~]{0,64}".new_value(&mut rng);
            assert!(s.len() <= 64);
            assert!(s.bytes().all(|b| (b' '..=b'~').contains(&b)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn vectors_respect_bounds(v in prop::collection::vec(any::<u8>(), 1..9)) {
            prop_assert!((1..9).contains(&v.len()));
        }

        #[test]
        fn tuples_draw_independently((a, b) in (0u32..10, 10u32..20)) {
            prop_assert!(a < 10);
            prop_assert!((10..20).contains(&b));
        }
    }
}
