//! Offline shim for `proptest`: the `proptest!` macro, the strategy
//! combinators this workspace uses, and a deterministic case runner.
//!
//! Differences from upstream: no shrinking (a failing case reports its
//! seed and case number instead of a minimized input), and `any::<T>()`
//! uses this shim's own generators. Case count defaults to 64 and can be
//! overridden with the `PROPTEST_CASES` environment variable.

use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};

mod regex_gen;

pub use regex_gen::RegexError;

/// Deterministic RNG used by strategies (xoshiro256++/SplitMix64).
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// Seed deterministically from a test-name hash and case index.
    pub fn new(seed: u64) -> TestRng {
        let mut sm = seed ^ 0xA076_1D64_78BD_642F;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        TestRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Why a test case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// Assertion failure: the property is violated.
    Fail(String),
    /// `prop_assume!` rejected the generated input.
    Reject(String),
}

impl TestCaseError {
    /// Construct a failure.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// Construct a rejection.
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

/// A generator of values of type `Value`.
pub trait Strategy {
    /// Generated type.
    type Value;

    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Type-erase (needed by `prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(std::rc::Rc::new(self))
    }
}

/// Type-erased strategy.
pub struct BoxedStrategy<T>(std::rc::Rc<dyn Strategy<Value = T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(self.0.clone())
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

// ---- range strategies -------------------------------------------------

/// Element types usable in range strategies. A single blanket impl per
/// range shape keeps type inference working for untyped literals
/// (`0..100` infers `i32`).
pub trait RangeValue: Sized + PartialOrd + Copy {
    /// Draw from `[lo, hi)` (`inclusive` false) or `[lo, hi]` (true).
    fn draw(lo: Self, hi: Self, inclusive: bool, rng: &mut TestRng) -> Self;
}

macro_rules! impl_range_value_int {
    ($($t:ty),*) => {$(
        impl RangeValue for $t {
            fn draw(lo: $t, hi: $t, inclusive: bool, rng: &mut TestRng) -> $t {
                let span = (hi as i128 - lo as i128) as u128 + inclusive as u128;
                let off = (rng.next_u64() as u128) % span;
                (lo as i128 + off as i128) as $t
            }
        }
    )*};
}
impl_range_value_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_range_value_float {
    ($($t:ty),*) => {$(
        impl RangeValue for $t {
            fn draw(lo: $t, hi: $t, _inclusive: bool, rng: &mut TestRng) -> $t {
                lo + (hi - lo) * rng.unit_f64() as $t
            }
        }
    )*};
}
impl_range_value_float!(f32, f64);

impl<T: RangeValue> Strategy for Range<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        assert!(self.start < self.end, "empty range strategy");
        T::draw(self.start, self.end, false, rng)
    }
}

impl<T: RangeValue> Strategy for RangeInclusive<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range strategy");
        T::draw(lo, hi, true, rng)
    }
}

// ---- literal strategies ----------------------------------------------

/// Always produce a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// A `&str` is a regex strategy producing matching strings.
impl Strategy for str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        regex_gen::Regex::parse(self)
            .unwrap_or_else(|e| panic!("bad regex strategy {self:?}: {e}"))
            .generate(rng)
    }
}

// ---- any::<T>() -------------------------------------------------------

/// Types with a full-domain generator.
pub trait Arbitrary: Sized {
    /// Draw an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Arbitrary bit patterns: exercises NaN, infinities, subnormals.
        f64::from_bits(rng.next_u64())
    }
}

impl Arbitrary for f32 {
    fn arbitrary(rng: &mut TestRng) -> f32 {
        f32::from_bits(rng.next_u64() as u32)
    }
}

impl Arbitrary for char {
    fn arbitrary(rng: &mut TestRng) -> char {
        // Bias toward ASCII, but include the full scalar-value range.
        if rng.next_u64() % 4 != 0 {
            (0x20 + rng.below(0x5F) as u32 as u8) as char
        } else {
            loop {
                if let Some(c) = char::from_u32(rng.below(0x11_0000) as u32) {
                    return c;
                }
            }
        }
    }
}

impl Arbitrary for String {
    fn arbitrary(rng: &mut TestRng) -> String {
        let len = rng.below(32) as usize;
        (0..len).map(|_| char::arbitrary(rng)).collect()
    }
}

macro_rules! impl_arbitrary_tuple {
    ($($name:ident),+) => {
        impl<$($name: Arbitrary),+> Arbitrary for ($($name,)+) {
            fn arbitrary(rng: &mut TestRng) -> Self {
                ($($name::arbitrary(rng),)+)
            }
        }
    };
}
impl_arbitrary_tuple!(A);
impl_arbitrary_tuple!(A, B);
impl_arbitrary_tuple!(A, B, C);
impl_arbitrary_tuple!(A, B, C, D);

/// Strategy produced by [`any`].
pub struct Any<T>(std::marker::PhantomData<fn() -> T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Full-domain strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

// ---- combinators ------------------------------------------------------

macro_rules! impl_strategy_tuple {
    ($(($name:ident, $idx:tt)),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}
impl_strategy_tuple!((A, 0), (B, 1));
impl_strategy_tuple!((A, 0), (B, 1), (C, 2));
impl_strategy_tuple!((A, 0), (B, 1), (C, 2), (D, 3));

/// Weighted union of strategies (`prop_oneof!`).
pub struct Union<T> {
    arms: Vec<(u32, BoxedStrategy<T>)>,
}

impl<T> Union<T> {
    /// Build from weighted arms (weights need not sum to anything).
    pub fn new_weighted(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let total: u64 = self.arms.iter().map(|(w, _)| *w as u64).sum();
        let mut pick = rng.below(total.max(1));
        for (w, s) in &self.arms {
            if pick < *w as u64 {
                return s.generate(rng);
            }
            pick -= *w as u64;
        }
        self.arms.last().unwrap().1.generate(rng)
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Vec of values from `element`, length drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// `proptest::collection::vec(element, len_range)`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty vec size range");
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + rng.below(span.max(1)) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// String strategies.
pub mod string {
    use super::regex_gen;

    /// Strategy generating strings matching `pattern` (subset of regex:
    /// literals, classes, groups, `?`, `*`, `+`, `{m,n}`, alternation).
    pub fn string_regex(pattern: &str) -> Result<regex_gen::Regex, regex_gen::RegexError> {
        regex_gen::Regex::parse(pattern)
    }
}

// ---- runner -----------------------------------------------------------

fn default_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// Execute `case` repeatedly with fresh inputs; panic on the first
/// failure, tolerate a bounded number of `prop_assume!` rejections.
pub fn run_proptest<F>(name: &str, mut case: F)
where
    F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
{
    let cases = default_cases();
    let mut hash: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    let mut passed = 0u32;
    let mut rejected = 0u32;
    let mut attempt = 0u64;
    let max_rejects = cases as u64 * 20;
    while passed < cases {
        let mut rng = TestRng::new(hash.wrapping_add(attempt));
        match case(&mut rng) {
            Ok(()) => passed += 1,
            Err(TestCaseError::Reject(why)) => {
                rejected += 1;
                if rejected as u64 > max_rejects {
                    panic!(
                        "proptest {name}: too many prop_assume! rejections \
                         ({rejected} rejects, {passed} passes; last: {why})"
                    );
                }
            }
            Err(TestCaseError::Fail(msg)) => {
                panic!(
                    "proptest {name}: case {} (seed {}) failed: {msg}",
                    passed + 1,
                    hash.wrapping_add(attempt)
                );
            }
        }
        attempt += 1;
    }
}

/// Assert a boolean property inside `proptest!` (early-returns `Err`).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} ({})",
                stringify!($cond),
                format!($($fmt)+)
            )));
        }
    };
}

/// Assert equality inside `proptest!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let left = &$left;
        let right = &$right;
        if !(*left == *right) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                left,
                right
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let left = &$left;
        let right = &$right;
        if !(*left == *right) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} == {}` ({})\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                format!($($fmt)+),
                left,
                right
            )));
        }
    }};
}

/// Assert inequality inside `proptest!`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let left = &$left;
        let right = &$right;
        if *left == *right {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                left
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let left = &$left;
        let right = &$right;
        if *left == *right {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} != {}` ({})\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                format!($($fmt)+),
                left
            )));
        }
    }};
}

/// Discard the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
}

/// Weighted choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strategy:expr),+ $(,)?) => {
        $crate::Union::new_weighted(vec![
            $(($weight as u32, {
                let strategy = $strategy;
                $crate::Strategy::boxed(strategy)
            }),)+
        ])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new_weighted(vec![
            $((1u32, {
                let strategy = $strategy;
                $crate::Strategy::boxed(strategy)
            }),)+
        ])
    };
}

/// Define property tests: each `fn name(x in strategy, ...) { body }`
/// becomes a `#[test]` running the body over generated inputs.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($pname:pat_param in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::run_proptest(stringify!($name), |rng| {
                    $(let $pname = $crate::Strategy::generate(&$strat, rng);)+
                    (|| -> ::std::result::Result<(), $crate::TestCaseError> {
                        $body
                        ::std::result::Result::Ok(())
                    })()
                });
            }
        )*
    };
}

/// Everything a test file needs in scope.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, BoxedStrategy, Just, Strategy, TestCaseError,
    };
    /// Nested-module access (`prop::collection::vec`).
    pub mod prop {
        pub use crate::{collection, string};
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_in_bounds(x in 0usize..100, y in -1e3f64..1e3, z in 1u32..=64) {
            prop_assert!(x < 100);
            prop_assert!((-1e3..1e3).contains(&y));
            prop_assert!((1..=64).contains(&z));
        }

        #[test]
        fn vec_lengths_respected(v in crate::collection::vec(any::<u8>(), 3..10)) {
            prop_assert!(v.len() >= 3 && v.len() < 10, "len {}", v.len());
        }

        #[test]
        fn regex_strings_match_shape(s in "[a-z]{1,8}") {
            prop_assert!(!s.is_empty() && s.len() <= 8);
            prop_assert!(s.bytes().all(|b| b.is_ascii_lowercase()));
        }

        #[test]
        fn assume_rejects_without_failing(n in 0u8..=255) {
            prop_assume!(n % 2 == 0);
            prop_assert!(n % 2 == 0);
        }

        #[test]
        fn oneof_mixes(v in prop_oneof![3 => 0i64..10, 1 => Just(-1i64)]) {
            prop_assert!(v == -1 || (0..10).contains(&v));
        }

        #[test]
        fn tuples_and_mut_bindings(mut xs in crate::collection::vec(any::<u64>(), 1..20),
                                   pair in any::<(usize, u8)>()) {
            xs.push(pair.0 as u64);
            prop_assert!(xs.len() >= 2);
        }
    }

    #[test]
    fn string_regex_optional_group() {
        let s = crate::string::string_regex("[a-z]{1,12}(/[a-z]{1,8})?").unwrap();
        let mut rng = crate::TestRng::new(42);
        let mut saw_slash = false;
        let mut saw_plain = false;
        for _ in 0..200 {
            let v = s.generate(&mut rng);
            if v.contains('/') {
                saw_slash = true;
                let (a, b) = v.split_once('/').unwrap();
                assert!((1..=12).contains(&a.len()));
                assert!((1..=8).contains(&b.len()));
            } else {
                saw_plain = true;
                assert!((1..=12).contains(&v.len()));
            }
        }
        assert!(saw_slash && saw_plain);
    }

    #[test]
    fn printable_class_range() {
        let s = crate::string::string_regex("[ -~]{0,20}").unwrap();
        let mut rng = crate::TestRng::new(1);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!(v.len() <= 20);
            assert!(v.bytes().all(|b| (0x20..=0x7E).contains(&b)));
        }
    }

    #[test]
    #[should_panic(expected = "failed")]
    fn failing_property_panics() {
        crate::run_proptest("always_fails", |_rng| {
            Err(crate::TestCaseError::fail("nope"))
        });
    }
}
