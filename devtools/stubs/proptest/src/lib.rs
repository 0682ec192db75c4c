//! Offline stub of `proptest`: random sampling without shrinking.
//!
//! Each `proptest!` test runs `cases` deterministic random samples of its
//! strategies (seeded per case index, so failures reproduce). On failure the
//! case number and message are reported; no shrinking is attempted. As in
//! the real crate, each property carries its own `#[test]` attribute: the
//! macro adds none, so a property is registered once.

/// Deterministic splitmix64 source used to sample strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0);
        self.next_u64() % n
    }
}

pub mod strategy {
    use super::TestRng;

    /// A generator of values of type `Self::Value`.
    pub trait Strategy {
        type Value;

        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy {
                inner: std::rc::Rc::new(self),
            }
        }
    }

    /// `prop_map` adapter.
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;

        fn sample(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// Type-erased strategy (used by `prop_oneof!`).
    #[derive(Clone)]
    pub struct BoxedStrategy<T> {
        inner: std::rc::Rc<dyn Strategy<Value = T>>,
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            self.inner.sample(rng)
        }
    }

    /// Uniform choice between boxed strategies.
    pub struct Union<T> {
        pub options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Strategy for Union<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.options.len() as u64) as usize;
            self.options[i].sample(rng)
        }
    }

    /// Always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! int_range_strategies {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start() as i128, *self.end() as i128);
                    assert!(lo <= hi, "empty strategy range");
                    (lo + rng.below((hi - lo + 1) as u64) as i128) as $t
                }
            }
        )*};
    }

    int_range_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            self.start + rng.next_f64() * (self.end - self.start)
        }
    }

    impl Strategy for std::ops::RangeInclusive<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            self.start() + rng.next_f64() * (self.end() - self.start())
        }
    }

    macro_rules! tuple_strategies {
        ($(($($name:ident $idx:tt),+))+) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        )+};
    }

    tuple_strategies! {
        (A 0)
        (A 0, B 1)
        (A 0, B 1, C 2)
        (A 0, B 1, C 2, D 3)
        (A 0, B 1, C 2, D 3, E 4)
        (A 0, B 1, C 2, D 3, E 4, F 5)
        (A 0, B 1, C 2, D 3, E 4, F 5, G 6)
        (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7)
    }
}

pub use strategy::{BoxedStrategy, Just, Strategy};

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_ints {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

arbitrary_ints!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        rng.next_f64()
    }
}

/// Strategy produced by [`any`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// `any::<T>()` — the full-range strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

pub mod option {
    use super::strategy::Strategy;
    use super::TestRng;

    /// `Some` three times out of four, like real proptest's default weight.
    pub struct OptionStrategy<S>(S);

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.0.sample(rng))
            }
        }
    }

    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use super::TestRng;
    use std::ops::Range;

    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start).max(1) as u64;
            let n = self.len.start + rng.below(span) as usize;
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }

    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }
}

pub mod bool_mod {
    /// `prop::bool::ANY`.
    #[derive(Debug, Clone, Copy)]
    pub struct BoolAny;

    impl super::strategy::Strategy for BoolAny {
        type Value = bool;

        fn sample(&self, rng: &mut super::TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    pub const ANY: BoolAny = BoolAny;
}

/// The `prop::` path namespace (`prop::bool::ANY`, `prop::collection`, ...).
pub mod prop {
    pub use super::bool_mod as bool;
    pub use super::collection;
    pub use super::option;
}

pub mod test_runner {
    /// Run configuration; only `cases` matters for the stub.
    #[derive(Debug, Clone)]
    pub struct Config {
        pub cases: u32,
    }

    impl Config {
        pub fn with_cases(cases: u32) -> Config {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Config {
            let cases = std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(64);
            Config { cases }
        }
    }
}

pub use test_runner::Config as ProptestConfig;

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err(format!(
                "assertion failed: {} ({}:{})",
                stringify!($cond),
                file!(),
                line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(format!($($fmt)+));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (left, right) = (&$a, &$b);
        if !(left == right) {
            return ::std::result::Result::Err(format!(
                "assertion failed: {} == {} (left: {:?}, right: {:?}, {}:{})",
                stringify!($a),
                stringify!($b),
                left,
                right,
                file!(),
                line!()
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$a, &$b);
        if !(left == right) {
            return ::std::result::Result::Err(format!($($fmt)+));
        }
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (left, right) = (&$a, &$b);
        if left == right {
            return ::std::result::Result::Err(format!(
                "assertion failed: {} != {} (both: {:?}, {}:{})",
                stringify!($a),
                stringify!($b),
                left,
                file!(),
                line!()
            ));
        }
    }};
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            // Discard the case (counts as passed in this stub).
            return ::std::result::Result::Ok(());
        }
    };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union {
            options: vec![$($crate::strategy::Strategy::boxed($strat)),+],
        }
    };
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { (<$crate::ProptestConfig as ::std::default::Default>::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::ProptestConfig = $cfg;
            for case in 0..cfg.cases as u64 {
                let mut rng = $crate::TestRng::new(
                    0xA076_1D64_78BD_642Fu64 ^ case.wrapping_mul(0x1000_0000_01B3),
                );
                $(let $arg = $crate::strategy::Strategy::sample(&($strat), &mut rng);)+
                let outcome: ::std::result::Result<(), ::std::string::String> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(msg) = outcome {
                    panic!("proptest case {case} failed: {msg}");
                }
            }
        }
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
}

pub mod prelude {
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::{any, prop, Arbitrary, ProptestConfig, TestRng};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn arb_even() -> impl Strategy<Value = u32> {
        (0u32..1000).prop_map(|n| n * 2)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3usize..17, y in 0.25f64..=0.75) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((0.25..=0.75).contains(&y));
        }

        #[test]
        fn mapped_strategies_apply(n in arb_even()) {
            prop_assert_eq!(n % 2, 0);
        }

        #[test]
        fn oneof_and_tuples(v in prop_oneof![(0u32..5).prop_map(|x| x as u64), any::<u64>()],
                            pair in (any::<bool>(), 1i64..9)) {
            let _ = v;
            prop_assert!(pair.1 >= 1 && pair.1 < 9);
        }

        #[test]
        fn collections_and_options(xs in prop::collection::vec(any::<u8>(), 0..10),
                                   o in prop::option::of(any::<u32>())) {
            prop_assert!(xs.len() < 10);
            let _ = o;
        }
    }
}
