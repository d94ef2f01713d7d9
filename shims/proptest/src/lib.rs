//! Minimal API-compatible stand-in for the `proptest` crate.
//!
//! Implements the subset this workspace uses: the `Strategy` trait with
//! `prop_map`/`boxed`, `any::<T>()`, `Just`, ranges, tuples, weighted
//! unions (`prop_oneof!`), `prop::collection::vec`, `prop::option::of`,
//! the `proptest!` test macro, `ProptestConfig::with_cases`, and the
//! `prop_assert*` macros.
//!
//! Cases are generated from a deterministic per-case PRNG, so failures are
//! reproducible run to run. There is **no shrinking**: a failing case
//! reports its case index and panics with the assertion message.

pub mod strategy;
pub mod test_runner;

/// Namespaced strategy constructors, mirroring `proptest::prop`.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        pub use crate::strategy::vec;
    }
    /// `Option` strategies.
    pub mod option {
        pub use crate::strategy::option_of as of;
    }
}

/// The customary glob import, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::prop;
    pub use crate::strategy::{any, Arbitrary, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Weighted choice between strategies producing the same value type.
///
/// `prop_oneof![a, b]` picks uniformly; `prop_oneof![3 => a, 1 => b]` picks
/// `a` three times as often.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $((1u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
}

/// Asserts a condition inside a `proptest!` body, failing the current case
/// (with its inputs' case index) rather than panicking outright.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, $($fmt)*);
    }};
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

/// Declares property tests. Each `fn name(binding in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` generated inputs (attributes written
/// on the function, including `#[test]`, are passed through).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
    (@with_config ($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                for case in 0..config.cases {
                    let mut rng = $crate::test_runner::TestRng::for_case(
                        concat!(module_path!(), "::", stringify!($name)),
                        case,
                    );
                    $(let $pat = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                    let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    if let ::std::result::Result::Err(e) = outcome {
                        panic!(
                            "proptest case {}/{} of `{}` failed: {}",
                            case + 1,
                            config.cases,
                            stringify!($name),
                            e
                        );
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@with_config ($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}
