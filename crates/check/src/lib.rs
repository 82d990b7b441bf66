//! In-tree property-based testing.
//!
//! A minimal, dependency-free replacement for the `proptest` slice the
//! workspace uses: integer-range and `Vec` strategies, a [`props!`]
//! macro that declares `#[test]` functions over generated inputs, and
//! greedy shrinking toward a minimal counterexample.
//!
//! ```
//! use check::prelude::*;
//!
//! props! {
//!     #![cases(64)]
//!
//!     #[test]
//!     fn addition_commutes(a in 0u64..1000, b in 0u64..1000) {
//!         prop_assert_eq!(a + b, b + a);
//!     }
//! }
//! ```
//!
//! Failures print the seed, the case number, and the shrunken inputs.
//! Runs are deterministic: the per-test seed is derived from the test
//! name, XORed with `TDF_CHECK_SEED` when set. `TDF_CHECK_CASES`
//! overrides the case count globally (useful for a quick CI smoke pass
//! or an overnight soak).

// `#[test]` inside the doctest above is the `props!` grammar, not a unit
// test that expects to run.
#![allow(clippy::test_attr_in_doctest)]

pub mod strategy;

pub use strategy::{any, vec, Strategy};

use rngkit::{SeedableRng, StdRng};

/// Why a single generated case did not pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestCaseError {
    /// The case was rejected by `prop_assume!` — generate another.
    Reject,
    /// The property failed with this message.
    Fail(String),
}

impl TestCaseError {
    /// A failure with a message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }
}

/// Outcome of a property body.
pub type CaseResult = Result<(), TestCaseError>;

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of successful cases required.
    pub cases: u32,
    /// Maximum rejected cases (`prop_assume!`) before giving up.
    pub max_rejects: u32,
    /// Maximum shrink steps explored after a failure.
    pub max_shrink_steps: u32,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            cases: 64,
            max_rejects: 4096,
            max_shrink_steps: 2048,
        }
    }
}

impl Config {
    /// A config running `cases` cases (other limits default).
    pub fn with_cases(cases: u32) -> Self {
        Self {
            cases,
            ..Default::default()
        }
    }

    fn effective_cases(&self) -> u32 {
        match std::env::var("TDF_CHECK_CASES") {
            Ok(v) => v.parse().unwrap_or(self.cases),
            Err(_) => self.cases,
        }
    }
}

fn env_seed() -> u64 {
    std::env::var("TDF_CHECK_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Runs `prop` over `cfg.cases` inputs drawn from `strat`, shrinking any
/// counterexample before panicking. This is what [`props!`] expands to;
/// call it directly for one-off checks with a custom strategy.
pub fn run<S, F>(name: &str, cfg: &Config, strat: &S, prop: F)
where
    S: Strategy,
    F: Fn(S::Value) -> CaseResult,
{
    // Per-test base seed: the FNV-1a hash of the test name.
    let seed = rngkit::fnv1a(name.as_bytes()) ^ env_seed();
    let mut rng = StdRng::seed_from_u64(seed);
    let cases = cfg.effective_cases();
    let mut rejects = 0u32;
    let mut passed = 0u32;
    while passed < cases {
        let value = strat.generate(&mut rng);
        match prop(value.clone()) {
            Ok(()) => passed += 1,
            Err(TestCaseError::Reject) => {
                rejects += 1;
                assert!(
                    rejects <= cfg.max_rejects,
                    "property `{name}`: too many rejected cases \
                     ({rejects} rejects for {passed} passes) — loosen prop_assume!"
                );
            }
            Err(TestCaseError::Fail(msg)) => {
                let (min_value, min_msg, steps) = shrink_failure(cfg, strat, &prop, value, msg);
                panic!(
                    "property `{name}` failed after {} passing case(s) \
                     (seed {seed}, {steps} shrink step(s)).\n\
                     minimal input: {:?}\n{}",
                    passed, min_value, min_msg
                );
            }
        }
    }
}

/// Greedily walks shrink candidates, keeping the last failing value.
fn shrink_failure<S, F>(
    cfg: &Config,
    strat: &S,
    prop: &F,
    mut value: S::Value,
    mut msg: String,
) -> (S::Value, String, u32)
where
    S: Strategy,
    F: Fn(S::Value) -> CaseResult,
{
    let mut steps = 0u32;
    'outer: while steps < cfg.max_shrink_steps {
        let mut candidates = Vec::new();
        strat.shrink(&value, &mut candidates);
        for cand in candidates {
            steps += 1;
            if steps >= cfg.max_shrink_steps {
                break 'outer;
            }
            if let Err(TestCaseError::Fail(m)) = prop(cand.clone()) {
                value = cand;
                msg = m;
                continue 'outer;
            }
        }
        break;
    }
    (value, msg, steps)
}

/// Everything a property-test module needs.
pub mod prelude {
    pub use crate::strategy::{any, vec, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, props};
    pub use crate::{CaseResult, Config, TestCaseError};
}

/// Asserts a condition inside a property body (returns a failure instead
/// of panicking, so the input can be shrunk).
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

/// Asserts equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr) => {{
        let (l, r) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($lhs),
            stringify!($rhs),
            l,
            r
        );
    }};
}

/// Asserts inequality inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($lhs:expr, $rhs:expr) => {{
        let (l, r) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: {} != {}\n  both: {:?}",
            stringify!($lhs),
            stringify!($rhs),
            l
        );
    }};
}

/// Rejects the current case (regenerates without counting it).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

/// Declares `#[test]` functions whose arguments are drawn from
/// strategies, proptest-style:
///
/// ```ignore
/// props! {
///     #![cases(24)]                       // optional, defaults to 64
///
///     #[test]
///     fn holds(x in 0u64..100, v in vec(any::<u64>(), 0..5)) {
///         prop_assert!(x < 100);
///     }
/// }
/// ```
#[macro_export]
macro_rules! props {
    (#![cases($cases:expr)] $($rest:tt)*) => {
        $crate::__props_impl! { ($cases) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__props_impl! { (64u32) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __props_impl {
    (($cases:expr)) => {};
    (($cases:expr)
     $(#[$meta:meta])+
     fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])+
        fn $name() {
            let __cfg = $crate::Config::with_cases($cases);
            let __strat = ($($strat,)+);
            $crate::run(
                stringify!($name),
                &__cfg,
                &__strat,
                |__vals| {
                    #[allow(unused_parens)]
                    let ($($arg,)+) = __vals;
                    $body
                    #[allow(unreachable_code)]
                    ::core::result::Result::Ok(())
                },
            );
        }
        $crate::__props_impl! { ($cases) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    props! {
        #![cases(128)]

        #[test]
        fn ranges_respect_bounds(a in 10u64..20, b in -5i64..=5, n in 0usize..4) {
            prop_assert!((10..20).contains(&a));
            prop_assert!((-5..=5).contains(&b));
            prop_assert!(n < 4);
        }

        #[test]
        fn vectors_respect_length(v in vec(any::<u32>(), 2..7)) {
            prop_assert!(v.len() >= 2 && v.len() < 7);
        }

        #[test]
        fn assume_rejects_without_failing(x in 0u64..100) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }
    }

    #[test]
    fn failures_shrink_to_the_boundary() {
        // Property "x < 50" over 0..1000 must shrink to exactly 50.
        let result = std::panic::catch_unwind(|| {
            crate::run(
                "shrink_probe",
                &Config::with_cases(256),
                &(0u64..1000),
                |x| {
                    prop_assert!(x < 50, "x = {x}");
                    Ok(())
                },
            );
        });
        let err = *result
            .expect_err("property must fail")
            .downcast::<String>()
            .unwrap();
        assert!(err.contains("minimal input: 50"), "got: {err}");
    }

    #[test]
    fn vector_failures_shrink_to_minimal_length() {
        // "sum < 100" with elements in 60..=60 fails minimally at [60, 60].
        let result = std::panic::catch_unwind(|| {
            crate::run(
                "vec_shrink_probe",
                &Config::with_cases(256),
                &vec(60u64..=60, 0..10),
                |v| {
                    prop_assert!(v.iter().sum::<u64>() < 100, "sum {}", v.iter().sum::<u64>());
                    Ok(())
                },
            );
        });
        let err = *result
            .expect_err("property must fail")
            .downcast::<String>()
            .unwrap();
        assert!(err.contains("minimal input: [60, 60]"), "got: {err}");
    }

    #[test]
    fn runs_are_deterministic() {
        use std::cell::RefCell;
        let collect = || {
            let seen = RefCell::new(Vec::new());
            crate::run(
                "det_probe",
                &Config::with_cases(16),
                &(0u64..1_000_000),
                |x| {
                    seen.borrow_mut().push(x);
                    Ok(())
                },
            );
            seen.into_inner()
        };
        let a = collect();
        assert_eq!(a.len(), 16);
        assert_eq!(a, collect(), "same name + seed must replay the same cases");
    }
}
