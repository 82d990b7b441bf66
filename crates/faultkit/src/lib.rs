//! Hermetic, seed-deterministic fault injection for the privacy kernels.
//!
//! A process-global **fault plan** names *injection sites* and gives each
//! a value and a firing rate. Kernels declare sites with two zero-cost
//! free functions:
//!
//! - [`fire`] — "should this fault happen here?" The site's value is a
//!   **budget**: once that many faults have fired process-wide the site
//!   goes quiet (`0` means unbounded). Used for drop/corrupt/panic style
//!   faults.
//! - [`param`] — "is a parameter injected here, and what is it?" The
//!   site's value is the **parameter** (e.g. a row deadline); the rate
//!   gates whether it applies to this particular draw.
//!
//! The plan comes from `TDF_FAULTS`, e.g.
//!
//! ```text
//! TDF_FAULTS=pir.server_drop=1@0.1,pir.corrupt_word=2@0.05,par.worker_panic=3,querydb.deadline=500
//! ```
//!
//! Each entry is `site=value[@rate]`; a missing rate means `1.0` (every
//! draw), rate `0` makes the site provably inert — the zero-rate plan is
//! the control arm CI compares against a no-plan run for bit-identity.
//!
//! **Determinism.** Whether draw *n* at a site fires is a pure function
//! of `(seed, site, n)` — a splitmix64 stream keyed by the plan seed
//! (`TDF_FAULT_SEED`, default `0xFA17`) and the FNV-1a hash of the site
//! name, indexed by a per-site atomic draw counter. Two runs with the
//! same plan, seed and thread count inject the same faults at the same
//! draws; sites are independent streams, so adding a site never shifts
//! another site's decisions.
//!
//! Every injected fault is counted through the obs registry as
//! `fault.injected.<site>`, so fault reports ride along in snapshots and
//! CI can diff them against a golden file.
//!
//! With the `noop` cargo feature every entry point compiles to nothing
//! (mirroring `tdf-obs`): [`enabled`] is `false`, [`fire`] never fires,
//! [`param`] never injects.

use std::fmt;

/// Default plan seed when `TDF_FAULT_SEED` is unset.
pub const DEFAULT_SEED: u64 = 0xFA17;

/// A malformed `TDF_FAULTS` entry, with the offending text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanParseError {
    /// The entry (comma-separated segment) that failed to parse.
    pub entry: String,
    /// What was wrong with it.
    pub message: String,
}

impl fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault-plan entry {:?}: {}", self.entry, self.message)
    }
}

impl std::error::Error for PlanParseError {}

/// Uniform in `[0, 1)` for draw `n` of the site stream `site_hash`
/// under `seed` — the entire firing decision is this pure function.
fn unit(seed: u64, site_hash: u64, n: u64) -> f64 {
    let mut state = seed ^ site_hash ^ n.wrapping_mul(0xA24BAED4963EE407);
    let word = rngkit::splitmix64(&mut state);
    (word >> 11) as f64 / (1u64 << 53) as f64
}

// The plan type and parser keep their real shape under `noop` so tests
// and tools that *construct* plans compile either way; only the global
// query path is compiled out.
mod plan {
    use super::PlanParseError;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicU64, Ordering};

    pub(crate) struct Site {
        pub value: u64,
        pub rate: f64,
        hash: u64,
        /// Draws taken at this site so far (indexes the decision stream).
        draws: AtomicU64,
        /// Faults actually injected at this site so far (budget check).
        fired: AtomicU64,
    }

    /// A parsed fault plan: per-site `value`/`rate` plus the draw state
    /// that makes repeated queries walk a deterministic decision stream.
    pub struct FaultPlan {
        seed: u64,
        sites: BTreeMap<String, Site>,
    }

    impl FaultPlan {
        /// Parse `site=value[@rate]` entries separated by commas, with
        /// the default seed. Empty input parses to an empty (inert) plan.
        pub fn parse(text: &str) -> Result<Self, PlanParseError> {
            Self::parse_with_seed(text, super::DEFAULT_SEED)
        }

        /// [`FaultPlan::parse`] with an explicit decision-stream seed.
        pub fn parse_with_seed(text: &str, seed: u64) -> Result<Self, PlanParseError> {
            let mut sites = BTreeMap::new();
            for entry in text.split(',') {
                let entry = entry.trim();
                if entry.is_empty() {
                    continue;
                }
                let err = |message: &str| PlanParseError {
                    entry: entry.to_owned(),
                    message: message.to_owned(),
                };
                let (site, spec) = entry
                    .split_once('=')
                    .ok_or_else(|| err("expected site=value[@rate]"))?;
                let site = site.trim();
                if site.is_empty()
                    || !site
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
                {
                    return Err(err("site names are [a-z0-9._-]+"));
                }
                let (value, rate) = match spec.split_once('@') {
                    None => (spec.trim(), None),
                    Some((v, r)) => (v.trim(), Some(r.trim())),
                };
                let value: u64 = value
                    .parse()
                    .map_err(|_| err("value must be an unsigned integer"))?;
                let rate: f64 = match rate {
                    None => 1.0,
                    Some(r) => r
                        .parse()
                        .ok()
                        .filter(|r: &f64| r.is_finite() && (0.0..=1.0).contains(r))
                        .ok_or_else(|| err("rate must be a number in [0, 1]"))?,
                };
                if sites.contains_key(site) {
                    return Err(err("duplicate site"));
                }
                sites.insert(
                    site.to_owned(),
                    Site {
                        value,
                        rate,
                        hash: rngkit::fnv1a(site.as_bytes()),
                        draws: AtomicU64::new(0),
                        fired: AtomicU64::new(0),
                    },
                );
            }
            Ok(FaultPlan { seed, sites })
        }

        /// True when the plan names no sites at all.
        pub fn is_empty(&self) -> bool {
            self.sites.is_empty()
        }

        /// The configured sites, as `(name, value, rate)` in name order.
        pub fn sites(&self) -> impl Iterator<Item = (&str, u64, f64)> {
            self.sites
                .iter()
                .map(|(name, s)| (name.as_str(), s.value, s.rate))
        }

        /// Total faults injected at `site` so far.
        pub fn fired(&self, site: &str) -> u64 {
            self.sites
                .get(site)
                .map_or(0, |s| s.fired.load(Ordering::Relaxed))
        }

        /// One rate-gated draw at `site`: takes the next index of the
        /// site's decision stream and reports whether it fires. Returns
        /// `None` when the site is not in the plan or the draw misses.
        fn draw(&self, site: &str) -> Option<&Site> {
            let s = self.sites.get(site)?;
            let n = s.draws.fetch_add(1, Ordering::Relaxed);
            if s.rate <= 0.0 {
                return None;
            }
            if s.rate < 1.0 && super::unit(self.seed, s.hash, n) >= s.rate {
                return None;
            }
            Some(s)
        }

        /// Budget-checked fault draw (the engine behind [`super::fire`]).
        pub(crate) fn fire(&self, site: &str) -> bool {
            let Some(s) = self.draw(site) else {
                return false;
            };
            // value = budget: 0 is unbounded, else stop after `value`.
            if s.value > 0 {
                let mut fired = s.fired.load(Ordering::Relaxed);
                loop {
                    if fired >= s.value {
                        return false;
                    }
                    match s.fired.compare_exchange_weak(
                        fired,
                        fired + 1,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => break,
                        Err(cur) => fired = cur,
                    }
                }
            } else {
                s.fired.fetch_add(1, Ordering::Relaxed);
            }
            obs::count(&format!("fault.injected.{site}"), 1);
            true
        }

        /// Rate-gated parameter draw (the engine behind [`super::param`]).
        pub(crate) fn param(&self, site: &str) -> Option<u64> {
            let s = self.draw(site)?;
            s.fired.fetch_add(1, Ordering::Relaxed);
            obs::count(&format!("fault.injected.{site}"), 1);
            Some(s.value)
        }
    }

    impl std::fmt::Debug for FaultPlan {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            let mut m = f.debug_map();
            for (name, value, rate) in self.sites() {
                m.entry(&name, &format_args!("{value}@{rate}"));
            }
            m.finish()
        }
    }
}

pub use plan::FaultPlan;

#[cfg(not(feature = "noop"))]
pub use active::*;
#[cfg(not(feature = "noop"))]
mod active {
    use super::FaultPlan;
    use std::sync::atomic::{AtomicU8, Ordering};
    use std::sync::{Arc, Mutex};

    /// 0 = not yet initialised from the environment, 1 = no plan,
    /// 2 = a plan is installed. The fast path is one relaxed load.
    static STATE: AtomicU8 = AtomicU8::new(0);
    static PLAN: Mutex<Option<Arc<FaultPlan>>> = Mutex::new(None);

    #[cold]
    fn init_from_env() -> bool {
        let plan = match std::env::var("TDF_FAULTS") {
            Err(_) => None,
            Ok(text) if text.trim().is_empty() => None,
            Ok(text) => {
                let seed = std::env::var("TDF_FAULT_SEED")
                    .ok()
                    .and_then(|v| v.trim().parse::<u64>().ok())
                    .unwrap_or(super::DEFAULT_SEED);
                // A typo'd plan silently injecting nothing would defeat a
                // fault-matrix CI run; fail loudly instead.
                match FaultPlan::parse_with_seed(&text, seed) {
                    Ok(plan) => Some(plan),
                    Err(e) => panic!("TDF_FAULTS: {e}"),
                }
            }
        };
        let mut slot = PLAN.lock().unwrap_or_else(|e| e.into_inner());
        // Another thread may have raced the init or called set_plan.
        if STATE.load(Ordering::Relaxed) == 0 {
            let active = plan.is_some();
            *slot = plan.map(Arc::new);
            STATE.store(if active { 2 } else { 1 }, Ordering::Relaxed);
            active
        } else {
            slot.is_some()
        }
    }

    /// True when a fault plan is installed (sites may still be inert).
    #[inline]
    pub fn enabled() -> bool {
        match STATE.load(Ordering::Relaxed) {
            0 => init_from_env(),
            1 => false,
            _ => true,
        }
    }

    /// Install `plan` (or clear with `None`), overriding `TDF_FAULTS`.
    /// Tests and chaos drivers use this instead of mutating the process
    /// environment.
    pub fn set_plan(plan: Option<FaultPlan>) {
        let mut slot = PLAN.lock().unwrap_or_else(|e| e.into_inner());
        let active = plan.is_some();
        *slot = plan.map(Arc::new);
        STATE.store(if active { 2 } else { 1 }, Ordering::Relaxed);
    }

    fn current() -> Option<Arc<FaultPlan>> {
        if !enabled() {
            return None;
        }
        PLAN.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Budget-style injection point: true when the plan says a fault
    /// happens at this draw of `site`. Counts `fault.injected.<site>`.
    #[inline]
    pub fn fire(site: &str) -> bool {
        match current() {
            None => false,
            Some(plan) => plan.fire(site),
        }
    }

    /// Parameter-style injection point: the site's value when the plan
    /// says the parameter applies to this draw, else `None`.
    #[inline]
    pub fn param(site: &str) -> Option<u64> {
        match current() {
            None => None,
            Some(plan) => plan.param(site),
        }
    }

    /// Total faults injected at `site` by the installed plan so far.
    pub fn fired(site: &str) -> u64 {
        current().map_or(0, |plan| plan.fired(site))
    }
}

#[cfg(feature = "noop")]
pub use noop::*;
#[cfg(feature = "noop")]
mod noop {
    //! Compile-to-nothing variant: same API surface, no injection ever.

    use super::FaultPlan;

    /// Always false with the `noop` feature.
    #[inline]
    pub fn enabled() -> bool {
        false
    }
    /// Ignored with the `noop` feature.
    #[inline]
    pub fn set_plan(_plan: Option<FaultPlan>) {}
    /// Never fires with the `noop` feature.
    #[inline]
    pub fn fire(_site: &str) -> bool {
        false
    }
    /// Never injects with the `noop` feature.
    #[inline]
    pub fn param(_site: &str) -> Option<u64> {
        None
    }
    /// Always 0 with the `noop` feature.
    #[inline]
    pub fn fired(_site: &str) -> u64 {
        0
    }
}

#[cfg(all(test, feature = "noop"))]
mod noop_tests {
    use super::*;

    #[test]
    fn noop_build_never_fires() {
        set_plan(Some(FaultPlan::parse("a.b=0@1").unwrap()));
        assert!(!enabled());
        assert!(!fire("a.b"));
        assert_eq!(param("a.b"), None);
        assert_eq!(fired("a.b"), 0);
    }
}

#[cfg(all(test, not(feature = "noop")))]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The plan is process-global; serialise tests that install one.
    static LOCK: Mutex<()> = Mutex::new(());

    fn with_plan<T>(text: &str, f: impl FnOnce() -> T) -> T {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_plan(Some(FaultPlan::parse(text).unwrap()));
        let out = f();
        set_plan(None);
        out
    }

    #[test]
    fn parses_the_issue_example_plan() {
        let plan = FaultPlan::parse(
            "pir.server_drop=1@0.1,pir.corrupt_word=2@0.05,par.worker_panic=3,querydb.deadline=500",
        )
        .unwrap();
        let sites: Vec<_> = plan.sites().collect();
        assert_eq!(
            sites,
            vec![
                ("par.worker_panic", 3, 1.0),
                ("pir.corrupt_word", 2, 0.05),
                ("pir.server_drop", 1, 0.1),
                ("querydb.deadline", 500, 1.0),
            ]
        );
    }

    #[test]
    fn rejects_malformed_entries() {
        for bad in [
            "noequals",
            "a.b=x",
            "a.b=1@2",
            "a.b=1@-0.5",
            "a.b=1@nan",
            "a b=1",
            "=1",
            "a.b=1,a.b=2",
        ] {
            let err = FaultPlan::parse(bad).expect_err(bad);
            assert!(!err.to_string().is_empty());
        }
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse(" , ").unwrap().is_empty());
    }

    #[test]
    fn budget_caps_total_firings() {
        with_plan("t.budget=3", || {
            let fires = (0..10).filter(|_| fire("t.budget")).count();
            assert_eq!(fires, 3, "rate 1 fires exactly the budget");
            assert_eq!(fired("t.budget"), 3);
            assert!(!fire("t.budget"), "budget exhausted");
        });
    }

    #[test]
    fn zero_rate_never_fires_and_unknown_sites_never_fire() {
        with_plan("t.zero=9@0", || {
            assert!((0..1000).all(|_| !fire("t.zero")));
            assert_eq!(param("t.zero"), None);
            assert_eq!(fired("t.zero"), 0);
            assert!(!fire("t.unlisted"));
            assert_eq!(param("t.unlisted"), None);
        });
    }

    #[test]
    fn no_plan_is_fully_inert() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_plan(None);
        assert!(!enabled());
        assert!(!fire("t.any"));
        assert_eq!(param("t.any"), None);
    }

    #[test]
    fn fractional_rate_fires_deterministically_near_the_rate() {
        let run = || {
            with_plan("t.frac=0@0.25", || {
                (0..4000).map(|_| fire("t.frac")).collect::<Vec<_>>()
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same plan + seed → same decision stream");
        let hits = a.iter().filter(|&&f| f).count();
        assert!(
            (800..1200).contains(&hits),
            "rate 0.25 over 4000 draws fired {hits} times"
        );
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let stream = |seed| {
            let plan = FaultPlan::parse_with_seed("t.seed=0@0.5", seed).unwrap();
            let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
            set_plan(Some(plan));
            let v: Vec<bool> = (0..64).map(|_| fire("t.seed")).collect();
            set_plan(None);
            v
        };
        assert_ne!(stream(1), stream(2));
    }

    #[test]
    fn param_injects_the_value_at_rate_one() {
        with_plan("t.deadline=500", || {
            assert_eq!(param("t.deadline"), Some(500));
            assert_eq!(param("t.deadline"), Some(500), "params have no budget");
            assert!(!fire("t.absent"));
        });
    }

    #[test]
    fn sites_are_independent_streams() {
        // The same site must make the same decisions whether or not other
        // sites exist in the plan (each keys its own stream).
        let solo = with_plan("t.ind=0@0.5", || {
            (0..64).map(|_| fire("t.ind")).collect::<Vec<_>>()
        });
        let joint = with_plan("t.ind=0@0.5,t.other=0@0.5", || {
            (0..64)
                .map(|_| {
                    let f = fire("t.ind");
                    fire("t.other");
                    f
                })
                .collect::<Vec<_>>()
        });
        assert_eq!(solo, joint);
    }

    #[test]
    fn injections_are_counted_through_obs() {
        with_plan("t.counted=2", || {
            obs::set_level(1);
            obs::reset();
            while fire("t.counted") {}
            let snap = obs::snapshot();
            assert_eq!(snap.counter("fault.injected.t.counted"), 2);
            obs::set_level(0);
            obs::reset();
        });
    }
}
