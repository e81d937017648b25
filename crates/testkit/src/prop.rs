//! The seeded property-test runner.
//!
//! A property is an ordinary closure that asserts; a generator is an
//! ordinary closure over [`SimRng`]. The runner derives one RNG per case
//! from a base seed, so every failure is addressable by a single `u64`:
//! re-exporting that seed through the `KSCOPE_TESTKIT_SEED` environment
//! variable replays the failing case as case 0 of the next run.
//!
//! Environment overrides:
//!
//! * `KSCOPE_TESTKIT_SEED` — base seed (decimal or `0x…` hex). The failing
//!   case's own seed is printed on failure; exporting it reproduces the
//!   failure deterministically.
//! * `KSCOPE_TESTKIT_CASES` — overrides the number of cases, e.g. `1` to
//!   run only the replayed case.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use kscope_simcore::SimRng;

use crate::shrink::Shrink;

/// Default base seed. Arbitrary but fixed: default runs are deterministic
/// across machines and across time.
// The grouping spells "seed of call-able"; keep it readable as words.
#[allow(clippy::unusual_byte_groupings)]
pub const DEFAULT_SEED: u64 = 0x5eed_0f_ca11_ab1e;

/// Runner configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Number of generated cases.
    pub cases: u32,
    /// Base seed from which every case seed is derived.
    pub seed: u64,
    /// Hard cap on property evaluations spent shrinking a failure.
    pub max_shrink_steps: u32,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: 256,
            seed: DEFAULT_SEED,
            max_shrink_steps: 2048,
        }
    }
}

impl Config {
    /// A config running `cases` cases with the default seed.
    pub fn cases(cases: u32) -> Config {
        Config {
            cases,
            ..Config::default()
        }
    }

    /// Applies the `KSCOPE_TESTKIT_SEED` / `KSCOPE_TESTKIT_CASES`
    /// environment overrides.
    fn with_env_overrides(self) -> Config {
        let mut cfg = self;
        if let Some(seed) = env_u64("KSCOPE_TESTKIT_SEED") {
            cfg.seed = seed;
        }
        if let Some(cases) = env_u64("KSCOPE_TESTKIT_CASES") {
            cfg.cases = cases.min(u32::MAX as u64) as u32;
        }
        cfg
    }
}

fn env_u64(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    let raw = raw.trim();
    let parsed = if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        raw.parse()
    };
    match parsed {
        Ok(v) => Some(v),
        Err(_) => panic!("{name} must be a u64 (decimal or 0x-hex), got `{raw}`"),
    }
}

/// SplitMix64 — the same stream-derivation mix `SimRng` seeds through, so
/// case seeds are statistically independent of each other.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of case `index` under base seed `base`.
///
/// Case 0 uses the base seed itself, so exporting a failing case's seed via
/// `KSCOPE_TESTKIT_SEED` replays it as the first case of the next run.
pub fn case_seed(base: u64, index: u32) -> u64 {
    if index == 0 {
        return base;
    }
    let mut state = base ^ (index as u64).wrapping_mul(0xA24B_AED4_963E_E407);
    splitmix64(&mut state)
}

/// A property failure, fully described.
///
/// [`run_result`] returns this; [`run`] panics with its [`fmt::Display`]
/// rendering, which includes the one-line repro command.
#[derive(Debug, Clone)]
pub struct TestkitFailure {
    /// Package the property lives in (for the repro command).
    pub package: String,
    /// Fully qualified property name.
    pub property: String,
    /// Index of the failing case.
    pub case_index: u32,
    /// Seed that regenerates the failing input.
    pub case_seed: u64,
    /// Debug rendering of the originally generated counterexample.
    pub original: String,
    /// Debug rendering of the shrunk counterexample.
    pub shrunk: String,
    /// Number of successful shrink steps applied.
    pub shrink_steps: u32,
    /// Panic message of the (shrunk) failing evaluation.
    pub message: String,
}

impl TestkitFailure {
    /// The one-line command that replays this failure.
    pub fn repro_command(&self) -> String {
        let short = self.property.rsplit("::").next().unwrap_or(&self.property);
        format!(
            "KSCOPE_TESTKIT_SEED={:#x} KSCOPE_TESTKIT_CASES=1 cargo test -p {} {}",
            self.case_seed, self.package, short
        )
    }
}

impl fmt::Display for TestkitFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "property `{}` failed at case {} (seed {:#x})",
            self.property, self.case_index, self.case_seed
        )?;
        writeln!(
            f,
            "  shrunk counterexample ({} steps): {}",
            self.shrink_steps, self.shrunk
        )?;
        if self.shrunk != self.original {
            writeln!(f, "  original counterexample: {}", self.original)?;
        }
        writeln!(f, "  failure: {}", self.message)?;
        write!(f, "  repro: {}", self.repro_command())
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs `property` against `cases` generated inputs; panics with a full
/// report (counterexample, shrink trail, repro command) on failure.
///
/// Prefer the [`check!`](crate::check) macro, which fills in the package
/// and property names automatically.
pub fn run<T, G, P>(package: &str, property: &str, config: Config, generate: G, prop: P)
where
    T: Shrink + fmt::Debug,
    G: FnMut(&mut SimRng) -> T,
    P: Fn(&T),
{
    if let Err(failure) = run_result(package, property, config, generate, prop) {
        panic!("{failure}");
    }
}

/// [`run`], but returning the failure instead of panicking. Used by the
/// harness's own tests; ordinary tests should use [`check!`](crate::check).
// The failure carries the full shrunk-case report; it exists only on the
// already-failed path, so its size is irrelevant.
#[allow(clippy::result_large_err)]
pub fn run_result<T, G, P>(
    package: &str,
    property: &str,
    config: Config,
    mut generate: G,
    prop: P,
) -> Result<(), TestkitFailure>
where
    T: Shrink + fmt::Debug,
    G: FnMut(&mut SimRng) -> T,
    P: Fn(&T),
{
    let config = config.with_env_overrides();
    let evaluate = |value: &T| -> Result<(), String> {
        catch_unwind(AssertUnwindSafe(|| prop(value))).map_err(panic_message)
    };

    for index in 0..config.cases {
        let seed = case_seed(config.seed, index);
        let mut rng = SimRng::seed_from_u64(seed);
        let value = generate(&mut rng);
        let Err(first_message) = evaluate(&value) else {
            continue;
        };

        // Greedy shrink: take the first candidate that still fails,
        // restart from it, stop when no candidate fails or the budget is
        // exhausted.
        let mut current = value.clone();
        let mut message = first_message;
        let mut steps = 0u32;
        let mut budget = config.max_shrink_steps;
        'shrinking: while budget > 0 {
            for candidate in current.shrink() {
                if budget == 0 {
                    break 'shrinking;
                }
                budget -= 1;
                if let Err(m) = evaluate(&candidate) {
                    current = candidate;
                    message = m;
                    steps += 1;
                    continue 'shrinking;
                }
            }
            break;
        }

        return Err(TestkitFailure {
            package: package.to_string(),
            property: property.to_string(),
            case_index: index,
            case_seed: seed,
            original: format!("{value:?}"),
            shrunk: format!("{current:?}"),
            shrink_steps: steps,
            message,
        });
    }
    Ok(())
}

/// Checks a property: `check!(config, generator, property)`.
///
/// The generator is `FnMut(&mut SimRng) -> T`; the property is `Fn(&T)`
/// and signals failure by panicking (any `assert!` works). Package and
/// property names for the repro command are captured automatically.
///
/// # Examples
///
/// ```
/// use kscope_simcore::SimRng;
/// use kscope_testkit::prop::Config;
///
/// kscope_testkit::check!(Config::cases(32), |rng: &mut SimRng| {
///     rng.next_below(1000)
/// }, |&x| {
///     assert!(x < 1000);
/// });
/// ```
#[macro_export]
macro_rules! check {
    ($config:expr, $generate:expr, $prop:expr $(,)?) => {{
        fn __testkit_anchor() {}
        let full = ::std::any::type_name_of_val(&__testkit_anchor);
        let name = full.strip_suffix("::__testkit_anchor").unwrap_or(full);
        $crate::prop::run(env!("CARGO_PKG_NAME"), name, $config, $generate, $prop)
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_returns_ok() {
        let r = run_result(
            "p",
            "t",
            Config::cases(50),
            |rng| rng.next_below(10),
            |&x| {
                assert!(x < 10);
            },
        );
        assert!(r.is_ok());
    }

    #[test]
    fn failure_shrinks_to_minimal_vector() {
        // Property: no vector sums past 1000. Minimal counterexample is a
        // single large element (or a small set summing just past it).
        let failure = run_result(
            "p",
            "t",
            Config::cases(200),
            |rng| {
                let n = rng.next_range(0, 20) as usize;
                (0..n).map(|_| rng.next_below(400)).collect::<Vec<u64>>()
            },
            |xs| {
                assert!(xs.iter().sum::<u64>() <= 1000, "sum too large");
            },
        )
        .expect_err("property must fail");
        let shrunk: Vec<u64> = failure
            .shrunk
            .trim_matches(['[', ']'])
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .map(|s| s.trim().parse().unwrap())
            .collect();
        let sum: u64 = shrunk.iter().sum();
        assert!(sum > 1000, "shrunk value must still fail (sum {sum})");
        // Greedy shrinking must reach a local minimum: removing any single
        // element makes the property pass.
        for (i, &element) in shrunk.iter().enumerate() {
            let without: u64 = sum - element;
            assert!(
                without <= 1000,
                "not minimal: dropping index {i} still fails"
            );
        }
    }

    #[test]
    fn case_zero_uses_base_seed() {
        assert_eq!(case_seed(42, 0), 42);
        assert_ne!(case_seed(42, 1), case_seed(42, 2));
    }

    #[test]
    fn same_seed_same_counterexample() {
        let gen = |rng: &mut SimRng| rng.next_u64();
        let prop = |&x: &u64| assert!(x % 2 == 0, "odd");
        let a = run_result("p", "t", Config::cases(64), gen, prop).expect_err("must fail");
        let b = run_result("p", "t", Config::cases(64), gen, prop).expect_err("must fail");
        assert_eq!(a.case_seed, b.case_seed);
        assert_eq!(a.shrunk, b.shrunk);
    }

    #[test]
    fn repro_command_is_one_line() {
        let f = TestkitFailure {
            package: "kscope-ebpf".into(),
            property: "props::round_trip".into(),
            case_index: 3,
            case_seed: 0xABCD,
            original: "x".into(),
            shrunk: "y".into(),
            shrink_steps: 1,
            message: "boom".into(),
        };
        let cmd = f.repro_command();
        assert!(!cmd.contains('\n'));
        assert!(cmd.contains("KSCOPE_TESTKIT_SEED=0xabcd"));
        assert!(cmd.contains("-p kscope-ebpf"));
        assert!(cmd.contains("round_trip"));
    }

    #[test]
    fn failure_display_contains_repro() {
        let failure = run_result(
            "pkg",
            "mod::prop_name",
            Config::cases(8),
            |rng| rng.next_below(5),
            |_| panic!("always fails"),
        )
        .expect_err("must fail");
        let text = failure.to_string();
        assert!(text.contains("KSCOPE_TESTKIT_SEED="));
        assert!(text.contains("always fails"));
        assert!(text.contains("prop_name"));
    }
}
