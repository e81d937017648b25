//! # kscope-bench
//!
//! The measurement harness behind `bench_baseline`, the binary that
//! writes `BENCH_baseline.json` and gates a fresh run against it:
//!
//! * [`Criterion`] — wall-clock sampling of one routine (a warm-up that
//!   sizes the per-sample iteration count, then timed samples), returned
//!   as [`Stats`];
//! * [`Baseline`] — the flat `name -> value` JSON file the gate reads.
//!
//! End-to-end and per-layer numbers come from the separate `e2ebench`
//! workspace; this crate holds only the hot-path drill-downs under them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

/// Sampling configuration for timing one routine: how long to warm up,
/// how many samples to take, and the time budget they share.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 20,
            measurement_time: Duration::from_secs(2),
            warm_up_time: Duration::from_millis(300),
        }
    }
}

impl Criterion {
    /// Number of timed samples per measurement.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n > 0, "sample size must be positive");
        self.sample_size = n;
        self
    }

    /// Total time budget for the timed samples.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Time spent warming up (and sizing iteration counts).
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    /// Times `routine`: a warm-up phase sizes the per-sample iteration
    /// count, then `sample_size` samples are timed and summarized as
    /// min/mean/max nanoseconds per iteration. Prints nothing.
    pub fn measure<O, R: FnMut() -> O>(&self, mut routine: R) -> Stats {
        // Warm-up doubles as calibration: count how many iterations fit
        // in the warm-up budget to size each timed sample.
        let warm_up = self.warm_up_time.max(Duration::from_millis(1));
        let start = Instant::now();
        let mut warm_iters: u64 = 0;
        while start.elapsed() < warm_up {
            std::hint::black_box(routine());
            warm_iters += 1;
        }
        let per_iter = start.elapsed().as_secs_f64() / warm_iters as f64;

        let samples = self.sample_size;
        let sample_budget = self.measurement_time.as_secs_f64() / samples as f64;
        let iters_per_sample = ((sample_budget / per_iter) as u64).clamp(1, 1 << 24);

        let mut min_ns = f64::INFINITY;
        let mut max_ns = 0.0f64;
        let mut total_ns = 0.0f64;
        let mut total_iters = 0u64;
        for _ in 0..samples {
            let t = Instant::now();
            for _ in 0..iters_per_sample {
                std::hint::black_box(routine());
            }
            let ns = t.elapsed().as_nanos() as f64 / iters_per_sample as f64;
            min_ns = min_ns.min(ns);
            max_ns = max_ns.max(ns);
            total_ns += ns;
            total_iters += iters_per_sample;
        }
        Stats {
            min_ns,
            mean_ns: total_ns / samples as f64,
            max_ns,
            iters: total_iters,
        }
    }
}

/// Per-iteration timing summary, in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Stats {
    /// Fastest sample.
    pub min_ns: f64,
    /// Mean over all samples.
    pub mean_ns: f64,
    /// Slowest sample.
    pub max_ns: f64,
    /// Total iterations timed.
    pub iters: u64,
}

impl Stats {
    /// Converts the mean per-iteration time into an operations-per-second
    /// throughput, where one iteration performs `ops_per_iter` operations
    /// (e.g. a routine that steps a VM through a 64-instruction loop body
    /// passes 64).
    pub fn ops_per_sec(&self, ops_per_iter: f64) -> f64 {
        if self.mean_ns <= 0.0 {
            return 0.0;
        }
        ops_per_iter * 1e9 / self.mean_ns
    }
}

/// A flat, ordered `name -> value` metric store serialized as one JSON
/// object — the on-disk format of `BENCH_baseline.json`.
///
/// The committed baseline is both a human-readable record of the machine's
/// measured throughput and the reference the CI bench-smoke job compares a
/// fresh run against, so the format is deliberately trivial: one object,
/// string keys, finite numeric values, no nesting. Reading and writing are
/// hand-rolled (the workspace builds offline with no serde).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Baseline {
    entries: Vec<(String, f64)>,
}

impl Baseline {
    /// An empty baseline.
    pub fn new() -> Baseline {
        Baseline::default()
    }

    /// Inserts or replaces a metric. Insertion order is preserved so the
    /// serialized file diffs cleanly.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite (JSON has no NaN/infinity).
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "baseline metric {name} must be finite");
        if let Some(entry) = self.entries.iter_mut().find(|(n, _)| n == name) {
            entry.1 = value;
        } else {
            self.entries.push((name.to_string(), value));
        }
    }

    /// Looks up a metric by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// All metrics, in insertion order.
    pub fn entries(&self) -> &[(String, f64)] {
        &self.entries
    }

    /// Serializes to a pretty-printed single-object JSON document. Values
    /// use `f64`'s shortest-roundtrip `Display`, so a write→parse cycle
    /// is bitwise lossless.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (name, value)) in self.entries.iter().enumerate() {
            let comma = if i + 1 < self.entries.len() { "," } else { "" };
            out.push_str(&format!("  \"{name}\": {value}{comma}\n"));
        }
        out.push('}');
        out.push('\n');
        out
    }

    /// Parses a document produced by [`Baseline::to_json`] (or any flat
    /// JSON object of numeric fields). Returns `None` on structural
    /// errors: missing braces, unterminated keys, non-numeric values.
    pub fn from_json(text: &str) -> Option<Baseline> {
        let body = text.trim().strip_prefix('{')?.strip_suffix('}')?;
        let mut baseline = Baseline::new();
        let mut rest = body.trim();
        while !rest.is_empty() {
            // "key"
            rest = rest.strip_prefix('"')?;
            let key_end = rest.find('"')?;
            let key = &rest[..key_end];
            rest = rest[key_end + 1..].trim_start();
            // :
            rest = rest.strip_prefix(':')?;
            rest = rest.trim_start();
            // number, up to the next comma or end of object
            let value_end = rest.find(',').unwrap_or(rest.len());
            let value: f64 = rest[..value_end].trim().parse().ok()?;
            if !value.is_finite() {
                return None;
            }
            baseline.set(key, value);
            rest = match rest[value_end..].strip_prefix(',') {
                Some(after) => after.trim_start(),
                None => "",
            };
        }
        Some(baseline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config() -> Criterion {
        Criterion::default()
            .sample_size(2)
            .measurement_time(Duration::from_millis(4))
            .warm_up_time(Duration::from_millis(1))
    }

    #[test]
    fn measure_returns_stats_without_printing() {
        let c = fast_config();
        let mut counter = 0u64;
        let stats = c.measure(|| {
            counter = counter.wrapping_add(1);
            counter
        });
        assert!(stats.iters >= 2);
        assert!(stats.mean_ns > 0.0);
        assert!(stats.min_ns <= stats.mean_ns && stats.mean_ns <= stats.max_ns);
    }

    #[test]
    fn ops_per_sec_scales_with_batch_size() {
        let stats = Stats {
            min_ns: 10.0,
            mean_ns: 20.0,
            max_ns: 30.0,
            iters: 100,
        };
        // 20 ns per iteration = 50M single ops/sec; a 64-op batch is 64x.
        assert_eq!(stats.ops_per_sec(1.0), 50_000_000.0);
        assert_eq!(stats.ops_per_sec(64.0), 64.0 * 50_000_000.0);
        let degenerate = Stats {
            mean_ns: 0.0,
            ..stats
        };
        assert_eq!(degenerate.ops_per_sec(1.0), 0.0);
    }

    #[test]
    fn baseline_round_trips_through_json() {
        let mut b = Baseline::new();
        b.set("vm_insns_per_sec_decoded", 123_456_789.25);
        b.set("map_ops_per_sec", 1e7);
        b.set("engine_events_per_sec", 431.0625);
        let text = b.to_json();
        assert!(text.starts_with("{\n"));
        assert!(
            text.contains("\"map_ops_per_sec\": 10000000\n")
                || text.contains("\"map_ops_per_sec\": 10000000,")
        );
        let parsed = match Baseline::from_json(&text) {
            Some(parsed) => parsed,
            None => panic!("writer output must parse"),
        };
        assert_eq!(parsed, b);
        // Bitwise lossless, not merely approximate.
        assert_eq!(
            parsed.get("vm_insns_per_sec_decoded").map(f64::to_bits),
            Some(123_456_789.25f64.to_bits())
        );
    }

    #[test]
    fn baseline_set_replaces_in_place() {
        let mut b = Baseline::new();
        b.set("a", 1.0);
        b.set("b", 2.0);
        b.set("a", 3.0);
        assert_eq!(b.entries().len(), 2);
        assert_eq!(b.get("a"), Some(3.0));
        assert_eq!(b.entries()[0].0, "a");
        assert_eq!(b.get("missing"), None);
    }

    #[test]
    fn baseline_parser_rejects_garbage() {
        assert!(Baseline::from_json("").is_none());
        assert!(Baseline::from_json("not json").is_none());
        assert!(Baseline::from_json("{\"unterminated: 1}").is_none());
        assert!(Baseline::from_json("{\"k\": \"string\"}").is_none());
        assert!(Baseline::from_json("{\"k\": inf}").is_none());
        // An empty object is a valid (empty) baseline.
        assert_eq!(Baseline::from_json("{}"), Some(Baseline::new()));
        // Tolerates compact spacing from other writers.
        let compact = Baseline::from_json("{\"x\":1.5,\"y\":-2}");
        let compact = match compact {
            Some(b) => b,
            None => panic!("compact objects must parse"),
        };
        assert_eq!(compact.get("x"), Some(1.5));
        assert_eq!(compact.get("y"), Some(-2.0));
    }
}
