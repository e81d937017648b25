//! Mergeable log2 histogram — the userspace twin of the in-probe one.
//!
//! The bytecode probe's optional poll-duration histogram
//! ([`crate::ProbeSet::with_poll_histogram`]) maintains
//! [`HIST_BUCKETS`] `u64` cells where bucket `i` counts polls whose scaled
//! duration satisfies `floor(log2(max(duration >> shift, 1))) == i`.
//! [`Log2Hist`] reproduces that exact bucketing in userspace so that:
//!
//! * per-window snapshots read from a probe can be accumulated losslessly
//!   (bucket-wise addition of `u64` cells is associative and commutative,
//!   so merging K per-host histograms is bit-for-bit equal to bucketing
//!   the concatenated stream — the fleet mergeability guarantee);
//! * quantiles of the fleet-wide poll-slack distribution can be computed
//!   centrally from merged buckets alone ([`Log2Hist::quantile`]), with
//!   no per-sample state ever crossing the control channel.

use crate::bytecode::HIST_BUCKETS;

/// A mergeable log2 histogram over scaled samples.
///
/// # Examples
///
/// ```
/// use kscope_core::Log2Hist;
///
/// let mut a = Log2Hist::new(0);
/// let mut b = Log2Hist::new(0);
/// let mut whole = Log2Hist::new(0);
/// for (i, d) in [700u64, 1_000, 350_000, 90].iter().enumerate() {
///     if i % 2 == 0 { a.record(*d) } else { b.record(*d) }
///     whole.record(*d);
/// }
/// a.merge(&b);
/// assert_eq!(a, whole);
/// assert_eq!(whole.count(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Log2Hist {
    shift: u32,
    buckets: [u64; HIST_BUCKETS],
}

impl Log2Hist {
    /// An empty histogram scaling inputs by `>> shift` before bucketing,
    /// matching the probe built with the same shift.
    pub fn new(shift: u32) -> Log2Hist {
        Log2Hist {
            shift,
            buckets: [0; HIST_BUCKETS],
        }
    }

    /// Wraps bucket cells read from a probe (e.g.
    /// [`crate::MetricBackend::poll_histogram`]) built with `shift`.
    pub fn from_buckets(shift: u32, buckets: [u64; HIST_BUCKETS]) -> Log2Hist {
        Log2Hist { shift, buckets }
    }

    /// The bucket a raw sample lands in:
    /// `floor(log2(max(raw >> shift, 1)))` — the probe's bit-ladder
    /// semantics, including the clamp of scaled values 0 and 1 to
    /// bucket 0.
    pub fn bucket_of(shift: u32, raw: u64) -> usize {
        let scaled = (raw >> shift) | 1;
        (63 - scaled.leading_zeros()) as usize
    }

    /// Approximate quantile over log2 bucket cells, as maintained by the
    /// in-probe poll-duration histogram and [`Log2Hist`]: bucket `i`
    /// counts samples whose scaled value satisfies
    /// `floor(log2(max(v >> shift, 1))) == i`.
    ///
    /// Returns a representative *raw* (unscaled) value: the geometric
    /// midpoint `2^(i + 0.5)` of the bucket's scaled range, multiplied
    /// back by `2^shift` — except bucket 0, whose scaled range `[0, 2)`
    /// collapses to `1`. `None` when the buckets are all empty.
    ///
    /// Because merged bucket cells are exact (integer addition), a
    /// quantile of K merged per-host histograms equals the quantile of
    /// the concatenated stream's histogram — within bucket resolution,
    /// the mergeable-percentile primitive the fleet rollup uses.
    pub fn quantile(buckets: &[u64], shift: u32, q: f64) -> Option<f64> {
        let total: u64 = buckets.iter().sum();
        if total == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                let scaled_mid = if i == 0 {
                    1.0
                } else {
                    2f64.powf(i as f64 + 0.5)
                };
                return Some(scaled_mid * (1u64 << shift) as f64);
            }
        }
        // Unreachable: `seen` reaches `total >= target` within the loop.
        None
    }

    /// Records one raw (unscaled) sample.
    pub fn record(&mut self, raw: u64) {
        let i = Log2Hist::bucket_of(self.shift, raw);
        self.buckets[i] = self.buckets[i].wrapping_add(1);
    }

    /// Adds probe bucket cells in place (same shift as this histogram).
    pub fn add_buckets(&mut self, buckets: &[u64; HIST_BUCKETS]) {
        for (mine, theirs) in self.buckets.iter_mut().zip(buckets) {
            *mine = mine.wrapping_add(*theirs);
        }
    }

    /// Merges another histogram into this one. Bucket-wise wrapping `u64`
    /// addition is associative and commutative, so merging K disjoint
    /// streams equals bucketing the concatenated stream bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if the scaling shifts differ.
    pub fn merge(&mut self, other: &Log2Hist) {
        assert_eq!(self.shift, other.shift, "cannot merge different scales");
        self.add_buckets(&other.buckets);
    }

    /// The bucket cells.
    pub fn buckets(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
    }

    /// The configured shift.
    pub fn shift(&self) -> u32 {
        self.shift
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets
            .iter()
            .fold(0u64, |acc, &b| acc.wrapping_add(b))
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|&b| b == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_quantile_walks_buckets() {
        let mut buckets = [0u64; 64];
        buckets[4] = 50; // scaled [16, 32)
        buckets[10] = 49; // scaled [1024, 2048)
        buckets[20] = 1;
        let p50 = Log2Hist::quantile(&buckets, 0, 0.5).unwrap();
        assert!((p50 - 2f64.powf(4.5)).abs() < 1e-9, "p50 {p50}");
        let p99 = Log2Hist::quantile(&buckets, 0, 0.99).unwrap();
        assert!((p99 - 2f64.powf(10.5)).abs() < 1e-9, "p99 {p99}");
        let p100 = Log2Hist::quantile(&buckets, 0, 1.0).unwrap();
        assert!((p100 - 2f64.powf(20.5)).abs() < 1e-6, "p100 {p100}");
        // The shift is undone on the way out.
        let shifted = Log2Hist::quantile(&buckets, 3, 0.5).unwrap();
        assert!((shifted - 8.0 * 2f64.powf(4.5)).abs() < 1e-9, "{shifted}");
    }

    #[test]
    fn log2_quantile_edge_cases() {
        assert_eq!(Log2Hist::quantile(&[0; 64], 0, 0.5), None);
        let mut buckets = [0u64; 64];
        buckets[0] = 3;
        // Bucket 0 represents scaled values in [0, 2): midpoint 1.
        assert_eq!(Log2Hist::quantile(&buckets, 0, 0.5), Some(1.0));
        assert_eq!(Log2Hist::quantile(&buckets, 10, 0.5), Some(1024.0));
    }

    #[test]
    fn bucket_of_matches_floor_log2() {
        assert_eq!(Log2Hist::bucket_of(0, 0), 0);
        assert_eq!(Log2Hist::bucket_of(0, 1), 0);
        assert_eq!(Log2Hist::bucket_of(0, 2), 1);
        assert_eq!(Log2Hist::bucket_of(0, 1_000), 9);
        assert_eq!(Log2Hist::bucket_of(0, 350_000), 18);
        assert_eq!(Log2Hist::bucket_of(0, u64::MAX), 63);
        // The shift is applied before bucketing.
        assert_eq!(Log2Hist::bucket_of(10, 350_000), 8);
        assert_eq!(Log2Hist::bucket_of(10, 1_000), 0);
    }

    #[test]
    fn record_matches_probe_semantics() {
        // Mirrors `histogram_probe_verifies_and_buckets_poll_durations`
        // in the bytecode backend tests: the userspace twin must put the
        // same durations in the same buckets.
        let mut h = Log2Hist::new(0);
        h.record(350_000);
        h.record(1_000);
        h.record(0);
        h.record(1);
        assert_eq!(h.buckets()[18], 1);
        assert_eq!(h.buckets()[9], 1);
        assert_eq!(h.buckets()[0], 2);
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn merge_equals_concatenated_stream() {
        let samples: Vec<u64> = (0..500).map(|i| (i * 7919) % 2_000_000).collect();
        let mut parts = [
            Log2Hist::new(10),
            Log2Hist::new(10),
            Log2Hist::new(10),
            Log2Hist::new(10),
        ];
        let mut whole = Log2Hist::new(10);
        for (i, &s) in samples.iter().enumerate() {
            parts[i % 4].record(s);
            whole.record(s);
        }
        let mut merged = Log2Hist::new(10);
        for p in &parts {
            merged.merge(p);
        }
        assert_eq!(merged, whole);
    }

    #[test]
    fn from_buckets_round_trips() {
        let mut h = Log2Hist::new(3);
        h.record(12_345);
        let rebuilt = Log2Hist::from_buckets(3, *h.buckets());
        assert_eq!(rebuilt, h);
        assert!(!rebuilt.is_empty());
    }

    #[test]
    #[should_panic(expected = "different scales")]
    fn merge_rejects_mixed_scales() {
        let mut a = Log2Hist::new(1);
        a.merge(&Log2Hist::new(2));
    }
}
