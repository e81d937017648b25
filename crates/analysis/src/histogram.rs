//! Fixed-width histograms for duration and delta distributions.

/// A linear fixed-width histogram over `[lo, hi)` with under/overflow bins.
///
/// # Examples
///
/// ```
/// use kscope_analysis::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 5);
/// for x in [1.0, 1.5, 7.0, 12.0] {
///     h.record(x);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.bin_counts()[0], 2); // [0, 2)
/// assert_eq!(h.overflow(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or `bins == 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Histogram {
        assert!(lo < hi, "histogram range must be non-empty");
        assert!(bins > 0, "histogram needs at least one bin");
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = (((x - self.lo) / width) as usize).min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Total samples recorded, including under/overflow.
    pub fn count(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Per-bin counts.
    pub fn bin_counts(&self) -> &[u64] {
        &self.bins
    }

    /// Samples below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above the range's upper bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// The `[start, end)` interval covered by bin `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn bin_range(&self, idx: usize) -> (f64, f64) {
        assert!(idx < self.bins.len(), "bin index out of bounds");
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        (
            self.lo + width * idx as f64,
            self.lo + width * (idx + 1) as f64,
        )
    }

    /// Index of the most populated bin, `None` when all in-range bins are
    /// empty.
    pub fn mode_bin(&self) -> Option<usize> {
        let (idx, &count) = self.bins.iter().enumerate().max_by_key(|&(_, c)| *c)?;
        (count > 0).then_some(idx)
    }

    /// Merges another histogram with the identical layout into this one
    /// (bin-wise addition; exact, since the bin edges coincide).
    ///
    /// # Panics
    ///
    /// Panics if the ranges or bin counts differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.lo == other.lo && self.hi == other.hi && self.bins.len() == other.bins.len(),
            "cannot merge histograms with different layouts"
        );
        for (mine, theirs) in self.bins.iter_mut().zip(&other.bins) {
            *mine += theirs;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
    }

    /// Approximate quantile from bin midpoints. `q` in `[0, 1]`.
    ///
    /// Under/overflow samples are treated as sitting at the range edges.
    pub fn approx_quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = self.underflow;
        if seen >= target {
            return Some(self.lo);
        }
        for (idx, &c) in self.bins.iter().enumerate() {
            seen += c;
            if seen >= target {
                let (start, end) = self.bin_range(idx);
                return Some((start + end) / 2.0);
            }
        }
        Some(self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_fall_into_correct_bins() {
        let mut h = Histogram::new(0.0, 100.0, 10);
        h.record(5.0);
        h.record(15.0);
        h.record(95.0);
        h.record(99.999);
        assert_eq!(h.bin_counts()[0], 1);
        assert_eq!(h.bin_counts()[1], 1);
        assert_eq!(h.bin_counts()[9], 2);
    }

    #[test]
    fn under_and_overflow_tracked() {
        let mut h = Histogram::new(10.0, 20.0, 2);
        h.record(9.0);
        h.record(20.0);
        h.record(25.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn bin_range_is_linear() {
        let h = Histogram::new(0.0, 100.0, 4);
        assert_eq!(h.bin_range(0), (0.0, 25.0));
        assert_eq!(h.bin_range(3), (75.0, 100.0));
    }

    #[test]
    fn mode_bin_finds_peak() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        assert_eq!(h.mode_bin(), None);
        for _ in 0..3 {
            h.record(5.0);
        }
        h.record(1.0);
        assert_eq!(h.mode_bin(), Some(2));
    }

    #[test]
    fn approx_quantile_reasonable() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..100 {
            h.record(i as f64 + 0.5);
        }
        let median = h.approx_quantile(0.5).unwrap();
        assert!((median - 50.0).abs() <= 1.0, "median {median}");
        let p99 = h.approx_quantile(0.99).unwrap();
        assert!((p99 - 99.0).abs() <= 1.0, "p99 {p99}");
        assert_eq!(h.approx_quantile(0.0).unwrap(), 0.5);
    }

    #[test]
    fn approx_quantile_empty_is_none() {
        let h = Histogram::new(0.0, 1.0, 2);
        assert_eq!(h.approx_quantile(0.5), None);
    }

    #[test]
    fn merge_adds_bins_exactly() {
        let mut a = Histogram::new(0.0, 10.0, 5);
        let mut b = Histogram::new(0.0, 10.0, 5);
        let mut whole = Histogram::new(0.0, 10.0, 5);
        for (i, x) in [1.0, 3.0, 7.0, 9.5, -1.0, 12.0].iter().enumerate() {
            if i % 2 == 0 {
                a.record(*x);
            } else {
                b.record(*x);
            }
            whole.record(*x);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    #[should_panic(expected = "different layouts")]
    fn merge_rejects_layout_mismatch() {
        let mut a = Histogram::new(0.0, 10.0, 5);
        a.merge(&Histogram::new(0.0, 10.0, 6));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_inverted_range() {
        Histogram::new(5.0, 5.0, 3);
    }
}
