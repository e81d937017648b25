//! Integer-only statistics, as computable inside eBPF.
//!
//! The verifier forbids floating point (§III-A), so everything the paper
//! computes "directly in the eBPF space" must be integer arithmetic on
//! `u64` cells. [`ScaledAcc`] is that arithmetic: deltas are right-shifted
//! before squaring so the sum of squares fits in 64 bits over realistic
//! window lengths, and Eq. 2's naive `E[x²] − E[x]²` form is evaluated in
//! `u128` only at *read* time (userspace), never in kernel context.

/// Default scaling shift: 10 bits ≈ microsecond resolution for
/// nanosecond inputs.
pub const DEFAULT_SHIFT: u32 = 10;

/// Fixed-point accumulator over scaled samples: count, sum, sum of squares.
///
/// Matches cell-for-cell what the bytecode programs maintain in their array
/// map, so the native and eBPF backends can be compared exactly.
///
/// # Examples
///
/// ```
/// use kscope_core::ScaledAcc;
///
/// let mut acc = ScaledAcc::new(0); // shift 0: no scaling
/// for x in [2, 4, 4, 4, 5, 5, 7, 9] {
///     acc.push(x);
/// }
/// assert_eq!(acc.mean(), Some(5.0));
/// assert_eq!(acc.variance(), Some(4.0));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScaledAcc {
    shift: u32,
    /// Number of samples.
    pub count: u64,
    /// Sum of scaled samples.
    pub sum: u64,
    /// Sum of squared scaled samples.
    pub sum_sq: u64,
}

impl ScaledAcc {
    /// Creates an accumulator scaling inputs by `>> shift`.
    pub fn new(shift: u32) -> ScaledAcc {
        ScaledAcc {
            shift,
            ..ScaledAcc::default()
        }
    }

    /// The configured shift.
    pub fn shift(&self) -> u32 {
        self.shift
    }

    /// Adds one raw (unscaled) sample, exactly as the eBPF program does:
    /// scale, add to sum, add square to sum of squares (wrapping, as u64
    /// arithmetic in eBPF wraps).
    pub fn push(&mut self, raw: u64) {
        let scaled = raw >> self.shift;
        self.count = self.count.wrapping_add(1);
        self.sum = self.sum.wrapping_add(scaled);
        self.sum_sq = self.sum_sq.wrapping_add(scaled.wrapping_mul(scaled));
    }

    /// Rebuilds from raw map cells (userspace read path).
    pub fn from_cells(shift: u32, count: u64, sum: u64, sum_sq: u64) -> ScaledAcc {
        ScaledAcc {
            shift,
            count,
            sum,
            sum_sq,
        }
    }

    /// Mean in *raw* units (undoes the scaling); `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        Some(self.sum as f64 / self.count as f64 * (1u64 << self.shift) as f64)
    }

    /// Population variance in *raw²* units via Eq. 2
    /// (`E[x²] − E[x]²`); `None` when empty. Evaluated in `u128`/`f64`
    /// at read time, so no precision is lost to the naive form.
    pub fn variance(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let n = self.count as f64;
        let mean_sq = (self.sum_sq as u128) as f64 / n;
        let mean = self.sum as f64 / n;
        let var_scaled = (mean_sq - mean * mean).max(0.0);
        let scale = (1u64 << self.shift) as f64;
        Some(var_scaled * scale * scale)
    }

    /// Standard deviation in raw units.
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Merges another accumulator (same shift) into this one.
    ///
    /// # Panics
    ///
    /// Panics if the shifts differ.
    pub fn merge(&mut self, other: &ScaledAcc) {
        assert_eq!(self.shift, other.shift, "cannot merge different scales");
        self.count = self.count.wrapping_add(other.count);
        self.sum = self.sum.wrapping_add(other.sum);
        self.sum_sq = self.sum_sq.wrapping_add(other.sum_sq);
    }

    /// Resets to empty, keeping the shift (window roll).
    pub fn reset(&mut self) {
        self.count = 0;
        self.sum = 0;
        self.sum_sq = 0;
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unscaled_matches_exact_moments() {
        let mut acc = ScaledAcc::new(0);
        let xs = [10u64, 20, 30, 40];
        for x in xs {
            acc.push(x);
        }
        assert_eq!(acc.mean(), Some(25.0));
        assert_eq!(acc.variance(), Some(125.0));
        assert_eq!(acc.std_dev(), Some(125.0f64.sqrt()));
    }

    #[test]
    fn scaling_loses_at_most_quantization() {
        let mut acc = ScaledAcc::new(10);
        // Deltas around 500us in ns.
        let xs: Vec<u64> = (0..1000).map(|i| 480_000 + (i % 41) * 1000).collect();
        for &x in &xs {
            acc.push(x);
        }
        let exact_mean = xs.iter().sum::<u64>() as f64 / xs.len() as f64;
        let mean = acc.mean().unwrap();
        assert!(
            (mean - exact_mean).abs() < 1_200.0, // one quantum of 1024ns
            "mean {mean} vs exact {exact_mean}"
        );
        let exact_var = {
            let m = exact_mean;
            xs.iter().map(|&x| (x as f64 - m).powi(2)).sum::<f64>() / xs.len() as f64
        };
        let var = acc.variance().unwrap();
        assert!(
            (var - exact_var).abs() / exact_var < 0.05,
            "var {var} vs exact {exact_var}"
        );
    }

    #[test]
    fn empty_is_none() {
        let acc = ScaledAcc::new(DEFAULT_SHIFT);
        assert!(acc.is_empty());
        assert_eq!(acc.mean(), None);
        assert_eq!(acc.variance(), None);
    }

    #[test]
    fn variance_clamped_non_negative() {
        let mut acc = ScaledAcc::new(0);
        acc.push(5);
        assert_eq!(acc.variance(), Some(0.0));
    }

    #[test]
    fn merge_equals_combined() {
        let xs: Vec<u64> = (0..100).map(|i| i * 977).collect();
        let mut a = ScaledAcc::new(4);
        let mut b = ScaledAcc::new(4);
        let mut all = ScaledAcc::new(4);
        for (i, &x) in xs.iter().enumerate() {
            if i % 2 == 0 {
                a.push(x);
            } else {
                b.push(x);
            }
            all.push(x);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn reset_preserves_shift() {
        let mut acc = ScaledAcc::new(7);
        acc.push(1 << 20);
        acc.reset();
        assert!(acc.is_empty());
        assert_eq!(acc.shift(), 7);
    }

    #[test]
    #[should_panic(expected = "different scales")]
    fn merge_rejects_mixed_scales() {
        let mut a = ScaledAcc::new(1);
        a.merge(&ScaledAcc::new(2));
    }

    #[test]
    fn from_cells_round_trips() {
        let mut acc = ScaledAcc::new(10);
        acc.push(123_456);
        acc.push(789_012);
        let rebuilt = ScaledAcc::from_cells(10, acc.count, acc.sum, acc.sum_sq);
        assert_eq!(rebuilt, acc);
    }
}
