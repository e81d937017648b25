//! Streaming (single-pass) moment estimators.
//!
//! The userspace side of the observability pipeline consumes metric samples
//! as they arrive; these accumulators compute mean/variance/extrema without
//! retaining the samples. Variance uses Welford's algorithm for numerical
//! stability, unlike the in-kernel estimator
//! (`kscope-core`), which deliberately uses the paper's naive
//! `E[x²] − E[x]²` form (Eq. 2) because that is what fits in eBPF.

/// Welford mean/variance accumulator.
///
/// # Examples
///
/// ```
/// use kscope_analysis::Welford;
///
/// let mut acc = Welford::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     acc.push(x);
/// }
/// assert_eq!(acc.mean(), 5.0);
/// assert_eq!(acc.population_variance(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Welford {
        Welford::default()
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance `E[x²] − E[x]²` (0 with fewer than one sample).
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Unbiased sample variance (0 with fewer than two samples).
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Coefficient of variation (σ/μ), or 0 when the mean is 0.
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std_dev() / self.mean.abs()
        }
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.mean += delta * other.count as f64 / total as f64;
        self.count = total;
    }
}

impl Extend<f64> for Welford {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for Welford {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Welford {
        let mut acc = Welford::new();
        acc.extend(iter);
        acc
    }
}

/// Normalizes values to `[0, 1]` by dividing by the maximum magnitude.
///
/// This is the normalization the paper uses for its figures ("normalized
/// RPS", "normalized variance"). Returns all-zero when the max is zero and
/// an empty vector for empty input.
pub fn normalize_by_max(values: &[f64]) -> Vec<f64> {
    let max = values.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    if max == 0.0 {
        return vec![0.0; values.len()];
    }
    values.iter().map(|v| v / max).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_variance(xs: &[f64]) -> f64 {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n
    }

    #[test]
    fn welford_matches_naive() {
        let xs: Vec<f64> = (0..100)
            .map(|i| (i as f64 * 0.37).sin() * 10.0 + 50.0)
            .collect();
        let acc: Welford = xs.iter().copied().collect();
        assert!((acc.population_variance() - naive_variance(&xs)).abs() < 1e-9);
        assert!((acc.mean() - xs.iter().sum::<f64>() / 100.0).abs() < 1e-12);
    }

    #[test]
    fn welford_empty_and_single() {
        let mut acc = Welford::new();
        assert_eq!(acc.mean(), 0.0);
        assert_eq!(acc.population_variance(), 0.0);
        acc.push(5.0);
        assert_eq!(acc.mean(), 5.0);
        assert_eq!(acc.population_variance(), 0.0);
        assert_eq!(acc.sample_variance(), 0.0);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64 * 1.3).collect();
        let ys: Vec<f64> = (0..70).map(|i| 100.0 - i as f64).collect();
        let mut merged: Welford = xs.iter().copied().collect();
        let other: Welford = ys.iter().copied().collect();
        merged.merge(&other);
        let all: Welford = xs.iter().chain(&ys).copied().collect();
        assert_eq!(merged.count(), all.count());
        assert!((merged.mean() - all.mean()).abs() < 1e-9);
        assert!((merged.population_variance() - all.population_variance()).abs() < 1e-9);
    }

    #[test]
    fn welford_merge_with_empty_sides() {
        let mut a = Welford::new();
        let b: Welford = [1.0, 2.0, 3.0].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.mean(), 2.0);
        let empty = Welford::new();
        let mut c = b;
        c.merge(&empty);
        assert_eq!(c.count(), 3);
    }

    #[test]
    fn cv_of_constant_is_zero() {
        let acc: Welford = [4.0, 4.0, 4.0].into_iter().collect();
        assert_eq!(acc.cv(), 0.0);
    }

    #[test]
    fn normalize_by_max_scales_to_unit() {
        let normed = normalize_by_max(&[1.0, 2.0, 4.0]);
        assert_eq!(normed, vec![0.25, 0.5, 1.0]);
        assert_eq!(normalize_by_max(&[0.0, 0.0]), vec![0.0, 0.0]);
        assert!(normalize_by_max(&[]).is_empty());
    }
}
