//! Metric math: medians, layer shares, output digests.

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks (`q` in `[0, 1]`).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Each part's share of `total`.
pub fn shares(parts: &[f64], total: f64) -> Vec<f64> {
    parts.iter().map(|p| p / total).collect()
}

/// 64-bit FNV-1a over `bytes`: a stable digest of simulation output, so
/// a change to any output byte shows in one printed number.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 1.0), 50.0);
        assert_eq!(percentile(&v, 0.25), 20.0);
        assert!((percentile(&v, 0.9) - 46.0).abs() < 1e-12);
    }

    #[test]
    fn shares_of_parts_that_cover_the_total_sum_to_one() {
        let parts = [0.5, 1.25, 0.25, 2.0];
        let s = shares(&parts, parts.iter().sum());
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(s[3], 0.5);
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(digest(b"ab"), digest(b"ba"));
    }
}
