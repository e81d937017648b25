//! Exact percentile estimation.
//!
//! Tail latency (p99) is the paper's ground-truth QoS metric. The harness
//! computes it exactly from recorded client latencies ([`percentile`]).

/// Exact percentile of a **sorted ascending** slice with linear
/// interpolation between closest ranks.
///
/// `q` is in `[0, 100]`. Returns `None` for empty input.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 100]`.
fn percentile_of_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=100.0).contains(&q), "percentile must be in [0, 100]");
    if sorted.is_empty() {
        return None;
    }
    if sorted.len() == 1 {
        return Some(sorted[0]);
    }
    let rank = q / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Sorts a copy of `values` and takes the percentile.
///
/// Convenience for one-shot use; sorts with total ordering so NaNs sink to
/// the end (callers should not feed NaNs).
pub(crate) fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_of_sorted(&sorted, q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kscope_simcore::SimRng;
    use kscope_testkit::{gen, Config};

    #[test]
    fn exact_percentile_endpoints() {
        let xs = [10.0, 20.0, 30.0];
        assert_eq!(percentile_of_sorted(&xs, 0.0), Some(10.0));
        assert_eq!(percentile_of_sorted(&xs, 50.0), Some(20.0));
        assert_eq!(percentile_of_sorted(&xs, 100.0), Some(30.0));
    }

    #[test]
    fn exact_percentile_interpolates() {
        let xs = [0.0, 10.0];
        assert_eq!(percentile_of_sorted(&xs, 25.0), Some(2.5));
        assert_eq!(percentile_of_sorted(&xs, 75.0), Some(7.5));
    }

    #[test]
    fn exact_percentile_empty_and_single() {
        assert_eq!(percentile_of_sorted(&[], 50.0), None);
        assert_eq!(percentile_of_sorted(&[5.0], 99.0), Some(5.0));
    }

    #[test]
    fn percentile_sorts_unsorted_input() {
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
    }

    #[test]
    #[should_panic(expected = "in [0, 100]")]
    fn percentile_rejects_out_of_range_q() {
        percentile_of_sorted(&[1.0], 101.0);
    }

    /// Exact percentiles are monotone in q and bounded by min/max.
    #[test]
    fn percentile_is_monotone_and_bounded() {
        kscope_testkit::check!(
            Config::cases(256),
            |rng: &mut SimRng| {
                (
                    gen::vec_of(rng, 1, 99, |r| gen::f64_in(r, -1e6, 1e6)),
                    gen::f64_in(rng, 0.0, 100.0),
                    gen::f64_in(rng, 0.0, 100.0),
                )
            },
            |case: &(Vec<f64>, f64, f64)| {
                let (ref xs, q1, q2) = *case;
                let mut xs = xs.clone();
                xs.sort_by(f64::total_cmp);
                let (lo, hi) = (q1.min(q2), q1.max(q2));
                let p_lo = percentile_of_sorted(&xs, lo).unwrap();
                let p_hi = percentile_of_sorted(&xs, hi).unwrap();
                assert!(p_lo <= p_hi + 1e-9);
                assert!(p_lo >= xs[0] - 1e-9);
                assert!(p_hi <= xs[xs.len() - 1] + 1e-9);
            }
        );
    }
}
