//! Property-based tests for the analysis toolkit.

use kscope_analysis::{
    normalize_by_max, percentile_of_sorted, r_squared, Histogram, LinearFit, Welford,
};
use kscope_simcore::SimRng;
use kscope_testkit::{gen, Config};

fn naive_variance(xs: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n
}

/// Welford equals the two-pass naive variance.
#[test]
fn welford_matches_naive() {
    kscope_testkit::check!(
        Config::cases(256),
        |rng: &mut SimRng| gen::vec_of(rng, 1, 199, |r| gen::f64_in(r, -1e6, 1e6)),
        |xs: &Vec<f64>| {
            let acc: Welford = xs.iter().copied().collect();
            let naive = naive_variance(xs);
            assert!((acc.population_variance() - naive).abs() <= 1e-6 * naive.abs().max(1.0));
        }
    );
}

/// Merging two accumulators equals accumulating the concatenation.
#[test]
fn welford_merge_is_concatenation() {
    kscope_testkit::check!(
        Config::cases(256),
        |rng: &mut SimRng| {
            (
                gen::vec_of(rng, 0, 99, |r| gen::f64_in(r, -1e5, 1e5)),
                gen::vec_of(rng, 0, 99, |r| gen::f64_in(r, -1e5, 1e5)),
            )
        },
        |case: &(Vec<f64>, Vec<f64>)| {
            let (ref xs, ref ys) = *case;
            let mut merged: Welford = xs.iter().copied().collect();
            merged.merge(&ys.iter().copied().collect());
            let all: Welford = xs.iter().chain(ys).copied().collect();
            assert_eq!(merged.count(), all.count());
            assert!((merged.mean() - all.mean()).abs() < 1e-6);
            assert!((merged.population_variance() - all.population_variance()).abs() < 1e-4);
        }
    );
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

/// R² is always in [0, 1] when a fit exists.
#[test]
fn r_squared_is_in_unit_interval() {
    kscope_testkit::check!(
        Config::cases(256),
        |rng: &mut SimRng| {
            gen::vec_of(rng, 2, 99, |r| {
                (gen::f64_in(r, -1e4, 1e4), gen::f64_in(r, -1e4, 1e4))
            })
        },
        |points: &Vec<(f64, f64)>| {
            let xs: Vec<f64> = points.iter().map(|p| p.0).collect();
            let ys: Vec<f64> = points.iter().map(|p| p.1).collect();
            if let Some(r2) = r_squared(&xs, &ys) {
                assert!((0.0..=1.0).contains(&r2), "r² = {r2}");
            }
        }
    );
}

/// Residuals of an OLS fit sum to ~zero.
#[test]
fn residuals_sum_to_zero() {
    kscope_testkit::check!(
        Config::cases(256),
        |rng: &mut SimRng| {
            gen::vec_of(rng, 3, 59, |r| {
                (gen::f64_in(r, -1e4, 1e4), gen::f64_in(r, -1e4, 1e4))
            })
        },
        |points: &Vec<(f64, f64)>| {
            let xs: Vec<f64> = points.iter().map(|p| p.0).collect();
            let ys: Vec<f64> = points.iter().map(|p| p.1).collect();
            if let Ok(fit) = LinearFit::fit(&xs, &ys) {
                let sum: f64 = fit.residuals(&xs, &ys).iter().sum();
                let scale = ys.iter().map(|y| y.abs()).fold(1.0, f64::max);
                assert!(sum.abs() < 1e-6 * scale * ys.len() as f64, "sum {sum}");
            }
        }
    );
}

/// A perfect line always fits with R² = 1.
#[test]
fn perfect_line_r2_is_one() {
    kscope_testkit::check!(
        Config::cases(256),
        |rng: &mut SimRng| {
            (
                gen::f64_in(rng, -100.0, 100.0),
                gen::f64_in(rng, -1e4, 1e4),
                gen::vec_of(rng, 2, 49, |r| gen::f64_in(r, -1e3, 1e3)),
            )
        },
        |case: &(f64, f64, Vec<f64>)| {
            let (slope, intercept, ref xs) = *case;
            let ys: Vec<f64> = xs.iter().map(|x| slope * x + intercept).collect();
            if let Ok(fit) = LinearFit::fit(xs, &ys) {
                assert!(fit.r_squared > 1.0 - 1e-6, "r² = {}", fit.r_squared);
            }
        }
    );
}

/// Max-normalization stays in [0, 1] and preserves the argmax.
#[test]
fn normalizations_are_bounded() {
    kscope_testkit::check!(
        Config::cases(256),
        |rng: &mut SimRng| gen::vec_of(rng, 1, 99, |r| gen::f64_in(r, 0.0, 1e9)),
        |xs: &Vec<f64>| {
            let normed = normalize_by_max(xs);
            assert_eq!(normed.len(), xs.len());
            assert!(normed.iter().all(|v| (0.0..=1.0).contains(v)));
            let argmax = xs
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .unwrap()
                .0;
            if xs[argmax] > 0.0 {
                assert!((normed[argmax] - 1.0).abs() < 1e-12);
            }
        }
    );
}

/// Histogram conservation: every recorded sample is accounted for.
#[test]
fn histogram_conserves_samples() {
    kscope_testkit::check!(
        Config::cases(256),
        |rng: &mut SimRng| gen::vec_of(rng, 0, 199, |r| gen::f64_in(r, -50.0, 150.0)),
        |xs: &Vec<f64>| {
            let mut h = Histogram::new(0.0, 100.0, 10);
            for &x in xs {
                h.record(x);
            }
            assert_eq!(h.count(), xs.len() as u64);
            let binned: u64 = h.bin_counts().iter().sum();
            assert_eq!(binned + h.underflow() + h.overflow(), xs.len() as u64);
        }
    );
}
