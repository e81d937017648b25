//! Ordinary least-squares linear regression.
//!
//! Figure 2 and Table II of the paper report the coefficient of
//! determination (R²) of a linear fit between observed RPS (from syscall
//! deltas) and real RPS (reported by the benchmark), plus residual scatter
//! plots around that fit. [`LinearFit`] implements exactly that analysis.

/// The result of an ordinary least-squares fit `y ≈ slope·x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LinearFit {
    /// Fitted slope.
    pub(crate) slope: f64,
    /// Fitted intercept.
    pub(crate) intercept: f64,
    /// Coefficient of determination in `[0, 1]` (clamped).
    pub(crate) r_squared: f64,
}

/// Errors from [`LinearFit::fit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FitError {
    /// The two input slices differ in length.
    LengthMismatch,
    /// Fewer than two points were supplied.
    TooFewPoints,
    /// All x values are identical, so the slope is undefined.
    DegenerateX,
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            FitError::LengthMismatch => "x and y have different lengths",
            FitError::TooFewPoints => "need at least two points to fit a line",
            FitError::DegenerateX => "all x values are identical",
        };
        f.write_str(msg)
    }
}

impl LinearFit {
    /// Fits `y ≈ slope·x + intercept` by least squares.
    ///
    /// # Errors
    ///
    /// Returns [`FitError`] when the inputs are mismatched, shorter than two
    /// points, or have zero variance in `x`.
    pub(crate) fn fit(x: &[f64], y: &[f64]) -> Result<LinearFit, FitError> {
        if x.len() != y.len() {
            return Err(FitError::LengthMismatch);
        }
        let n = x.len();
        if n < 2 {
            return Err(FitError::TooFewPoints);
        }
        let nf = n as f64;
        let mean_x = x.iter().sum::<f64>() / nf;
        let mean_y = y.iter().sum::<f64>() / nf;
        let mut sxx = 0.0;
        let mut syy = 0.0;
        let mut sxy = 0.0;
        for (&xi, &yi) in x.iter().zip(y) {
            let dx = xi - mean_x;
            let dy = yi - mean_y;
            sxx += dx * dx;
            syy += dy * dy;
            sxy += dx * dy;
        }
        if sxx == 0.0 {
            return Err(FitError::DegenerateX);
        }
        let slope = sxy / sxx;
        let intercept = mean_y - slope * mean_x;
        let r_squared = if syy == 0.0 {
            // y is constant: the fit is exact (slope 0 explains everything).
            1.0
        } else {
            let r = sxy / (sxx * syy).sqrt();
            (r * r).clamp(0.0, 1.0)
        };
        Ok(LinearFit {
            slope,
            intercept,
            r_squared,
        })
    }

    /// Residuals `y_i − ŷ(x_i)` — the quantity plotted in the lower panels
    /// of Fig. 2.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub(crate) fn residuals(&self, x: &[f64], y: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), y.len(), "x and y must have equal length");
        x.iter()
            .zip(y)
            .map(|(&xi, &yi)| yi - (self.slope * xi + self.intercept))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kscope_simcore::SimRng;
    use kscope_testkit::{gen, Config};

    #[test]
    fn perfect_line_has_unit_r_squared() {
        let x: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v - 7.0).collect();
        let fit = LinearFit::fit(&x, &y).unwrap();
        assert!((fit.slope - 3.0).abs() < 1e-12);
        assert!((fit.intercept + 7.0).abs() < 1e-10);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn anticorrelated_line() {
        let x = [0.0, 1.0, 2.0];
        let y = [4.0, 2.0, 0.0];
        let fit = LinearFit::fit(&x, &y).unwrap();
        assert!((fit.slope + 2.0).abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noise_reduces_r_squared() {
        let x: Vec<f64> = (0..100).map(|i| i as f64).collect();
        // Deterministic "noise".
        let y: Vec<f64> = x.iter().map(|v| v + 30.0 * ((v * 12.9898).sin())).collect();
        let fit = LinearFit::fit(&x, &y).unwrap();
        assert!(fit.r_squared < 1.0);
        assert!(fit.r_squared > 0.5);
    }

    #[test]
    fn residuals_sum_to_zero() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [1.2, 1.9, 3.3, 3.8, 5.1];
        let fit = LinearFit::fit(&x, &y).unwrap();
        let res = fit.residuals(&x, &y);
        let sum: f64 = res.iter().sum();
        assert!(sum.abs() < 1e-10, "residual sum {sum}");
    }

    #[test]
    fn error_cases() {
        assert_eq!(
            LinearFit::fit(&[1.0], &[1.0, 2.0]),
            Err(FitError::LengthMismatch)
        );
        assert_eq!(LinearFit::fit(&[1.0], &[1.0]), Err(FitError::TooFewPoints));
        assert_eq!(
            LinearFit::fit(&[2.0, 2.0], &[1.0, 5.0]),
            Err(FitError::DegenerateX)
        );
        assert!(FitError::DegenerateX.to_string().contains("identical"));
    }

    #[test]
    fn constant_y_is_perfectly_explained() {
        let fit = LinearFit::fit(&[1.0, 2.0, 3.0], &[5.0, 5.0, 5.0]).unwrap();
        assert_eq!(fit.slope, 0.0);
        assert_eq!(fit.r_squared, 1.0);
    }

    #[test]
    fn noisy_line_recovers_slope() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.1, 3.9, 6.0, 8.1];
        let fit = LinearFit::fit(&x, &y).unwrap();
        assert!((fit.slope - 2.0).abs() < 0.1);
        assert!(fit.r_squared > 0.99);
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
                if let Ok(fit) = LinearFit::fit(&xs, &ys) {
                    let r2 = fit.r_squared;
                    assert!((0.0..=1.0).contains(&r2), "r² = {r2}");
                }
            }
        );
    }

    /// Residuals of an OLS fit sum to ~zero.
    #[test]
    fn residuals_sum_to_zero_on_any_points() {
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
}
