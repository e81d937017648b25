//! The three request-level estimators of the paper.
//!
//! * [`RpsEstimator`] — Eq. 1: throughput from the mean inter-send delta;
//! * [`SaturationDetector`] — Eq. 2: saturation from an unexpected rise of
//!   the inter-send variance (§IV-C1);
//! * [`SlackEstimator`] — saturation slack from mean poll duration
//!   (§IV-C2).

use crate::counters::WindowMetrics;

/// The paper's recommended minimum sample count for a stable Eq. 1
/// estimate ("at least 2048 syscalls").
pub const PAPER_MIN_SAMPLES: u64 = 2048;

/// Observed-RPS estimator (Eq. 1).
///
/// # Examples
///
/// ```
/// use kscope_core::{RpsEstimator, WindowMetrics, RawCounters};
/// use kscope_simcore::Nanos;
///
/// let mut counters = RawCounters::new(0);
/// for _ in 0..4096 {
///     counters.send.push(1_000_000); // 1ms between sends
/// }
/// let w = WindowMetrics::from_counters(Nanos::ZERO, Nanos::from_secs(4), &counters);
/// let est = RpsEstimator::default();
/// assert!((est.from_window(&w).unwrap() - 1_000.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RpsEstimator {
    /// Minimum send samples for a confident estimate.
    pub min_samples: u64,
}

impl Default for RpsEstimator {
    fn default() -> Self {
        RpsEstimator {
            min_samples: PAPER_MIN_SAMPLES,
        }
    }
}

impl RpsEstimator {
    /// An estimator accepting windows with at least `min_samples` deltas.
    pub fn with_min_samples(min_samples: u64) -> RpsEstimator {
        RpsEstimator { min_samples }
    }

    /// Eq. 1 over one window; `None` when the window is too thin.
    pub fn from_window(&self, w: &WindowMetrics) -> Option<f64> {
        if w.send_samples < self.min_samples {
            return None;
        }
        w.rps_obsv
    }

    /// Sample-weighted Eq. 1 over several windows (equivalent to one big
    /// window); `None` when the combined windows are too thin.
    pub fn from_windows(&self, windows: &[WindowMetrics]) -> Option<f64> {
        let mut samples = 0u64;
        let mut delta_time = 0.0f64;
        for w in windows {
            if let Some(rps) = w.rps_obsv {
                samples += w.send_samples;
                delta_time += w.send_samples as f64 / rps;
            }
        }
        if samples < self.min_samples || delta_time <= 0.0 {
            return None;
        }
        Some(samples as f64 / delta_time)
    }
}

/// Saturation assessment from the variance signal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaturationAssessment {
    /// Whether the detector currently flags saturation.
    pub saturated: bool,
    /// The window's inter-send variance (ns²).
    pub variance: f64,
    /// The running variance floor (minimum seen at high throughput).
    pub variance_floor: f64,
    /// The window's observed RPS.
    pub rps: f64,
    /// The highest observed RPS so far.
    pub max_rps_seen: f64,
}

/// Online saturation detector (Eq. 2 variance knee, §IV-C1).
///
/// Tracks the running minimum of `var(Δt_send)` and the running maximum of
/// observed RPS. Below the knee the variance keeps falling as load rises;
/// once the server saturates, the variance turns upward while observed RPS
/// stops growing — the detector flags windows whose variance exceeds the
/// floor by `rise_factor` while throughput is within `rps_band` of the
/// maximum seen.
#[derive(Debug, Clone, PartialEq)]
pub struct SaturationDetector {
    /// Variance must exceed its floor by this factor.
    pub rise_factor: f64,
    /// Only windows with RPS ≥ `rps_band · max_rps_seen` can flag (filters
    /// out the high-variance low-load regime).
    pub rps_band: f64,
    /// Minimum send samples per window.
    pub min_samples: u64,
    variance_floor: Option<f64>,
    max_rps: f64,
}

impl Default for SaturationDetector {
    fn default() -> Self {
        SaturationDetector {
            rise_factor: 1.3,
            rps_band: 0.85,
            min_samples: 256,
            variance_floor: None,
            max_rps: 0.0,
        }
    }
}

impl SaturationDetector {
    /// Feeds one window; returns an assessment when the window carries
    /// enough signal.
    pub fn observe(&mut self, w: &WindowMetrics) -> Option<SaturationAssessment> {
        let variance = w.var_send?;
        let rps = w.rps_obsv?;
        if w.send_samples < self.min_samples {
            return None;
        }
        self.max_rps = self.max_rps.max(rps);
        let near_peak = rps >= self.rps_band * self.max_rps;
        // The floor only tracks high-throughput windows: variance at low
        // load is dominated by arrival gaps, not contention.
        if near_peak {
            self.variance_floor = Some(match self.variance_floor {
                Some(floor) => floor.min(variance),
                None => variance,
            });
        }
        let floor = self.variance_floor.unwrap_or(variance);
        Some(SaturationAssessment {
            saturated: near_peak && variance > self.rise_factor * floor,
            variance,
            variance_floor: floor,
            rps,
            max_rps_seen: self.max_rps,
        })
    }
}

/// Slack assessment from the poll-duration signal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlackAssessment {
    /// Mean poll duration in this window (ns).
    pub poll_mean_ns: f64,
    /// Estimated headroom in `[0, 1]`: 1 = fully idle, 0 = saturated.
    pub headroom: f64,
    /// Whether the headroom is below the saturation threshold.
    pub saturated: bool,
}

/// Saturation-slack estimator (§IV-C2).
///
/// Poll durations shrink as load rises and stabilize at a floor at
/// saturation. Headroom is the window's mean poll duration positioned
/// between the floor and the largest (idlest) mean seen, on a log scale —
/// poll durations span orders of magnitude across the load range.
#[derive(Debug, Clone, PartialEq)]
pub struct SlackEstimator {
    /// Poll-duration floor in ns (syscall overhead at zero idleness).
    pub floor_ns: f64,
    /// Headroom below this threshold flags saturation.
    pub saturation_threshold: f64,
    /// Minimum poll completions per window.
    pub min_samples: u64,
    reference_ns: Option<f64>,
}

impl Default for SlackEstimator {
    fn default() -> Self {
        SlackEstimator {
            floor_ns: 4_000.0,
            saturation_threshold: 0.1,
            min_samples: 16,
            reference_ns: None,
        }
    }
}

impl SlackEstimator {
    /// Feeds one window; returns an assessment when poll activity exists.
    pub fn observe(&mut self, w: &WindowMetrics) -> Option<SlackAssessment> {
        let mean = w.poll_mean_ns?;
        if w.poll_count < self.min_samples {
            return None;
        }
        let reference = match self.reference_ns {
            Some(r) => {
                let r = r.max(mean);
                self.reference_ns = Some(r);
                r
            }
            None => {
                self.reference_ns = Some(mean);
                mean
            }
        };
        let headroom = if reference <= self.floor_ns {
            0.0
        } else {
            let num = (mean.max(self.floor_ns) / self.floor_ns).ln();
            let den = (reference / self.floor_ns).ln();
            (num / den).clamp(0.0, 1.0)
        };
        Some(SlackAssessment {
            poll_mean_ns: mean,
            headroom,
            saturated: headroom < self.saturation_threshold,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::RawCounters;
    use kscope_simcore::Nanos;

    fn window(send_deltas_ns: &[u64], poll_durs_ns: &[u64]) -> WindowMetrics {
        let mut counters = RawCounters::new(0);
        for &d in send_deltas_ns {
            counters.send.push(d);
        }
        for &d in poll_durs_ns {
            counters.poll.push(d);
        }
        WindowMetrics::from_counters(Nanos::ZERO, Nanos::from_secs(1), &counters)
    }

    #[test]
    fn rps_estimator_requires_min_samples() {
        let est = RpsEstimator::with_min_samples(10);
        let thin = window(&[1_000_000; 5], &[]);
        assert_eq!(est.from_window(&thin), None);
        let thick = window(&[1_000_000; 20], &[]);
        assert!((est.from_window(&thick).unwrap() - 1_000.0).abs() < 1e-9);
    }

    #[test]
    fn rps_from_windows_pools_samples() {
        let est = RpsEstimator::with_min_samples(30);
        let w = window(&[2_000_000; 20], &[]); // 500 rps each
        assert_eq!(est.from_window(&w), None);
        let pooled = est.from_windows(&[w, w]).unwrap();
        assert!((pooled - 500.0).abs() < 1e-9, "pooled {pooled}");
    }

    #[test]
    fn saturation_detector_flags_variance_rise_at_peak() {
        let mut det = SaturationDetector {
            min_samples: 4,
            ..SaturationDetector::default()
        };
        // Load ramp: variance falls as rps rises.
        let ramp = [
            window(&[4_000_000; 64], &[]), // 250 rps, wide deltas
            window(&[2_000_000; 64], &[]),
            window(&[1_000_000; 64], &[]),
        ];
        for w in &ramp {
            let a = det.observe(w).unwrap();
            assert!(!a.saturated, "{a:?}");
        }
        // Saturated: same mean rate but bursty deltas (high variance).
        let mut bursty = Vec::new();
        for _ in 0..32 {
            bursty.push(100_000u64);
            bursty.push(1_900_000u64);
        }
        let sat = window(&bursty, &[]);
        let a = det.observe(&sat).unwrap();
        assert!(a.saturated, "{a:?}");
        assert!(a.variance > a.variance_floor);
    }

    #[test]
    fn saturation_detector_ignores_low_load_variance() {
        let mut det = SaturationDetector {
            min_samples: 4,
            ..SaturationDetector::default()
        };
        det.observe(&window(&[1_000_000; 64], &[])).unwrap(); // 1000 rps
                                                              // Low load: huge variance but far from peak rps.
        let mut sparse = Vec::new();
        for _ in 0..16 {
            sparse.push(1_000_000u64);
            sparse.push(30_000_000u64);
        }
        let a = det.observe(&window(&sparse, &[])).unwrap();
        assert!(!a.saturated, "{a:?}");
    }

    #[test]
    fn slack_estimator_tracks_idleness() {
        let mut est = SlackEstimator {
            min_samples: 2,
            ..SlackEstimator::default()
        };
        let idle = est.observe(&window(&[], &[4_000_000; 8])).unwrap();
        assert!(idle.headroom > 0.9, "{idle:?}");
        assert!(!idle.saturated);
        let mid = est.observe(&window(&[], &[200_000; 8])).unwrap();
        assert!(mid.headroom > 0.2 && mid.headroom < 0.9, "{mid:?}");
        let sat = est.observe(&window(&[], &[4_500; 8])).unwrap();
        assert!(sat.headroom < 0.1, "{sat:?}");
        assert!(sat.saturated);
    }

    #[test]
    fn slack_estimator_needs_poll_samples() {
        let mut est = SlackEstimator::default();
        assert_eq!(est.observe(&window(&[1_000; 4], &[])), None);
        assert_eq!(est.observe(&window(&[], &[1_000; 4])), None); // < 16
    }

    #[test]
    fn rps_estimator_default_uses_paper_threshold() {
        assert_eq!(RpsEstimator::default().min_samples, PAPER_MIN_SAMPLES);
    }
}
