//! The userspace agent: estimators composed over an observer's windows.

use crate::counters::WindowMetrics;
use crate::estimators::{
    RpsEstimator, SaturationAssessment, SaturationDetector, SlackAssessment, SlackEstimator,
};

/// Everything the agent derived from one window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgentReport {
    /// The window's raw metrics.
    pub window: WindowMetrics,
    /// Eq. 1 observed RPS (when the window is thick enough).
    pub rps_obsv: Option<f64>,
    /// Variance-based saturation assessment.
    pub saturation: Option<SaturationAssessment>,
    /// Poll-duration slack assessment.
    pub slack: Option<SlackAssessment>,
}

impl AgentReport {
    /// True when either saturation signal fires.
    pub fn any_saturation(&self) -> bool {
        self.saturation.map(|s| s.saturated).unwrap_or(false)
            || self.slack.map(|s| s.saturated).unwrap_or(false)
    }
}

/// The composed userspace agent of the paper's envisioned management
/// runtime: one ingest call per observation window, three signals out.
///
/// # Examples
///
/// ```
/// use kscope_core::{Agent, RawCounters, WindowMetrics};
/// use kscope_simcore::Nanos;
///
/// let mut agent = Agent::default();
/// let mut counters = RawCounters::new(0);
/// for _ in 0..4096 {
///     counters.send.push(500_000);
///     counters.poll.push(200_000);
/// }
/// counters.poll.count = 64; // plenty of poll samples
/// let w = WindowMetrics::from_counters(Nanos::ZERO, Nanos::from_secs(2), &counters);
/// let report = agent.ingest(w);
/// assert!((report.rps_obsv.unwrap() - 2_000.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Agent {
    /// Eq. 1 estimator.
    pub rps: RpsEstimator,
    /// Eq. 2 variance detector.
    pub saturation: SaturationDetector,
    /// Poll-duration slack estimator.
    pub slack: SlackEstimator,
    reports: Vec<AgentReport>,
}

impl Agent {
    /// Creates an agent with custom estimators.
    pub fn new(rps: RpsEstimator, saturation: SaturationDetector, slack: SlackEstimator) -> Agent {
        Agent {
            rps,
            saturation,
            slack,
            reports: Vec::new(),
        }
    }

    /// Feeds one window, records and returns the derived report.
    pub fn ingest(&mut self, window: WindowMetrics) -> AgentReport {
        let report = AgentReport {
            window,
            rps_obsv: self.rps.from_window(&window),
            saturation: self.saturation.observe(&window),
            slack: self.slack.observe(&window),
        };
        self.reports.push(report);
        report
    }

    /// Feeds a batch of windows.
    pub fn ingest_all<I: IntoIterator<Item = WindowMetrics>>(&mut self, windows: I) {
        for w in windows {
            self.ingest(w);
        }
    }

    /// All reports so far.
    pub fn reports(&self) -> &[AgentReport] {
        &self.reports
    }

    /// The most recent report.
    pub fn latest(&self) -> Option<&AgentReport> {
        self.reports.last()
    }

    /// Pooled Eq. 1 estimate across every ingested window.
    pub fn overall_rps(&self) -> Option<f64> {
        let windows: Vec<WindowMetrics> = self.reports.iter().map(|r| r.window).collect();
        self.rps.from_windows(&windows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::RawCounters;
    use kscope_simcore::Nanos;

    fn window(delta_ns: u64, n: usize) -> WindowMetrics {
        let mut counters = RawCounters::new(0);
        for _ in 0..n {
            counters.send.push(delta_ns);
        }
        WindowMetrics::from_counters(Nanos::ZERO, Nanos::from_secs(1), &counters)
    }

    #[test]
    fn agent_accumulates_reports() {
        let mut agent = Agent::new(
            RpsEstimator::with_min_samples(8),
            SaturationDetector::default(),
            SlackEstimator::default(),
        );
        agent.ingest_all([window(1_000_000, 32), window(500_000, 32)]);
        assert_eq!(agent.reports().len(), 2);
        assert!((agent.latest().unwrap().rps_obsv.unwrap() - 2_000.0).abs() < 1e-9);
    }

    #[test]
    fn overall_rps_pools_windows() {
        let mut agent = Agent::new(
            RpsEstimator::with_min_samples(50),
            SaturationDetector::default(),
            SlackEstimator::default(),
        );
        agent.ingest_all([window(1_000_000, 32), window(1_000_000, 32)]);
        // Individual windows are too thin; the pool is not.
        assert_eq!(agent.reports()[0].rps_obsv, None);
        let pooled = agent.overall_rps().unwrap();
        assert!((pooled - 1_000.0).abs() < 1e-9);
    }

    #[test]
    fn any_saturation_defaults_false() {
        let mut agent = Agent::default();
        let report = agent.ingest(window(1_000_000, 4));
        assert!(!report.any_saturation());
    }
}
