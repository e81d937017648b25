//! Figure 4: poll-syscall duration vs load — the saturation-slack signal.
//!
//! Per workload: normalized mean `epoll_wait`/`select` duration against
//! real RPS, with the QoS-failure point marked. The paper's observation:
//! the duration shrinks as load rises (idleness is consumed) and
//! stabilizes at a floor once the server saturates.

use kscope_workloads::{all_paper_workloads, WorkloadSpec};

use crate::chart::{normalize_by_max, AsciiChart};
use crate::report::TextTable;
use crate::sweep::{sweep, SweepConfig, SweepResult};
use crate::Scale;

/// The slack curve of one workload.
#[derive(Debug, Clone)]
pub struct SlackCurve {
    /// Workload name.
    pub workload: String,
    /// Achieved RPS per level.
    pub rps: Vec<f64>,
    /// Normalized mean poll duration per level.
    pub poll_norm: Vec<f64>,
    /// Raw mean poll duration per level (ns).
    pub poll_raw: Vec<f64>,
    /// Index of the first QoS-violating level.
    pub failure_idx: Option<usize>,
    /// Whether the curve is monotonically non-increasing up to the failure
    /// point (within `tolerance`).
    pub monotone_decreasing: bool,
}

/// Extracts the Fig. 4 curve from a sweep.
pub fn curve_from_sweep(result: &SweepResult) -> SlackCurve {
    let mut rps = Vec::new();
    let mut poll = Vec::new();
    for level in &result.levels {
        if let Some(p) = level.mean_poll_ns() {
            rps.push(level.client.achieved_rps);
            poll.push(p);
        }
    }
    let failure_idx = result
        .levels
        .iter()
        .position(|l| l.violates_qos(&result.spec));
    let up_to = failure_idx.unwrap_or(poll.len()).min(poll.len());
    let monotone = poll[..up_to].windows(2).all(|w| w[1] <= w[0] * 1.15); // 15% tolerance for window noise
    SlackCurve {
        workload: result.spec.name.clone(),
        rps: rps.clone(),
        poll_norm: normalize_by_max(&poll),
        poll_raw: poll,
        failure_idx,
        monotone_decreasing: monotone,
    }
}

/// Runs the experiment for one workload.
pub fn analyze_workload(spec: &WorkloadSpec, config: &SweepConfig) -> SlackCurve {
    curve_from_sweep(&sweep(spec, config))
}

/// Runs the experiment for all workloads.
pub fn run(scale: Scale) -> Vec<SlackCurve> {
    let config = match scale {
        Scale::Full => SweepConfig::full(),
        Scale::Quick => SweepConfig::quick(),
    };
    all_paper_workloads()
        .iter()
        .map(|spec| analyze_workload(spec, &config))
        .collect()
}

/// Renders summary + charts.
pub fn render(curves: &[SlackCurve], with_charts: bool) -> String {
    let mut table = TextTable::new(vec![
        "workload",
        "poll dur @ lightest",
        "poll dur @ heaviest",
        "ratio",
        "monotone to failure",
    ]);
    for c in curves {
        let first = *c.poll_raw.first().unwrap_or(&0.0);
        let last = *c.poll_raw.last().unwrap_or(&0.0);
        table.row(vec![
            c.workload.clone(),
            format!("{:.1} us", first / 1_000.0),
            format!("{:.1} us", last / 1_000.0),
            if last > 0.0 {
                format!("{:.0}x", first / last)
            } else {
                "-".to_string()
            },
            if c.monotone_decreasing { "yes" } else { "no" }.to_string(),
        ]);
    }
    let mut out = String::from(
        "Figure 4 — mean poll (epoll_wait/select) duration vs RPS\n\
         (vertical bar = QoS failure point)\n\n",
    );
    out.push_str(&table.render());
    if with_charts {
        for c in curves {
            let rps_norm = normalize_by_max(&c.rps);
            let mut chart = AsciiChart::new(56, 12);
            chart
                .title(format!("{}: poll duration vs load", c.workload))
                .x_label("normalized RPS_real")
                .y_label("normalized mean poll duration")
                .series(c.workload.clone(), &rps_norm, &c.poll_norm, '*');
            if let Some(idx) = c.failure_idx {
                if idx < rps_norm.len() {
                    chart.vertical_marker(rps_norm[idx], '|');
                }
            }
            out.push('\n');
            out.push_str(&chart.render());
        }
    }
    out
}

/// CSV rows: `workload,rps,poll_norm,poll_ns`.
pub fn to_csv(curves: &[SlackCurve]) -> String {
    let mut table = TextTable::new(vec!["workload", "rps", "poll_norm", "poll_ns"]);
    for c in curves {
        for i in 0..c.rps.len() {
            table.row(vec![
                c.workload.clone(),
                format!("{:.1}", c.rps[i]),
                format!("{:.6}", c.poll_norm[i]),
                format!("{:.1}", c.poll_raw[i]),
            ]);
        }
    }
    table.to_csv()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poll_duration_shrinks_with_load() {
        let spec = kscope_workloads::data_caching();
        let curve = analyze_workload(&spec, &SweepConfig::quick());
        assert!(curve.monotone_decreasing, "{:?}", curve.poll_raw);
        let first = curve.poll_raw[0];
        let last = *curve.poll_raw.last().unwrap();
        assert!(
            first > 10.0 * last,
            "expected order-of-magnitude collapse: {first} -> {last}"
        );
    }
}
