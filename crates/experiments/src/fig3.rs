//! Figure 3: inter-send variance vs load — the saturation signal.
//!
//! Per workload: normalized `var(Δt_send)` (Eq. 2) against normalized real
//! RPS, with the QoS-failure point marked. The paper's observation: the
//! variance falls with load below the knee, then turns upward as the QoS
//! threshold is breached — contention makes the completion stream bursty.

use kscope_analysis::{normalize_by_max, AsciiChart, TextTable};
use kscope_workloads::{all_paper_workloads, WorkloadSpec};

use crate::sweep::{sweep, SweepConfig, SweepResult};
use crate::Scale;

/// The variance curve of one workload.
#[derive(Debug, Clone)]
pub struct VarianceCurve {
    /// Workload name.
    pub workload: String,
    /// Normalized achieved RPS per level.
    pub rps_norm: Vec<f64>,
    /// Normalized variance per level.
    pub var_norm: Vec<f64>,
    /// Raw variance per level (ns²).
    pub var_raw: Vec<f64>,
    /// Index of the first QoS-violating level, if any.
    pub failure_idx: Option<usize>,
    /// Whether the curve turns upward at/after the failure point.
    pub rises_past_failure: bool,
}

/// Extracts the Fig. 3 curve from a sweep.
pub fn curve_from_sweep(result: &SweepResult) -> VarianceCurve {
    let mut rps = Vec::new();
    let mut var = Vec::new();
    for level in &result.levels {
        if let Some(v) = level.mean_var_send() {
            rps.push(level.client.achieved_rps);
            var.push(v);
        }
    }
    let failure_idx = result
        .levels
        .iter()
        .position(|l| l.violates_qos(&result.spec));
    // "Rises past failure": the max variance at/after the failure level
    // exceeds the minimum variance before it.
    let rises = match failure_idx {
        Some(idx) if idx > 0 && idx < var.len() => {
            let pre_min = var[..idx].iter().cloned().fold(f64::INFINITY, f64::min);
            let post_max = var[idx.saturating_sub(1)..]
                .iter()
                .cloned()
                .fold(0.0f64, f64::max);
            post_max > pre_min
        }
        _ => false,
    };
    VarianceCurve {
        workload: result.spec.name.clone(),
        rps_norm: normalize_by_max(&rps),
        var_norm: normalize_by_max(&var),
        var_raw: var,
        failure_idx,
        rises_past_failure: rises,
    }
}

/// Runs the experiment for one workload.
pub fn analyze_workload(spec: &WorkloadSpec, config: &SweepConfig) -> VarianceCurve {
    curve_from_sweep(&sweep(spec, config))
}

/// Runs the experiment for all workloads.
pub fn run(scale: Scale) -> Vec<VarianceCurve> {
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
pub fn render(curves: &[VarianceCurve], with_charts: bool) -> String {
    let mut table = TextTable::new(vec![
        "workload",
        "levels",
        "failure idx",
        "var rises past failure",
    ]);
    for c in curves {
        table.row(vec![
            c.workload.clone(),
            c.rps_norm.len().to_string(),
            c.failure_idx
                .map(|i| i.to_string())
                .unwrap_or_else(|| "-".to_string()),
            if c.rises_past_failure { "yes" } else { "no" }.to_string(),
        ]);
    }
    let mut out = String::from(
        "Figure 3 — normalized var(Δt_send) vs normalized RPS\n\
         (vertical bar = QoS failure point)\n\n",
    );
    out.push_str(&table.render());
    if with_charts {
        for c in curves {
            let mut chart = AsciiChart::new(56, 12);
            chart
                .title(format!("{}: variance vs load", c.workload))
                .x_label("normalized RPS_real")
                .y_label("normalized var(Δt_send)")
                .series(c.workload.clone(), &c.rps_norm, &c.var_norm, '*');
            if let Some(idx) = c.failure_idx {
                if idx < c.rps_norm.len() {
                    chart.vertical_marker(c.rps_norm[idx], '|');
                }
            }
            out.push('\n');
            out.push_str(&chart.render());
        }
    }
    out
}

/// CSV rows: `workload,rps_norm,var_norm,var_ns2`.
pub fn to_csv(curves: &[VarianceCurve]) -> String {
    let mut table = TextTable::new(vec!["workload", "rps_norm", "var_norm", "var_ns2"]);
    for c in curves {
        for i in 0..c.rps_norm.len() {
            table.row(vec![
                c.workload.clone(),
                format!("{:.6}", c.rps_norm[i]),
                format!("{:.6}", c.var_norm[i]),
                format!("{:.3e}", c.var_raw[i]),
            ]);
        }
    }
    table.to_csv()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variance_rises_past_failure_for_data_caching() {
        let spec = kscope_workloads::data_caching();
        let curve = analyze_workload(&spec, &SweepConfig::quick());
        assert!(curve.failure_idx.is_some());
        assert!(
            curve.rises_past_failure,
            "variance curve: {:?}",
            curve.var_raw
        );
    }

    #[test]
    fn variance_decreases_below_the_knee() {
        let spec = kscope_workloads::data_caching();
        let curve = analyze_workload(&spec, &SweepConfig::quick());
        // First two levels (0.2, 0.5 of failure) are well below the knee:
        // variance must decrease between them.
        assert!(curve.var_raw[0] > curve.var_raw[1], "{:?}", curve.var_raw);
    }

    /// The contention-convoy ablation: with `collision_p_max = 0` the
    /// server never convoys on shared state, so variance stays flat past
    /// the knee and the Fig. 3 signal disappears. The model, not the
    /// load alone, makes the knee.
    #[test]
    fn variance_knee_vanishes_without_convoys() {
        let mut spec = kscope_workloads::data_caching();
        spec.collision_p_max = 0.0;
        let curve = analyze_workload(&spec, &SweepConfig::quick());
        assert!(
            !curve.rises_past_failure,
            "without convoys the variance knee should vanish: {:?}",
            curve.var_raw
        );
    }
}
