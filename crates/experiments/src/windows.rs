//! §IV-B: window-size sensitivity of the Eq. 1 estimate.
//!
//! The paper: "Our approach is particularly effective over extended
//! periods (at least 2048 syscalls) where request distribution stabilizes.
//! However, for very short observation windows, variations in request
//! distribution can pose challenges." This experiment quantifies that:
//! at fixed load, the relative error of per-window `RPS_obsv` shrinks like
//! `1/√n` with the window's sample count, crossing the few-percent mark
//! around the paper's 2048-sample recommendation.

use kscope_analysis::TextTable;
use kscope_core::{ProbeSet, DEFAULT_SHIFT};
use kscope_simcore::Nanos;
use kscope_workloads::{data_caching, RunConfig};

use crate::observe::observe_run;
use crate::Scale;

/// Error statistics for one window size.
#[derive(Debug, Clone, Copy)]
pub struct WindowRow {
    /// Nominal send samples per window.
    pub samples_per_window: u64,
    /// Number of windows measured.
    pub windows: usize,
    /// Mean relative error of per-window RPS_obsv vs ground truth.
    pub mean_rel_error: f64,
    /// Maximum relative error observed.
    pub max_rel_error: f64,
}

/// Runs the experiment at 50% load with varying window sizes.
pub fn run(scale: Scale) -> Vec<WindowRow> {
    let sizes: &[u64] = if scale == Scale::Full {
        &[64, 128, 256, 512, 1024, 2048, 4096]
    } else {
        &[64, 1024]
    };
    let spec = data_caching();
    let offered = spec.paper_failure_rps * 0.5;
    let mut rows = Vec::new();
    for &samples in sizes {
        let window = Nanos::from_secs_f64(samples as f64 / offered);
        let mut config = RunConfig::new(offered, 71);
        config.collect_trace = false;
        // Enough total time for at least 20 windows.
        config.measure = window * 24;
        let mut run = observe_run(&spec, &config, window, |sim| {
            ProbeSet::new(sim.server_pids(), spec.profile.clone(), DEFAULT_SHIFT).build()
        });
        let (truth, warmup_end, end) = (run.client.achieved_rps, run.warmup_end, run.end);
        let errors: Vec<f64> = run
            .observer()
            .windows()
            .iter()
            .filter(|w| w.start >= warmup_end && w.end <= end)
            .filter_map(|w| w.rps_obsv)
            .map(|obsv| (obsv - truth).abs() / truth)
            .collect();
        let mean = errors.iter().sum::<f64>() / errors.len().max(1) as f64;
        let max = errors.iter().cloned().fold(0.0f64, f64::max);
        rows.push(WindowRow {
            samples_per_window: samples,
            windows: errors.len(),
            mean_rel_error: mean,
            max_rel_error: max,
        });
    }
    rows
}

/// Renders the table.
pub fn render(rows: &[WindowRow]) -> String {
    let mut table = TextTable::new(vec![
        "samples/window",
        "windows",
        "mean |error|",
        "max |error|",
    ]);
    for row in rows {
        table.row(vec![
            row.samples_per_window.to_string(),
            row.windows.to_string(),
            format!("{:.2}%", row.mean_rel_error * 100.0),
            format!("{:.2}%", row.max_rel_error * 100.0),
        ]);
    }
    let mut out = String::from(
        "§IV-B — per-window RPS_obsv error vs window size\n\
         (the paper recommends ≥2048 syscalls per estimation window)\n\n",
    );
    out.push_str(&table.render());
    out
}

/// CSV form.
pub fn to_csv(rows: &[WindowRow]) -> String {
    let mut table = TextTable::new(vec![
        "samples_per_window",
        "windows",
        "mean_rel_error",
        "max_rel_error",
    ]);
    for row in rows {
        table.row(vec![
            row.samples_per_window.to_string(),
            row.windows.to_string(),
            format!("{:.6}", row.mean_rel_error),
            format!("{:.6}", row.max_rel_error),
        ]);
    }
    table.to_csv()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bigger_windows_estimate_better() {
        let rows = run(Scale::Quick);
        assert!(rows[0].windows >= 10);
        assert!(
            rows[1].mean_rel_error < rows[0].mean_rel_error,
            "error should shrink with window size: {rows:?}"
        );
        // 1024-sample windows are already within a few percent.
        assert!(rows[1].mean_rel_error < 0.05, "{rows:?}");
    }
}
