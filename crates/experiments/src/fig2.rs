//! Figure 2: correlation of observed RPS (Eq. 1) with real RPS.
//!
//! For each workload: sweep offered load, estimate `RPS_obsv` from the
//! probe's windows (several estimations per level, as in the paper), fit a
//! linear regression of normalized `RPS_real` on normalized `RPS_obsv`,
//! and report R² plus residual spread. The paper finds R² > 0.94 for every
//! workload except Web Search (0.86).

use kscope_workloads::{all_paper_workloads, WorkloadSpec};

use crate::chart::{normalize_by_max, AsciiChart};
use crate::regress::LinearFit;
use crate::report::{fmt_sig, TextTable};
use crate::sweep::{sweep, SweepConfig};
use crate::Scale;

/// Regression summary for one workload.
#[derive(Debug, Clone)]
pub struct Fig2Row {
    /// Workload name.
    pub workload: String,
    /// Coefficient of determination of the normalized fit.
    pub r_squared: f64,
    /// Fitted slope (normalized axes).
    pub slope: f64,
    /// Number of `(RPS_obsv, RPS_real)` points.
    pub points: usize,
    /// Largest |residual| on the normalized scale.
    pub max_abs_residual: f64,
    /// The paper's R² for this workload (Table II, ideal network column).
    pub paper_r_squared: Option<f64>,
}

/// Full result: rows plus the raw points for charting.
#[derive(Debug, Clone)]
pub struct Fig2Result {
    /// Per-workload summaries.
    pub rows: Vec<Fig2Row>,
    /// Per-workload normalized scatter: `(workload, points(x=obsv, y=real))`.
    pub scatter: Vec<(String, Vec<(f64, f64)>)>,
}

/// The paper's reported R² values (Table II, 0ms/0% column).
pub fn paper_r_squared(workload: &str) -> Option<f64> {
    Some(match workload {
        "img-dnn" => 0.9997,
        "xapian" => 0.9976,
        "silo" => 0.9998,
        "specjbb" => 0.9997,
        "moses" => 0.9411,
        "data-caching" => 0.9995,
        "web-search" => 0.8642,
        "triton-http" => 0.9976,
        "triton-grpc" => 0.9711,
        _ => return None,
    })
}

/// Runs the regression for one workload with a given sweep configuration.
pub fn analyze_workload(spec: &WorkloadSpec, config: &SweepConfig) -> (Fig2Row, Vec<(f64, f64)>) {
    let result = sweep(spec, config);
    let min_samples = config.min_send_samples / 2;
    let raw = result.correlation_points(min_samples);
    let xs: Vec<f64> = raw.iter().map(|p| p.0).collect();
    let ys: Vec<f64> = raw.iter().map(|p| p.1).collect();
    let xs = normalize_by_max(&xs);
    let ys = normalize_by_max(&ys);
    let fit = match LinearFit::fit(&xs, &ys) {
        Ok(fit) => fit,
        Err(e) => panic!("load sweep must produce a fittable point set: {e}"),
    };
    let residuals = fit.residuals(&xs, &ys);
    let max_abs_residual = residuals.iter().fold(0.0f64, |m, r| m.max(r.abs()));
    let points: Vec<(f64, f64)> = xs.into_iter().zip(ys).collect();
    (
        Fig2Row {
            workload: spec.name.clone(),
            r_squared: fit.r_squared,
            slope: fit.slope,
            points: points.len(),
            max_abs_residual,
            paper_r_squared: paper_r_squared(&spec.name),
        },
        points,
    )
}

/// Runs the experiment over all nine workloads.
pub fn run(scale: Scale) -> Fig2Result {
    let config = match scale {
        Scale::Full => SweepConfig::full(),
        Scale::Quick => SweepConfig::quick(),
    };
    let mut rows = Vec::new();
    let mut scatter = Vec::new();
    for spec in all_paper_workloads() {
        let (row, points) = analyze_workload(&spec, &config);
        scatter.push((spec.name.clone(), points));
        rows.push(row);
    }
    Fig2Result { rows, scatter }
}

/// Renders the summary table (and per-workload charts at full scale).
pub fn render(result: &Fig2Result, with_charts: bool) -> String {
    let mut table = TextTable::new(vec![
        "workload",
        "R^2 (measured)",
        "R^2 (paper)",
        "slope",
        "points",
        "max |resid|",
    ]);
    for row in &result.rows {
        table.row(vec![
            row.workload.clone(),
            format!("{:.4}", row.r_squared),
            row.paper_r_squared
                .map(|r| format!("{r:.4}"))
                .unwrap_or_else(|| "-".to_string()),
            fmt_sig(row.slope, 4),
            row.points.to_string(),
            format!("{:.4}", row.max_abs_residual),
        ]);
    }
    let mut out = String::from("Figure 2 — RPS_obsv vs RPS_real correlation\n\n");
    out.push_str(&table.render());
    if with_charts {
        for (name, points) in &result.scatter {
            let xs: Vec<f64> = points.iter().map(|p| p.0).collect();
            let ys: Vec<f64> = points.iter().map(|p| p.1).collect();
            let mut chart = AsciiChart::new(56, 14);
            chart
                .title(format!("{name}: normalized RPS_real vs RPS_obsv"))
                .x_label("normalized RPS_obsv")
                .y_label("normalized RPS_real")
                .series(name.clone(), &xs, &ys, '*');
            out.push('\n');
            out.push_str(&chart.render());

            // The paper's lower panels: residuals around the linear fit,
            // showing the errors are random rather than biased.
            if let Ok(fit) = LinearFit::fit(&xs, &ys) {
                let residuals = fit.residuals(&xs, &ys);
                let mut resid_chart = AsciiChart::new(56, 8);
                resid_chart
                    .title(format!("{name}: residuals"))
                    .x_label("normalized RPS_obsv")
                    .y_label("residual")
                    .series("residual", &xs, &residuals, '.')
                    .horizontal_marker(0.0, '-');
                out.push('\n');
                out.push_str(&resid_chart.render());
            }
        }
    }
    out
}

/// Writes the scatter points as CSV rows (`workload,rps_obsv,rps_real`).
pub fn to_csv(result: &Fig2Result) -> String {
    let mut table = TextTable::new(vec!["workload", "rps_obsv_norm", "rps_real_norm"]);
    for (name, points) in &result.scatter {
        for (x, y) in points {
            table.row(vec![name.clone(), format!("{x:.6}"), format!("{y:.6}")]);
        }
    }
    table.to_csv()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_workload_has_high_r_squared_even_quick() {
        let spec = kscope_workloads::data_caching();
        let (row, points) = analyze_workload(&spec, &SweepConfig::quick());
        assert!(row.r_squared > 0.95, "R² {}", row.r_squared);
        assert!(points.len() >= 10);
    }

    #[test]
    fn paper_values_cover_all_workloads() {
        for spec in all_paper_workloads() {
            assert!(paper_r_squared(&spec.name).is_some(), "{}", spec.name);
        }
        assert_eq!(paper_r_squared("nonesuch"), None);
    }
}
