//! Table II: the effect of the network on the RPS fit.
//!
//! Repeats the Fig. 2 regression for every workload under the paper's two
//! network configurations — `0ms delay / 0% loss` and `10ms delay / 1%
//! loss` — and reports R² for both. The finding to reproduce: the impaired
//! network barely moves R², because Eq. 1 counts server-side syscalls, not
//! client-perceived latency.

use kscope_netem::NetemConfig;
use kscope_simcore::Nanos;
use kscope_workloads::all_paper_workloads;

use crate::fig2::{analyze_workload, paper_r_squared};
use crate::report::TextTable;
use crate::sweep::SweepConfig;
use crate::Scale;

/// One workload's row.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Workload name.
    pub workload: String,
    /// R² under the clean network.
    pub r2_clean: f64,
    /// R² under 10ms delay / 1% loss.
    pub r2_impaired: f64,
    /// The paper's clean-network R².
    pub paper_clean: Option<f64>,
    /// The paper's impaired-network R².
    pub paper_impaired: Option<f64>,
}

/// The paper's impaired-column values.
pub fn paper_r_squared_impaired(workload: &str) -> Option<f64> {
    Some(match workload {
        "img-dnn" => 0.9998,
        "xapian" => 0.9964,
        "silo" => 0.9986,
        "specjbb" => 0.9996,
        "moses" => 0.9435,
        "data-caching" => 0.9989,
        "web-search" => 0.8573,
        "triton-http" => 0.9981,
        "triton-grpc" => 0.9703,
        _ => return None,
    })
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Vec<Table2Row> {
    let base = match scale {
        Scale::Full => SweepConfig::full(),
        Scale::Quick => SweepConfig::quick(),
    };
    let clean = base
        .clone()
        .with_netem(NetemConfig::impaired(Nanos::ZERO, 0.0));
    let impaired = base.with_netem(NetemConfig::impaired(Nanos::from_millis(10), 0.01));
    all_paper_workloads()
        .iter()
        .map(|spec| {
            let (row_clean, _) = analyze_workload(spec, &clean);
            let (row_impaired, _) = analyze_workload(spec, &impaired);
            Table2Row {
                workload: spec.name.clone(),
                r2_clean: row_clean.r_squared,
                r2_impaired: row_impaired.r_squared,
                paper_clean: paper_r_squared(&spec.name),
                paper_impaired: paper_r_squared_impaired(&spec.name),
            }
        })
        .collect()
}

/// Renders the table.
pub fn render(rows: &[Table2Row]) -> String {
    let mut table = TextTable::new(vec![
        "workload",
        "0ms/0% (measured)",
        "10ms/1% (measured)",
        "0ms/0% (paper)",
        "10ms/1% (paper)",
    ]);
    for row in rows {
        table.row(vec![
            row.workload.clone(),
            format!("{:.4}", row.r2_clean),
            format!("{:.4}", row.r2_impaired),
            row.paper_clean
                .map(|r| format!("{r:.4}"))
                .unwrap_or_else(|| "-".into()),
            row.paper_impaired
                .map(|r| format!("{r:.4}"))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    let mut out = String::from("Table II — effect of the network on approximated RPS (R²)\n\n");
    out.push_str(&table.render());
    out
}

/// CSV form.
pub fn to_csv(rows: &[Table2Row]) -> String {
    let mut table = TextTable::new(vec!["workload", "r2_clean", "r2_impaired"]);
    for row in rows {
        table.row(vec![
            row.workload.clone(),
            format!("{:.6}", row.r2_clean),
            format!("{:.6}", row.r2_impaired),
        ]);
    }
    table.to_csv()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kscope_workloads::data_caching;

    #[test]
    fn impairment_barely_moves_r_squared() {
        let spec = data_caching();
        let base = SweepConfig::quick();
        let (clean, _) = analyze_workload(
            &spec,
            &base
                .clone()
                .with_netem(NetemConfig::impaired(Nanos::ZERO, 0.0)),
        );
        let (impaired, _) = analyze_workload(
            &spec,
            &base.with_netem(NetemConfig::impaired(Nanos::from_millis(10), 0.01)),
        );
        assert!(clean.r_squared > 0.95, "clean {}", clean.r_squared);
        assert!(
            (clean.r_squared - impaired.r_squared).abs() < 0.05,
            "clean {} vs impaired {}",
            clean.r_squared,
            impaired.r_squared
        );
    }

    #[test]
    fn paper_values_cover_all_workloads() {
        for spec in all_paper_workloads() {
            assert!(paper_r_squared_impaired(&spec.name).is_some());
        }
    }
}
