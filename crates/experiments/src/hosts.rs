//! Dual-host generalization (§IV-A, Table I).
//!
//! The paper evaluates on an AMD EPYC 7302 and an Intel Xeon E5-2620 and
//! observes "similar trends across both servers, showing us that as long
//! as eBPF is supported, eBPF observability of request-level metrics will
//! work on any underlying hardware". Here: the same workloads rescaled to
//! the Intel profile's core count keep their R² and their signal shapes;
//! only the knee position moves with capacity.

use kscope_kernel::HostSpec;
use kscope_workloads::{data_caching, img_dnn, WorkloadSpec};

use crate::fig2::analyze_workload;
use crate::report::TextTable;
use crate::sweep::SweepConfig;
use crate::Scale;

/// One (workload, host) measurement.
#[derive(Debug, Clone)]
pub struct HostRow {
    /// Workload name (with core-count suffix for the scaled variant).
    pub workload: String,
    /// Host label.
    pub host: String,
    /// Cores the workload ran with.
    pub cores: u32,
    /// Fig. 2 R² on this host.
    pub r_squared: f64,
    /// Measured knee (first QoS-violating offered level), RPS.
    pub knee_rps: Option<f64>,
}

fn measure(spec: &WorkloadSpec, host: &str, config: &SweepConfig) -> HostRow {
    let result = crate::sweep::sweep(spec, config);
    let knee = result.failure_level().map(|l| l.offered_rps);
    let (row, _) = analyze_workload(spec, config);
    HostRow {
        workload: spec.name.clone(),
        host: host.to_string(),
        cores: spec.cores,
        r_squared: row.r_squared,
        knee_rps: knee,
    }
}

/// Runs the experiment: two workloads × two host profiles.
pub fn run(scale: Scale) -> Vec<HostRow> {
    let config = match scale {
        Scale::Full => SweepConfig::full(),
        Scale::Quick => SweepConfig::quick(),
    };
    let amd = HostSpec::amd_epyc_7302();
    let intel = HostSpec::intel_xeon_e5_2620();
    // The workload catalog is calibrated against the AMD profile; the
    // Intel variant halves the cores (16 vs 32 physical).
    let intel_ratio = intel.physical_cores() as f64 / amd.physical_cores() as f64;
    let specs: Vec<WorkloadSpec> = if scale == Scale::Full {
        vec![data_caching(), img_dnn()]
    } else {
        vec![data_caching()]
    };
    let mut rows = Vec::new();
    for spec in specs {
        rows.push(measure(&spec, &amd.cpu_model, &config));
        let scaled = spec.scaled_to_cores((spec.cores as f64 * intel_ratio).round() as u32);
        rows.push(measure(&scaled, &intel.cpu_model, &config));
    }
    rows
}

/// Renders the table.
pub fn render(rows: &[HostRow]) -> String {
    let mut table = TextTable::new(vec!["workload", "host", "cores", "R^2", "knee (rps)"]);
    for row in rows {
        table.row(vec![
            row.workload.clone(),
            row.host.clone(),
            row.cores.to_string(),
            format!("{:.4}", row.r_squared),
            row.knee_rps
                .map(|k| format!("{k:.0}"))
                .unwrap_or_else(|| "-".to_string()),
        ]);
    }
    let mut out =
        String::from("Dual-host generalization — same signals, capacity-scaled knees\n\n");
    out.push_str(&table.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signals_generalize_across_hosts() {
        let rows = run(Scale::Quick);
        assert_eq!(rows.len(), 2);
        let amd = &rows[0];
        let intel = &rows[1];
        // R² holds on both hosts.
        assert!(amd.r_squared > 0.93, "AMD R² {}", amd.r_squared);
        assert!(intel.r_squared > 0.93, "Intel R² {}", intel.r_squared);
        // The knee scales with core count (half the cores, roughly half
        // the capacity).
        let (ka, ki) = (amd.knee_rps.unwrap(), intel.knee_rps.unwrap());
        let ratio = ki / ka;
        assert!(
            (0.35..0.7).contains(&ratio),
            "knee ratio {ratio:.3} ({ki:.0} vs {ka:.0})"
        );
    }
}
