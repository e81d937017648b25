//! §V-C: the io_uring blind spot, quantified.
//!
//! The paper notes that syscall-based statistics require syscall activity:
//! "in scenarios where advanced I/O frameworks like io_uring are used,
//! which bypass traditional syscalls, our method may not yield useful
//! insights". This experiment makes that limitation concrete: a fraction
//! of requests perform their receive/send I/O without entering the kernel
//! through syscalls, and the Eq. 1 estimate degrades in direct proportion
//! — while client throughput is unchanged.

use kscope_analysis::TextTable;
use kscope_core::{ProbeSet, RpsEstimator, DEFAULT_SHIFT};
use kscope_simcore::Nanos;
use kscope_workloads::{data_caching, RunConfig};

use crate::observe::observe_run;
use crate::Scale;

/// One bypass level's measurement.
#[derive(Debug, Clone, Copy)]
pub struct BypassRow {
    /// Fraction of requests using syscall-bypassing I/O.
    pub bypass_fraction: f64,
    /// Ground-truth achieved RPS.
    pub rps_real: f64,
    /// Eq. 1 estimate from the (partially blind) probe.
    pub rps_obsv: f64,
}

impl BypassRow {
    /// The fraction of throughput the probe can still see.
    pub fn visibility(&self) -> f64 {
        self.rps_obsv / self.rps_real
    }
}

/// Runs the experiment: fixed 60% load, sweeping the bypass fraction.
pub fn run(scale: Scale) -> Vec<BypassRow> {
    let fractions: &[f64] = if scale == Scale::Full {
        &[0.0, 0.1, 0.25, 0.5, 0.75, 0.9]
    } else {
        &[0.0, 0.5]
    };
    let mut rows = Vec::new();
    for &bypass in fractions {
        let mut spec = data_caching();
        spec.syscall_bypass_fraction = bypass;
        let offered = spec.paper_failure_rps * 0.6;
        let mut config = RunConfig::new(offered, 61);
        config.collect_trace = false;
        if scale == Scale::Quick {
            config = config.quick();
        }
        let mut run = observe_run(&spec, &config, Nanos::from_millis(200), |sim| {
            ProbeSet::new(sim.server_pids(), spec.profile.clone(), DEFAULT_SHIFT).build()
        });
        let warmup_end = run.warmup_end;
        let windows: Vec<_> = run
            .observer()
            .windows()
            .iter()
            .copied()
            .filter(|w| w.start >= warmup_end)
            .collect();
        let rps_obsv = RpsEstimator::with_min_samples(64)
            .from_windows(&windows)
            .unwrap_or(0.0);
        rows.push(BypassRow {
            bypass_fraction: bypass,
            rps_real: run.client.achieved_rps,
            rps_obsv,
        });
    }
    rows
}

/// Renders the table.
pub fn render(rows: &[BypassRow]) -> String {
    let mut table = TextTable::new(vec![
        "bypass fraction",
        "RPS real",
        "RPS_obsv",
        "visibility",
    ]);
    for row in rows {
        table.row(vec![
            format!("{:.0}%", row.bypass_fraction * 100.0),
            format!("{:.0}", row.rps_real),
            format!("{:.0}", row.rps_obsv),
            format!("{:.0}%", row.visibility() * 100.0),
        ]);
    }
    let mut out = String::from(
        "§V-C — io_uring blind spot: syscall-bypassing I/O degrades Eq. 1\n\
         in proportion to the bypass fraction (throughput itself unchanged)\n\n",
    );
    out.push_str(&table.render());
    out
}

/// CSV form.
pub fn to_csv(rows: &[BypassRow]) -> String {
    let mut table = TextTable::new(vec!["bypass_fraction", "rps_real", "rps_obsv"]);
    for row in rows {
        table.row(vec![
            format!("{}", row.bypass_fraction),
            format!("{:.2}", row.rps_real),
            format!("{:.2}", row.rps_obsv),
        ]);
    }
    table.to_csv()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bypass_blinds_the_probe_proportionally() {
        let rows = run(Scale::Quick);
        let clean = rows[0];
        let half = rows[1];
        // Throughput is unaffected by the I/O path...
        assert!(
            (half.rps_real - clean.rps_real).abs() / clean.rps_real < 0.1,
            "real rps moved: {clean:?} vs {half:?}"
        );
        // ...but the estimate sees only the non-bypassed half.
        assert!(
            (half.visibility() - 0.5).abs() < 0.1,
            "visibility {:.3}",
            half.visibility()
        );
        assert!(clean.visibility() > 0.9);
    }
}
