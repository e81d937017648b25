//! §VI overhead study: what does the probe cost the application?
//!
//! Runs each workload at a moderate and a near-knee load twice with
//! identical seeds — no probe, then the JIT-compiled bytecode probe — and
//! compares p99 tail latency. The paper reports median and upper-quartile
//! overhead below 1% (typically below 0.5%).

use kscope_core::{ProbeSet, WindowedObserver, DEFAULT_SHIFT};
use kscope_kernel::TracepointProbe;
use kscope_netem::NetemConfig;
use kscope_simcore::Nanos;
use kscope_workloads::{all_paper_workloads, run_workload_with, RunConfig, WorkloadSpec};

use crate::percentile::percentile;
use crate::report::TextTable;
use crate::Scale;

/// Probe configurations compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeSetup {
    /// Tracepoints fire with no probe attached.
    None,
    /// The bytecode probe on the JIT tier.
    Bytecode,
}

/// One measurement row.
#[derive(Debug, Clone)]
pub struct OverheadRow {
    /// Workload name.
    pub workload: String,
    /// Fraction of failure RPS offered.
    pub load_fraction: f64,
    /// Baseline p99 (no probe), ms.
    pub p99_base_ms: f64,
    /// p99 with the bytecode probe, ms.
    pub p99_bytecode_ms: f64,
    /// Total probe time charged by the bytecode probe (ns).
    pub bytecode_probe_ns: u64,
    /// Tracepoint firings during the probed run.
    pub tracepoint_firings: u64,
}

impl OverheadRow {
    /// Bytecode-probe p99 overhead, relative.
    pub fn bytecode_overhead(&self) -> f64 {
        (self.p99_bytecode_ms - self.p99_base_ms) / self.p99_base_ms
    }
}

fn run_once(
    spec: &WorkloadSpec,
    fraction: f64,
    setup: ProbeSetup,
    scale: Scale,
) -> (f64, u64, u64) {
    let offered = spec.paper_failure_rps * fraction;
    let mut config = RunConfig::new(offered, 31);
    config.netem = NetemConfig::loopback();
    config.collect_trace = false;
    let samples_target = if scale == Scale::Full {
        6_000.0
    } else {
        1_200.0
    };
    config.warmup = Nanos::from_secs_f64((spec.service_time.mean() / 1e9 * 30.0).max(0.3));
    config.measure = Nanos::from_secs_f64((samples_target / offered).clamp(1.0, 900.0));

    let outcome = run_workload_with(spec, &config, |sim| {
        let pids = sim.server_pids();
        let profile = sim.spec().profile.clone();
        let window = Nanos::from_secs(3_600); // effectively one window
        match setup {
            ProbeSetup::None => Vec::new(),
            ProbeSetup::Bytecode => vec![Box::new(WindowedObserver::new(
                ProbeSet::new(pids, profile, DEFAULT_SHIFT)
                    .build()
                    .unwrap_or_else(|e| panic!("generated probe programs must verify: {e}")),
                window,
            )) as Box<dyn TracepointProbe>],
        }
    });
    let stats = outcome.kernel.tracing.stats();
    (
        outcome.client.p99_latency.as_millis_f64(),
        stats.probe_overhead.as_nanos(),
        stats.enters + stats.exits,
    )
}

/// Runs the study.
pub fn run(scale: Scale) -> Vec<OverheadRow> {
    let specs = all_paper_workloads();
    let fractions: &[f64] = if scale == Scale::Full {
        &[0.5, 0.9]
    } else {
        &[0.7]
    };
    let mut rows = Vec::new();
    for spec in &specs {
        for &fraction in fractions {
            let (p99_base, _, _) = run_once(spec, fraction, ProbeSetup::None, scale);
            let (p99_bytecode, bytecode_ns, events) =
                run_once(spec, fraction, ProbeSetup::Bytecode, scale);
            rows.push(OverheadRow {
                workload: spec.name.clone(),
                load_fraction: fraction,
                p99_base_ms: p99_base,
                p99_bytecode_ms: p99_bytecode,
                bytecode_probe_ns: bytecode_ns,
                tracepoint_firings: events,
            });
        }
    }
    rows
}

/// Renders the study.
pub fn render(rows: &[OverheadRow]) -> String {
    let mut table = TextTable::new(vec![
        "workload",
        "load",
        "p99 base (ms)",
        "bytecode Δ%",
        "bytecode ns/event",
    ]);
    for row in rows {
        let per_event = |ns: u64| {
            if row.tracepoint_firings == 0 {
                "-".to_string()
            } else {
                format!("{:.0}", ns as f64 / row.tracepoint_firings as f64)
            }
        };
        table.row(vec![
            row.workload.clone(),
            format!("{:.0}%", row.load_fraction * 100.0),
            format!("{:.3}", row.p99_base_ms),
            format!("{:+.3}%", row.bytecode_overhead() * 100.0),
            per_event(row.bytecode_probe_ns),
        ]);
    }
    let overheads: Vec<f64> = rows.iter().map(|r| r.bytecode_overhead().abs()).collect();
    let pct = |q: f64| percentile(&overheads, q).unwrap_or(0.0) * 100.0;
    let mut out = String::from("§VI — probe overhead on p99 tail latency\n\n");
    out.push_str(&table.render());
    out.push_str(&format!(
        "\n|Δp99|: median {:.2}%, p75 {:.2}% (paper: median and upper quartile < 1%, \
         typically < 0.5%)\n",
        pct(50.0),
        pct(75.0)
    ));
    out
}

/// CSV form.
pub fn to_csv(rows: &[OverheadRow]) -> String {
    let mut table = TextTable::new(vec![
        "workload",
        "load_fraction",
        "p99_base_ms",
        "p99_bytecode_ms",
    ]);
    for row in rows {
        table.row(vec![
            row.workload.clone(),
            format!("{}", row.load_fraction),
            format!("{:.4}", row.p99_base_ms),
            format!("{:.4}", row.p99_bytecode_ms),
        ]);
    }
    table.to_csv()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kscope_workloads::data_caching;

    #[test]
    fn probe_overhead_is_small_at_moderate_load() {
        let spec = data_caching();
        let (base, _, _) = run_once(&spec, 0.6, ProbeSetup::None, Scale::Quick);
        let (probed, probe_ns, events) = run_once(&spec, 0.6, ProbeSetup::Bytecode, Scale::Quick);
        assert!(events > 0);
        assert!(probe_ns > 0, "probe charged no time");
        let overhead = (probed - base).abs() / base;
        assert!(
            overhead < 0.05,
            "overhead {overhead:.3} (base {base}, probed {probed})"
        );
    }
}
