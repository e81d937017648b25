//! Fleet robustness: signal error vs control-channel loss.
//!
//! The fleet's report payloads are cumulative sufficient statistics, so a
//! lossy, feedback-free control channel can only make the collector's view
//! *stale*, never biased. This experiment quantifies that claim: the same
//! 16-host fleet (same seed, hence byte-identical per-host traffic) is run
//! under increasing report loss, and each lossy rollup is compared against
//! the lossless one. The documented bound: at ≤20% report loss the fleet
//! observed-RPS error stays within [`RPS_ERROR_BOUND`], with every dropped
//! and stale report surfaced in the accounting rather than silently
//! absorbed.

use kscope_analysis::{AsciiChart, TextTable};
use kscope_fleet::{run_fleet, FleetConfig, FleetRollup};

use crate::Scale;

/// Documented bound on the fleet observed-RPS relative error at ≤20%
/// report loss (cumulative payloads keep the lossy view merely stale).
pub const RPS_ERROR_BOUND: f64 = 0.05;

/// Loss rates swept, lossless baseline first.
pub const LOSS_LEVELS: [f64; 4] = [0.0, 0.05, 0.10, 0.20];

/// One loss level's rollup, compared against the lossless baseline.
#[derive(Debug, Clone)]
pub struct LossPoint {
    /// Steady-state report loss on the control channel.
    pub loss: f64,
    /// Fleet observed RPS (sum of per-host Eq. 1 rates).
    pub fleet_rps: f64,
    /// Relative error of `fleet_rps` vs the lossless baseline.
    pub rps_err: f64,
    /// Relative error of the merged-histogram p99 poll slack vs baseline.
    pub slack_p99_err: f64,
    /// Reports the channel dropped.
    pub dropped: u64,
    /// Reports the collector discarded as stale (reordered).
    pub stale: u64,
    /// Reports shed at the senders by the inflight bound.
    pub shed: u64,
    /// Sequence gaps the collector observed.
    pub gaps: u64,
    /// Hosts the collector never heard from.
    pub silent_hosts: usize,
}

/// Full experiment result.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Fleet size.
    pub hosts: usize,
    /// Lossless fleet RPS the errors are measured against.
    pub baseline_rps: f64,
    /// One point per entry of [`LOSS_LEVELS`].
    pub points: Vec<LossPoint>,
}

fn rel_err(x: f64, baseline: f64) -> f64 {
    (x - baseline).abs() / baseline.abs().max(1e-9)
}

fn rollup_at(config: &FleetConfig) -> FleetRollup {
    match run_fleet(config) {
        Ok(run) => run.rollup(1),
        // The probe program is fixed; a build failure is a bug, not data.
        Err(e) => panic!("fleet probe build failed: {e:?}"),
    }
}

/// Runs the sweep: one fleet per loss level, identical traffic throughout
/// (host RNG streams fork from the seed by host id alone, so the channel
/// configuration cannot perturb what the probes observe).
pub fn run(scale: Scale) -> FleetResult {
    let hosts = match scale {
        Scale::Full => 16,
        Scale::Quick => 8,
    };
    let config_at = |loss: f64| {
        let base = match scale {
            Scale::Full => FleetConfig::new(hosts),
            Scale::Quick => FleetConfig::quick(hosts),
        };
        base.with_loss(loss)
    };
    let baseline = rollup_at(&config_at(0.0));
    let points = LOSS_LEVELS
        .iter()
        .map(|&loss| {
            let rollup = if loss == 0.0 {
                baseline.clone()
            } else {
                rollup_at(&config_at(loss))
            };
            let acc = rollup.accounting;
            let slack_p99_err = match (rollup.slack_p99_ns, baseline.slack_p99_ns) {
                (Some(lossy), Some(clean)) => rel_err(lossy, clean),
                _ => 0.0,
            };
            LossPoint {
                loss,
                fleet_rps: rollup.fleet_rps,
                rps_err: rel_err(rollup.fleet_rps, baseline.fleet_rps),
                slack_p99_err,
                dropped: acc.channel_dropped,
                stale: acc.stale,
                shed: acc.shed,
                gaps: acc.gaps,
                silent_hosts: rollup.silent_hosts,
            }
        })
        .collect();
    FleetResult {
        hosts,
        baseline_rps: baseline.fleet_rps,
        points,
    }
}

/// Renders the loss-robustness table (and chart).
pub fn render(result: &FleetResult, with_charts: bool) -> String {
    let mut table = TextTable::new(vec![
        "loss %",
        "fleet rps",
        "rps err %",
        "p99 err %",
        "dropped",
        "stale",
        "shed",
        "gaps",
        "silent",
    ]);
    for p in &result.points {
        table.row(vec![
            format!("{:.0}", p.loss * 100.0),
            format!("{:.1}", p.fleet_rps),
            format!("{:.3}", p.rps_err * 100.0),
            format!("{:.3}", p.slack_p99_err * 100.0),
            p.dropped.to_string(),
            p.stale.to_string(),
            p.shed.to_string(),
            p.gaps.to_string(),
            p.silent_hosts.to_string(),
        ]);
    }
    let mut out = format!(
        "Fleet robustness — {} hosts, signal error vs report loss\n\n",
        result.hosts
    );
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nlossless fleet rps: {:.1}; documented bound at <=20% loss: {:.0}% rps error\n",
        result.baseline_rps,
        RPS_ERROR_BOUND * 100.0
    ));
    if with_charts {
        let loss: Vec<f64> = result.points.iter().map(|p| p.loss * 100.0).collect();
        let err: Vec<f64> = result.points.iter().map(|p| p.rps_err * 100.0).collect();
        let mut chart = AsciiChart::new(56, 12);
        chart
            .title("fleet rps error vs report loss")
            .x_label("report loss (%)")
            .y_label("rps error (%)")
            .series("rps err", &loss, &err, 'o');
        out.push('\n');
        out.push_str(&chart.render());
    }
    out
}

/// CSV rows.
pub fn to_csv(result: &FleetResult) -> String {
    let mut table = TextTable::new(vec![
        "loss",
        "fleet_rps",
        "rps_err",
        "slack_p99_err",
        "dropped",
        "stale",
        "shed",
        "gaps",
        "silent_hosts",
    ]);
    for p in &result.points {
        table.row(vec![
            format!("{:.2}", p.loss),
            format!("{:.3}", p.fleet_rps),
            format!("{:.6}", p.rps_err),
            format!("{:.6}", p.slack_p99_err),
            p.dropped.to_string(),
            p.stale.to_string(),
            p.shed.to_string(),
            p.gaps.to_string(),
            p.silent_hosts.to_string(),
        ]);
    }
    table.to_csv()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rps_error_stays_inside_documented_bound() {
        let result = run(Scale::Quick);
        assert_eq!(result.points.len(), LOSS_LEVELS.len());
        assert!(result.baseline_rps > 0.0);
        for p in &result.points {
            assert!(
                p.rps_err <= RPS_ERROR_BOUND,
                "loss {:.2}: rps err {:.4} exceeds the documented bound",
                p.loss,
                p.rps_err
            );
        }
        // The baseline point is the baseline itself.
        assert_eq!(result.points[0].rps_err, 0.0);
        assert_eq!(result.points[0].dropped, 0);
        // High loss must actually drop reports, and those drops must be
        // surfaced — robustness without accounting is indistinguishable
        // from a channel that never lost anything.
        let worst = match result.points.last() {
            Some(p) => p,
            None => unreachable!("LOSS_LEVELS is non-empty"),
        };
        assert!(worst.dropped > 0, "20% loss dropped nothing");
        assert!(worst.gaps > 0, "drops left no visible sequence gaps");
    }
}
