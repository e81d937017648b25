//! Figure 5: network loss wrecks tail latency but not the eBPF signal.
//!
//! Triton over gRPC, swept under 0% and 1% loss: the top row compares p99
//! latency (inflated by retransmission timeouts under loss), the bottom row
//! the normalized `epoll_wait` duration — which barely moves, because the
//! server-side syscall stream does not see the retransmissions.

use kscope_analysis::{normalize_by_max, AsciiChart, TextTable};
use kscope_netem::NetemConfig;
use kscope_simcore::Nanos;
use kscope_workloads::triton_grpc;

use crate::sweep::{sweep, SweepConfig, SweepResult};
use crate::Scale;

/// One network condition's curves.
#[derive(Debug, Clone)]
pub struct LossCondition {
    /// Label ("0% loss" / "1% loss").
    pub label: String,
    /// Offered load per level.
    pub offered: Vec<f64>,
    /// p99 latency per level (ms).
    pub p99_ms: Vec<f64>,
    /// Mean epoll duration per level (ns).
    pub poll_ns: Vec<f64>,
}

/// Full Fig. 5 result.
#[derive(Debug, Clone)]
pub struct Fig5Result {
    /// The two conditions: no loss, 1% loss.
    pub conditions: Vec<LossCondition>,
    /// Mean relative difference of the poll signal between conditions,
    /// over the stable (sub-knee) levels.
    pub poll_signal_divergence: f64,
    /// Mean relative difference of p99 between conditions, over the stable
    /// (sub-knee) levels. Near the capacity knee the open-loop system is a
    /// bifurcation point — run-to-run chaos there would swamp the loss
    /// effect this figure isolates.
    pub p99_divergence: f64,
    /// Number of stable levels the divergences were computed over.
    pub stable_levels: usize,
}

fn condition(label: &str, result: &SweepResult) -> LossCondition {
    LossCondition {
        label: label.to_string(),
        offered: result.levels.iter().map(|l| l.offered_rps).collect(),
        p99_ms: result
            .levels
            .iter()
            .map(|l| l.client.p99_latency.as_millis_f64())
            .collect(),
        poll_ns: result
            .levels
            .iter()
            .map(|l| l.mean_poll_ns().unwrap_or(0.0))
            .collect(),
    }
}

fn mean_rel_diff(a: &[f64], b: &[f64]) -> f64 {
    let mut total = 0.0;
    let mut n = 0usize;
    for (&x, &y) in a.iter().zip(b) {
        let denom = x.abs().max(1e-9);
        total += (y - x).abs() / denom;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Fig5Result {
    let spec = triton_grpc();
    let base = match scale {
        Scale::Full => SweepConfig::full(),
        Scale::Quick => SweepConfig::quick(),
    };
    let clean = sweep(
        &spec,
        &base
            .clone()
            .with_netem(NetemConfig::impaired(Nanos::ZERO, 0.0)),
    );
    let lossy = sweep(
        &spec,
        &base.with_netem(NetemConfig::impaired(Nanos::ZERO, 0.01)),
    );
    let c0 = condition("0% loss", &clean);
    let c1 = condition("1% loss", &lossy);
    // Stable region: levels safely below the knee.
    let stable: Vec<usize> = c0
        .offered
        .iter()
        .enumerate()
        .filter(|(_, &rps)| rps <= 0.9 * spec.paper_failure_rps)
        .map(|(i, _)| i)
        .collect();
    let pick = |xs: &[f64]| -> Vec<f64> { stable.iter().map(|&i| xs[i]).collect() };
    let poll_signal_divergence = mean_rel_diff(&pick(&c0.poll_ns), &pick(&c1.poll_ns));
    let p99_divergence = mean_rel_diff(&pick(&c0.p99_ms), &pick(&c1.p99_ms));
    Fig5Result {
        stable_levels: stable.len(),
        conditions: vec![c0, c1],
        poll_signal_divergence,
        p99_divergence,
    }
}

/// Renders the two-row figure.
pub fn render(result: &Fig5Result, with_charts: bool) -> String {
    let mut table = TextTable::new(vec![
        "offered rps",
        "p99 0% (ms)",
        "p99 1% (ms)",
        "epoll 0% (us)",
        "epoll 1% (us)",
    ]);
    let c0 = &result.conditions[0];
    let c1 = &result.conditions[1];
    for i in 0..c0.offered.len() {
        table.row(vec![
            format!("{:.1}", c0.offered[i]),
            format!("{:.1}", c0.p99_ms[i]),
            format!("{:.1}", c1.p99_ms[i]),
            format!("{:.1}", c0.poll_ns[i] / 1_000.0),
            format!("{:.1}", c1.poll_ns[i] / 1_000.0),
        ]);
    }
    let mut out = String::from("Figure 5 — Triton/gRPC under packet loss\n\n");
    out.push_str(&table.render());
    out.push_str(&format!(
        "\np99 divergence between conditions (sub-knee, {} levels):   {:.1}%\n\
         epoll-signal divergence between conditions (same levels): {:.1}%\n",
        result.stable_levels,
        result.p99_divergence * 100.0,
        result.poll_signal_divergence * 100.0
    ));
    if with_charts {
        let mut top = AsciiChart::new(56, 12);
        top.title("p99 latency vs offered load")
            .x_label("offered rps")
            .y_label("p99 (ms)")
            .series("0% loss", &c0.offered, &c0.p99_ms, 'o')
            .series("1% loss", &c1.offered, &c1.p99_ms, 'x');
        out.push('\n');
        out.push_str(&top.render());

        let poll0 = normalize_by_max(&c0.poll_ns);
        let poll1 = normalize_by_max(&c1.poll_ns);
        let mut bottom = AsciiChart::new(56, 12);
        bottom
            .title("normalized epoll_wait duration vs offered load")
            .x_label("offered rps")
            .y_label("normalized epoll duration")
            .series("0% loss", &c0.offered, &poll0, 'o')
            .series("1% loss", &c1.offered, &poll1, 'x');
        out.push('\n');
        out.push_str(&bottom.render());
    }
    out
}

/// CSV rows.
pub fn to_csv(result: &Fig5Result) -> String {
    let mut table = TextTable::new(vec!["condition", "offered_rps", "p99_ms", "poll_ns"]);
    for c in &result.conditions {
        for i in 0..c.offered.len() {
            table.row(vec![
                c.label.clone(),
                format!("{:.2}", c.offered[i]),
                format!("{:.3}", c.p99_ms[i]),
                format!("{:.1}", c.poll_ns[i]),
            ]);
        }
    }
    table.to_csv()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_disturbs_tail_latency_far_more_than_the_signal() {
        let result = run(Scale::Quick);
        assert!(result.stable_levels >= 2);
        assert!(
            result.p99_divergence > 3.0 * result.poll_signal_divergence,
            "p99 divergence {:.3} vs signal divergence {:.3}",
            result.p99_divergence,
            result.poll_signal_divergence
        );
        // The eBPF-side signal must be essentially untouched by loss.
        assert!(
            result.poll_signal_divergence < 0.05,
            "signal divergence {:.3}",
            result.poll_signal_divergence
        );
        // Loss must visibly inflate the tail somewhere in the stable sweep.
        let c0 = &result.conditions[0];
        let c1 = &result.conditions[1];
        assert!(c1
            .p99_ms
            .iter()
            .zip(&c0.p99_ms)
            .any(|(lossy, clean)| *lossy > clean * 1.05));
    }
}
