//! Figure 1: the anatomy of a server's syscall stream.
//!
//! Reproduces the walkthrough of §III: (a) a request-response server under
//! load, (b) its raw syscall stream with setup / active / shutdown phases,
//! and (c) the extracted request-oriented subset with per-request
//! recv→send pairing — possible here because the demo server is
//! single-threaded.

use kscope_core::timeline::{self, TimelineReport};
use kscope_netem::NetemConfig;
use kscope_syscalls::{PhaseReport, Trace};
use kscope_workloads::{echo_single_thread, run_workload, RunConfig, WorkloadSpec};

use crate::Scale;

/// Everything Fig. 1 reports.
#[derive(Debug)]
pub struct Fig1Result {
    /// The demo workload.
    pub spec: WorkloadSpec,
    /// The full captured trace.
    pub trace: Trace,
    /// Phase split (Fig. 1b).
    pub phases: PhaseReport,
    /// Request reconstruction (Fig. 1c).
    pub timeline: TimelineReport,
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Fig1Result {
    let spec = echo_single_thread();
    let mut config = RunConfig::new(spec.paper_failure_rps * 0.4, 11);
    config.netem = NetemConfig::loopback();
    if scale == Scale::Quick {
        config = config.quick();
    }
    // Capture the whole lifecycle, setup phase included.
    config.warmup = kscope_simcore::Nanos::ZERO;
    let outcome = run_workload(&spec, &config, Vec::new());
    let phases = PhaseReport::extract(&outcome.trace, &spec.profile);
    let timeline = timeline::reconstruct(&outcome.trace, &spec.profile);
    Fig1Result {
        spec,
        trace: outcome.trace,
        phases,
        timeline,
    }
}

/// Renders the figure as text.
pub fn render(result: &Fig1Result) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "Figure 1 — syscall stream of `{}`", result.spec.name);
    let _ = writeln!(out, "\n(b) raw stream excerpt (first 16 events):");
    for event in result.trace.events().iter().take(16) {
        let _ = writeln!(out, "    {event}");
    }
    let _ = writeln!(
        out,
        "\nphases: setup={} active={} shutdown={} (active fraction {:.2})",
        result.phases.setup.len(),
        result.phases.active.len(),
        result.phases.shutdown.len(),
        result.phases.active_fraction()
    );
    let _ = writeln!(
        out,
        "\n(c) request reconstruction: {} spans paired, pairing rate {:.3}",
        result.timeline.spans.len(),
        result.timeline.pairing_rate()
    );
    let service: Vec<f64> = result
        .timeline
        .service_times()
        .iter()
        .map(|d| d.as_micros_f64())
        .collect();
    if !service.is_empty() {
        let mean = service.iter().sum::<f64>() / service.len() as f64;
        let _ = writeln!(out, "mean reconstructed service time: {mean:.1} us");
    }
    for span in result.timeline.spans.iter().take(5) {
        let _ = writeln!(
            out,
            "    tid {}: recv@{} -> send@{} (service {})",
            span.tid,
            span.recv.exit,
            span.send.exit,
            span.service_time()
        );
    }
    let _ = out.write_str(
        "\nTakeaway: in a single-threaded server the request timeline is fully\n\
         reconstructable from recv/send pairing; multi-threaded handoff breaks\n\
         this, motivating the aggregate statistics of Figs. 2-4.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_demo_pairs_nearly_all_requests() {
        let result = run(Scale::Quick);
        assert!(result.timeline.spans.len() > 50);
        assert!(
            // The demo server is single-threaded, so pairing must be
            // near-perfect.
            result.timeline.pairing_rate() >= 0.99,
            "pairing rate {}",
            result.timeline.pairing_rate()
        );
        // Reconstructed service time should approximate the configured mean.
        let mean_us = result
            .timeline
            .service_times()
            .iter()
            .map(|d| d.as_micros_f64())
            .sum::<f64>()
            / result.timeline.spans.len() as f64;
        let configured_us = result.spec.service_time.mean() / 1_000.0;
        assert!(
            (mean_us - configured_us).abs() / configured_us < 0.5,
            "reconstructed {mean_us:.1}us vs configured {configured_us:.1}us"
        );
    }

    #[test]
    fn render_contains_phases_and_spans() {
        let result = run(Scale::Quick);
        let text = render(&result);
        assert!(text.contains("phases:"));
        assert!(text.contains("pairing rate"));
    }
}
