//! Saturation monitor: detect QoS trouble with no client feedback.
//!
//! Steps a TailBench-style server through increasing load levels and runs
//! the paper's two saturation signals at each step — the Eq. 2 inter-send
//! variance knee and the poll-duration slack — printing what a management
//! runtime would see. The ground-truth p99 is shown only for validation;
//! the detectors never look at it.
//!
//! ```text
//! cargo run --release --example saturation_monitor
//! ```

use kscope::core::DEFAULT_SHIFT;
use kscope::experiments::observe_run;
use kscope::prelude::*;

fn main() {
    let spec = kscope::workloads::xapian();
    println!(
        "monitoring {} — paper failure point {:.0} rps, QoS p99 {:.0} ms\n",
        spec.name,
        spec.paper_failure_rps,
        spec.qos_p99.as_millis_f64()
    );
    println!(
        "{:>8}  {:>9}  {:>12}  {:>9}  {:>9}  {:>8}  {:>12}",
        "offered", "rps_obsv", "var(Δt)ms²", "slack", "sat?", "p99(ms)", "ground truth"
    );

    let mut agent = Agent::new(
        RpsEstimator::with_min_samples(64),
        SaturationDetector::default(),
        SlackEstimator::default(),
    );

    for step in 0..12 {
        let fraction = 0.15 + 0.11 * step as f64; // 15% .. 136% of failure
        let offered = spec.paper_failure_rps * fraction;
        let mut config = RunConfig::new(offered, 100 + step as u64);
        config.measure = Nanos::from_secs(4);
        let mut run = observe_run(&spec, &config, Nanos::from_secs(1), |sim| {
            ProbeSet::new(sim.server_pids(), spec.profile.clone(), DEFAULT_SHIFT).build()
        });
        let warmup_end = run.warmup_end;

        let mut last = None;
        for w in run
            .observer()
            .windows()
            .iter()
            .filter(|w| w.start >= warmup_end)
        {
            last = Some(agent.ingest(*w));
        }
        let Some(report) = last else { continue };

        let saturated = report.any_saturation();
        let qos_violated = run.client.p99_latency > spec.qos_p99;
        println!(
            "{:>8.0}  {:>9.0}  {:>12.3}  {:>8.0}%  {:>9}  {:>8.1}  {:>12}",
            offered,
            report.rps_obsv.unwrap_or(0.0),
            report
                .saturation
                .map(|s| s.variance / 1e12) // ns² -> ms²
                .unwrap_or(0.0),
            report.slack.map(|s| s.headroom * 100.0).unwrap_or(0.0),
            if saturated { "SATURATED" } else { "ok" },
            run.client.p99_latency.as_millis_f64(),
            if qos_violated {
                "QoS VIOLATED"
            } else {
                "within QoS"
            },
        );
    }

    println!(
        "\nThe monitor used only in-kernel syscall statistics — no client\n\
         feedback, no application instrumentation (§VI: resource management)."
    );
}
