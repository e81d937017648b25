//! Black-box capacity planner: the paper's §VI "implications" in action.
//!
//! A management runtime wants to know how much headroom a third-party
//! (uninstrumentable) service has before it must scale out. This example
//! treats the Web Search model as that black box: it probes the kernel
//! only, estimates saturation slack at increasing load, and recommends a
//! scaling action — then validates the recommendation against the ground
//! truth the runtime never saw.
//!
//! (The slack signal's floor is workload-dependent: multi-stage services
//! like Web Search keep sizeable poll durations even at saturation because
//! their front-ends pipeline; the memcached-style model used here has the
//! clean syscall-floor behaviour of Fig. 4.)
//!
//! ```text
//! cargo run --release --example blackbox_tuner
//! ```

use kscope::core::DEFAULT_SHIFT;
use kscope::experiments::observe_run;
use kscope::prelude::*;

/// What the runtime decides from the in-kernel signals alone.
#[derive(Debug, PartialEq)]
enum Action {
    /// Plenty of headroom: candidates for consolidation.
    ScaleDown,
    /// Comfortable.
    Hold,
    /// Approaching saturation: add capacity now.
    ScaleUp,
}

fn decide(headroom: f64, saturated: bool) -> Action {
    // Thresholds live on the slack estimator's log scale (poll durations
    // span orders of magnitude between idle and saturated).
    if saturated || headroom < 0.30 {
        Action::ScaleUp
    } else if headroom > 0.82 {
        Action::ScaleDown
    } else {
        Action::Hold
    }
}

fn main() {
    let spec = kscope::workloads::data_caching();
    println!(
        "black-box service: {} (the runtime sees only tgids and syscalls)\n",
        spec.name
    );
    println!(
        "{:>8}  {:>9}  {:>8}  {:>10}  |  {:>8}  {:>10}",
        "offered", "headroom", "var sat?", "decision", "p99(ms)", "truth"
    );

    let mut agent = Agent::new(
        RpsEstimator::with_min_samples(128),
        SaturationDetector::default(),
        SlackEstimator::default(),
    );
    let mut correct = 0usize;
    let mut total = 0usize;

    for step in 0..9 {
        let fraction = 0.15 + 0.11 * step as f64;
        let offered = spec.paper_failure_rps * fraction;
        let mut config = RunConfig::new(offered, 500 + step as u64);
        config.measure = Nanos::from_secs(3);
        let mut run = observe_run(&spec, &config, Nanos::from_millis(750), |sim| {
            ProbeSet::new(sim.server_pids(), spec.profile.clone(), DEFAULT_SHIFT).build()
        });
        let warmup_end = run.warmup_end;

        let mut headroom = 1.0;
        let mut var_saturated = false;
        for w in run
            .observer()
            .windows()
            .iter()
            .filter(|w| w.start >= warmup_end)
        {
            let report = agent.ingest(*w);
            if let Some(slack) = report.slack {
                headroom = slack.headroom;
            }
            if let Some(sat) = report.saturation {
                var_saturated = sat.saturated;
            }
        }
        let action = decide(headroom, var_saturated);

        // Ground truth the runtime never sees: utilization of the knee.
        let utilization = run.client.achieved_rps / spec.paper_failure_rps;
        let truth = if utilization > 0.85 {
            Action::ScaleUp
        } else if utilization < 0.45 {
            Action::ScaleDown
        } else {
            Action::Hold
        };
        total += 1;
        if action == truth {
            correct += 1;
        }
        println!(
            "{:>8.0}  {:>8.0}%  {:>8}  {:>10}  |  {:>8.1}  {:>10}",
            offered,
            headroom * 100.0,
            if var_saturated { "yes" } else { "no" },
            format!("{action:?}"),
            run.client.p99_latency.as_millis_f64(),
            format!("{truth:?}"),
        );
    }
    println!(
        "\nagreement with ground truth: {correct}/{total} — from kernel-side\n\
         observability alone, with zero application cooperation."
    );
}
