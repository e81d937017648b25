//! Quickstart: observe a memcached-like server with an eBPF probe.
//!
//! Runs the CloudSuite Data Caching model at half its capacity, attaches
//! the bytecode observability probe to the simulated kernel's syscall
//! tracepoints, and compares the probe's Eq. 1 estimate of requests per
//! second with the client-measured ground truth.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use kscope::core::DEFAULT_SHIFT;
use kscope::prelude::*;

fn main() {
    // 1. Pick a workload from the paper's catalog.
    let spec = kscope::workloads::data_caching();
    let offered = spec.paper_failure_rps * 0.5;
    println!(
        "workload: {} (CloudSuite), offered load {:.0} rps",
        spec.name, offered
    );

    // 2. Configure a run: 300ms warmup, 2s measured, loopback network.
    let config = RunConfig::new(offered, 42);

    // 3. Attach the eBPF bytecode probe, windowed at 200ms — the agent's
    //    polling period.
    let window = Nanos::from_millis(200);
    let outcome = run_workload_with(&spec, &config, |sim| {
        let backend = ProbeSet::new(sim.server_pids(), spec.profile.clone(), DEFAULT_SHIFT)
            .build()
            .expect("generated programs pass the verifier");
        println!("\nloaded eBPF programs:\n{}", backend.disassembly());
        vec![Box::new(WindowedObserver::new(backend, window)) as Box<dyn TracepointProbe>]
    });

    // 4. Recover the observer and feed its windows to the agent.
    let mut kernel = outcome.kernel;
    let mut probe = kernel.tracing.detach(outcome.probes[0]).expect("attached");
    let observer = probe
        .as_any_mut()
        .downcast_mut::<WindowedObserver<BytecodeBackend>>()
        .expect("bytecode observer");
    observer.finish(outcome.end);

    let mut agent = Agent::new(
        RpsEstimator::with_min_samples(256),
        SaturationDetector::default(),
        SlackEstimator::default(),
    );
    agent.ingest_all(
        observer
            .windows()
            .iter()
            .copied()
            .filter(|w| w.start >= outcome.warmup_end),
    );

    // 5. Compare with ground truth.
    let rps_obsv = agent.overall_rps().expect("enough samples");
    println!(
        "\nclient ground truth: {:>10.0} rps",
        outcome.client.achieved_rps
    );
    println!("eBPF RPS_obsv (Eq.1): {:>9.0} rps", rps_obsv);
    println!(
        "estimation error:     {:>9.2}%",
        (rps_obsv - outcome.client.achieved_rps).abs() / outcome.client.achieved_rps * 100.0
    );
    println!(
        "client p99 latency:   {:>9.2} ms (QoS limit {:.2} ms)",
        outcome.client.p99_latency.as_millis_f64(),
        spec.qos_p99.as_millis_f64()
    );
    if let Some(report) = agent.latest() {
        if let Some(slack) = report.slack {
            println!(
                "saturation headroom:  {:>9.0}% (from epoll_wait durations)",
                slack.headroom * 100.0
            );
        }
    }
}
