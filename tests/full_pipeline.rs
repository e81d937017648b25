//! End-to-end pipeline tests: workload → kernel tracepoints → probe →
//! windows → estimators, validated against client ground truth, for one
//! workload of each threading archetype — parameterized over both tiers
//! of the bytecode probe (interpreter and JIT).

use kscope::core::DEFAULT_SHIFT;
use kscope::experiments::{observe_run, BackendKind};
use kscope::prelude::*;
use kscope::workloads::ClientStats;

const ALL_BACKENDS: [BackendKind; 2] = [BackendKind::Bytecode, BackendKind::BytecodeJit];

/// Runs `spec` under `config` with the probe on `backend`'s tier and
/// returns the run's ground truth and its measurement-period windows.
fn observe_windows(
    spec: &WorkloadSpec,
    config: &RunConfig,
    window: Nanos,
    backend: BackendKind,
) -> (ClientStats, Vec<WindowMetrics>) {
    let mut run = observe_run(spec, config, window, |sim| {
        let set = ProbeSet::new(sim.server_pids(), spec.profile.clone(), DEFAULT_SHIFT);
        match backend {
            BackendKind::Bytecode => set,
            BackendKind::BytecodeJit => set.with_jit(),
        }
        .build()
    });
    let warmup_end = run.warmup_end;
    let windows = run
        .observer()
        .windows()
        .iter()
        .copied()
        .filter(|w| w.start >= warmup_end)
        .collect();
    (run.client, windows)
}

/// Runs one level under `backend` and returns (ground-truth rps, pooled
/// RPS_obsv, mean poll duration ns).
fn observe(spec: &WorkloadSpec, fraction: f64, seed: u64, backend: BackendKind) -> (f64, f64, f64) {
    let offered = spec.paper_failure_rps * fraction;
    let mut config = RunConfig::new(offered, seed);
    // Enough requests for a stable estimate even for slow workloads.
    config.measure = Nanos::from_secs_f64((1_500.0 / offered).clamp(0.5, 600.0));
    config.warmup = Nanos::from_secs_f64((spec.service_time.mean() / 1e9 * 30.0).max(0.2));
    config.collect_trace = false;
    let window = config.measure / 4;
    let (client, windows) = observe_windows(spec, &config, window, backend);
    let rps_obsv = RpsEstimator::with_min_samples(64)
        .from_windows(&windows)
        .expect("enough samples");
    let polls: Vec<f64> = windows.iter().filter_map(|w| w.poll_mean_ns).collect();
    let poll_mean = polls.iter().sum::<f64>() / polls.len().max(1) as f64;
    (client.achieved_rps, rps_obsv, poll_mean)
}

/// Eq. 1 tracks ground truth for each threading archetype, after dividing
/// out the workload's known sends-per-request factor — under every probe
/// backend.
#[test]
fn rps_obsv_tracks_ground_truth_across_archetypes() {
    for spec in [
        kscope::workloads::silo(),         // worker pool (select)
        kscope::workloads::data_caching(), // worker pool (epoll)
        kscope::workloads::web_search(),   // two-stage, two processes
        kscope::workloads::triton_grpc(),  // dispatch pool
    ] {
        let sends_per_req = kscope::experiments::send_events_per_request(&spec);
        for backend in ALL_BACKENDS {
            let (real, obsv, _) = observe(&spec, 0.5, 17, backend);
            let estimated = obsv / sends_per_req;
            let err = (estimated - real).abs() / real;
            assert!(
                err < 0.15,
                "{} [{backend:?}]: RPS_obsv/k = {estimated:.1} vs real {real:.1} (err {err:.3})",
                spec.name
            );
        }
    }
}

/// Poll durations must collapse by an order of magnitude between light
/// load and the knee, for every archetype and both probe tiers.
#[test]
fn poll_durations_collapse_toward_the_knee() {
    for (spec, backend) in [
        // Pair each archetype with one tier (both tiers are exercised;
        // backend_equivalence.rs holds the tiers and the plain-Rust
        // oracle bit-identical).
        (kscope::workloads::img_dnn(), BackendKind::BytecodeJit),
        (kscope::workloads::data_caching(), BackendKind::BytecodeJit),
        (kscope::workloads::triton_http(), BackendKind::Bytecode),
    ] {
        let (_, _, poll_light) = observe(&spec, 0.15, 23, backend);
        let (_, _, poll_heavy) = observe(&spec, 0.95, 23, backend);
        assert!(
            poll_light > 3.0 * poll_heavy,
            "{} [{backend:?}]: poll {poll_light:.0}ns -> {poll_heavy:.0}ns",
            spec.name
        );
    }
}

/// The agent's saturation signals stay quiet below the knee and fire in
/// overload — fed by the JIT-compiled bytecode probe.
#[test]
fn agent_flags_overload_but_not_light_load() {
    let spec = kscope::workloads::data_caching();
    let backend = BackendKind::BytecodeJit;
    let mut agent = Agent::new(
        RpsEstimator::with_min_samples(64),
        SaturationDetector::default(),
        SlackEstimator::default(),
    );
    let mut flagged_light = false;
    let mut flagged_overload = false;
    for (i, fraction) in [0.2, 0.4, 0.6, 0.8, 0.95, 1.15, 1.25].iter().enumerate() {
        let offered = spec.paper_failure_rps * fraction;
        let mut config = RunConfig::new(offered, 40 + i as u64);
        config.collect_trace = false;
        let (_, windows) = observe_windows(&spec, &config, Nanos::from_millis(250), backend);
        for w in windows {
            let report = agent.ingest(w);
            if report.any_saturation() {
                if *fraction <= 0.8 {
                    flagged_light = true;
                } else if *fraction >= 1.15 {
                    flagged_overload = true;
                }
            }
        }
    }
    assert!(!flagged_light, "false positive below the knee");
    assert!(flagged_overload, "missed saturation in overload");
}

/// Ground truth itself behaves: p99 explodes past the knee.
#[test]
fn p99_explodes_past_the_knee() {
    let spec = kscope::workloads::specjbb();
    let light = {
        let config = RunConfig::new(spec.paper_failure_rps * 0.5, 3).quick();
        run_workload(&spec, &config, Vec::new()).client.p99_latency
    };
    let overload = {
        let config = RunConfig::new(spec.paper_failure_rps * 1.3, 3).quick();
        run_workload(&spec, &config, Vec::new()).client.p99_latency
    };
    assert!(
        overload > light * 5,
        "p99 light {light}, overload {overload}"
    );
}
