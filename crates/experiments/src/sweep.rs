//! The shared load-sweep harness used by every figure and table.
//!
//! A sweep drives one workload across offered-load levels (fractions of the
//! paper's failure RPS), attaches the observability probe, and collects per
//! level both the client-side ground truth and the probe's window metrics —
//! the two sides whose relationship every experiment measures.

use kscope_core::{ProbeSet, WindowMetrics, DEFAULT_SHIFT};
use kscope_netem::NetemConfig;
use kscope_simcore::{parallel, Nanos};
use kscope_workloads::{ClientStats, RunConfig, ThreadingModel, WorkloadSpec};

use crate::observe::observe_run;

/// The probe's execution tier: always the JIT (which falls back to
/// the interpreter by itself). Kept only for the end-to-end benchmark
/// harness, which still names it.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Verified eBPF bytecode on the JIT.
    BytecodeJit,
}

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Load levels as fractions of the workload's paper failure RPS.
    pub fractions: Vec<f64>,
    /// Estimation windows per level (the paper plots ten per level).
    pub windows_per_level: usize,
    /// Target send samples per window (paper: ≥ 2048 syscalls).
    pub min_send_samples: u64,
    /// Network conditions.
    pub netem: NetemConfig,
    /// Base seed (levels use `seed + level index`).
    pub seed: u64,
}

impl SweepConfig {
    /// Paper-scale sweep: 13 levels, 10 windows each, 2048-sample windows.
    pub fn full() -> SweepConfig {
        SweepConfig {
            fractions: vec![
                0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95, 1.0, 1.05,
            ],
            windows_per_level: 10,
            min_send_samples: 2048,
            netem: NetemConfig::loopback(),
            seed: 7,
        }
    }

    /// Reduced sweep for tests and smoke runs.
    pub fn quick() -> SweepConfig {
        SweepConfig {
            fractions: vec![0.2, 0.5, 0.8, 0.95, 1.05],
            windows_per_level: 4,
            min_send_samples: 192,
            netem: NetemConfig::loopback(),
            seed: 7,
        }
    }

    /// Replaces the network configuration (Table II / Fig. 5 variants).
    pub fn with_netem(mut self, netem: NetemConfig) -> SweepConfig {
        self.netem = netem;
        self
    }

    /// Returns the config unchanged: the probe always runs on the JIT.
    /// Kept only for the end-to-end benchmark harness, which still calls
    /// it.
    #[doc(hidden)]
    pub fn with_backend(self, _backend: BackendKind) -> SweepConfig {
        self
    }
}

/// Measurements for one offered-load level.
#[derive(Debug, Clone)]
pub struct LevelResult {
    /// Offered load.
    pub offered_rps: f64,
    /// Client ground truth.
    pub client: ClientStats,
    /// Probe windows inside the measurement period.
    pub windows: Vec<WindowMetrics>,
}

impl LevelResult {
    /// True when the level's p99 exceeds the workload's QoS threshold.
    pub fn violates_qos(&self, spec: &WorkloadSpec) -> bool {
        self.client.p99_latency > spec.qos_p99
    }

    /// Mean of the windows' Eq. 1 estimates.
    pub fn mean_rps_obsv(&self) -> Option<f64> {
        let values: Vec<f64> = self.windows.iter().filter_map(|w| w.rps_obsv).collect();
        if values.is_empty() {
            None
        } else {
            Some(values.iter().sum::<f64>() / values.len() as f64)
        }
    }

    /// Mean of the windows' inter-send variances (ns²).
    pub fn mean_var_send(&self) -> Option<f64> {
        let values: Vec<f64> = self.windows.iter().filter_map(|w| w.var_send).collect();
        if values.is_empty() {
            None
        } else {
            Some(values.iter().sum::<f64>() / values.len() as f64)
        }
    }

    /// Mean of the windows' mean poll durations (ns).
    pub fn mean_poll_ns(&self) -> Option<f64> {
        let values: Vec<f64> = self.windows.iter().filter_map(|w| w.poll_mean_ns).collect();
        if values.is_empty() {
            None
        } else {
            Some(values.iter().sum::<f64>() / values.len() as f64)
        }
    }
}

/// A complete sweep of one workload.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// The workload swept.
    pub spec: WorkloadSpec,
    /// Per-level measurements, in `fractions` order.
    pub levels: Vec<LevelResult>,
}

impl SweepResult {
    /// The first level violating QoS — the measured failure point.
    pub fn failure_level(&self) -> Option<&LevelResult> {
        self.levels.iter().find(|l| l.violates_qos(&self.spec))
    }

    /// `(rps_obsv, rps_real)` pairs: one point per window, with the level's
    /// achieved RPS as ground truth (the scatter of Fig. 2).
    pub fn correlation_points(&self, min_samples: u64) -> Vec<(f64, f64)> {
        let mut points = Vec::new();
        for level in &self.levels {
            for w in &level.windows {
                if w.send_samples >= min_samples {
                    if let Some(obsv) = w.rps_obsv {
                        points.push((obsv, level.client.achieved_rps));
                    }
                }
            }
        }
        points
    }
}

/// Total send-role syscalls one request generates (forward hops included) —
/// used to size observation windows.
pub fn send_events_per_request(spec: &WorkloadSpec) -> f64 {
    let egress = spec.sends_per_request.mean();
    match spec.threading {
        // Front-end forward write + back-end reply write + egress sends.
        ThreadingModel::TwoStage { .. } => egress + 2.0,
        _ => egress,
    }
}

/// Runs one level of a sweep.
pub fn run_level(
    spec: &WorkloadSpec,
    offered_rps: f64,
    config: &SweepConfig,
    seed: u64,
) -> LevelResult {
    let sends_per_req = send_events_per_request(spec);
    let window_secs =
        (config.min_send_samples as f64 * 1.3 / (offered_rps * sends_per_req)).max(0.05);
    let window = Nanos::from_secs_f64(window_secs);
    let warmup = Nanos::from_secs_f64((spec.service_time.mean() / 1e9 * 30.0).max(0.3));
    // Align the warmup to window boundaries so measurement windows are full.
    let warmup = window * warmup.as_nanos().div_ceil(window.as_nanos()).max(1);
    let run_cfg = RunConfig {
        offered_rps,
        warmup,
        measure: window * config.windows_per_level as u64,
        seed,
        netem: config.netem.clone(),
        collect_trace: false,
    };

    let mut run = observe_run(spec, &run_cfg, window, |sim| {
        ProbeSet::new(sim.server_pids(), sim.spec().profile.clone(), DEFAULT_SHIFT).build()
    });
    let (warmup_end, end) = (run.warmup_end, run.end);
    let windows = run
        .observer()
        .windows()
        .iter()
        .copied()
        .filter(|w| w.start >= warmup_end && w.end <= end)
        .collect();

    LevelResult {
        offered_rps,
        client: run.client,
        windows,
    }
}

/// Runs a full sweep of `spec`, fanning levels across worker threads.
///
/// Levels are independent simulations with split seeds (`config.seed +
/// level index`), so the result is bitwise identical for every `jobs`
/// value — `jobs = 1` is the serial reference, and the
/// `sweep_parallel_determinism` test holds higher values to it.
pub fn sweep_jobs(spec: &WorkloadSpec, config: &SweepConfig, jobs: usize) -> SweepResult {
    let levels = parallel::map_indexed(&config.fractions, jobs, |i, frac| {
        run_level(
            spec,
            spec.paper_failure_rps * frac,
            config,
            config.seed + i as u64,
        )
    });
    SweepResult {
        spec: spec.clone(),
        levels,
    }
}

/// Runs a full sweep of `spec` with the default worker count
/// (`--jobs` / `KSCOPE_JOBS` / available parallelism).
pub fn sweep(spec: &WorkloadSpec, config: &SweepConfig) -> SweepResult {
    sweep_jobs(spec, config, parallel::default_jobs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kscope_workloads::data_caching;

    #[test]
    fn quick_sweep_produces_windows_and_knee() {
        let spec = data_caching();
        let result = sweep(&spec, &SweepConfig::quick());
        assert_eq!(result.levels.len(), 5);
        for level in &result.levels {
            assert!(
                !level.windows.is_empty(),
                "level {} has no windows",
                level.offered_rps
            );
        }
        // Light load meets QoS; deep overload violates it.
        assert!(!result.levels[0].violates_qos(&spec));
        assert!(result.levels.last().unwrap().violates_qos(&spec));
        assert!(result.failure_level().is_some());
    }

    #[test]
    fn correlation_points_track_ground_truth() {
        let spec = data_caching();
        let result = sweep(&spec, &SweepConfig::quick());
        let points = result.correlation_points(64);
        assert!(points.len() >= 10, "{} points", points.len());
        // Observed RPS should land within 25% of real RPS for most points
        // (send count per request is 1 for data caching).
        let close = points
            .iter()
            .filter(|(obsv, real)| (obsv - real).abs() / real < 0.25)
            .count();
        assert!(
            close * 10 >= points.len() * 8,
            "{close}/{} points close",
            points.len()
        );
    }

    #[test]
    fn send_events_per_request_accounts_for_hops() {
        assert_eq!(send_events_per_request(&data_caching()), 1.0);
        let ws = kscope_workloads::web_search();
        assert!(send_events_per_request(&ws) > 3.0);
    }

    #[test]
    fn bytecode_backend_sweep_smoke() {
        let spec = data_caching();
        let mut config = SweepConfig::quick();
        config.fractions = vec![0.5];
        let result = sweep(&spec, &config);
        assert!(result.levels[0].mean_rps_obsv().is_some());
    }
}
