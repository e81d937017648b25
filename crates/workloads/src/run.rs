//! One-shot workload runs: build, drive, measure.

use kscope_kernel::{Kernel, ProbeId, TracepointProbe};
use kscope_netem::NetemConfig;
use kscope_simcore::{Engine, Nanos};
use kscope_syscalls::Trace;

use crate::server::{Completion, ServerSim};
use crate::spec::WorkloadSpec;

/// Parameters of one measurement run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Open-loop offered load in requests/second.
    pub offered_rps: f64,
    /// Time to run before measurement starts.
    pub warmup: Nanos,
    /// Measurement window length.
    pub measure: Nanos,
    /// Simulation seed.
    pub seed: u64,
    /// Network conditions.
    pub netem: NetemConfig,
    /// Record the full syscall trace (stream-to-userspace mode).
    pub collect_trace: bool,
}

impl RunConfig {
    /// A short run with sensible defaults: 300 ms warmup, 2 s measured,
    /// ideal-ish loopback network.
    pub fn new(offered_rps: f64, seed: u64) -> RunConfig {
        RunConfig {
            offered_rps,
            warmup: Nanos::from_millis(300),
            measure: Nanos::from_secs(2),
            seed,
            netem: NetemConfig::loopback(),
            collect_trace: true,
        }
    }

    /// Shrinks warmup and measurement for fast tests.
    pub fn quick(mut self) -> RunConfig {
        self.warmup = Nanos::from_millis(100);
        self.measure = Nanos::from_millis(600);
        self
    }

    /// End of the offered-load window.
    pub fn end(&self) -> Nanos {
        self.warmup + self.measure
    }
}

/// Client-side ground truth for one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientStats {
    /// The offered load.
    pub offered_rps: f64,
    /// Measured completion rate inside the window.
    pub achieved_rps: f64,
    /// Completions inside the window.
    pub completed: u64,
    /// Mean latency.
    pub mean_latency: Nanos,
    /// Median latency.
    pub p50_latency: Nanos,
    /// 95th-percentile latency.
    pub p95_latency: Nanos,
    /// 99th-percentile latency — the paper's QoS metric.
    pub p99_latency: Nanos,
}

impl ClientStats {
    fn from_completions(
        offered_rps: f64,
        window: Nanos,
        completions: &[Completion],
    ) -> ClientStats {
        let mut lat: Vec<u64> = completions.iter().map(|c| c.latency().as_nanos()).collect();
        lat.sort_unstable();
        let pct = |q: f64| -> Nanos {
            if lat.is_empty() {
                return Nanos::ZERO;
            }
            let rank = (q * (lat.len() - 1) as f64).round() as usize;
            Nanos::from_nanos(lat[rank.min(lat.len() - 1)])
        };
        let mean = if lat.is_empty() {
            Nanos::ZERO
        } else {
            Nanos::from_nanos(lat.iter().sum::<u64>() / lat.len() as u64)
        };
        ClientStats {
            offered_rps,
            achieved_rps: completions.len() as f64 / window.as_secs_f64(),
            completed: completions.len() as u64,
            mean_latency: mean,
            p50_latency: pct(0.50),
            p95_latency: pct(0.95),
            p99_latency: pct(0.99),
        }
    }
}

/// Everything a run produces.
#[derive(Debug)]
pub struct RunOutcome {
    /// Ground truth measured at the client.
    pub client: ClientStats,
    /// Full syscall trace of the measurement window (empty when trace
    /// collection was off).
    pub trace: Trace,
    /// The kernel after the run — read probe state out of
    /// `kernel.tracing`.
    pub kernel: Kernel,
    /// Probe ids, in the order the probes were supplied.
    pub probes: Vec<ProbeId>,
    /// Start of the measurement window.
    pub warmup_end: Nanos,
    /// End of the measurement window.
    pub end: Nanos,
}

/// Runs `spec` under `config` with optional probes attached to the syscall
/// tracepoints.
///
/// The returned trace is already sliced to the measurement window; probes
/// observe the whole run (warmup included), as a real agent would.
pub fn run_workload(
    spec: &WorkloadSpec,
    config: &RunConfig,
    probes: Vec<Box<dyn TracepointProbe>>,
) -> RunOutcome {
    run_workload_with(spec, config, move |_| probes)
}

/// Like [`run_workload`], but the probes are built *after* the server is
/// wired, so they can filter on the actual process ids
/// ([`ServerSim::server_pids`]).
pub fn run_workload_with<F>(spec: &WorkloadSpec, config: &RunConfig, make_probes: F) -> RunOutcome
where
    F: FnOnce(&ServerSim) -> Vec<Box<dyn TracepointProbe>>,
{
    let mut sim = ServerSim::new(
        spec.clone(),
        config.offered_rps,
        config.netem.clone(),
        config.seed,
        config.end(),
    );
    let probes = make_probes(&sim);
    sim.kernel_mut()
        .tracing
        .set_collect_trace(config.collect_trace);
    let mut probe_ids = Vec::new();
    for probe in probes {
        probe_ids.push(sim.kernel_mut().tracing.attach(probe));
    }
    // Pending events scale with in-flight requests, not total requests; a
    // tenth of a second of offered load comfortably bounds the high-water
    // mark and spares the heap its growth reallocations mid-run.
    let expected_pending = ((config.offered_rps * 0.1) as usize).clamp(64, 16_384);
    let mut engine = Engine::with_capacity(expected_pending);
    sim.install(&mut engine);
    engine.run_until(&mut sim, config.end());
    if config.collect_trace {
        sim.emit_shutdown_syscalls(config.end());
    }

    let window: Vec<Completion> = sim
        .completions()
        .iter()
        .copied()
        .filter(|c| c.finished >= config.warmup && c.finished < config.end())
        .collect();
    let client = ClientStats::from_completions(config.offered_rps, config.measure, &window);
    let kernel = sim.into_kernel();
    // The slice end leaves room for the shutdown events emitted at `end`.
    let trace = kernel
        .tracing
        .trace()
        .slice_time(config.warmup, config.end() + Nanos::from_secs(1));
    RunOutcome {
        client,
        trace,
        kernel,
        probes: probe_ids,
        warmup_end: config.warmup,
        end: config.end(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    #[test]
    fn light_load_run_completes_requests() {
        let spec = spec::echo_single_thread();
        let config = RunConfig::new(500.0, 42).quick();
        let outcome = run_workload(&spec, &config, Vec::new());
        assert!(outcome.client.completed > 100, "{:?}", outcome.client);
        // Achieved tracks offered at light load.
        let ratio = outcome.client.achieved_rps / 500.0;
        assert!((0.85..1.15).contains(&ratio), "ratio {ratio}");
        assert!(!outcome.trace.is_empty());
    }

    #[test]
    fn identical_seeds_reproduce_identical_runs() {
        let spec = spec::echo_single_thread();
        let config = RunConfig::new(800.0, 7).quick();
        let a = run_workload(&spec, &config, Vec::new());
        let b = run_workload(&spec, &config, Vec::new());
        assert_eq!(a.client.completed, b.client.completed);
        assert_eq!(a.client.p99_latency, b.client.p99_latency);
        assert_eq!(a.trace.len(), b.trace.len());
    }

    #[test]
    fn different_seeds_differ() {
        let spec = spec::echo_single_thread();
        let a = run_workload(&spec, &RunConfig::new(800.0, 1).quick(), Vec::new());
        let b = run_workload(&spec, &RunConfig::new(800.0, 2).quick(), Vec::new());
        assert_ne!(a.client.p99_latency, b.client.p99_latency);
    }
}
