//! Every constructor call the benchmark makes into `kscope-core` and
//! `kscope-fleet`, plus the workload presets it reads. When those APIs
//! change, this is the one file to touch.

use kscope_core::{BytecodeBackend, MetricBackend, RpsEstimator, WindowedObserver, DEFAULT_SHIFT};
use kscope_experiments::sweep::{BackendKind, SweepConfig};
use kscope_experiments::{fig_netstack, Scale};
use kscope_fleet::{Collector, FleetConfig, FleetRun, HostTruth, SimHost};
use kscope_simcore::Nanos;
use kscope_syscalls::{Pid, SyscallProfile};

/// Hosts in the `fleet_10k` workload.
pub const FLEET_HOSTS: usize = 10_000;

/// The paper sweep: every `SweepConfig::full()` load level on the JIT
/// tier, levels seeded `seed + index`.
pub fn sweep_config(seed: u64) -> SweepConfig {
    let mut config = SweepConfig::full().with_backend(BackendKind::BytecodeJit);
    config.seed = seed;
    config
}

/// The `fig_netstack` full-scale conditions.
pub fn netstack_conditions() -> Vec<fig_netstack::NetCondition> {
    fig_netstack::conditions(Scale::Full)
}

/// The scale-preset fleet of [`FLEET_HOSTS`] hosts on JIT probes.
pub fn fleet_config(hosts: usize, seed: u64) -> FleetConfig {
    let mut config = FleetConfig::scale(hosts).with_jit_probes();
    config.seed = seed;
    config
}

/// The sweep probe: the syscall program pair over `pids`, on the JIT
/// tier; with `netstack`, also the ingress program pair.
pub fn probe(pids: Vec<Pid>, profile: SyscallProfile, netstack: bool) -> BytecodeBackend {
    let backend = BytecodeBackend::new_multi(pids, profile, DEFAULT_SHIFT)
        .and_then(|b| if netstack { b.with_netstack() } else { Ok(b) })
        .expect("generated probe programs must verify");
    backend.with_jit()
}

/// Wraps a backend in the windowing observer.
pub fn observer<B: MetricBackend>(backend: B, window: Nanos) -> WindowedObserver<B> {
    WindowedObserver::new(backend, window)
}

/// The Eq. 1 estimate over `windows` thick enough to count, as
/// `fig_netstack` computes it.
pub fn rps_obsv(windows: &[kscope_core::WindowMetrics]) -> Option<f64> {
    RpsEstimator::with_min_samples(64).from_windows(windows)
}

/// Fleet host `id`'s full stack.
pub fn sim_host(config: &FleetConfig, id: u32) -> SimHost {
    SimHost::new(config, id).expect("the fleet probe programs must verify")
}

/// An empty collector for `config`'s fleet.
pub fn collector(config: &FleetConfig) -> Collector {
    Collector::new(config.hosts, config.shift, config.min_send_samples)
}

/// Assembles a completed fleet run from its parts.
pub fn fleet_run(
    config: &FleetConfig,
    collector: Collector,
    truth: Vec<HostTruth>,
    entity_truth: Vec<u64>,
) -> FleetRun {
    FleetRun {
        config: config.clone(),
        collector,
        truth,
        entity_truth,
        horizon: config.horizon(),
    }
}
