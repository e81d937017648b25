//! Fleet topology and control-channel configuration.

use kscope_core::DEFAULT_SHIFT;
use kscope_netem::NetemConfig;
use kscope_simcore::{Dist, Nanos};

/// Configuration of one fleet run: N identical host stacks, a traffic
/// shape, and the control channel every host's reports traverse.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Number of simulated hosts.
    pub hosts: usize,
    /// Master seed; every host forks its traffic and channel RNG streams
    /// from it, so the same seed reproduces the run bit-for-bit.
    pub seed: u64,
    /// Observation window length (per host).
    pub window: Nanos,
    /// Number of windows the run covers; the horizon is
    /// `window * windows`.
    pub windows: usize,
    /// Per-host offered request rate (mean; each request is a
    /// poll→recv→send syscall triple traced by the probe).
    pub per_host_rps: f64,
    /// How many hosts turn "hot" (bursty inter-send gaps at the same mean
    /// rate, near-floor poll durations) halfway through the run — the
    /// hosts the saturation Top-K should surface.
    pub hot_hosts: usize,
    /// Control-channel emulation between every host and the collector.
    pub channel: NetemConfig,
    /// Per-host bound on reports in flight; reports produced while the
    /// bound is met are shed at the sender (counted, never sent).
    pub max_inflight: usize,
    /// Scaling shift for the probe's fixed-point cells and histogram.
    pub shift: u32,
    /// Fan-in of the collection tree: hosts per leaf aggregator, and
    /// aggregate reports per internal node. Grouping is by host id,
    /// independent of worker count, so any `--jobs` folds the same
    /// aggregates in the same order; every tree edge carries one O(K)
    /// [`crate::AggregateReport`], never per-host state.
    pub fan_in: usize,
    /// Size of the saturated-host Top-K in the fleet report.
    pub top_k: usize,
    /// Size of the fleet-wide entity pool: each request is issued by one
    /// of `entities` threads, drawn Zipf-skewed, shared across hosts (the
    /// heavy hitters the report's sketch must surface).
    pub entities: u32,
    /// Candidate-table capacity of each probe's Top-K sketch (the map's
    /// `max_entries`; the Count-Min geometry derives from it).
    pub sketch_capacity: u32,
    /// How many of the merged sketch's heaviest entities the root rollup
    /// reports.
    pub top_entities: usize,
    /// Minimum send samples per window for the Eq. 1 / Eq. 2 estimators
    /// (the paper's 2048-sample guidance scaled to simulated windows).
    pub min_send_samples: u64,
    /// Run each host's probe through the template JIT (the default, the
    /// tier every experiment runs) instead of the interpreter. Observable
    /// behavior is identical, held by the differential suite; the JIT
    /// falls back to the interpreter on unsupported targets.
    pub jit_probes: bool,
}

impl FleetConfig {
    /// A fleet of `hosts` with the default traffic shape and an ideal
    /// control channel.
    pub fn new(hosts: usize) -> FleetConfig {
        assert!(hosts > 0, "a fleet needs at least one host");
        FleetConfig {
            hosts,
            seed: 42,
            window: Nanos::from_millis(50),
            windows: 8,
            per_host_rps: 4_000.0,
            hot_hosts: hosts.div_ceil(4),
            channel: FleetConfig::control_channel(0.0),
            max_inflight: 4,
            shift: DEFAULT_SHIFT,
            fan_in: 8,
            top_k: 3,
            entities: 512,
            sketch_capacity: 64,
            top_entities: 16,
            min_send_samples: 64,
            jit_probes: true,
        }
    }

    /// A smaller run for smoke tests: fewer windows, same shape.
    pub fn quick(hosts: usize) -> FleetConfig {
        FleetConfig {
            windows: 6,
            ..FleetConfig::new(hosts)
        }
    }

    /// The host-count scaling preset: a short, light per-host schedule
    /// (two 10ms windows at 2k rps — a few hundred probe events per
    /// host) so sweeps up to 10⁵ hosts finish in CI-scale wall time
    /// while still exercising the full probe → report → tree pipeline.
    pub fn scale(hosts: usize) -> FleetConfig {
        FleetConfig {
            window: Nanos::from_millis(10),
            windows: 2,
            per_host_rps: 2_000.0,
            min_send_samples: 8,
            ..FleetConfig::new(hosts)
        }
    }

    /// The control-channel preset: ~1ms propagation, heavy-tailed jitter
    /// (the reordering source — a report can arrive after its successor),
    /// and the given Bernoulli loss rate.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is outside `[0, 1]`.
    pub fn control_channel(loss: f64) -> NetemConfig {
        let mut cfg = NetemConfig::impaired(Nanos::from_millis(1), loss);
        cfg.jitter = Some(Dist::exponential(20_000_000.0)); // 20ms mean
        cfg
    }

    /// Replaces the control channel with the preset at `loss`.
    pub fn with_loss(mut self, loss: f64) -> FleetConfig {
        self.channel = FleetConfig::control_channel(loss);
        self
    }

    /// Replaces the collection tree's fan-in.
    ///
    /// # Panics
    ///
    /// Panics if `fan_in == 0`.
    pub fn with_fan_in(mut self, fan_in: usize) -> FleetConfig {
        assert!(fan_in > 0, "the collection tree needs a positive fan-in");
        self.fan_in = fan_in;
        self
    }

    /// Runs every host's probe on the JIT (already the default).
    pub fn with_jit_probes(mut self) -> FleetConfig {
        self.jit_probes = true;
        self
    }

    /// End of the measurement: `window * windows`.
    pub fn horizon(&self) -> Nanos {
        Nanos::from_nanos(self.window.as_nanos() * self.windows as u64)
    }

    /// When the hot hosts switch to bursty traffic (mid-run, so their
    /// detectors first establish a low-variance floor).
    pub fn hot_at(&self) -> Nanos {
        Nanos::from_nanos(self.horizon().as_nanos() / 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn horizon_and_hot_point() {
        let cfg = FleetConfig::new(4);
        assert_eq!(cfg.horizon(), Nanos::from_millis(400));
        assert_eq!(cfg.hot_at(), Nanos::from_millis(200));
        assert_eq!(cfg.hot_hosts, 1);
    }

    #[test]
    fn with_loss_swaps_only_the_channel() {
        let a = FleetConfig::new(4);
        let b = a.clone().with_loss(0.2);
        assert_eq!(a.hosts, b.hosts);
        assert_ne!(a.channel, b.channel);
    }

    #[test]
    #[should_panic(expected = "at least one host")]
    fn zero_hosts_rejected() {
        FleetConfig::new(0);
    }
}
