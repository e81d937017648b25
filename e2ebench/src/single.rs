//! The single-host workloads: `paper_sweep` and `netstack_impaired`.
//!
//! Each unit (a sweep level or a netem condition) is one
//! `run_workload_with` simulation with the windowed probe attached. The
//! code follows `kscope_experiments::sweep::run_level` and
//! `fig_netstack::run_condition` call for call, so it can also reach the
//! kernel's own counters; the tests hold it equal to those functions.
//! Traced runs attach the same probe inside timing wrappers.

use kscope_core::{
    BytecodeBackend, MetricBackend, StackDelay, WindowMetrics, WindowedObserver, DEFAULT_SHIFT,
};
use kscope_experiments::sweep::send_events_per_request;
use kscope_kernel::{Kernel, TracepointProbe};
use kscope_netem::NetemConfig;
use kscope_simcore::parallel::map_indexed;
use kscope_simcore::{Dist, Nanos};
use kscope_workloads::{data_caching, run_workload_with, ClientStats, RunConfig, WorkloadSpec};

use crate::adapter;
use crate::trace::{span, Layer, TimedBackend, TimedProbe};

/// One simulation to run: a sweep level or a netem condition.
#[derive(Debug, Clone)]
pub struct Unit {
    /// Display label.
    pub label: String,
    /// The run's configuration (load, seed, netem, duration).
    pub run: RunConfig,
    /// Observation window.
    pub window: Nanos,
    /// Whether the netstack probe pair is attached.
    pub netstack: bool,
}

/// A single-host workload's generated inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The served workload.
    pub spec: WorkloadSpec,
    /// The simulations, in report order.
    pub units: Vec<Unit>,
}

/// Kernel-model work counts of one simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounts {
    /// `sys_enter` firings.
    pub enters: u64,
    /// `sys_exit` firings.
    pub exits: u64,
    /// `net_rx_softirq` firings.
    pub net_rx: u64,
    /// `sock_queue_drain` firings.
    pub sock_drains: u64,
    /// Modeled probe cost charged to threads (ns).
    pub probe_overhead_ns: u64,
    /// Compute requests that queued for a core.
    pub sched_queued: u64,
    /// Simulated run-queue wait (ns).
    pub sched_wait_ns: u64,
    /// Softirq handler invocations.
    pub softirq_runs: u64,
    /// Softirq runs that exhausted their budget and deferred.
    pub deferrals: u64,
    /// Packets dropped at a full NIC ring.
    pub ring_drops: u64,
    /// eBPF instructions the probe executed.
    pub insns: u64,
    /// Probe programs built.
    pub programs: u64,
    /// Observation windows closed.
    pub windows: u64,
}

impl KernelCounts {
    fn read(kernel: &Kernel) -> KernelCounts {
        let tracing = kernel.tracing.stats();
        let sched = kernel.sched.stats();
        let ingress = kernel.ingress.stats();
        KernelCounts {
            enters: tracing.enters,
            exits: tracing.exits,
            net_rx: tracing.net_rx,
            sock_drains: tracing.sock_drains,
            probe_overhead_ns: tracing.probe_overhead.as_nanos(),
            sched_queued: sched.queued,
            sched_wait_ns: sched.total_wait.as_nanos(),
            softirq_runs: ingress.softirq_runs,
            deferrals: ingress.deferrals,
            ring_drops: ingress.ring_drops,
            ..KernelCounts::default()
        }
    }

    /// Tracepoint firings of every kind.
    pub fn firings(&self) -> u64 {
        self.enters + self.exits + self.net_rx + self.sock_drains
    }

    /// Adds `other`'s counts to these.
    pub fn add(&mut self, other: &KernelCounts) {
        self.enters += other.enters;
        self.exits += other.exits;
        self.net_rx += other.net_rx;
        self.sock_drains += other.sock_drains;
        self.probe_overhead_ns += other.probe_overhead_ns;
        self.sched_queued += other.sched_queued;
        self.sched_wait_ns += other.sched_wait_ns;
        self.softirq_runs += other.softirq_runs;
        self.deferrals += other.deferrals;
        self.ring_drops += other.ring_drops;
        self.insns += other.insns;
        self.programs += other.programs;
        self.windows += other.windows;
    }
}

/// What one simulation produced.
#[derive(Debug, Clone)]
pub struct UnitOut {
    /// Client-side ground truth.
    pub client: ClientStats,
    /// Probe windows inside the measurement period.
    pub windows: Vec<WindowMetrics>,
    /// Cumulative time-in-stack state, with the netstack pair.
    pub stack: Option<StackDelay>,
    /// Work counts.
    pub counts: KernelCounts,
}

impl UnitOut {
    /// Mean of the windows' Eq. 1 estimates (the sweep's per-level view).
    pub fn mean_rps_obsv(&self) -> Option<f64> {
        mean(self.windows.iter().filter_map(|w| w.rps_obsv))
    }

    /// Mean of the windows' mean poll durations (ns).
    pub fn mean_poll_ns(&self) -> Option<f64> {
        mean(self.windows.iter().filter_map(|w| w.poll_mean_ns))
    }
}

fn mean(values: impl Iterator<Item = f64>) -> Option<f64> {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    (n > 0).then(|| sum / n as f64)
}

/// `paper_sweep` inputs: data caching at every `SweepConfig::full()`
/// level, with `sweep::run_level`'s window and warmup sizing.
pub fn sweep_inputs(seed: u64) -> Inputs {
    let spec = data_caching();
    let config = adapter::sweep_config(seed);
    let sends_per_req = send_events_per_request(&spec);
    let units = config
        .fractions
        .iter()
        .enumerate()
        .map(|(i, frac)| {
            let offered_rps = spec.paper_failure_rps * frac;
            let window_secs =
                (config.min_send_samples as f64 * 1.3 / (offered_rps * sends_per_req)).max(0.05);
            let window = Nanos::from_secs_f64(window_secs);
            let warmup = Nanos::from_secs_f64((spec.service_time.mean() / 1e9 * 30.0).max(0.3));
            let warmup = window * warmup.as_nanos().div_ceil(window.as_nanos()).max(1);
            Unit {
                label: format!("{frac:.2}x"),
                run: RunConfig {
                    offered_rps,
                    warmup,
                    measure: window * config.windows_per_level as u64,
                    seed: config.seed + i as u64,
                    netem: config.netem.clone(),
                    collect_trace: false,
                },
                window,
                netstack: false,
            }
        })
        .collect();
    Inputs { spec, units }
}

/// `netstack_impaired` inputs: the full-scale `fig_netstack` conditions
/// at half the failure load, conditions seeded `seed + index`.
pub fn netstack_inputs(seed: u64) -> Inputs {
    let spec = data_caching();
    let offered = spec.paper_failure_rps * 0.5;
    let measure = Nanos::from_secs_f64(16_000.0 / offered);
    let units = adapter::netstack_conditions()
        .into_iter()
        .enumerate()
        .map(|(i, cond)| {
            let mut run = RunConfig::new(offered, seed + i as u64);
            let mut netem = NetemConfig::impaired(cond.delay, cond.loss);
            netem.jitter = Some(Dist::exponential(cond.jitter_ns));
            run.netem = netem;
            run.measure = measure;
            run.collect_trace = false;
            Unit {
                label: cond.label,
                run,
                window: measure / 8,
                netstack: true,
            }
        })
        .collect();
    Inputs { spec, units }
}

/// Runs every unit on `jobs` workers, untraced.
pub fn run(inputs: &Inputs, jobs: usize) -> Vec<UnitOut> {
    map_indexed(&inputs.units, jobs, |_, unit| {
        run_unit(&inputs.spec, unit, false)
    })
}

/// Runs every unit serially with every probe call timed. The caller
/// installs the tracer.
pub fn run_traced(inputs: &Inputs) -> Vec<UnitOut> {
    inputs
        .units
        .iter()
        .map(|unit| run_unit(&inputs.spec, unit, true))
        .collect()
}

fn run_unit(spec: &WorkloadSpec, unit: &Unit, traced: bool) -> UnitOut {
    let outcome = span(Layer::SimOther, || {
        run_workload_with(spec, &unit.run, |sim| {
            let backend = span(Layer::ProbeBuild, || {
                adapter::probe(sim.server_pids(), sim.spec().profile.clone(), unit.netstack)
            });
            let probe: Box<dyn TracepointProbe> = if traced {
                Box::new(TimedProbe::new(adapter::observer(
                    TimedBackend::new(backend),
                    unit.window,
                )))
            } else {
                Box::new(adapter::observer(backend, unit.window))
            };
            vec![probe]
        })
    });
    let mut kernel = outcome.kernel;
    let mut counts = KernelCounts::read(&kernel);
    let mut probe = kernel
        .tracing
        .detach(outcome.probes[0])
        .expect("probe id came from this run's attach");
    let any = probe.as_any_mut();
    let (windows, stack, (insns, programs)) =
        if let Some(observer) = any.downcast_mut::<WindowedObserver<BytecodeBackend>>() {
            read_observer(observer, outcome.end, outcome.warmup_end, |b| b)
        } else if let Some(timed) =
            any.downcast_mut::<TimedProbe<WindowedObserver<TimedBackend<BytecodeBackend>>>>()
        {
            read_observer(timed.inner_mut(), outcome.end, outcome.warmup_end, |b| {
                b.inner()
            })
        } else {
            unreachable!("this run attached a windowed bytecode observer")
        };
    counts.insns = insns;
    counts.programs = programs;
    counts.windows = windows.len() as u64;
    UnitOut {
        client: outcome.client,
        windows,
        stack,
        counts,
    }
}

fn read_observer<B: MetricBackend>(
    observer: &mut WindowedObserver<B>,
    end: Nanos,
    warmup_end: Nanos,
    bytecode: impl Fn(&B) -> &BytecodeBackend,
) -> (Vec<WindowMetrics>, Option<StackDelay>, (u64, u64)) {
    span(Layer::ObserverWindow, || observer.finish(end));
    let windows = observer
        .windows()
        .iter()
        .copied()
        .filter(|w| w.start >= warmup_end && w.end <= end)
        .collect();
    let stack = StackDelay::from_backend(DEFAULT_SHIFT, observer.backend());
    let backend = bytecode(observer.backend());
    let programs = 2 + 2 * u64::from(backend.net_programs().is_some());
    (windows, stack, (backend.insns_executed(), programs))
}

/// A seconds-scale version of `inputs`: its second and last units,
/// each measured for two windows.
#[cfg(test)]
pub fn shrink(mut inputs: Inputs) -> Inputs {
    let keep = [1, inputs.units.len() - 1];
    inputs.units = keep.iter().map(|&i| inputs.units[i].clone()).collect();
    for unit in &mut inputs.units {
        unit.run.measure = unit.window * 2;
    }
    inputs
}

/// Canonical text of everything the simulations produced: equal text
/// means equal output.
pub fn canonical(outs: &[UnitOut]) -> String {
    outs.iter()
        .map(|o| {
            format!(
                "{:?}|{:?}|{:?}|{:?}\n",
                o.client, o.windows, o.stack, o.counts
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kscope_experiments::{fig_netstack, sweep};

    #[test]
    fn sweep_units_match_the_crate_sweep_level() {
        let config = adapter::sweep_config(5);
        let inputs = sweep_inputs(5);
        assert_eq!(inputs.units.len(), config.fractions.len());
        let level = 3;
        let unit = &inputs.units[level];
        let ours = run_unit(&inputs.spec, unit, false);
        let theirs = sweep::run_level(
            &inputs.spec,
            unit.run.offered_rps,
            &config,
            config.seed + level as u64,
        );
        assert_eq!(ours.client, theirs.client);
        assert_eq!(ours.windows, theirs.windows);
    }

    #[test]
    fn netstack_units_match_the_crate_condition() {
        let inputs = netstack_inputs(11);
        let conditions = adapter::netstack_conditions();
        let i = 1;
        let unit = &inputs.units[i];
        let ours = run_unit(&inputs.spec, unit, false);
        let theirs = fig_netstack::run_condition(
            &inputs.spec,
            &conditions[i],
            unit.run.offered_rps,
            unit.run.measure,
            unit.run.seed,
        );
        let stack = ours
            .stack
            .as_ref()
            .expect("netstack units carry the stack state");
        assert_eq!(
            adapter::rps_obsv(&ours.windows).unwrap_or(0.0),
            theirs.rps_obsv
        );
        assert_eq!(ours.mean_poll_ns().unwrap_or(0.0), theirs.poll_mean_ns);
        assert_eq!(stack.count(), theirs.stack_samples);
        assert_eq!(stack.misses(), theirs.stack_misses);
        assert_eq!(ours.client.p99_latency.as_millis_f64(), theirs.p99_ms);
    }

    #[test]
    fn tracing_does_not_perturb_the_simulation() {
        let inputs = shrink(sweep_inputs(3));
        let plain = run(&inputs, 1);
        crate::trace::install(crate::trace::Tracer::default());
        let traced = run_traced(&inputs);
        let times = crate::trace::uninstall().finish(1.0);
        assert_eq!(canonical(&plain), canonical(&traced));
        assert!(times.calls(Layer::ProbeExec) > 0);
        assert_eq!(times.calls(Layer::ProbeBuild), inputs.units.len() as u64);
    }

    #[test]
    fn parallel_runs_match_serial_runs() {
        let inputs = shrink(sweep_inputs(4));
        assert_eq!(canonical(&run(&inputs, 1)), canonical(&run(&inputs, 2)));
    }
}
