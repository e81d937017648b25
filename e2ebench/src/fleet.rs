//! The `fleet_10k` workload: simulate every host, collect, roll up.
//!
//! Untraced runs call `run_fleet_jobs` itself. The traced run replays
//! its per-host event loop from the public `SimHost`, `Engine` and
//! `Collector` calls, timing each, and must reproduce the untraced
//! `report_to_json` output byte for byte.

use std::time::Instant;

use kscope_fleet::{
    report_to_json, run_fleet_jobs, FleetConfig, FleetRollup, FleetRun, ReportEnvelope, SimHost,
};
use kscope_simcore::{Engine, Nanos, Scheduler, Simulation};

use crate::adapter;
use crate::trace::{span, Layer};

/// Tracepoints one `SimHost::serve_request` fires: enter and exit of
/// `epoll_wait`, `recvmsg` and `sendmsg`, plus `net_rx_softirq` and
/// `sock_queue_drain`. The fleet keeps each host's kernel private, so
/// firings are counted as served requests times this.
pub const TRACEPOINTS_PER_REQUEST: u64 = 8;

/// One fleet run's results.
#[derive(Debug)]
pub struct FleetOut {
    /// The completed run.
    pub run: FleetRun,
    /// Its root rollup.
    pub rollup: FleetRollup,
    /// `report_to_json` of the rollup.
    pub json: String,
    /// Wall time `FleetRun::rollup` took (s).
    pub rollup_s: f64,
    /// `SimHost::serve_request` calls, counted by the traced replay only.
    pub served: Option<u64>,
}

impl FleetOut {
    /// Requests served fleet-wide: each draws exactly one entity.
    pub fn requests(&self) -> u64 {
        self.run.entity_truth.iter().sum()
    }

    /// Reports the hosts produced.
    pub fn reports(&self) -> u64 {
        self.rollup.accounting.produced
    }

    /// Collection-tree nodes `rollup` builds: one leaf per `fan_in` hosts,
    /// then one node per `fan_in` children until a single root remains.
    pub fn tree_nodes(&self) -> u64 {
        let fan_in = self.run.config.fan_in.max(1);
        let mut level = self.run.config.hosts.div_ceil(fan_in).max(1);
        let mut nodes = level;
        while level > 1 {
            level = level.div_ceil(fan_in.max(2));
            nodes += level;
        }
        nodes as u64
    }
}

/// Runs the fleet on `jobs` workers, untraced.
pub fn run(config: &FleetConfig, jobs: usize) -> FleetOut {
    let run = run_fleet_jobs(config, jobs).expect("the fleet probe programs must verify");
    let start = Instant::now();
    let rollup = run.rollup(jobs);
    let rollup_s = start.elapsed().as_secs_f64();
    let json = report_to_json(&run.config, &rollup);
    FleetOut {
        run,
        rollup,
        json,
        rollup_s,
        served: None,
    }
}

#[derive(Debug)]
enum HostEvent {
    Request,
    Tick { last: bool },
    Arrive { envelope: Box<ReportEnvelope> },
    Lost,
}

struct HostSim {
    host: SimHost,
    max_inflight: usize,
    horizon: Nanos,
    arrivals: Vec<(Nanos, ReportEnvelope)>,
    served: u64,
}

impl Simulation for HostSim {
    type Event = HostEvent;

    fn handle(&mut self, event: HostEvent, sched: &mut Scheduler<'_, HostEvent>) {
        let now = sched.now();
        match event {
            HostEvent::Request => {
                let layer = if self.served == 0 {
                    Layer::FleetServeFirst
                } else {
                    Layer::FleetServe
                };
                self.served += 1;
                let (host, horizon) = (&mut self.host, self.horizon);
                if let Some(next) = span(layer, || host.serve_request(now, horizon)) {
                    sched.at(next, HostEvent::Request);
                }
            }
            HostEvent::Tick { last } => {
                let finish = last.then_some(self.horizon);
                let host = &mut self.host;
                if let Some(envelope) = span(Layer::FleetEncode, || host.make_report(now, finish)) {
                    let bytes = envelope.wire_bytes() as u64;
                    let max_inflight = self.max_inflight;
                    if let Some(transit) =
                        span(Layer::FleetChannel, || host.offer(max_inflight, bytes))
                    {
                        let event = if transit.delivered {
                            HostEvent::Arrive {
                                envelope: Box::new(envelope),
                            }
                        } else {
                            HostEvent::Lost
                        };
                        sched.after(transit.delay, event);
                    }
                }
            }
            HostEvent::Arrive { envelope } => {
                self.host.release_inflight();
                self.arrivals.push((now, *envelope));
            }
            HostEvent::Lost => self.host.release_inflight(),
        }
    }
}

/// Replays `run_fleet_jobs` serially with every host-stack, collector,
/// rollup and JSON call timed. The caller installs the tracer.
pub fn run_traced(config: &FleetConfig) -> FleetOut {
    let horizon = config.horizon();
    let mut collector = adapter::collector(config);
    let mut truth = Vec::with_capacity(config.hosts);
    let mut entity_truth = vec![0u64; config.entities as usize];
    let mut served = 0;
    for id in 0..config.hosts as u32 {
        let mut host = span(Layer::FleetHostBuild, || adapter::sim_host(config, id));
        let mut engine: Engine<HostEvent> = Engine::new();
        engine.schedule(host.first_request_at(), HostEvent::Request);
        let offset = Nanos::from_nanos(1_000_000 + 7_000 * u64::from(id));
        for w in 0..config.windows {
            let boundary = Nanos::from_nanos(config.window.as_nanos() * (w as u64 + 1));
            engine.schedule(
                boundary + offset,
                HostEvent::Tick {
                    last: w + 1 == config.windows,
                },
            );
        }
        let mut sim = HostSim {
            host,
            max_inflight: config.max_inflight,
            horizon,
            arrivals: Vec::new(),
            served: 0,
        };
        span(Layer::SimOther, || engine.run(&mut sim));
        for (at, envelope) in sim.arrivals {
            span(Layer::FleetCollect, || collector.receive(envelope, at));
        }
        for (slot, count) in entity_truth.iter_mut().zip(sim.host.entity_counts()) {
            *slot += count;
        }
        truth.push(sim.host.truth);
        served += sim.served;
    }
    let run = adapter::fleet_run(config, collector, truth, entity_truth);
    let start = Instant::now();
    let rollup = span(Layer::FleetTreeMerge, || run.rollup(1));
    let rollup_s = start.elapsed().as_secs_f64();
    let json = span(Layer::FleetJson, || report_to_json(&run.config, &rollup));
    FleetOut {
        run,
        rollup,
        json,
        rollup_s,
        served: Some(served),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_replay_is_byte_identical_to_the_crate_run() {
        let config = adapter::fleet_config(40, 9);
        let plain = run(&config, 2);
        crate::trace::install(crate::trace::Tracer::default());
        let traced = run_traced(&config);
        let times = crate::trace::uninstall().finish(1.0);
        assert_eq!(plain.json, traced.json);
        assert_eq!(traced.served, Some(plain.requests()));
        assert_eq!(times.calls(Layer::FleetHostBuild), 40);
        assert_eq!(times.calls(Layer::FleetServeFirst), 40);
    }

    #[test]
    fn tree_nodes_count_every_level() {
        let out = run(&adapter::fleet_config(20, 1), 1);
        // fan-in 8: 3 leaves, then the root.
        assert_eq!(out.tree_nodes(), 4);
    }
}
