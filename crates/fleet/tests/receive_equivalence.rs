//! A collector fed every report arrival through `Collector::receive`
//! builds its level-1 nodes when it rolls up; `run_fleet_jobs` seals each
//! node on the worker that simulated its hosts and drops their reports.
//! Both must render the same report, byte for byte, at any fan-in and
//! worker count.
//!
//! The replay drives each host through the public `SimHost` calls on an
//! engine of its own, in host-id order, and hands every arrival to one
//! collector, the way a traced replay of a fleet run does.

use kscope_fleet::{
    report_to_json, run_fleet_jobs, Collector, FleetConfig, FleetRun, ReportEnvelope, SimHost,
};
use kscope_simcore::{Engine, Nanos, Scheduler, Simulation};

#[derive(Debug)]
enum HostEvent {
    Request,
    Tick { last: bool },
    Arrive(Box<ReportEnvelope>),
    Lost,
}

/// One host's stack, delivering its reports straight to the collector.
struct Replay<'c> {
    host: SimHost,
    max_inflight: usize,
    horizon: Nanos,
    collector: &'c mut Collector,
}

impl Simulation for Replay<'_> {
    type Event = HostEvent;

    fn handle(&mut self, event: HostEvent, sched: &mut Scheduler<'_, HostEvent>) {
        let now = sched.now();
        match event {
            HostEvent::Request => {
                if let Some(next) = self.host.serve_request(now, self.horizon) {
                    sched.at(next, HostEvent::Request);
                }
            }
            HostEvent::Tick { last } => {
                let finish = last.then_some(self.horizon);
                if let Some(envelope) = self.host.make_report(now, finish) {
                    let bytes = envelope.wire_bytes() as u64;
                    if let Some(transit) = self.host.offer(self.max_inflight, bytes) {
                        let event = if transit.delivered {
                            HostEvent::Arrive(Box::new(envelope))
                        } else {
                            HostEvent::Lost
                        };
                        sched.after(transit.delay, event);
                    }
                }
            }
            HostEvent::Arrive(envelope) => {
                self.host.release_inflight();
                self.collector.receive(*envelope, now);
            }
            HostEvent::Lost => self.host.release_inflight(),
        }
    }
}

/// Every host of `config`, run in id order, its arrivals received by one
/// unsealed collector.
fn replay(config: &FleetConfig) -> FleetRun {
    let mut collector = Collector::new(config.hosts, config.shift, config.min_send_samples);
    let mut truth = Vec::with_capacity(config.hosts);
    let mut entity_truth = vec![0u64; config.entities as usize];
    for id in 0..config.hosts as u32 {
        let mut host = match SimHost::new(config, id) {
            Ok(host) => host,
            Err(e) => panic!("host build failed: {e:?}"),
        };
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
        let mut sim = Replay {
            host,
            max_inflight: config.max_inflight,
            horizon: config.horizon(),
            collector: &mut collector,
        };
        engine.run(&mut sim);
        for (total, count) in entity_truth.iter_mut().zip(sim.host.entity_counts()) {
            *total += count;
        }
        truth.push(sim.host.truth);
    }
    FleetRun {
        config: config.clone(),
        collector,
        truth,
        entity_truth,
        horizon: config.horizon(),
    }
}

#[test]
fn received_arrivals_roll_up_to_the_sealed_run_bytes() {
    // 601 hosts leave a partial last node at every fan-in, and the
    // widest fan-in still has two nodes (one of 576 hosts).
    let mut base = FleetConfig::scale(601).with_loss(0.1);
    base.seed = 43;
    let received = replay(&base);
    assert!(received
        .collector
        .slots()
        .iter()
        .any(|s| s.latest.is_some()));
    for fan_in in [1, 2, 3, 8, 24] {
        let config = base.clone().with_fan_in(fan_in);
        let unsealed = FleetRun {
            config: config.clone(),
            collector: received.collector.clone(),
            truth: received.truth.clone(),
            entity_truth: received.entity_truth.clone(),
            horizon: received.horizon,
        };
        for jobs in [1, 2, 8] {
            let expect = report_to_json(&config, &unsealed.rollup(jobs));
            let sealed = match run_fleet_jobs(&config, jobs) {
                Ok(run) => run,
                Err(e) => panic!("fleet build failed: {e:?}"),
            };
            assert_eq!(sealed.truth, received.truth);
            assert_eq!(sealed.entity_truth, received.entity_truth);
            assert_eq!(
                report_to_json(&config, &sealed.rollup(jobs)),
                expect,
                "fan_in={fan_in} jobs={jobs}: the sealed run's report differs"
            );
        }
    }
}
