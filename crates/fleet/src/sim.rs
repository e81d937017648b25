//! The streamed fleet simulation: every host's kernel, probe, report
//! schedule, and channel transits run on a *per-host* discrete-event
//! engine, independently of every other host.
//!
//! Hosts only ever interact through the collector, and the collector's
//! state is per-host slots whose acceptance depends solely on that
//! host's own arrival order — so restricting the old fleet-wide engine
//! to one host's events is behavior-preserving, and the per-host runs
//! can execute in any order on any number of workers. That is what
//! makes 10⁵-host sweeps tractable: the work is embarrassingly
//! parallel (`kscope_simcore::parallel::map_indexed`, deterministic in
//! input order), never 10⁵ live kernels at once.
//!
//! The probe and the entity draw table are the things hosts share: a
//! run builds, verifies, certifies and compiles the probe once
//! ([`FleetProbe::build`]) and builds the table once ([`entity_cdf`])
//! before any host starts, and every worker instantiates hosts from
//! them read-only. Each worker also folds its hosts' report arrivals
//! into their collector slots ([`HostSlot::receive`]), so a superseded
//! report is dropped where it arrives and the collector only places
//! the finished slots.
//!
//! A work item is a chunk of [`HOST_CHUNK`] consecutive hosts. It adds
//! each host's exact per-entity counts into one vector for the chunk as
//! soon as the host finishes, so what outlives a host is its slot and
//! its ground truth, nothing of the size of the entity pool. The peak
//! memory is one host stack per worker plus the O(K) report envelopes
//! the slots hold: at 10⁴ hosts of the scale preset, about 125 MB of
//! resident memory, of which the envelopes are about 104 MiB.

use kscope_core::BuildError;
use kscope_simcore::parallel::map_indexed;
use kscope_simcore::{Engine, Nanos, Scheduler, Simulation};

use crate::collector::{Accounting, Collector, FleetRollup, HostSlot, Transport};
use crate::config::FleetConfig;
use crate::host::{entity_cdf, FleetProbe, HostTruth, ReportEnvelope, SimHost};

/// Events on one host's engine. Ties at the same instant resolve in
/// schedule order (the engine's FIFO tie-break), so the interleaving of
/// traffic, report ticks, and channel arrivals is deterministic.
#[derive(Debug)]
enum HostEvent {
    /// A request arrives at the host.
    Request,
    /// The host's report tick; `last` force-closes the final window.
    Tick { last: bool },
    /// A report datagram reaches the collector.
    Arrive { envelope: Box<ReportEnvelope> },
    /// A dropped datagram's loss resolves (releases the inflight slot;
    /// nothing reaches the collector).
    Lost,
}

/// One host's simulation: its stack plus its collector slot, which
/// folds the host's arrivals in collector-arrival order.
struct HostSim {
    host: SimHost,
    max_inflight: usize,
    horizon: Nanos,
    slot: HostSlot,
}

impl Simulation for HostSim {
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
                self.slot.receive(*envelope, now);
            }
            HostEvent::Lost => {
                self.host.release_inflight();
            }
        }
    }
}

/// Hosts one work item simulates.
const HOST_CHUNK: usize = 64;

/// What a run of consecutive hosts leaves behind: each host's collector
/// slot and ground truth, in host-id order, and their per-entity
/// request counts summed into one vector. Sums of integers, so the
/// totals are exact whatever the chunking.
struct Outcomes {
    slots: Vec<HostSlot>,
    truth: Vec<HostTruth>,
    entity_counts: Vec<u64>,
}

impl Outcomes {
    /// Room for `hosts` hosts of `config`'s fleet.
    fn new(config: &FleetConfig, hosts: usize) -> Outcomes {
        Outcomes {
            slots: Vec::with_capacity(hosts),
            truth: Vec::with_capacity(hosts),
            entity_counts: vec![0; config.entities as usize],
        }
    }

    /// Runs `host`, the next host in id order, start to finish on its
    /// own engine and keeps what it leaves behind. The event stream (and
    /// thus the outcome) is a pure function of `config` and the host's
    /// id.
    fn simulate(&mut self, config: &FleetConfig, mut host: SimHost) {
        let id = host.id();
        let horizon = config.horizon();
        let mut engine: Engine<HostEvent> = Engine::new();
        engine.schedule(host.first_request_at(), HostEvent::Request);
        // Report ticks sit just past each window boundary, staggered per
        // host (same offsets as the original fleet-wide schedule).
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
            slot: HostSlot::default(),
        };
        engine.run(&mut sim);
        debug_assert_eq!(sim.host.link_stats().offered, sim.host.truth.offered);
        for (total, count) in self.entity_counts.iter_mut().zip(sim.host.entity_counts()) {
            *total += count;
        }
        self.slots.push(sim.slot);
        self.truth.push(sim.host.truth);
    }

    /// Appends `next`, which covers the hosts right after these.
    fn append(&mut self, mut next: Outcomes) {
        self.slots.append(&mut next.slots);
        self.truth.append(&mut next.truth);
        for (total, count) in self.entity_counts.iter_mut().zip(&next.entity_counts) {
            *total += count;
        }
    }

    /// The completed run: the slots placed in a fresh collector.
    fn into_run(self, config: &FleetConfig) -> FleetRun {
        FleetRun {
            config: config.clone(),
            collector: Collector::from_slots(self.slots, config.shift, config.min_send_samples),
            truth: self.truth,
            entity_truth: self.entity_counts,
            horizon: config.horizon(),
        }
    }
}

/// A completed fleet run: the collector's state plus per-host ground
/// truth, ready to roll up at any worker count.
#[derive(Debug)]
pub struct FleetRun {
    /// The configuration that produced the run.
    pub config: FleetConfig,
    /// The collector, with whatever the channel let through.
    pub collector: Collector,
    /// Ground-truth accounting per host, in host-id order.
    pub truth: Vec<HostTruth>,
    /// Exact fleet-wide per-entity request counts (index `i` is entity
    /// `i` — tid `SimHost::FIRST_TID + i`): the ground truth the
    /// sketch's Top-K is judged against.
    pub entity_truth: Vec<u64>,
    /// The measurement horizon.
    pub horizon: Nanos,
}

impl FleetRun {
    /// Rolls the fleet up on `jobs` workers and attaches the ground-truth
    /// accounting and transport byte ledger. Bitwise identical for any
    /// `jobs`.
    pub fn rollup(&self, jobs: usize) -> FleetRollup {
        let mut rollup = self.collector.rollup(
            jobs,
            self.config.fan_in,
            self.config.top_k,
            self.config.top_entities,
        );
        rollup.accounting = self.accounting_with(rollup.accounting);
        rollup.transport = self.transport();
        rollup
    }

    /// The exact fleet-wide Top-`k` entities (count desc, key asc), as
    /// sketch keys (`pid_tgid` of the serving thread).
    pub fn exact_top_entities(&self, k: usize) -> Vec<u64> {
        let mut ranked: Vec<(u64, u64)> = self
            .entity_truth
            .iter()
            .enumerate()
            .filter(|&(_, &count)| count > 0)
            .map(|(i, &count)| {
                let key =
                    kscope_syscalls::pid_tgid(SimHost::SERVER_PID, SimHost::FIRST_TID + i as u32);
                (key, count)
            })
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(k);
        ranked.into_iter().map(|(key, _)| key).collect()
    }

    fn transport(&self) -> Transport {
        let bytes_offered: u64 = self.truth.iter().map(|t| t.bytes_offered).sum();
        let bytes_delivered: u64 = self.truth.iter().map(|t| t.bytes_delivered).sum();
        let windows = self.config.windows.max(1) as f64;
        let hosts = self.config.hosts.max(1) as f64;
        Transport {
            bytes_offered,
            bytes_delivered,
            report_wire_bytes: crate::report_wire_bytes(&self.config) as u64,
            bytes_per_host_per_window: bytes_delivered as f64 / hosts / windows,
        }
    }

    fn accounting_with(&self, collector_side: Accounting) -> Accounting {
        let mut acc = collector_side;
        for t in &self.truth {
            acc.produced += t.produced;
            acc.shed += t.shed;
            acc.offered += t.offered;
            acc.channel_delivered += t.delivered;
            acc.channel_dropped += t.dropped;
        }
        acc
    }
}

/// [`run_fleet_jobs`] on one worker.
///
/// # Errors
///
/// Returns the probe build error if the bytecode program fails to
/// assemble or verify — a builder bug, not an input condition.
pub fn run_fleet(config: &FleetConfig) -> Result<FleetRun, BuildError> {
    run_fleet_jobs(config, 1)
}

/// Runs a fleet to completion on up to `jobs` workers: the probe and
/// the entity draw table are built once, then each host's stack is
/// simulated independently (traffic, report ticks, channel transits,
/// and the folding of its arrivals into its collector slot), in chunks
/// of consecutive hosts that each sum their hosts' entity counts, then
/// the slots are placed in the collector in host-id order. Per-host
/// outcomes are pure functions of `(config, id)` and the entity totals
/// are integer sums, so the run is bit-identical at any `jobs`.
///
/// # Errors
///
/// Returns the probe build error: a program failed to assemble or
/// verify (a builder bug, not an input condition), or the
/// registration gate rejected its certified cost.
pub fn run_fleet_jobs(config: &FleetConfig, jobs: usize) -> Result<FleetRun, BuildError> {
    let probe = FleetProbe::build(config)?;
    let entity_cdf = entity_cdf(config);
    let chunks: Vec<(usize, usize)> = (0..config.hosts)
        .step_by(HOST_CHUNK)
        .map(|lo| (lo, (lo + HOST_CHUNK).min(config.hosts)))
        .collect();
    let parts = map_indexed(&chunks, jobs, |_, &(lo, hi)| {
        let mut part = Outcomes::new(config, hi - lo);
        for id in lo..hi {
            part.simulate(
                config,
                SimHost::with_probe(config, id as u32, &probe, &entity_cdf),
            );
        }
        part
    });
    let mut run = Outcomes::new(config, config.hosts);
    for part in parts {
        run.append(part);
    }
    Ok(run.into_run(config))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_run(loss: f64, seed: u64) -> FleetRun {
        let mut config = FleetConfig::quick(6).with_loss(loss);
        config.seed = seed;
        match run_fleet(&config) {
            Ok(run) => run,
            Err(e) => panic!("fleet build failed: {e:?}"),
        }
    }

    #[test]
    fn lossless_fleet_reports_everything() {
        let run = quick_run(0.0, 7);
        let rollup = run.rollup(1);
        assert_eq!(rollup.silent_hosts, 0);
        let acc = rollup.accounting;
        assert_eq!(acc.channel_dropped, 0);
        assert_eq!(acc.produced, acc.shed + acc.offered);
        assert_eq!(acc.offered, acc.channel_delivered);
        // Reordering can still discard late reports, but everything the
        // channel delivered reached the collector.
        assert_eq!(acc.accepted + acc.stale, acc.channel_delivered);
        // Every host produced one report per window.
        assert!(acc.produced >= run.config.windows as u64 * run.config.hosts as u64 / 2);
    }

    #[test]
    fn fleet_rps_approximates_offered_load() {
        let run = quick_run(0.0, 11);
        let rollup = run.rollup(1);
        let offered = run.config.per_host_rps * run.config.hosts as f64;
        let err = (rollup.fleet_rps - offered).abs() / offered;
        assert!(
            err < 0.05,
            "fleet rps {} vs offered {offered} (err {err})",
            rollup.fleet_rps
        );
    }

    #[test]
    fn hot_hosts_rank_top_of_saturation_topk() {
        let run = quick_run(0.0, 13);
        let rollup = run.rollup(1);
        let hot = run.config.hot_hosts;
        assert!(hot >= 1);
        // The hot hosts (ids < hot_hosts) outrank every cold host.
        for row in rollup.top_saturated.iter().take(hot) {
            assert!(
                (row.host as usize) < hot,
                "expected a hot host on top, got {row:?}"
            );
            assert!(row.saturated, "hot host not flagged: {row:?}");
        }
    }

    #[test]
    fn lossy_channel_is_accounted_not_silent() {
        let run = quick_run(0.3, 17);
        let rollup = run.rollup(1);
        let acc = rollup.accounting;
        assert!(acc.channel_dropped > 0, "30% loss must drop something");
        assert_eq!(acc.produced, acc.shed + acc.offered);
        assert_eq!(acc.offered, acc.channel_delivered + acc.channel_dropped);
        assert_eq!(acc.accepted + acc.stale, acc.channel_delivered);
        // Collector-inferred gaps see at least the outright drops that
        // were followed by a later acceptance.
        assert!(acc.gaps > 0);
    }

    #[test]
    fn reruns_are_bit_identical() {
        let a = quick_run(0.2, 23).rollup(4);
        let b = quick_run(0.2, 23).rollup(4);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_simulation_is_bit_identical_to_serial() {
        let mut config = FleetConfig::quick(9).with_loss(0.1);
        config.seed = 29;
        let serial = match run_fleet_jobs(&config, 1) {
            Ok(run) => run,
            Err(e) => panic!("fleet build failed: {e:?}"),
        };
        let parallel = match run_fleet_jobs(&config, 8) {
            Ok(run) => run,
            Err(e) => panic!("fleet build failed: {e:?}"),
        };
        assert_eq!(serial.truth, parallel.truth);
        assert_eq!(serial.entity_truth, parallel.entity_truth);
        assert_eq!(serial.rollup(2), parallel.rollup(5));
    }

    /// Runs `config` host by host, each with a probe of its own and in
    /// one run of outcomes, then checks that the chunked run over the
    /// shared probe matches it at several worker counts.
    fn assert_shared_probe_matches_per_host(config: &FleetConfig) {
        let mut outcomes = Outcomes::new(config, config.hosts);
        for id in 0..config.hosts as u32 {
            match SimHost::new(config, id) {
                Ok(host) => outcomes.simulate(config, host),
                Err(e) => panic!("host build failed: {e:?}"),
            }
        }
        let per_host = outcomes.into_run(config);
        let expect = crate::report_to_json(config, &per_host.rollup(1));
        assert!(expect.contains("\"stack_delay\""));
        for jobs in [1, 2, 8] {
            let shared = match run_fleet_jobs(config, jobs) {
                Ok(run) => run,
                Err(e) => panic!("fleet build failed: {e:?}"),
            };
            assert_eq!(shared.truth, per_host.truth);
            assert_eq!(shared.entity_truth, per_host.entity_truth);
            assert_eq!(shared.collector.slots(), per_host.collector.slots());
            assert_eq!(crate::report_to_json(config, &shared.rollup(jobs)), expect);
        }
    }

    #[test]
    fn shared_probe_matches_a_probe_built_per_host() {
        let mut config = FleetConfig::quick(9).with_loss(0.1);
        config.seed = 37;
        assert_shared_probe_matches_per_host(&config);
    }

    #[test]
    fn chunked_run_matches_a_probe_built_per_host() {
        // Three chunks, the last one partial.
        let hosts = 2 * HOST_CHUNK + HOST_CHUNK / 3;
        assert_eq!(hosts.div_ceil(HOST_CHUNK), 3);
        assert_ne!(hosts % HOST_CHUNK, 0);
        let mut config = FleetConfig::scale(hosts).with_loss(0.1);
        config.seed = 41;
        assert_shared_probe_matches_per_host(&config);
    }

    #[test]
    fn sketch_surfaces_the_true_heavy_entities() {
        let run = quick_run(0.0, 31);
        let rollup = run.rollup(1);
        let k = 4;
        let exact: Vec<u64> = run.exact_top_entities(k);
        let sketched: Vec<u64> = rollup.top_entities.iter().map(|e| e.entity).collect();
        for key in &exact {
            assert!(
                sketched.contains(key),
                "true heavy hitter {key:#x} missing from sketch top-K {sketched:#x?}"
            );
        }
        // Estimates never undercount: the heaviest entity's estimate is
        // at least its exact fleet-wide count (all hosts reported).
        let total_true: u64 = run.entity_truth.iter().sum();
        assert_eq!(rollup.sketch_total_weight, total_true);
    }

    #[test]
    fn wire_bytes_are_independent_of_entity_count() {
        let mut small = FleetConfig::quick(3);
        small.entities = 16;
        let mut large = FleetConfig::quick(3);
        large.entities = 4096;
        let a = crate::report_wire_bytes(&small);
        let b = crate::report_wire_bytes(&large);
        assert_eq!(a, b, "report size must not grow with the entity pool");
        // And the actual runs' transported bytes match the model.
        let run = match run_fleet(&large) {
            Ok(run) => run,
            Err(e) => panic!("fleet build failed: {e:?}"),
        };
        let rollup = run.rollup(1);
        assert_eq!(
            rollup.transport.bytes_offered,
            rollup.accounting.offered * rollup.transport.report_wire_bytes
        );
        assert!(rollup.transport.bytes_per_host_per_window > 0.0);
    }
}
