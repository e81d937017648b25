//! One simulated fleet member: a tracepoint dispatcher with the verified
//! probe attached, the windowed observer and agent above it, plus the
//! report-producing side of the control channel.

use std::sync::Arc;

use kscope_core::{
    Agent, BuildError, BytecodeBackend, Log2Hist, ProbeSet, RawCounters, RpsEstimator,
    SaturationAssessment, SaturationDetector, SketchState, SlackAssessment, SlackEstimator,
    StackDelay, WindowedObserver,
};
use kscope_kernel::{ProbeId, Tracing};
use kscope_netem::{DatagramTransit, NetemLink};
use kscope_simcore::{Nanos, SimRng};
use kscope_syscalls::{Pid, SyscallNo, SyscallProfile};

use crate::config::FleetConfig;

/// One report shipped host → collector.
///
/// The statistic payload is **cumulative** since host start (merged
/// per-window sufficient statistics and histogram cells), which is what
/// makes the channel loss-tolerant without feedback: any later report
/// subsumes a lost one, so the collector's per-host state is only ever
/// *stale*, never *biased*.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportEnvelope {
    /// Reporting host id.
    pub host: u32,
    /// Per-host sequence number, starting at 0. The channel may drop or
    /// reorder; the collector accepts only forward progress.
    pub seq: u64,
    /// Send time at the host.
    pub sent_at: Nanos,
    /// Completed observation windows covered by the payload.
    pub windows_observed: u64,
    /// Cumulative mergeable counters (count/Σδ/Σδ² per stream).
    pub cum: RawCounters,
    /// Cumulative in-probe poll-duration histogram cells.
    pub hist: Log2Hist,
    /// The probe's cumulative Top-K entity sketch (a Count-Min matrix
    /// plus a bounded candidate table): O(K) bytes however many
    /// distinct entities the host served.
    pub sketch: SketchState,
    /// The netstack probe's cumulative time-in-stack state (log2
    /// histogram plus count/Σ/Σ² /miss cells) — mergeable exactly, like
    /// the counters.
    pub stack: StackDelay,
    /// Latest window's Eq. 1 estimate, when thick enough.
    pub latest_rps: Option<f64>,
    /// Latest variance-knee assessment.
    pub saturation: Option<SaturationAssessment>,
    /// Latest poll-slack assessment.
    pub slack: Option<SlackAssessment>,
}

/// Modeled wire size of everything in an envelope *except* the sketch:
/// header (host 4B, seq 8B, sent_at 8B, windows 8B), counters (three
/// count/Σδ/Σδ² accumulators, two last-timestamps, the event counter,
/// and the shift: 104B), the 64-bucket poll histogram (512B), the three
/// optional estimator readouts (48B), and the netstack stack-delay
/// block (64-bucket histogram 512B + count/Σ/Σ²/miss cells 32B).
pub const ENVELOPE_FIXED_BYTES: usize = 28 + 104 + 512 + 48 + 512 + 32;

impl ReportEnvelope {
    /// Modeled serialized size of this report. The only non-constant
    /// term is the sketch, and that is O(K) in the sketch's *capacity*
    /// — independent of how many distinct entities the host served,
    /// which is the property the scale sweep measures.
    pub fn wire_bytes(&self) -> usize {
        ENVELOPE_FIXED_BYTES + self.sketch.wire_bytes()
    }
}

/// The wire size every report in a run of `config` occupies: fixed
/// envelope bytes plus a sketch sized by `config.sketch_capacity`.
/// Constant per configuration — notably independent of
/// `config.entities`, the property the scale sweep asserts.
pub fn report_wire_bytes(config: &crate::FleetConfig) -> usize {
    ENVELOPE_FIXED_BYTES + SketchState::new(8, config.sketch_capacity).wire_bytes()
}

/// Ground-truth accounting for one host, kept outside the collector so
/// tests can check conservation against what the collector inferred.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostTruth {
    /// Reports produced (one per report tick with new windows).
    pub produced: u64,
    /// Reports shed at the sender by the inflight bound.
    pub shed: u64,
    /// Reports offered to the channel.
    pub offered: u64,
    /// Reports the channel delivered.
    pub delivered: u64,
    /// Reports the channel dropped.
    pub dropped: u64,
    /// Completed observation windows.
    pub windows: u64,
    /// Report bytes offered to the channel.
    pub bytes_offered: u64,
    /// Report bytes the channel delivered.
    pub bytes_delivered: u64,
}

/// The fleet's probe, built once per run and shared read-only by every
/// host.
///
/// The paper's probe is one fixed set of programs — the syscall pair
/// plus the netstack pair — and every host runs it against the same map
/// layout. So the work that makes it trustworthy happens once, here, in
/// [`ProbeSet::build`]: assembly, verification of each program, the
/// [`PROBE_COST_BUDGET`](kscope_core::PROBE_COST_BUDGET) registration
/// gate, and the JIT compile. Each
/// host then takes an instance ([`BytecodeBackend::instantiate`]): the
/// same verified, certified, compiled programs over maps of its own. Why
/// the shared programs stay verified for every host's maps is argued on
/// [`BytecodeBackend`].
#[derive(Debug)]
pub(crate) struct FleetProbe(BytecodeBackend);

// Workers share one probe by reference (`parallel::map_indexed`).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<FleetProbe>();
};

impl FleetProbe {
    /// Builds and checks the probe every host of `config`'s fleet runs.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] when a program fails to assemble or
    /// verify (a generator bug), or when the registration gate rejects
    /// a program's certified cost.
    pub(crate) fn build(config: &FleetConfig) -> Result<FleetProbe, BuildError> {
        // Every host runs the server under the same pid, so an entity
        // (`pid_tgid` of the serving thread, drawn from the shared pool)
        // has the same sketch key fleet-wide and merges across hosts.
        let pids = vec![SimHost::SERVER_PID];
        let set = ProbeSet::new(pids, SyscallProfile::data_caching(), config.shift)
            .with_poll_histogram()
            .with_entity_sketch(config.sketch_capacity)
            .with_netstack();
        Ok(FleetProbe(set.build()?))
    }
}

/// The inverse-CDF table of the Zipf-skewed entity draw, built once per
/// run and shared read-only by every host: `cdf[i]` is the cumulative
/// weight of entities `0..=i`.
///
/// Zipf(s≈1.2) over the shared entity pool: entity i carries weight
/// (i+1)^-1.2, so a handful of threads dominate — the heavy hitters the
/// sketch must surface.
pub(crate) fn entity_cdf(config: &FleetConfig) -> Arc<[f64]> {
    let mut acc = 0.0f64;
    (0..config.entities)
        .map(|i| {
            acc += f64::from(i + 1).powf(-1.2);
            acc
        })
        .collect()
}

/// A fleet member: tracepoint dispatcher + verified bytecode probe +
/// windowed observer + agent, with a netem link to the collector.
///
/// A host fires its request's tracepoint edges straight into the
/// dispatcher, so it holds the kernel's [`Tracing`] layer alone, not a
/// scheduler, task, socket or ingress table it would never use.
pub struct SimHost {
    id: u32,
    pid: Pid,
    tracing: Tracing,
    probe: ProbeId,
    agent: Agent,
    rng: SimRng,
    link: NetemLink,
    link_rng: SimRng,
    /// Timestamp of the last send exit (the next request's edges start
    /// just after it).
    cursor: Nanos,
    /// Per-host request sequence number, keying the netstack probe's
    /// in-flight map (unique within the host, which is all the per-host
    /// probe needs).
    next_request: u64,
    burst_flip: bool,
    hot: bool,
    hot_at: Nanos,
    mean_gap_ns: f64,
    shift: u32,
    reported_windows: usize,
    next_seq: u64,
    cum: RawCounters,
    cum_hist: Log2Hist,
    /// The run's shared Zipf draw table ([`entity_cdf`]).
    entity_cdf: Arc<[f64]>,
    /// Exact per-entity request counts (ground truth the sketch's Top-K
    /// is judged against).
    entity_counts: Vec<u64>,
    /// Reports currently in flight on the channel.
    pub inflight: usize,
    /// Ground-truth accounting.
    pub truth: HostTruth,
}

impl std::fmt::Debug for SimHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimHost")
            .field("id", &self.id)
            .field("cursor", &self.cursor)
            .field("truth", &self.truth)
            .finish()
    }
}

impl SimHost {
    /// Builds host `id`'s full stack, probe included. RNG streams derive
    /// from `config.seed` and `id` alone — never from how many hosts
    /// were built before this one — so hosts can be simulated
    /// independently, in any order, on any worker count,
    /// bit-identically.
    ///
    /// This builds the probe and the entity draw table for this one
    /// host and then instantiates the host from them, the same steps a
    /// fleet run takes, except that a run builds both once and shares
    /// them with every host.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] when a probe program fails to assemble
    /// or verify (a generator bug), or when the registration gate rejects
    /// a program's certified cost.
    pub fn new(config: &FleetConfig, id: u32) -> Result<SimHost, BuildError> {
        let probe = FleetProbe::build(config)?;
        Ok(SimHost::with_probe(config, id, &probe, &entity_cdf(config)))
    }

    /// Builds host `id`'s full stack around an instance of `probe` and
    /// the shared `entity_cdf`, which must come from
    /// [`FleetProbe::build`] and [`entity_cdf`] of the same `config`.
    /// The host gets maps of its own; the programs and the draw table
    /// stay shared.
    pub(crate) fn with_probe(
        config: &FleetConfig,
        id: u32,
        probe: &FleetProbe,
        entity_cdf: &Arc<[f64]>,
    ) -> SimHost {
        let pid: Pid = SimHost::SERVER_PID;
        let observer = WindowedObserver::new(probe.0.instantiate(), config.window);
        let mut tracing = Tracing::new();
        let probe = tracing.attach(Box::new(observer));

        let mut saturation = SaturationDetector::default();
        saturation.min_samples = config.min_send_samples;
        let agent = Agent::new(
            RpsEstimator::with_min_samples(config.min_send_samples),
            saturation,
            SlackEstimator::default(),
        );

        // Stagger host start times slightly so per-host event streams are
        // not phase-locked.
        let cursor = Nanos::from_nanos(u64::from(id) * 1_000);
        let mut master = SimRng::seed_from_u64(config.seed);
        let rng = master.fork(u64::from(id));
        let link_rng = master.fork(1_000_000 + u64::from(id));
        SimHost {
            id,
            pid,
            tracing,
            probe,
            agent,
            rng,
            link: NetemLink::new(config.channel.clone()),
            link_rng,
            cursor,
            next_request: 0,
            burst_flip: false,
            hot: u64::from(id) < config.hot_hosts as u64,
            hot_at: config.hot_at(),
            mean_gap_ns: 1e9 / config.per_host_rps,
            shift: config.shift,
            reported_windows: 0,
            next_seq: 0,
            cum: RawCounters::new(config.shift),
            cum_hist: Log2Hist::new(config.shift),
            entity_cdf: Arc::clone(entity_cdf),
            entity_counts: vec![0; config.entities as usize],
            inflight: 0,
            truth: HostTruth::default(),
        }
    }

    /// The tgid every simulated server runs under (shared fleet-wide so
    /// entity sketch keys merge across hosts).
    pub const SERVER_PID: Pid = 1_200;

    /// Host id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Exact per-entity request counts (index `i` is entity `i`'s tid
    /// minus [`SimHost::FIRST_TID`]).
    pub fn entity_counts(&self) -> &[u64] {
        &self.entity_counts
    }

    /// The first entity's tid; entity `i` serves as tid
    /// `FIRST_TID + i`.
    pub const FIRST_TID: u32 = 2_000;

    /// The link's accumulated channel statistics (including the byte
    /// ledger).
    pub fn link_stats(&self) -> &kscope_netem::LinkStats {
        self.link.stats()
    }

    /// Draws the entity (thread) serving the next request from the
    /// shared Zipf pool.
    fn draw_entity(&mut self) -> u32 {
        let total = match self.entity_cdf.last() {
            Some(&t) => t,
            None => unreachable!("the entity pool is never empty"),
        };
        let u = self.rng.next_f64() * total;
        let idx = self.entity_cdf.partition_point(|&c| c <= u);
        let idx = idx.min(self.entity_cdf.len() - 1);
        self.entity_counts[idx] += 1;
        SimHost::FIRST_TID + idx as u32
    }

    /// When this host's first request arrives.
    pub fn first_request_at(&mut self) -> Nanos {
        self.cursor + self.sample_gap()
    }

    fn in_hot_phase(&self, now: Nanos) -> bool {
        self.hot && now >= self.hot_at
    }

    /// The next inter-request gap. Cold hosts jitter mildly around the
    /// mean; hot hosts alternate short/long gaps with the *same mean*
    /// (throughput holds while inter-send variance jumps — the Eq. 2
    /// saturation signature).
    fn sample_gap(&mut self) -> Nanos {
        let factor = if self.in_hot_phase(self.cursor) {
            self.burst_flip = !self.burst_flip;
            if self.burst_flip {
                0.25
            } else {
                1.75
            }
        } else {
            0.9 + 0.2 * self.rng.next_f64()
        };
        Nanos::from_nanos((self.mean_gap_ns * factor).max(10_000.0) as u64)
    }

    /// Serves the request arriving at `now`: fires the poll → recv → send
    /// tracepoint edges through the kernel's dispatcher (which the probe
    /// observes), and returns when the *next* request arrives — or `None`
    /// once that would pass `horizon`.
    pub fn serve_request(&mut self, now: Nanos, horizon: Nanos) -> Option<Nanos> {
        // The arriving request wakes the server just after `now`, so the
        // send-exit chain tracks arrival gaps exactly (Eq. 1 sees the
        // offered rate). Where the poll *started* is what separates the
        // regimes: cold hosts sleep out the whole idle gap in epoll (high
        // slack); hot hosts re-enter the poll loop late, off the back of
        // queued work, so their polls shrink to the busy floor.
        let poll_exit = now + Nanos::from_nanos(200);
        let idle_since = self.cursor + Nanos::from_nanos(500);
        let poll_enter = if self.in_hot_phase(now) {
            let busy_poll_ns = 4_000 + self.rng.next_below(2_000);
            poll_exit
                .saturating_sub(Nanos::from_nanos(busy_poll_ns))
                .max(idle_since)
        } else {
            idle_since
        };
        let recv_enter = poll_exit + Nanos::from_nanos(300);
        let recv_exit = recv_enter + Nanos::from_nanos(1_200);
        let send_enter = recv_exit + Nanos::from_nanos(300);
        let send_exit = send_enter + Nanos::from_nanos(1_700);

        // The request's packet traverses the ingress stack while the
        // thread wakes: NIC arrival at `now`, softirq completion before
        // the epoll return, socket-queue drain inside the recv. The
        // stage offsets derive from the request sequence number alone
        // (not the traffic RNG), so adding the netstack edges perturbs
        // no existing RNG stream.
        let request = self.next_request;
        self.next_request += 1;
        let softirq_at = now + Nanos::from_nanos(100 + (request % 5) * 20);
        let drain_at = recv_enter + Nanos::from_nanos(300 + (request * 37) % 800);

        let tid = self.draw_entity();
        let tr = &mut self.tracing;
        let pid = self.pid;
        tr.sys_enter(pid, tid, SyscallNo::EPOLL_WAIT, poll_enter);
        tr.net_rx_softirq(request, 64, softirq_at - now, softirq_at);
        tr.sys_exit(pid, tid, SyscallNo::EPOLL_WAIT, 1, poll_exit);
        tr.sys_enter(pid, tid, SyscallNo::RECVMSG, recv_enter);
        tr.sock_queue_drain(pid, tid, request, drain_at - softirq_at, 0, drain_at);
        tr.sys_exit(pid, tid, SyscallNo::RECVMSG, 64, recv_exit);
        tr.sys_enter(pid, tid, SyscallNo::SENDMSG, send_enter);
        tr.sys_exit(pid, tid, SyscallNo::SENDMSG, 64, send_exit);
        self.cursor = send_exit;

        let next = now + self.sample_gap();
        (next <= horizon).then_some(next)
    }

    fn observer_mut(&mut self) -> &mut WindowedObserver<BytecodeBackend> {
        let probe = match self.tracing.probe_mut(self.probe) {
            Some(p) => p,
            None => unreachable!("the fleet never detaches its probe"),
        };
        match probe.as_any_mut().downcast_mut() {
            Some(obs) => obs,
            None => unreachable!("the fleet's probe is a WindowedObserver<BytecodeBackend>"),
        }
    }

    /// This host's probe instance, for its execution counts
    /// ([`BytecodeBackend::insns_executed`],
    /// [`BytecodeBackend::trampoline_entries`]).
    pub fn backend(&mut self) -> &BytecodeBackend {
        self.observer_mut().backend()
    }

    /// Report tick: folds any newly completed windows into the cumulative
    /// state and, when there are any, produces the next envelope. The
    /// final tick (`finish_at`) force-closes the observer at the horizon
    /// so the last window is never lost to quantization.
    pub fn make_report(&mut self, now: Nanos, finish_at: Option<Nanos>) -> Option<ReportEnvelope> {
        let shift = self.shift;
        let reported = self.reported_windows;
        let obs = self.observer_mut();
        if let Some(end) = finish_at {
            obs.finish(end);
        }
        let total = obs.windows().len();
        if total == reported {
            return None;
        }
        let new_windows: Vec<_> = (reported..total)
            .map(|i| {
                (
                    obs.windows()[i],
                    obs.raw_windows()[i],
                    obs.window_histograms()[i],
                )
            })
            .collect();
        for (metrics, raw, hist) in new_windows {
            self.cum.merge(&raw);
            if let Some(buckets) = hist {
                self.cum_hist.merge(&Log2Hist::from_buckets(shift, buckets));
            }
            self.agent.ingest(metrics);
        }
        self.reported_windows = total;
        self.truth.windows = total as u64;
        let sketch = match self.observer_mut().backend().entity_sketch() {
            Some(state) => state.clone(),
            None => unreachable!("fleet probes always carry a sketch"),
        };
        // Like the sketch, the stack cells are cumulative in the probe's
        // maps: snapshot, don't accumulate.
        let stack = match StackDelay::from_backend(shift, self.observer_mut().backend()) {
            Some(stack) => stack,
            None => unreachable!("fleet probes always carry the netstack programs"),
        };
        let latest = self.agent.latest();
        let envelope = ReportEnvelope {
            host: self.id,
            seq: self.next_seq,
            sent_at: now,
            windows_observed: total as u64,
            cum: self.cum,
            hist: self.cum_hist,
            sketch,
            stack,
            latest_rps: latest.and_then(|r| r.rps_obsv),
            saturation: latest.and_then(|r| r.saturation),
            slack: latest.and_then(|r| r.slack),
        };
        self.next_seq += 1;
        self.truth.produced += 1;
        Some(envelope)
    }

    /// Offers an envelope of `bytes` wire bytes to the channel under
    /// the inflight bound. Returns `None` when the report was shed,
    /// otherwise the transit outcome (the caller schedules the arrival
    /// or the loss release).
    pub fn offer(&mut self, max_inflight: usize, bytes: u64) -> Option<DatagramTransit> {
        if self.inflight >= max_inflight {
            self.truth.shed += 1;
            return None;
        }
        self.inflight += 1;
        self.truth.offered += 1;
        self.truth.bytes_offered += bytes;
        let transit = self.link.send_datagram_sized(&mut self.link_rng, bytes);
        if transit.delivered {
            self.truth.delivered += 1;
            self.truth.bytes_delivered += bytes;
        } else {
            self.truth.dropped += 1;
        }
        Some(transit)
    }

    /// Releases one inflight slot (arrival or loss resolution).
    pub fn release_inflight(&mut self) {
        debug_assert!(self.inflight > 0, "release without a matching offer");
        self.inflight = self.inflight.saturating_sub(1);
    }
}
