//! Modeled host network-stack ingress path — NIC ring, softirq/NAPI batch
//! processing, and socket receive-queue residency.
//!
//! The paper's netem robustness result (Fig. 5 / Table II) is a
//! correlation: server-side syscall metrics stay stable while client
//! latency explodes. Sundberg et al. ("Waiting at the front door") show
//! *where* the hidden latency lives by monitoring the host network stack
//! upstream of the syscall boundary. This module models that path so
//! probes can be attached there:
//!
//! ```text
//! NetemLink arrival ──► NIC ring ──► softirq/NAPI batch ──► socket queue
//!                      (enqueue)     (budgeted, jittered)    (recv drains)
//! ```
//!
//! Like the rest of `kscope-kernel` the pipeline is *passive*, clock-
//! agnostic bookkeeping: [`IngressQueue::enqueue`] takes `now` and returns
//! when a softirq should be raised; the driver schedules that event and
//! calls [`IngressQueue::run_softirq`], which processes up to
//! [`IngressConfig::napi_budget`] packets into a caller-owned buffer of
//! per-packet delivery timestamps and returns — when the budget was
//! exhausted with packets still ringed — the time the deferred
//! (ksoftirqd-style) follow-up run should happen. The driver stamps each
//! delivered [`Message`](crate::Message) with its
//! [`StackStamps`](crate::StackStamps) and fires the
//! `net_rx_softirq` tracepoint; the later `recvfrom`/`epoll_wait` drain
//! fires `sock_queue_drain`.

use std::collections::VecDeque;

use kscope_simcore::{Dist, Nanos, SimRng};

use crate::socket::ChannelId;

/// Configuration of the per-host ingress pipeline.
#[derive(Debug, Clone)]
pub struct IngressConfig {
    /// NIC receive-ring slots; arrivals beyond this are dropped at the
    /// ring (counted in [`IngressStats::ring_drops`]).
    pub ring_capacity: usize,
    /// Maximum packets one softirq invocation processes before deferring
    /// the remainder (the NAPI budget; Linux defaults to 64).
    pub napi_budget: usize,
    /// Latency from hardware interrupt to softirq handler entry.
    pub softirq_latency: Nanos,
    /// Protocol-processing cost per packet inside the handler.
    pub per_packet: Nanos,
    /// Per-invocation scheduling jitter added to the handler entry
    /// (sampled in nanoseconds from a `kscope-simcore` distribution).
    pub jitter: Option<Dist>,
    /// Gap before the deferred follow-up run when the budget was
    /// exhausted (the ksoftirqd requeue penalty).
    pub defer_delay: Nanos,
}

impl Default for IngressConfig {
    fn default() -> IngressConfig {
        IngressConfig {
            ring_capacity: 1024,
            napi_budget: 64,
            softirq_latency: Nanos::from_micros(2),
            per_packet: Nanos::from_nanos(1_500),
            jitter: Some(Dist::exponential(500.0)),
            defer_delay: Nanos::from_micros(5),
        }
    }
}

/// One packet sitting in (or leaving) the ingress pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RxPacket {
    /// Destination connection (socket receive queue).
    pub conn: ChannelId,
    /// Request token the packet carries.
    pub request: u64,
    /// Payload bytes.
    pub bytes: u32,
}

/// One packet the softirq handler finished processing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoftirqDelivery {
    /// The packet.
    pub packet: RxPacket,
    /// When it arrived at the NIC ring.
    pub nic_at: Nanos,
    /// When softirq processing completed — the instant it lands on the
    /// socket queue.
    pub delivered_at: Nanos,
}

/// Aggregate ingress-pipeline statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngressStats {
    /// Packets accepted onto the NIC ring.
    pub ring_enqueued: u64,
    /// Packets dropped because the ring was full.
    pub ring_drops: u64,
    /// Packets delivered to socket queues.
    pub delivered: u64,
    /// Softirq handler invocations.
    pub softirq_runs: u64,
    /// Invocations that exhausted the NAPI budget and deferred work.
    pub deferrals: u64,
    /// High-water mark of ring occupancy.
    pub ring_high_water: u64,
}

/// The per-host ingress pipeline: NIC ring plus softirq scheduling state.
///
/// # Examples
///
/// ```
/// use kscope_kernel::{IngressConfig, IngressQueue, RxPacket, ChannelId};
/// use kscope_simcore::{Nanos, SimRng};
///
/// let mut ingress = IngressQueue::new(IngressConfig::default());
/// let mut rng = SimRng::seed_from_u64(9);
/// let pkt = RxPacket { conn: ChannelId(0), request: 1, bytes: 64 };
/// let raise = ingress.enqueue(pkt, Nanos::from_micros(10)).expect("softirq raised");
/// assert!(raise > Nanos::from_micros(10));
/// let mut delivered = Vec::new();
/// let next = ingress.run_softirq(raise, &mut rng, &mut delivered);
/// assert_eq!(delivered.len(), 1);
/// assert_eq!(delivered[0].nic_at, Nanos::from_micros(10));
/// assert!(delivered[0].delivered_at >= raise);
/// assert!(next.is_none());
/// ```
#[derive(Debug, Clone)]
pub struct IngressQueue {
    config: IngressConfig,
    ring: VecDeque<(RxPacket, Nanos)>,
    softirq_pending: bool,
    stats: IngressStats,
}

impl Default for IngressQueue {
    fn default() -> IngressQueue {
        IngressQueue::new(IngressConfig::default())
    }
}

impl IngressQueue {
    /// Creates an empty pipeline.
    pub fn new(config: IngressConfig) -> IngressQueue {
        IngressQueue {
            config,
            ring: VecDeque::new(),
            softirq_pending: false,
            stats: IngressStats::default(),
        }
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &IngressConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &IngressStats {
        &self.stats
    }

    /// Packets currently on the NIC ring.
    pub fn ring_depth(&self) -> usize {
        self.ring.len()
    }

    /// A packet arrives at the NIC at `now`.
    ///
    /// Returns `Some(raise_at)` when this arrival raised a new softirq
    /// (none was pending) and the driver should schedule a
    /// [`IngressQueue::run_softirq`] call at that time; `None` when a
    /// softirq is already pending (the packet just joins the ring) or the
    /// ring overflowed and the packet was dropped.
    pub fn enqueue(&mut self, packet: RxPacket, now: Nanos) -> Option<Nanos> {
        if self.ring.len() >= self.config.ring_capacity {
            self.stats.ring_drops += 1;
            return None;
        }
        self.ring.push_back((packet, now));
        self.stats.ring_enqueued += 1;
        self.stats.ring_high_water = self.stats.ring_high_water.max(self.ring.len() as u64);
        if self.softirq_pending {
            return None;
        }
        self.softirq_pending = true;
        Some(now + self.config.softirq_latency)
    }

    /// Runs one softirq invocation at `now`: processes up to the NAPI
    /// budget of ringed packets, charging per-packet protocol cost plus a
    /// per-invocation jitter sample from `rng`.
    ///
    /// `delivered` is cleared and refilled with the processed packets, in
    /// ring (arrival) order with monotonically non-decreasing
    /// `delivered_at`; reusing one buffer keeps the ingress path free of
    /// allocation.
    ///
    /// When the budget is exhausted with packets still ringed, the
    /// invocation defers: it returns the follow-up run time and the
    /// softirq stays pending. Otherwise it returns `None`, the pending
    /// flag clears and the next arrival raises a fresh softirq.
    pub fn run_softirq(
        &mut self,
        now: Nanos,
        rng: &mut SimRng,
        delivered: &mut Vec<SoftirqDelivery>,
    ) -> Option<Nanos> {
        self.stats.softirq_runs += 1;
        let jitter = self
            .config
            .jitter
            .as_ref()
            .map(|d| d.sample_nanos(rng))
            .unwrap_or(Nanos::ZERO);
        let mut clock = now + jitter;
        let budget = self.config.napi_budget.max(1);
        delivered.clear();
        while delivered.len() < budget {
            let Some((packet, nic_at)) = self.ring.pop_front() else {
                break;
            };
            clock += self.config.per_packet;
            delivered.push(SoftirqDelivery {
                packet,
                nic_at,
                delivered_at: clock,
            });
        }
        self.stats.delivered += delivered.len() as u64;
        if self.ring.is_empty() {
            self.softirq_pending = false;
            None
        } else {
            // Budget exhausted: hand the remainder to ksoftirqd.
            self.stats.deferrals += 1;
            Some(clock + self.config.defer_delay)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(request: u64) -> RxPacket {
        RxPacket {
            conn: ChannelId(0),
            request,
            bytes: 128,
        }
    }

    /// One softirq run's outputs, gathered for assertions.
    struct Run {
        delivered: Vec<SoftirqDelivery>,
        next: Option<Nanos>,
    }

    fn softirq(q: &mut IngressQueue, now: Nanos, rng: &mut SimRng) -> Run {
        // A stale entry proves the buffer is refilled, not appended to.
        let mut delivered = vec![SoftirqDelivery {
            packet: pkt(u64::MAX),
            nic_at: Nanos::ZERO,
            delivered_at: Nanos::ZERO,
        }];
        let next = q.run_softirq(now, rng, &mut delivered);
        Run { delivered, next }
    }

    fn quiet_config() -> IngressConfig {
        IngressConfig {
            jitter: None,
            ..IngressConfig::default()
        }
    }

    #[test]
    fn single_packet_flows_through() {
        let mut q = IngressQueue::new(quiet_config());
        let mut rng = SimRng::seed_from_u64(1);
        let t0 = Nanos::from_micros(100);
        let raise = q.enqueue(pkt(7), t0).expect("first arrival raises");
        assert_eq!(raise, t0 + q.config().softirq_latency);
        let run = softirq(&mut q, raise, &mut rng);
        assert_eq!(run.delivered.len(), 1);
        let d = run.delivered[0];
        assert_eq!(d.packet.request, 7);
        assert_eq!(d.nic_at, t0);
        assert_eq!(d.delivered_at, raise + q.config().per_packet);
        assert!(run.next.is_none());
        assert_eq!(q.stats().softirq_runs, 1);
        assert_eq!(q.stats().delivered, 1);
        assert_eq!(q.ring_depth(), 0);
    }

    #[test]
    fn second_arrival_joins_pending_softirq() {
        let mut q = IngressQueue::new(quiet_config());
        let mut rng = SimRng::seed_from_u64(2);
        let raise = q.enqueue(pkt(1), Nanos::from_micros(10)).expect("raised");
        assert!(q.enqueue(pkt(2), Nanos::from_micros(11)).is_none());
        let run = softirq(&mut q, raise, &mut rng);
        assert_eq!(run.delivered.len(), 2);
        // FIFO in arrival order, monotone completion times.
        assert_eq!(run.delivered[0].packet.request, 1);
        assert_eq!(run.delivered[1].packet.request, 2);
        assert!(run.delivered[0].delivered_at < run.delivered[1].delivered_at);
        // Pipeline idle again: a new arrival raises a fresh softirq.
        assert!(q.enqueue(pkt(3), Nanos::from_micros(50)).is_some());
    }

    #[test]
    fn budget_exhaustion_defers_to_ksoftirqd() {
        let mut cfg = quiet_config();
        cfg.napi_budget = 4;
        let mut q = IngressQueue::new(cfg);
        let mut rng = SimRng::seed_from_u64(3);
        let t0 = Nanos::from_micros(10);
        let raise = q.enqueue(pkt(0), t0).expect("raised");
        for i in 1..10u64 {
            assert!(q.enqueue(pkt(i), t0 + Nanos::from_nanos(i)).is_none());
        }
        let first = softirq(&mut q, raise, &mut rng);
        assert_eq!(first.delivered.len(), 4);
        let next = first.next.expect("budget exhausted defers");
        assert_eq!(
            next,
            first.delivered[3].delivered_at + q.config().defer_delay
        );
        assert_eq!(q.ring_depth(), 6);
        // Arrivals while deferred still must not raise a duplicate softirq.
        assert!(q.enqueue(pkt(100), next - Nanos::from_nanos(1)).is_none());
        let second = softirq(&mut q, next, &mut rng);
        assert_eq!(second.delivered.len(), 4);
        let third_at = second.next.expect("still over budget");
        let third = softirq(&mut q, third_at, &mut rng);
        assert_eq!(third.delivered.len(), 3);
        assert!(third.next.is_none());
        assert_eq!(q.stats().deferrals, 2);
        assert_eq!(q.stats().softirq_runs, 3);
        assert_eq!(q.stats().delivered, 11);
    }

    #[test]
    fn ring_overflow_drops() {
        let mut cfg = quiet_config();
        cfg.ring_capacity = 2;
        let mut q = IngressQueue::new(cfg);
        let t = Nanos::ZERO;
        assert!(q.enqueue(pkt(1), t).is_some());
        assert!(q.enqueue(pkt(2), t).is_none());
        assert!(q.enqueue(pkt(3), t).is_none());
        assert_eq!(q.stats().ring_drops, 1);
        assert_eq!(q.stats().ring_enqueued, 2);
        assert_eq!(q.ring_depth(), 2);
    }

    #[test]
    fn jitter_shifts_the_whole_batch_deterministically() {
        let mut cfg = quiet_config();
        cfg.jitter = Some(Dist::constant(250.0));
        let mut q = IngressQueue::new(cfg);
        let mut rng = SimRng::seed_from_u64(4);
        let raise = q.enqueue(pkt(1), Nanos::ZERO).expect("raised");
        let run = softirq(&mut q, raise, &mut rng);
        assert_eq!(
            run.delivered[0].delivered_at,
            raise + Nanos::from_nanos(250) + q.config().per_packet
        );
    }

    #[test]
    fn empty_run_is_harmless() {
        let mut q = IngressQueue::new(quiet_config());
        let mut rng = SimRng::seed_from_u64(5);
        let run = softirq(&mut q, Nanos::from_micros(1), &mut rng);
        assert!(run.delivered.is_empty());
        assert!(run.next.is_none());
    }

    #[test]
    fn high_water_tracks_peak_ring_depth() {
        let mut q = IngressQueue::new(quiet_config());
        let mut rng = SimRng::seed_from_u64(6);
        let raise = q.enqueue(pkt(0), Nanos::ZERO).expect("raised");
        for i in 1..5u64 {
            q.enqueue(pkt(i), Nanos::from_nanos(i));
        }
        assert_eq!(q.stats().ring_high_water, 5);
        softirq(&mut q, raise, &mut rng);
        assert_eq!(q.stats().ring_high_water, 5);
    }
}
