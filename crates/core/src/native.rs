//! The reference oracle: the paper's eBPF logic as plain Rust.
//!
//! Reference semantics for differential tests; nothing in production
//! attaches it. It mirrors the bytecode backend (`crate::bytecode`) —
//! same filtering, same integer arithmetic, same cell layout — so tests
//! can hold the verified programs, on either tier, cell-identical to an
//! independent implementation. It charges no probe cost: the bytecode
//! backend's `NS_PER_INSN` model is the only cost model.

use std::collections::HashMap;

use kscope_simcore::Nanos;
use kscope_syscalls::{Pid, SyscallProfile, SyscallRole, TracePhase, TracepointCtx};

use crate::bytecode::StackCounters;
use crate::counters::RawCounters;
use crate::observer::MetricBackend;

/// Native mirror of the netstack probe pair's state (the `inflight_stack`
/// hash plus the cumulative `stack_stats`/`stack_hist` cells of the
/// bytecode backend).
#[derive(Debug, Clone)]
struct NetStackState {
    /// Request id -> NIC arrival timestamp (`ktime - stage_ns` at the
    /// `net_rx_softirq` firing), the `inflight_stack` map.
    inflight: HashMap<u64, u64>,
    /// Cumulative log2 histogram of scaled time-in-stack.
    hist: [u64; 64],
    counters: StackCounters,
}

impl NetStackState {
    fn new() -> NetStackState {
        NetStackState {
            inflight: HashMap::new(),
            hist: [0; 64],
            counters: StackCounters::default(),
        }
    }
}

/// Plain-Rust mirror of the observability probe, kept as the oracle the
/// bytecode backend is tested against.
///
/// # Examples
///
/// ```
/// use kscope_core::{MetricBackend, NativeBackend};
/// use kscope_simcore::Nanos;
/// use kscope_syscalls::{pid_tgid, NetCtx, SyscallNo, SyscallProfile, TracePhase, TracepointCtx};
///
/// let mut probe = NativeBackend::new(1200, SyscallProfile::data_caching(), 10);
/// for i in 1..=3u64 {
///     probe.on_event(&TracepointCtx {
///         phase: TracePhase::Exit,
///         no: SyscallNo::SENDMSG,
///         pid_tgid: pid_tgid(1200, 1201),
///         ktime: Nanos::from_micros(500 * i),
///         ret: 64,
///         net: NetCtx::NONE,
///     });
/// }
/// assert_eq!(probe.counters().send.count, 2); // two deltas from three sends
/// ```
#[derive(Debug, Clone)]
pub struct NativeBackend {
    tgids: Vec<Pid>,
    profile: SyscallProfile,
    counters: RawCounters,
    /// Poll-entry timestamps keyed by packed `pid_tgid` (the `start` map
    /// of Listing 1).
    poll_start: HashMap<u64, u64>,
    /// Netstack probe state when attached ([`NativeBackend::with_netstack`]).
    netstack: Option<NetStackState>,
}

impl NativeBackend {
    /// Creates a probe filtering for `tgid`, classifying via `profile`,
    /// scaling deltas by `>> shift`.
    pub fn new(tgid: Pid, profile: SyscallProfile, shift: u32) -> NativeBackend {
        NativeBackend::new_multi(vec![tgid], profile, shift)
    }

    /// Creates a probe observing several processes at once (multi-stage
    /// applications like Web Search: §V-B aggregates all of an
    /// application's processes into one unified stream).
    ///
    /// # Panics
    ///
    /// Panics if `tgids` is empty.
    pub fn new_multi(tgids: Vec<Pid>, profile: SyscallProfile, shift: u32) -> NativeBackend {
        assert!(!tgids.is_empty(), "observe at least one process");
        NativeBackend {
            tgids,
            profile,
            counters: RawCounters::new(shift),
            poll_start: HashMap::new(),
            netstack: None,
        }
    }

    /// Attaches the native mirror of the netstack probe pair: the backend
    /// then handles [`TracePhase::NetRxSoftirq`] / [`TracePhase::SockQueueDrain`]
    /// firings with the exact integer arithmetic of the bytecode programs
    /// (same `>> shift` scaling, same log2 bucketing, same miss handling).
    /// Net events are handled *before* the tgid filter — softirq context
    /// has no current task, so `pid_tgid` is 0 there.
    pub fn with_netstack(mut self) -> NativeBackend {
        self.netstack = Some(NetStackState::new());
        self
    }

    /// The processes being observed.
    pub fn tgids(&self) -> &[Pid] {
        &self.tgids
    }

    /// Decoded cumulative `stack_stats` cells, when the netstack probe is
    /// attached.
    pub fn stack_counters(&self) -> Option<StackCounters> {
        self.netstack.as_ref().map(|ns| ns.counters)
    }

    /// Handles one net-phase firing (the two netstack tracepoints).
    fn on_net_event(&mut self, ctx: &TracepointCtx) {
        // No netstack programs attached: in real eBPF nothing runs at an
        // un-attached tracepoint.
        let Some(ns) = self.netstack.as_mut() else {
            return;
        };
        let now = ctx.ktime.as_nanos();
        let shift = self.counters.send.shift();
        match ctx.phase {
            TracePhase::NetRxSoftirq => {
                // NIC arrival = ktime - in-ring wait, exactly as the
                // bytecode rx program computes it.
                ns.inflight
                    .insert(ctx.net.request, now.wrapping_sub(ctx.net.stage_ns));
            }
            TracePhase::SockQueueDrain => match ns.inflight.remove(&ctx.net.request) {
                Some(nic_at) => {
                    let scaled = now.wrapping_sub(nic_at) >> shift;
                    ns.counters.count = ns.counters.count.wrapping_add(1);
                    ns.counters.sum = ns.counters.sum.wrapping_add(scaled);
                    ns.counters.sumsq =
                        ns.counters.sumsq.wrapping_add(scaled.wrapping_mul(scaled));
                    // floor(log2(max(scaled, 1))), the bit ladder's result.
                    ns.hist[63 - (scaled | 1).leading_zeros() as usize] += 1;
                }
                None => {
                    ns.counters.misses = ns.counters.misses.wrapping_add(1);
                }
            },
            TracePhase::Enter | TracePhase::Exit => {
                unreachable!("on_net_event called for a syscall phase")
            }
        }
    }
}

impl MetricBackend for NativeBackend {
    /// Updates the cells; the oracle charges no probe cost.
    fn on_event(&mut self, ctx: &TracepointCtx) -> Nanos {
        if ctx.phase.is_net() {
            self.on_net_event(ctx);
            return Nanos::ZERO;
        }
        if !self.tgids.contains(&ctx.tgid()) {
            return Nanos::ZERO;
        }
        let Some(role) = self.profile.role_of(ctx.no) else {
            return Nanos::ZERO;
        };
        let now = ctx.ktime.as_nanos();
        match (ctx.phase, role) {
            (TracePhase::Enter, SyscallRole::Poll) => {
                self.poll_start.insert(ctx.pid_tgid, now);
            }
            (TracePhase::Enter, _) => {}
            // Net phases were dispatched above before the tgid filter.
            (TracePhase::NetRxSoftirq | TracePhase::SockQueueDrain, _) => {
                unreachable!("net phases handled before the filter")
            }
            (TracePhase::Exit, role) => {
                match role {
                    SyscallRole::Send => {
                        self.counters.events = self.counters.events.wrapping_add(1);
                        let last = self.counters.send_last_ts;
                        self.counters.send_last_ts = now;
                        if last != 0 {
                            self.counters.send.push(now.wrapping_sub(last));
                        }
                    }
                    SyscallRole::Receive => {
                        self.counters.events = self.counters.events.wrapping_add(1);
                        let last = self.counters.recv_last_ts;
                        self.counters.recv_last_ts = now;
                        if last != 0 {
                            self.counters.recv.push(now.wrapping_sub(last));
                        }
                    }
                    SyscallRole::Poll => {
                        // A poll exit without a recorded entry (probe
                        // attached mid-wait) is dropped entirely, matching
                        // the bytecode program's early exit.
                        if let Some(start) = self.poll_start.get(&ctx.pid_tgid) {
                            self.counters.events = self.counters.events.wrapping_add(1);
                            self.counters.poll.push(now.wrapping_sub(*start));
                        }
                    }
                }
            }
        }
        Nanos::ZERO
    }

    fn counters(&self) -> RawCounters {
        self.counters
    }

    fn reset_window(&mut self) {
        self.counters.reset_window();
    }

    fn backend_name(&self) -> &'static str {
        "native"
    }

    fn stack_histogram(&self) -> Option<[u64; 64]> {
        self.netstack.as_ref().map(|ns| ns.hist)
    }

    fn stack_counters(&self) -> Option<StackCounters> {
        NativeBackend::stack_counters(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kscope_syscalls::{pid_tgid, NetCtx, SyscallNo};

    fn ctx(phase: TracePhase, no: SyscallNo, tid: u32, t_us: u64) -> TracepointCtx {
        TracepointCtx {
            phase,
            no,
            pid_tgid: pid_tgid(1200, tid),
            ktime: Nanos::from_micros(t_us),
            ret: 1,
            net: NetCtx::NONE,
        }
    }

    fn probe() -> NativeBackend {
        NativeBackend::new(1200, SyscallProfile::data_caching(), 0)
    }

    #[test]
    fn other_processes_are_filtered() {
        let mut p = probe();
        let mut foreign = ctx(TracePhase::Exit, SyscallNo::SENDMSG, 1, 10);
        foreign.pid_tgid = pid_tgid(9999, 1);
        p.on_event(&foreign);
        assert_eq!(p.counters().events, 0);
    }

    #[test]
    fn unrelated_syscalls_are_filtered() {
        let mut p = probe();
        p.on_event(&ctx(TracePhase::Exit, SyscallNo::FUTEX, 1, 10));
        assert_eq!(p.counters().events, 0);
    }

    #[test]
    fn send_deltas_accumulate() {
        let mut p = probe();
        for t in [100, 300, 600] {
            p.on_event(&ctx(TracePhase::Exit, SyscallNo::SENDMSG, 1, t));
        }
        let c = p.counters();
        assert_eq!(c.send.count, 2);
        assert_eq!(c.send.sum, 200_000 + 300_000);
        assert_eq!(c.send_last_ts, 600_000);
        assert_eq!(c.events, 3);
    }

    #[test]
    fn recv_deltas_are_separate_from_send() {
        let mut p = probe();
        p.on_event(&ctx(TracePhase::Exit, SyscallNo::READ, 1, 100));
        p.on_event(&ctx(TracePhase::Exit, SyscallNo::SENDMSG, 1, 150));
        p.on_event(&ctx(TracePhase::Exit, SyscallNo::READ, 1, 300));
        let c = p.counters();
        assert_eq!(c.recv.count, 1);
        assert_eq!(c.recv.sum, 200_000);
        assert_eq!(c.send.count, 0);
    }

    #[test]
    fn poll_duration_pairs_enter_and_exit_per_thread() {
        let mut p = probe();
        p.on_event(&ctx(TracePhase::Enter, SyscallNo::EPOLL_WAIT, 1, 100));
        p.on_event(&ctx(TracePhase::Enter, SyscallNo::EPOLL_WAIT, 2, 120));
        p.on_event(&ctx(TracePhase::Exit, SyscallNo::EPOLL_WAIT, 2, 200));
        p.on_event(&ctx(TracePhase::Exit, SyscallNo::EPOLL_WAIT, 1, 400));
        let c = p.counters();
        assert_eq!(c.poll.count, 2);
        assert_eq!(c.poll.sum, 80_000 + 300_000);
    }

    #[test]
    fn poll_exit_without_enter_is_ignored() {
        let mut p = probe();
        p.on_event(&ctx(TracePhase::Exit, SyscallNo::EPOLL_WAIT, 3, 500));
        assert_eq!(p.counters().poll.count, 0);
        // Dropped entirely, matching the bytecode program's early exit.
        assert_eq!(p.counters().events, 0);
    }

    #[test]
    fn window_reset_preserves_delta_chain() {
        let mut p = probe();
        p.on_event(&ctx(TracePhase::Exit, SyscallNo::SENDMSG, 1, 100));
        p.on_event(&ctx(TracePhase::Exit, SyscallNo::SENDMSG, 1, 200));
        p.reset_window();
        assert_eq!(p.counters().send.count, 0);
        p.on_event(&ctx(TracePhase::Exit, SyscallNo::SENDMSG, 1, 350));
        // Delta spans the reset: 350 - 200 = 150us.
        let c = p.counters();
        assert_eq!(c.send.count, 1);
        assert_eq!(c.send.sum, 150_000);
    }
}
