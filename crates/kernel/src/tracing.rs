//! Tracepoint dispatch — the attachment surface for eBPF probes.
//!
//! Every simulated syscall passes through [`Tracing::sys_enter`] and
//! [`Tracing::sys_exit`], which mirror the `raw_syscalls:sys_enter` /
//! `sys_exit` tracepoints of Listing 1. Attached [`TracepointProbe`]s see a
//! [`TracepointCtx`] with exactly the fields an eBPF program can read
//! (syscall id, packed `pid_tgid`, `ktime`) and report the time their
//! execution cost, which the driver charges to the calling thread — that
//! accounting is what the §VI overhead experiment measures.

use std::collections::HashMap;

use kscope_simcore::hash::FastBuildHasher;
use kscope_simcore::Nanos;
use kscope_syscalls::{
    pid_tgid, NetCtx, Pid, SyscallEvent, SyscallNo, Tid, Trace, TracePhase, TracepointCtx,
};

/// A program attached to the syscall tracepoints.
///
/// Implementations may keep state across firings (maps, accumulators); they
/// return the in-kernel time their execution cost so the simulation can
/// charge it to the traced thread.
pub trait TracepointProbe {
    /// Diagnostic name.
    fn name(&self) -> &str;

    /// Handles one tracepoint firing and returns the execution overhead to
    /// charge.
    fn fire(&mut self, ctx: &TracepointCtx) -> Nanos;

    /// Downcasting hook so callers can recover a concrete probe after
    /// [`Tracing::detach`].
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

/// Handle to an attached probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProbeId(pub u32);

/// Aggregate tracing statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TracingStats {
    /// `sys_enter` firings delivered to probes.
    pub enters: u64,
    /// `sys_exit` firings delivered to probes.
    pub exits: u64,
    /// `net_rx_softirq` firings delivered to probes.
    pub net_rx: u64,
    /// `sock_queue_drain` firings delivered to probes.
    pub sock_drains: u64,
    /// Total probe execution time charged to threads.
    pub probe_overhead: Nanos,
}

/// The tracepoint dispatcher.
///
/// Optionally records a full [`Trace`] of completed syscalls (the
/// stream-everything-to-userspace mode the paper used for exploration)
/// alongside probe dispatch (the compute-in-kernel mode it advocates).
#[derive(Default)]
pub struct Tracing {
    probes: Vec<(ProbeId, Box<dyn TracepointProbe>)>,
    next_probe: u32,
    collect_trace: bool,
    trace: Trace,
    /// Each thread's open `sys_enter`. Looked up on every syscall
    /// firing and never iterated, so it uses the fast fixed-key hasher.
    open: HashMap<Tid, (SyscallNo, Nanos), FastBuildHasher>,
    stats: TracingStats,
}

impl std::fmt::Debug for Tracing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracing")
            .field("probes", &self.probes.len())
            .field("collect_trace", &self.collect_trace)
            .field("trace_len", &self.trace.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Tracing {
    /// Creates a dispatcher with no probes and trace collection off.
    pub fn new() -> Tracing {
        Tracing::default()
    }

    /// Enables or disables full-trace collection.
    pub fn set_collect_trace(&mut self, collect: bool) {
        self.collect_trace = collect;
    }

    /// Whether full-trace collection is on.
    pub fn collects_trace(&self) -> bool {
        self.collect_trace
    }

    /// Attaches a probe to both tracepoints; returns its handle.
    pub fn attach(&mut self, probe: Box<dyn TracepointProbe>) -> ProbeId {
        let id = ProbeId(self.next_probe);
        self.next_probe += 1;
        self.probes.push((id, probe));
        id
    }

    /// Detaches a probe, returning it if it was attached.
    pub fn detach(&mut self, id: ProbeId) -> Option<Box<dyn TracepointProbe>> {
        let idx = self.probes.iter().position(|(pid, _)| *pid == id)?;
        Some(self.probes.remove(idx).1)
    }

    /// Number of attached probes.
    pub fn probe_count(&self) -> usize {
        self.probes.len()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &TracingStats {
        &self.stats
    }

    /// The collected trace (empty unless collection was enabled).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Takes the collected trace, leaving an empty one.
    pub fn take_trace(&mut self) -> Trace {
        std::mem::take(&mut self.trace)
    }

    /// Mutable access to an attached probe (for reading its maps).
    pub fn probe_mut(&mut self, id: ProbeId) -> Option<&mut (dyn TracepointProbe + 'static)> {
        self.probes
            .iter_mut()
            .find(|(pid, _)| *pid == id)
            .map(|(_, p)| &mut **p)
    }

    /// Fires `sys_enter` for thread `tid` of process `pid` at `now`.
    ///
    /// Returns the total probe overhead to charge to the thread.
    ///
    /// # Panics
    ///
    /// Panics if the thread already has an open syscall (nesting is not a
    /// thing for raw syscalls).
    pub fn sys_enter(&mut self, pid: Pid, tid: Tid, no: SyscallNo, now: Nanos) -> Nanos {
        let prev = self.open.insert(tid, (no, now));
        assert!(
            prev.is_none(),
            "thread {tid} entered {no} while already inside a syscall"
        );
        self.stats.enters += 1;
        let ctx = TracepointCtx {
            phase: TracePhase::Enter,
            no,
            pid_tgid: pid_tgid(pid, tid),
            ktime: now,
            ret: 0,
            net: NetCtx::NONE,
        };
        self.dispatch(&ctx)
    }

    /// Fires `sys_exit` at `now`, pairing with the thread's open `sys_enter`
    /// and recording the completed [`SyscallEvent`] when collection is on.
    ///
    /// Returns the total probe overhead to charge to the thread.
    ///
    /// # Panics
    ///
    /// Panics if the thread has no open syscall or the syscall number does
    /// not match the one it entered with.
    pub fn sys_exit(&mut self, pid: Pid, tid: Tid, no: SyscallNo, ret: i64, now: Nanos) -> Nanos {
        let (entered_no, enter) = self
            .open
            .remove(&tid)
            .unwrap_or_else(|| panic!("thread {tid} exited {no} without entering"));
        assert_eq!(
            entered_no, no,
            "thread {tid} entered {entered_no} but exited {no}"
        );
        self.stats.exits += 1;
        let ctx = TracepointCtx {
            phase: TracePhase::Exit,
            no,
            pid_tgid: pid_tgid(pid, tid),
            ktime: now,
            ret,
            net: NetCtx::NONE,
        };
        let overhead = self.dispatch(&ctx);
        if self.collect_trace {
            self.trace.push(SyscallEvent {
                tid,
                pid,
                no,
                enter,
                exit: now,
                ret,
            });
        }
        overhead
    }

    /// Fires the `net_rx_softirq` tracepoint at `now`: softirq/NAPI
    /// processing of `request`'s packet completed and enqueued it on a
    /// socket. `nic_wait` is the packet's NIC-ring residency (arrival to
    /// softirq completion). Fires in softirq context, so `pid_tgid` is 0.
    ///
    /// Returns the total probe overhead; the driver charges it to the
    /// interrupted CPU rather than any thread.
    pub fn net_rx_softirq(&mut self, request: u64, bytes: u32, nic_wait: Nanos, now: Nanos) -> Nanos {
        self.stats.net_rx += 1;
        let ctx = TracepointCtx {
            phase: TracePhase::NetRxSoftirq,
            no: SyscallNo::from_raw(u32::MAX),
            pid_tgid: 0,
            ktime: now,
            ret: 0,
            net: NetCtx {
                request,
                stage_ns: nic_wait.as_nanos(),
                arg: bytes as u64,
            },
        };
        self.dispatch(&ctx)
    }

    /// Fires the `sock_queue_drain` tracepoint at `now`: thread `tid` of
    /// process `pid` dequeued `request`'s message from its socket receive
    /// queue (inside `recvfrom`/an `epoll_wait`-driven read). `residency`
    /// is the message's socket-queue wait; `queue_depth` is what remains
    /// on the queue after the dequeue.
    ///
    /// Returns the total probe overhead to charge to the draining thread.
    pub fn sock_queue_drain(
        &mut self,
        pid: Pid,
        tid: Tid,
        request: u64,
        residency: Nanos,
        queue_depth: u64,
        now: Nanos,
    ) -> Nanos {
        self.stats.sock_drains += 1;
        let ctx = TracepointCtx {
            phase: TracePhase::SockQueueDrain,
            no: SyscallNo::from_raw(u32::MAX),
            pid_tgid: pid_tgid(pid, tid),
            ktime: now,
            ret: 0,
            net: NetCtx {
                request,
                stage_ns: residency.as_nanos(),
                arg: queue_depth,
            },
        };
        self.dispatch(&ctx)
    }

    fn dispatch(&mut self, ctx: &TracepointCtx) -> Nanos {
        let mut total = Nanos::ZERO;
        for (_, probe) in &mut self.probes {
            total += probe.fire(ctx);
        }
        self.stats.probe_overhead += total;
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CountingProbe {
        fired: u64,
        cost: Nanos,
    }

    impl TracepointProbe for CountingProbe {
        fn name(&self) -> &str {
            "counting"
        }
        fn fire(&mut self, _ctx: &TracepointCtx) -> Nanos {
            self.fired += 1;
            self.cost
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn pairing_produces_trace_events() {
        let mut tracing = Tracing::new();
        tracing.set_collect_trace(true);
        tracing.sys_enter(1, 2, SyscallNo::RECVFROM, Nanos::from_micros(10));
        tracing.sys_exit(1, 2, SyscallNo::RECVFROM, 64, Nanos::from_micros(12));
        let trace = tracing.trace();
        assert_eq!(trace.len(), 1);
        let ev = trace.events()[0];
        assert_eq!(ev.no, SyscallNo::RECVFROM);
        assert_eq!(ev.duration(), Nanos::from_micros(2));
        assert_eq!(ev.ret, 64);
    }

    #[test]
    fn probes_fire_on_both_edges_and_charge_overhead() {
        let mut tracing = Tracing::new();
        let id = tracing.attach(Box::new(CountingProbe {
            fired: 0,
            cost: Nanos::from_nanos(200),
        }));
        let o1 = tracing.sys_enter(1, 2, SyscallNo::SENDTO, Nanos::ZERO);
        let o2 = tracing.sys_exit(1, 2, SyscallNo::SENDTO, 8, Nanos::from_nanos(500));
        assert_eq!(o1, Nanos::from_nanos(200));
        assert_eq!(o2, Nanos::from_nanos(200));
        assert_eq!(tracing.stats().enters, 1);
        assert_eq!(tracing.stats().exits, 1);
        assert_eq!(tracing.stats().probe_overhead, Nanos::from_nanos(400));
        let detached = tracing.detach(id).unwrap();
        assert_eq!(detached.name(), "counting");
        assert_eq!(tracing.probe_count(), 0);
    }

    struct NetRecorder {
        seen: Vec<TracepointCtx>,
    }

    impl TracepointProbe for NetRecorder {
        fn name(&self) -> &str {
            "net-recorder"
        }
        fn fire(&mut self, ctx: &TracepointCtx) -> Nanos {
            self.seen.push(*ctx);
            Nanos::from_nanos(50)
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn net_tracepoints_dispatch_with_net_payload() {
        let mut tracing = Tracing::new();
        let id = tracing.attach(Box::new(NetRecorder { seen: Vec::new() }));
        let o1 = tracing.net_rx_softirq(42, 256, Nanos::from_micros(3), Nanos::from_micros(10));
        let o2 = tracing.sock_queue_drain(1, 2, 42, Nanos::from_micros(7), 4, Nanos::from_micros(20));
        assert_eq!(o1, Nanos::from_nanos(50));
        assert_eq!(o2, Nanos::from_nanos(50));
        assert_eq!(tracing.stats().net_rx, 1);
        assert_eq!(tracing.stats().sock_drains, 1);
        assert_eq!(tracing.stats().probe_overhead, Nanos::from_nanos(100));
        let mut probe = tracing.detach(id).unwrap();
        let rec = probe.as_any_mut().downcast_mut::<NetRecorder>().unwrap();
        let rx = rec.seen[0];
        assert_eq!(rx.phase, TracePhase::NetRxSoftirq);
        assert_eq!(rx.pid_tgid, 0, "softirq context has no current task");
        assert_eq!(rx.net.request, 42);
        assert_eq!(rx.net.stage_ns, 3_000);
        assert_eq!(rx.net.arg, 256);
        let drain = rec.seen[1];
        assert_eq!(drain.phase, TracePhase::SockQueueDrain);
        assert_eq!(drain.tgid(), 1);
        assert_eq!(drain.tid(), 2);
        assert_eq!(drain.net.stage_ns, 7_000);
        assert_eq!(drain.net.arg, 4);
    }

    #[test]
    fn no_probes_means_zero_overhead() {
        let mut tracing = Tracing::new();
        let o = tracing.sys_enter(1, 2, SyscallNo::READ, Nanos::ZERO);
        assert_eq!(o, Nanos::ZERO);
        tracing.sys_exit(1, 2, SyscallNo::READ, 0, Nanos::from_nanos(1));
    }

    #[test]
    fn interleaved_threads_pair_independently() {
        let mut tracing = Tracing::new();
        tracing.set_collect_trace(true);
        tracing.sys_enter(1, 2, SyscallNo::SELECT, Nanos::from_micros(0));
        tracing.sys_enter(1, 3, SyscallNo::RECVFROM, Nanos::from_micros(1));
        tracing.sys_exit(1, 3, SyscallNo::RECVFROM, 9, Nanos::from_micros(2));
        tracing.sys_exit(1, 2, SyscallNo::SELECT, 1, Nanos::from_micros(5));
        let trace = tracing.trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.events()[0].tid, 3);
        assert_eq!(trace.events()[1].tid, 2);
        assert_eq!(trace.events()[1].duration(), Nanos::from_micros(5));
    }

    #[test]
    fn take_trace_resets_collection() {
        let mut tracing = Tracing::new();
        tracing.set_collect_trace(true);
        tracing.sys_enter(1, 2, SyscallNo::READ, Nanos::ZERO);
        tracing.sys_exit(1, 2, SyscallNo::READ, 0, Nanos::from_nanos(10));
        let taken = tracing.take_trace();
        assert_eq!(taken.len(), 1);
        assert_eq!(tracing.trace().len(), 0);
    }

    #[test]
    #[should_panic(expected = "already inside")]
    fn nested_syscalls_panic() {
        let mut tracing = Tracing::new();
        tracing.sys_enter(1, 2, SyscallNo::READ, Nanos::ZERO);
        tracing.sys_enter(1, 2, SyscallNo::WRITE, Nanos::from_nanos(1));
    }

    #[test]
    #[should_panic(expected = "without entering")]
    fn unmatched_exit_panics() {
        let mut tracing = Tracing::new();
        tracing.sys_exit(1, 2, SyscallNo::READ, 0, Nanos::ZERO);
    }
}

#[cfg(test)]
mod probe_access_tests {
    use super::*;

    struct Tagged {
        tag: u32,
    }

    impl TracepointProbe for Tagged {
        fn name(&self) -> &str {
            "tagged"
        }
        fn fire(&mut self, _ctx: &TracepointCtx) -> Nanos {
            Nanos::ZERO
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn probe_mut_reaches_the_right_probe() {
        let mut tracing = Tracing::new();
        let a = tracing.attach(Box::new(Tagged { tag: 1 }));
        let b = tracing.attach(Box::new(Tagged { tag: 2 }));
        let probe_b = tracing.probe_mut(b).unwrap();
        let tagged = probe_b.as_any_mut().downcast_mut::<Tagged>().unwrap();
        assert_eq!(tagged.tag, 2);
        tagged.tag = 99;
        // Detach order is independent of attach order.
        let mut removed = tracing.detach(b).unwrap();
        assert_eq!(
            removed.as_any_mut().downcast_mut::<Tagged>().unwrap().tag,
            99
        );
        assert!(tracing.probe_mut(b).is_none());
        assert!(tracing.probe_mut(a).is_some());
    }

    #[test]
    fn detach_unknown_probe_is_none() {
        let mut tracing = Tracing::new();
        assert!(tracing.detach(ProbeId(7)).is_none());
    }
}
