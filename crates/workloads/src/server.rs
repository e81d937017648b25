//! The discrete-event server: clients, network, kernel, and application
//! threads assembled into one running system.
//!
//! [`ServerSim`] implements [`Simulation`] over the [`Ev`] event vocabulary
//! and reproduces the request path of Fig. 1(a): an open-loop client sends
//! requests through the netem link into per-connection channels; server
//! threads block in poll syscalls, receive, compute on contended cores,
//! optionally hand off across stages, and send responses back through the
//! link. Every syscall passes through the kernel's tracepoints, so attached
//! probes (eBPF or native) observe exactly what Listing 1 would.

use std::collections::{BTreeMap, HashMap};

use kscope_kernel::{
    ChannelId, EpollId, Kernel, Message, RxPacket, SchedConfig, SoftirqDelivery, StackStamps,
};
use kscope_netem::{NetemConfig, NetemPath};
use kscope_simcore::hash::FastBuildHasher;
use kscope_simcore::{Dist, Nanos, Scheduler, SimRng, Simulation};
use kscope_syscalls::{Pid, SyscallNo, SyscallRole, Tid};

use crate::spec::{ThreadingModel, WorkloadSpec};

/// Events of the server simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ev {
    /// The open-loop client emits the next request.
    Arrival,
    /// A request's packet reaches the host NIC ring (it still has to cross
    /// the softirq/NAPI stage before it is readable from the socket).
    Delivered {
        /// Destination connection.
        conn: ChannelId,
        /// Request token.
        request: u64,
        /// Payload size.
        bytes: u32,
    },
    /// The softirq raised for pending NIC-ring packets runs (NAPI batch
    /// processing; see [`kscope_kernel::IngressQueue`]).
    Softirq,
    /// A thread's poll syscall returns (immediately or via wakeup).
    PollExit {
        /// The polling thread.
        tid: Tid,
    },
    /// A thread's current fast syscall (recv/send/forward) completes.
    SyscallExit {
        /// The thread inside the syscall.
        tid: Tid,
    },
    /// A thread's CPU slice finishes.
    ComputeDone {
        /// The computing thread.
        tid: Tid,
    },
    /// The client receives a response.
    ResponseArrived {
        /// Completed request token.
        request: u64,
    },
}

/// One completed request, with client-side timestamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Request token.
    pub request: u64,
    /// When the client issued it.
    pub created: Nanos,
    /// When the client received the response.
    pub finished: Nanos,
}

impl Completion {
    /// End-to-end latency as the client perceives it.
    pub fn latency(&self) -> Nanos {
        self.finished.saturating_sub(self.created)
    }
}

/// What a thread does with a message popped from a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AfterPop {
    /// Compute the service demand, then send the response to the client.
    ComputeAndRespond,
    /// Compute (parse or service), then forward to another channel,
    /// optionally through a traced syscall.
    ComputeAndForward {
        to: ChannelId,
        via: Option<SyscallNo>,
        /// true: use the parse-cost distribution; false: full service time.
        parse: bool,
    },
    /// No compute: send the (already computed) response to the client.
    Respond,
}

/// Per-channel behaviour.
#[derive(Debug, Clone, Copy)]
struct ChanCfg {
    /// Syscall used to pop a message (`None` = in-process queue pop).
    pop_syscall: Option<SyscallNo>,
    after: AfterPop,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Recv,
    Compute,
    Forward,
    Send { remaining: u32 },
}

#[derive(Debug, Clone, Copy)]
struct Work {
    request: u64,
    bytes: u32,
    phase: Phase,
    after: AfterPop,
    /// io_uring-style request: its recv/send I/O bypasses the syscall
    /// layer and is invisible to the tracepoints (§V-C).
    bypass: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TState {
    /// Blocked inside the poll syscall.
    Blocked,
    /// Poll syscall in flight (exit event scheduled or wakeup pending).
    Polling,
    /// Inside a fast syscall.
    InSyscall,
    /// Waiting for a core.
    AwaitCpu,
    /// Running on a core.
    Computing,
}

#[derive(Debug)]
struct ThreadRt {
    tid: Tid,
    pid: Pid,
    epoll: EpollId,
    poll_no: SyscallNo,
    state: TState,
    batch: Vec<ChannelId>,
    cur: Option<Work>,
    /// In-flight fast syscall: (number, return value).
    pending_syscall: Option<(SyscallNo, i64)>,
    /// Forward destination while inside a handoff syscall.
    pending_forward: Option<ChannelId>,
}

impl ThreadRt {
    /// A thread of `pid` that starts inside its poll syscall `poll_no`
    /// on `epoll`.
    fn new(tid: Tid, pid: Pid, epoll: EpollId, poll_no: SyscallNo) -> ThreadRt {
        ThreadRt {
            tid,
            pid,
            epoll,
            poll_no,
            state: TState::Polling,
            batch: Vec::new(),
            cur: None,
            pending_syscall: None,
            pending_forward: None,
        }
    }
}

/// Every server thread's runtime state, indexed by `tid - first`: the
/// server spawns all of its tasks, and the task table hands out ids from
/// one counter, so they form one dense range in ascending tid order.
#[derive(Debug, Default)]
struct ThreadTable {
    first: Tid,
    rts: Vec<ThreadRt>,
}

impl ThreadTable {
    /// Lays out `threads`, checking their tids are one contiguous range.
    fn dense(threads: BTreeMap<Tid, ThreadRt>) -> ThreadTable {
        let rts: Vec<ThreadRt> = threads.into_values().collect();
        let first = rts[0].tid;
        assert_eq!(
            rts[rts.len() - 1].tid - first,
            rts.len() as Tid - 1,
            "server tids are contiguous"
        );
        ThreadTable { first, rts }
    }

    fn thread_mut(&mut self, tid: Tid) -> &mut ThreadRt {
        &mut self.rts[(tid - self.first) as usize]
    }
}

/// The assembled server simulation.
///
/// Construct with [`ServerSim::new`], seed the engine with
/// [`ServerSim::install`], then drive the engine; read results from
/// [`ServerSim::completions`] and the [`Kernel`]'s tracing state.
#[derive(Debug)]
pub struct ServerSim {
    spec: WorkloadSpec,
    kernel: Kernel,
    path: NetemPath,
    rng_arrival: SimRng,
    rng_service: SimRng,
    rng_net: SimRng,
    rng_sched: SimRng,
    rng_misc: SimRng,
    /// Softirq batch-processing jitter (separate stream so the ingress
    /// pipeline does not disturb netem/service sampling sequences).
    rng_softirq: SimRng,
    threads: ThreadTable,
    /// Per-channel behaviour, indexed by channel id.
    chan_cfg: Vec<ChanCfg>,
    conns: Vec<ChannelId>,
    next_conn: usize,
    inter_arrival: Dist,
    offered_until: Nanos,
    next_request: u64,
    in_flight: HashMap<u64, Nanos, FastBuildHasher>,
    completions: Vec<Completion>,
    /// Reused output buffer of the softirq handler.
    rx_batch: Vec<SoftirqDelivery>,
    offered_count: u64,
    /// Wakeup latency from delivery to poll return.
    wake_cost: Nanos,
    /// End of the current contention convoy (see `begin_compute`).
    convoy_until: Nanos,
}

impl ServerSim {
    /// Builds a server for `spec`, offered an open-loop Poisson load of
    /// `offered_rps` until `offered_until`, over a symmetric netem path.
    ///
    /// # Panics
    ///
    /// Panics if `offered_rps` is not positive.
    pub fn new(
        spec: WorkloadSpec,
        offered_rps: f64,
        netem: NetemConfig,
        seed: u64,
        offered_until: Nanos,
    ) -> ServerSim {
        assert!(offered_rps > 0.0, "offered load must be positive");
        let mut root = SimRng::seed_from_u64(seed);
        let mut sim = ServerSim {
            kernel: Kernel::new(spec.cores, SchedConfig::default()),
            rng_arrival: root.fork(1),
            rng_service: root.fork(2),
            rng_net: root.fork(3),
            rng_sched: root.fork(4),
            rng_misc: root.fork(5),
            rng_softirq: root.fork(6),
            path: NetemPath::symmetric(netem),
            threads: ThreadTable::default(),
            chan_cfg: Vec::new(),
            conns: Vec::new(),
            next_conn: 0,
            inter_arrival: Dist::exponential(1e9 / offered_rps),
            offered_until,
            next_request: 0,
            in_flight: HashMap::default(),
            completions: Vec::new(),
            rx_batch: Vec::new(),
            offered_count: 0,
            wake_cost: Nanos::from_micros(1),
            convoy_until: Nanos::ZERO,
            spec,
        };
        sim.wire_threads();
        sim
    }

    /// The kernel (scheduler, channels, tracing — attach probes here).
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Mutable kernel access.
    pub fn kernel_mut(&mut self) -> &mut Kernel {
        &mut self.kernel
    }

    /// The workload being served.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Completed requests so far.
    pub fn completions(&self) -> &[Completion] {
        &self.completions
    }

    /// Consumes the simulation, returning the kernel (with its collected
    /// trace and attached probes).
    pub fn into_kernel(self) -> Kernel {
        self.kernel
    }

    /// The process ids of the server application (one per process; two for
    /// the two-stage model). Probes filter on these.
    pub fn server_pids(&self) -> Vec<Pid> {
        let mut pids: Vec<Pid> = self.threads.rts.iter().map(|t| t.pid).collect();
        pids.sort_unstable();
        pids.dedup();
        pids
    }

    /// Builds processes, threads, connections, queues, and epolls for the
    /// spec's threading model.
    fn wire_threads(&mut self) {
        let recv_no = self.spec.profile.primary(SyscallRole::Receive);
        let send_no = self.spec.profile.primary(SyscallRole::Send);
        let poll_no = self.spec.profile.primary(SyscallRole::Poll);
        let mut threads = BTreeMap::new();
        match self.spec.threading.clone() {
            ThreadingModel::SingleThreaded | ThreadingModel::WorkerPool { .. } => {
                let workers = match self.spec.threading {
                    ThreadingModel::WorkerPool { workers } => workers,
                    _ => 1,
                };
                let pid = self.kernel.tasks.spawn_process(self.spec.name.clone());
                let epolls = self.spawn_pollers(&mut threads, pid, workers, "worker", poll_no);
                self.add_conns(&epolls, AfterPop::ComputeAndRespond);
            }
            ThreadingModel::TwoStage {
                frontend_threads,
                backend_workers,
            } => {
                let fe_pid = self
                    .kernel
                    .tasks
                    .spawn_process(format!("{}-frontend", self.spec.name));
                let be_pid = self
                    .kernel
                    .tasks
                    .spawn_process(format!("{}-backend", self.spec.name));
                let stage_q = self.kernel.channels.create();
                let reply_q = self.kernel.channels.create();
                let forward = |to, parse| AfterPop::ComputeAndForward {
                    to,
                    via: Some(send_no),
                    parse,
                };
                self.set_behaviour(stage_q, Some(recv_no), forward(reply_q, false));
                self.set_behaviour(reply_q, Some(recv_no), AfterPop::Respond);
                // Front-end threads: private epolls over conn partitions;
                // thread 0 additionally watches the reply socket.
                let fe_epolls =
                    self.spawn_pollers(&mut threads, fe_pid, frontend_threads, "fe", poll_no);
                self.kernel.epolls.watch(fe_epolls[0], reply_q);
                // Back-end workers share one epoll on the stage socket.
                let be_ep = self.kernel.epolls.create();
                self.kernel.epolls.watch(be_ep, stage_q);
                for w in 0..backend_workers {
                    let tid = if w == 0 {
                        be_pid
                    } else {
                        self.spawn_thread(be_pid, format!("be-{w}"))
                    };
                    threads.insert(tid, ThreadRt::new(tid, be_pid, be_ep, poll_no));
                }
                self.add_conns(&fe_epolls, forward(stage_q, true));
            }
            ThreadingModel::DispatchPool {
                network_threads,
                workers,
            } => {
                let pid = self.kernel.tasks.spawn_process(self.spec.name.clone());
                let worker_q = self.kernel.channels.create();
                self.set_behaviour(worker_q, None, AfterPop::ComputeAndRespond);
                let net_epolls =
                    self.spawn_pollers(&mut threads, pid, network_threads, "net", poll_no);
                // Workers share one wait queue, blocking via futex (their
                // waits must not count toward the poll-family metrics).
                let worker_ep = self.kernel.epolls.create();
                self.kernel.epolls.watch(worker_ep, worker_q);
                for w in 0..workers {
                    let tid = self.spawn_thread(pid, format!("compute-{w}"));
                    threads.insert(tid, ThreadRt::new(tid, pid, worker_ep, SyscallNo::FUTEX));
                }
                let after = AfterPop::ComputeAndForward {
                    to: worker_q,
                    via: None,
                    parse: true,
                };
                self.add_conns(&net_epolls, after);
            }
        }
        self.threads = ThreadTable::dense(threads);
    }

    fn spawn_thread(&mut self, pid: Pid, name: String) -> Tid {
        self.kernel
            .tasks
            .spawn_thread(pid, name)
            .unwrap_or_else(|| unreachable!("the server pid was spawned at startup"))
    }

    /// Starts `count` threads of `pid` (thread 0 is its main thread), each
    /// polling a private new epoll instance; returns those instances.
    fn spawn_pollers(
        &mut self,
        threads: &mut BTreeMap<Tid, ThreadRt>,
        pid: Pid,
        count: u32,
        name: &str,
        poll_no: SyscallNo,
    ) -> Vec<EpollId> {
        (0..count)
            .map(|w| {
                let tid = if w == 0 {
                    pid
                } else {
                    self.spawn_thread(pid, format!("{name}-{w}"))
                };
                let ep = self.kernel.epolls.create();
                threads.insert(tid, ThreadRt::new(tid, pid, ep, poll_no));
                ep
            })
            .collect()
    }

    /// Creates the client connections, spread round-robin over `epolls`;
    /// each pops with the receive syscall, then does `after`.
    fn add_conns(&mut self, epolls: &[EpollId], after: AfterPop) {
        let recv_no = self.spec.profile.primary(SyscallRole::Receive);
        for c in 0..self.spec.connections as usize {
            let conn = self.kernel.channels.create();
            self.kernel.epolls.watch(epolls[c % epolls.len()], conn);
            self.conns.push(conn);
            self.set_behaviour(conn, Some(recv_no), after);
        }
    }

    /// Records a new channel's behaviour; channels register in creation
    /// order, so `chan_cfg` stays indexed by channel id.
    fn set_behaviour(
        &mut self,
        channel: ChannelId,
        pop_syscall: Option<SyscallNo>,
        after: AfterPop,
    ) {
        assert_eq!(
            channel.0 as usize,
            self.chan_cfg.len(),
            "channels register in creation order"
        );
        self.chan_cfg.push(ChanCfg { pop_syscall, after });
    }

    /// Schedules the initial events: the setup-phase syscalls are emitted
    /// (the socket/bind/listen/epoll_ctl noise of Fig. 1b), all threads
    /// enter their poll loop, and the client arrival process starts.
    pub fn install(&mut self, engine: &mut kscope_simcore::Engine<Ev>) {
        let boot_end = self.emit_setup_syscalls();
        engine.schedule(boot_end, Ev::Arrival);
        // Threads start polling after setup; do the bookkeeping directly
        // (nothing is readable yet, so every thread blocks).
        for rt in &mut self.threads.rts {
            self.kernel
                .tracing
                .sys_enter(rt.pid, rt.tid, rt.poll_no, boot_end);
            self.kernel.epolls.block(rt.epoll, rt.tid);
            rt.state = TState::Blocked;
        }
    }

    /// Emits the setup-phase syscall events: per process socket/bind/listen,
    /// per thread epoll_create1 plus one epoll_ctl per watched channel.
    /// Returns the instant setup completes.
    fn emit_setup_syscalls(&mut self) -> Nanos {
        let cost = self.spec.syscall_cost;
        let mut t = Nanos::ZERO;
        let emit = |tracing: &mut kscope_kernel::Tracing,
                    pid: Pid,
                    tid: Tid,
                    no: SyscallNo,
                    ret: i64,
                    t: &mut Nanos| {
            tracing.sys_enter(pid, tid, no, *t);
            *t += cost;
            tracing.sys_exit(pid, tid, no, ret, *t);
            *t += Nanos::from_nanos(200);
        };
        let mut seen_pids = Vec::new();
        let tracing = &mut self.kernel.tracing;
        for rt in &self.threads.rts {
            let (tid, pid) = (rt.tid, rt.pid);
            if tid == pid && !seen_pids.contains(&pid) {
                seen_pids.push(pid);
                emit(tracing, pid, tid, SyscallNo::SOCKET, 3, &mut t);
                emit(tracing, pid, tid, SyscallNo::BIND, 0, &mut t);
                emit(tracing, pid, tid, SyscallNo::LISTEN, 0, &mut t);
            }
        }
        for rt in &self.threads.rts {
            let (tid, pid) = (rt.tid, rt.pid);
            emit(
                tracing,
                pid,
                tid,
                SyscallNo::EPOLL_CREATE1,
                rt.epoll.0 as i64 + 4,
                &mut t,
            );
            for _ in self.kernel.epolls.watched(rt.epoll) {
                emit(tracing, pid, tid, SyscallNo::EPOLL_CTL, 0, &mut t);
            }
        }
        t
    }

    /// Emits the shutdown-phase syscall events (close per connection, exit
    /// per process) at `now`; call once, after the engine is done, to
    /// complete the Fig. 1b lifecycle. The main thread's in-flight syscall
    /// (usually a blocked poll) is terminated first, as process exit would.
    pub fn emit_shutdown_syscalls(&mut self, now: Nanos) {
        let cost = self.spec.syscall_cost;
        let mut t = now;
        // Main thread of the first process closes every connection.
        let rt = &mut self.threads.rts[0];
        let (main_tid, main_pid) = (rt.tid, rt.pid);
        // Terminate whatever syscall the main thread is inside.
        match rt.state {
            TState::Blocked | TState::Polling => {
                self.kernel
                    .tracing
                    .sys_exit(main_pid, main_tid, rt.poll_no, 0, t);
            }
            TState::InSyscall => {
                if let Some((no, ret)) = rt.pending_syscall.take() {
                    self.kernel.tracing.sys_exit(main_pid, main_tid, no, ret, t);
                }
            }
            _ => {}
        }
        t += Nanos::from_nanos(200);
        for _ in 0..self.conns.len() {
            self.kernel
                .tracing
                .sys_enter(main_pid, main_tid, SyscallNo::CLOSE, t);
            t += cost;
            self.kernel
                .tracing
                .sys_exit(main_pid, main_tid, SyscallNo::CLOSE, 0, t);
            t += Nanos::from_nanos(200);
        }
        self.kernel
            .tracing
            .sys_enter(main_pid, main_tid, SyscallNo::EXIT, t);
        self.kernel
            .tracing
            .sys_exit(main_pid, main_tid, SyscallNo::EXIT, 0, t + cost);
    }

    // --- thread control flow -------------------------------------------

    /// The thread (re-)enters its poll syscall at `at`.
    fn thread_poll(&mut self, tid: Tid, at: Nanos, sched: &mut Scheduler<'_, Ev>) {
        let rt = self.threads.thread_mut(tid);
        rt.cur = None;
        let (pid, poll_no, epoll) = (rt.pid, rt.poll_no, rt.epoll);
        let oh = self.kernel.tracing.sys_enter(pid, tid, poll_no, at);
        self.kernel
            .epolls
            .ready_into(epoll, &self.kernel.channels, &mut rt.batch);
        if rt.batch.is_empty() {
            self.kernel.epolls.block(epoll, tid);
            rt.state = TState::Blocked;
        } else {
            rt.state = TState::Polling;
            let exit_at = at.max(sched.now()) + self.spec.poll_cost + oh;
            sched.at(exit_at, Ev::PollExit { tid });
        }
    }

    /// Completes the poll syscall at the current instant and starts the
    /// next batch of work.
    fn handle_poll_exit(&mut self, tid: Tid, sched: &mut Scheduler<'_, Ev>) {
        let now = sched.now();
        let rt = self.threads.thread_mut(tid);
        debug_assert!(matches!(rt.state, TState::Polling));
        let (pid, poll_no, epoll) = (rt.pid, rt.poll_no, rt.epoll);
        self.kernel
            .epolls
            .ready_into(epoll, &self.kernel.channels, &mut rt.batch);
        let ready = rt.batch.len() as i64;
        let oh = self.kernel.tracing.sys_exit(pid, tid, poll_no, ready, now);
        self.start_next_item(tid, now + oh, sched);
    }

    /// Picks the next ready channel in the thread's batch and begins its
    /// pop (recv) step; re-polls when the batch is drained.
    fn start_next_item(&mut self, tid: Tid, at: Nanos, sched: &mut Scheduler<'_, Ev>) {
        loop {
            let rt = self.threads.thread_mut(tid);
            let pid = rt.pid;
            let Some(channel) = rt.batch.pop() else {
                self.thread_poll(tid, at, sched);
                return;
            };
            // The message may have been consumed by a sibling thread
            // sharing the queue; skip silently (spurious readiness).
            let Some(msg) = self.kernel.channels.recv(channel) else {
                continue;
            };
            let cfg = self.chan_cfg[channel.0 as usize];
            // Popping a network-delivered message drains the socket
            // receive queue: fire `sock_queue_drain` with the message's
            // queue residency (softirq delivery to now) and the depth
            // left behind. Internal handoffs (no stack stamps) are not
            // socket drains and stay silent.
            let at = if msg.stack.is_some() {
                let residency = at.saturating_sub(msg.enqueued_at);
                let depth = self.kernel.channels.pending(channel) as u64;
                let oh = self.kernel.tracing.sock_queue_drain(
                    pid,
                    tid,
                    msg.request,
                    residency,
                    depth,
                    at,
                );
                at + oh
            } else {
                at
            };
            let bypass = self.spec.syscall_bypass_fraction > 0.0
                && self.rng_misc.next_bool(self.spec.syscall_bypass_fraction);
            let work = Work {
                request: msg.request,
                bytes: msg.bytes,
                phase: Phase::Recv,
                after: cfg.after,
                bypass,
            };
            let rt = self.threads.thread_mut(tid);
            rt.cur = Some(work);
            match cfg.pop_syscall {
                Some(no) if !bypass => {
                    rt.state = TState::InSyscall;
                    let oh = self.kernel.tracing.sys_enter(pid, tid, no, at);
                    sched.at(at + self.spec.syscall_cost + oh, Ev::SyscallExit { tid });
                    rt.pending_syscall = Some((no, msg.bytes as i64));
                }
                Some(_) => {
                    // io_uring-style receive: same I/O time, no tracepoint.
                    rt.state = TState::InSyscall;
                    sched.at(at + self.spec.syscall_cost, Ev::SyscallExit { tid });
                }
                None => {
                    // In-process queue pop: negligible fixed cost, no trace.
                    self.begin_compute(tid, at + Nanos::from_nanos(200), sched);
                }
            }
            return;
        }
    }

    /// Submits the thread's compute demand to the scheduler.
    fn begin_compute(&mut self, tid: Tid, at: Nanos, sched: &mut Scheduler<'_, Ev>) {
        let work = {
            let rt = self.threads.thread_mut(tid);
            let work = rt
                .cur
                .as_mut()
                .unwrap_or_else(|| unreachable!("the scheduler only runs threads holding work"));
            work.phase = Phase::Compute;
            *work
        };
        if matches!(work.after, AfterPop::Respond) {
            // Egress: no compute, go straight to sending.
            self.begin_send(tid, at, sched);
            return;
        }
        let parse = matches!(work.after, AfterPop::ComputeAndForward { parse: true, .. });
        let mut demand = if parse {
            self.spec.parse_cost.sample_nanos(&mut self.rng_service)
        } else {
            self.spec.service_time.sample_nanos(&mut self.rng_service)
        };
        // Saturation contention (lock convoys): once the run queue is deep,
        // contention epochs start in which every request's demand is
        // inflated; completions stall during the convoy and flush as a
        // burst afterwards. This is the mechanism behind the rising
        // inter-send variance of Fig. 3 ("increased contention among
        // concurrent requests", §IV-C1).
        if !parse && self.spec.collision_p_max > 0.0 {
            let in_convoy = at < self.convoy_until;
            if in_convoy {
                let factor = self.spec.collision_factor.sample(&mut self.rng_service);
                demand = Nanos::from_nanos((demand.as_nanos() as f64 * factor) as u64);
            } else {
                // Pressure = requests backed up in socket/stage queues; it
                // stays near zero below the knee and grows without bound
                // past it, making it a clean saturation discriminator.
                let pending = self.kernel.channels.total_pending() as f64;
                let threads = self.threads.rts.len() as f64;
                let cores = self.spec.cores as f64;
                // Start probability is normalized by core count so convoy
                // duty cycle is scale-free across workloads; only backlogs
                // deeper than the thread pool (sustained saturation, not an
                // arrival transient) can trigger a convoy.
                let p = (self.spec.collision_p_max / cores)
                    * ((pending - threads) / (pending + 3.0 * threads));
                if pending > threads && self.rng_service.next_bool(p) {
                    let dur = 12.0 * self.spec.service_time.mean();
                    self.convoy_until = at + Nanos::from_nanos(dur as u64);
                    let factor = self.spec.collision_factor.sample(&mut self.rng_service);
                    demand = Nanos::from_nanos((demand.as_nanos() as f64 * factor) as u64);
                }
            }
        }
        self.threads.thread_mut(tid).state = TState::AwaitCpu;
        if let Some(grant) =
            self.kernel
                .sched
                .submit(tid, demand, at.max(sched.now()), &mut self.rng_sched)
        {
            let rt = self.threads.thread_mut(tid);
            rt.state = TState::Computing;
            sched.at(grant.finish, Ev::ComputeDone { tid });
        }
    }

    /// Handles compute completion: frees the core (possibly dispatching a
    /// queued sibling) and advances this thread to its post-compute step.
    fn handle_compute_done(&mut self, tid: Tid, sched: &mut Scheduler<'_, Ev>) {
        let now = sched.now();
        if let Some(next) = self.kernel.sched.complete(tid, now, &mut self.rng_sched) {
            let rt = self.threads.thread_mut(next.tid);
            debug_assert_eq!(rt.state, TState::AwaitCpu);
            rt.state = TState::Computing;
            sched.at(next.finish, Ev::ComputeDone { tid: next.tid });
        }
        let rt = self.threads.thread_mut(tid);
        let work = rt
            .cur
            .unwrap_or_else(|| unreachable!("the scheduler only runs threads holding work"));
        match work.after {
            AfterPop::ComputeAndRespond => self.begin_send(tid, now, sched),
            AfterPop::ComputeAndForward { to, via, .. } => match via {
                Some(no) => {
                    let rt = self.threads.thread_mut(tid);
                    rt.state = TState::InSyscall;
                    rt.cur = Some(Work {
                        phase: Phase::Forward,
                        ..work
                    });
                    let pid = rt.pid;
                    let oh = if work.bypass {
                        Nanos::ZERO
                    } else {
                        let oh = self.kernel.tracing.sys_enter(pid, tid, no, now);
                        rt.pending_syscall = Some((no, work.bytes as i64));
                        oh
                    };
                    rt.pending_forward = Some(to);
                    sched.at(now + self.spec.syscall_cost + oh, Ev::SyscallExit { tid });
                }
                None => {
                    self.deliver_internal(to, work.request, work.bytes, now, sched);
                    self.start_next_item(tid, now, sched);
                }
            },
            AfterPop::Respond => self.begin_send(tid, now, sched),
        }
    }

    /// Starts the response-send sequence (one or more send syscalls).
    fn begin_send(&mut self, tid: Tid, at: Nanos, sched: &mut Scheduler<'_, Ev>) {
        let sends = self
            .spec
            .sends_per_request
            .sample_count(&mut self.rng_misc, 1) as u32;
        let rt = self.threads.thread_mut(tid);
        let work = rt
            .cur
            .as_mut()
            .unwrap_or_else(|| unreachable!("the scheduler only runs threads holding work"));
        work.phase = Phase::Send {
            remaining: sends - 1,
        };
        let (pid, bytes, bypass) = (rt.pid, work.bytes, work.bypass);
        rt.state = TState::InSyscall;
        let send_no = self.spec.profile.primary(SyscallRole::Send);
        let oh = if bypass {
            Nanos::ZERO
        } else {
            let oh = self.kernel.tracing.sys_enter(pid, tid, send_no, at);
            rt.pending_syscall = Some((send_no, bytes as i64));
            oh
        };
        sched.at(
            at.max(sched.now()) + self.spec.syscall_cost + oh,
            Ev::SyscallExit { tid },
        );
    }

    /// Completes the thread's in-flight fast syscall and advances its FSM.
    fn handle_syscall_exit(&mut self, tid: Tid, sched: &mut Scheduler<'_, Ev>) {
        let now = sched.now();
        let rt = self.threads.thread_mut(tid);
        let pid = rt.pid;
        // Bypassed (io_uring) I/O has no tracepoint to exit from.
        let oh = match rt.pending_syscall.take() {
            Some((no, ret)) => self.kernel.tracing.sys_exit(pid, tid, no, ret, now),
            None => Nanos::ZERO,
        };
        let work = rt
            .cur
            .unwrap_or_else(|| unreachable!("the scheduler only runs threads holding work"));
        match work.phase {
            Phase::Recv => self.begin_compute(tid, now + oh, sched),
            Phase::Forward => {
                let to = rt.pending_forward.take().unwrap_or_else(|| {
                    unreachable!("the forward target was recorded before dispatch")
                });
                self.deliver_internal(to, work.request, work.bytes, now, sched);
                self.start_next_item(tid, now + oh, sched);
            }
            Phase::Send { remaining } => {
                if remaining > 0 {
                    let rt = self.threads.thread_mut(tid);
                    rt.cur = Some(Work {
                        phase: Phase::Send {
                            remaining: remaining - 1,
                        },
                        ..work
                    });
                    let send_no = self.spec.profile.primary(SyscallRole::Send);
                    let oh2 = if work.bypass {
                        Nanos::ZERO
                    } else {
                        let oh2 = self.kernel.tracing.sys_enter(pid, tid, send_no, now + oh);
                        rt.pending_syscall = Some((send_no, work.bytes as i64));
                        oh2
                    };
                    sched.at(
                        now + oh + self.spec.syscall_cost + oh2,
                        Ev::SyscallExit { tid },
                    );
                } else {
                    // Response leaves the server.
                    let transit = self.path.response.send(&mut self.rng_net);
                    sched.at(
                        now + transit.delay,
                        Ev::ResponseArrived {
                            request: work.request,
                        },
                    );
                    self.start_next_item(tid, now + oh, sched);
                }
            }
            Phase::Compute => unreachable!("compute is not a syscall"),
        }
    }

    /// Runs one softirq/NAPI batch: drains up to a budget of NIC-ring
    /// packets into their socket receive queues, firing the
    /// `net_rx_softirq` tracepoint per packet and waking epoll waiters.
    /// Budget exhaustion re-schedules the remainder (ksoftirqd).
    fn handle_softirq(&mut self, sched: &mut Scheduler<'_, Ev>) {
        let now = sched.now();
        let mut batch = std::mem::take(&mut self.rx_batch);
        let next = self
            .kernel
            .ingress
            .run_softirq(now, &mut self.rng_softirq, &mut batch);
        for d in &batch {
            let nic_wait = d.delivered_at.saturating_sub(d.nic_at);
            let oh = self.kernel.tracing.net_rx_softirq(
                d.packet.request,
                d.packet.bytes,
                nic_wait,
                d.delivered_at,
            );
            self.kernel.channels.deliver(
                d.packet.conn,
                Message {
                    request: d.packet.request,
                    bytes: d.packet.bytes,
                    enqueued_at: d.delivered_at,
                    stack: Some(StackStamps {
                        nic_at: d.nic_at,
                        softirq_at: d.delivered_at,
                    }),
                },
            );
            // Probe overhead runs in softirq context: it delays the wakeup
            // of the draining thread, not the enqueue itself.
            self.wake_watchers(d.packet.conn, d.delivered_at + oh, sched);
        }
        self.rx_batch = batch;
        if let Some(next) = next {
            sched.at(next, Ev::Softirq);
        }
    }

    /// Delivers a message to an internal channel and wakes a waiter.
    ///
    /// Internal handoffs never cross the network stack, so the message
    /// carries no [`StackStamps`] and the drain tracepoint stays silent.
    fn deliver_internal(
        &mut self,
        channel: ChannelId,
        request: u64,
        bytes: u32,
        now: Nanos,
        sched: &mut Scheduler<'_, Ev>,
    ) {
        self.kernel
            .channels
            .deliver(channel, Message::internal(request, bytes, now));
        self.wake_watchers(channel, now, sched);
    }

    fn wake_watchers(&mut self, channel: ChannelId, now: Nanos, sched: &mut Scheduler<'_, Ev>) {
        let (threads, wake_at) = (&mut self.threads, now + self.wake_cost);
        self.kernel.epolls.wake(channel, |_, tid| {
            let rt = threads.thread_mut(tid);
            debug_assert_eq!(rt.state, TState::Blocked);
            rt.state = TState::Polling;
            sched.at(wake_at, Ev::PollExit { tid });
        });
    }

    fn handle_arrival(&mut self, sched: &mut Scheduler<'_, Ev>) {
        let now = sched.now();
        if now >= self.offered_until {
            return;
        }
        let request = self.next_request;
        self.next_request += 1;
        self.offered_count += 1;
        self.in_flight.insert(request, now);
        let conn = self.conns[self.next_conn % self.conns.len()];
        self.next_conn += 1;
        let bytes = self.rng_misc.next_range(100, 1_400) as u32;
        let transit = self.path.request.send(&mut self.rng_net);
        sched.at(
            now + transit.delay,
            Ev::Delivered {
                conn,
                request,
                bytes,
            },
        );
        let gap = self.inter_arrival.sample_nanos(&mut self.rng_arrival);
        sched.after(gap, Ev::Arrival);
    }

    fn handle_response(&mut self, request: u64, now: Nanos) {
        if let Some(created) = self.in_flight.remove(&request) {
            self.completions.push(Completion {
                request,
                created,
                finished: now,
            });
        }
    }
}

impl Simulation for ServerSim {
    type Event = Ev;

    fn handle(&mut self, event: Ev, sched: &mut Scheduler<'_, Ev>) {
        match event {
            Ev::Arrival => self.handle_arrival(sched),
            Ev::Delivered {
                conn,
                request,
                bytes,
            } => {
                let now = sched.now();
                // NIC arrival: the packet enters the ring and (if no
                // softirq is already pending) raises one. A full ring
                // drops the packet, exactly like a real NIC under
                // overload — the request is simply never answered.
                let packet = RxPacket {
                    conn,
                    request,
                    bytes,
                };
                if let Some(raise_at) = self.kernel.ingress.enqueue(packet, now) {
                    sched.at(raise_at, Ev::Softirq);
                }
            }
            Ev::Softirq => self.handle_softirq(sched),
            Ev::PollExit { tid } => self.handle_poll_exit(tid, sched),
            Ev::SyscallExit { tid } => self.handle_syscall_exit(tid, sched),
            Ev::ComputeDone { tid } => self.handle_compute_done(tid, sched),
            Ev::ResponseArrived { request } => self.handle_response(request, sched.now()),
        }
    }
}
