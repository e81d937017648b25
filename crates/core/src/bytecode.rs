//! The bytecode metric backend: the paper's methodology as *actual eBPF
//! programs*, assembled, verified, and interpreted by `kscope-ebpf`.
//!
//! Two programs are generated per observed process, mirroring Listing 1's
//! structure:
//!
//! * **sys_enter** — filter tgid, filter the poll syscall, store
//!   `start[pid_tgid] = bpf_ktime_get_ns()`;
//! * **sys_exit** — filter tgid, classify the syscall into
//!   send/receive/poll, and update the twelve-cell stats map value:
//!   inter-exit deltas (scaled, with sum and sum-of-squares for Eq. 2) for
//!   send and receive, durations for poll.
//!
//! The tracepoint context handed to the programs is 16 bytes:
//! `[syscall id: u64][return value: u64]` — id and return value are the only
//! tracepoint fields the methodology reads; timestamps and pid come from
//! the `bpf_ktime_get_ns` / `bpf_get_current_pid_tgid` helpers, as in real
//! eBPF.

use std::sync::Arc;

use kscope_ebpf::asm::Asm;
use kscope_ebpf::insn::{OP_JLT, R0, R1, R2, R3, R4, R5, R6, R7, R8, R9, R10, SZ_DW, SZ_W};
use kscope_ebpf::interp::{ExecEnv, Vm};
use kscope_ebpf::maps::{MapDef, MapFd, MapRegistry};
use kscope_ebpf::verifier::{Verifier, VerifierConfig};
use kscope_ebpf::{cost_report, CostReport, Helper, Program};
use kscope_simcore::Nanos;
use kscope_syscalls::{Pid, SyscallProfile, SyscallRole, TracePhase, TracepointCtx};

use crate::counters::{offsets, RawCounters};
use crate::observer::MetricBackend;

/// Modeled cost of one interpreted eBPF instruction.
pub const NS_PER_INSN: f64 = 5.0;

/// Size of the context buffer the syscall programs receive.
pub const CTX_SIZE: usize = 16;

/// Size of the context buffer the network-stack programs receive:
/// `[request: u64][stage residency ns: u64][bytes or queue depth: u64]` —
/// the fields of the modeled `net_rx_softirq`/`sock_queue_drain`
/// tracepoints (see [`kscope_syscalls::NetCtx`]).
pub const NET_CTX_SIZE: usize = 24;

/// Buckets in the in-probe log2 histogram of poll durations.
pub const HIST_BUCKETS: usize = 64;

/// Byte offsets into the netstack probe's 32-byte `stack_stats` array
/// value.
pub mod stack_offsets {
    /// Completed time-in-stack samples.
    pub const COUNT: usize = 0;
    /// Sum of scaled time-in-stack samples.
    pub const SUM: usize = 8;
    /// Sum of squared scaled samples.
    pub const SUMSQ: usize = 16;
    /// Drain events whose request had no in-flight entry (e.g. the
    /// entry was evicted, or the rx edge was never seen).
    pub const MISSES: usize = 24;
    /// Total value size in bytes.
    pub const VALUE_SIZE: usize = 32;
}

/// Decoded `stack_stats` cells of the netstack probe.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StackCounters {
    /// Completed time-in-stack samples.
    pub count: u64,
    /// Sum of scaled samples.
    pub sum: u64,
    /// Sum of squared scaled samples.
    pub sumsq: u64,
    /// Drain events with no matching rx entry.
    pub misses: u64,
}

/// Errors from building the bytecode probe.
#[derive(Debug)]
pub enum BuildError {
    /// The generated program failed to assemble (a builder bug).
    Asm(kscope_ebpf::asm::AsmError),
    /// The generated program failed verification (a builder bug).
    Verify(kscope_ebpf::verifier::VerifyError),
    /// The probe's certified worst-case cost exceeds the registration
    /// budget (or no finite bound exists).
    CostBudget {
        /// Name of the offending program.
        program: String,
        /// Certified worst-case instruction bound (`None`: no finite
        /// bound could be certified).
        bound: Option<u64>,
        /// The budget the probe was registered against.
        budget: u64,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Asm(e) => write!(f, "assembly failed: {e}"),
            BuildError::Verify(e) => write!(f, "verification failed: {e}"),
            BuildError::CostBudget { program, bound: Some(bound), budget } => write!(
                f,
                "probe '{program}' worst-case cost {bound} insns exceeds budget {budget}"
            ),
            BuildError::CostBudget { program, bound: None, budget } => write!(
                f,
                "probe '{program}' has no finite cost bound (budget {budget})"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

/// The eBPF-executed observability probe.
///
/// # Examples
///
/// ```
/// use kscope_core::{BytecodeBackend, MetricBackend};
/// use kscope_simcore::Nanos;
/// use kscope_syscalls::{pid_tgid, NetCtx, SyscallNo, SyscallProfile, TracePhase, TracepointCtx};
///
/// let mut probe = BytecodeBackend::new(1200, SyscallProfile::data_caching(), 10).unwrap();
/// for i in 1..=3u64 {
///     probe.on_event(&TracepointCtx {
///         phase: TracePhase::Exit,
///         no: SyscallNo::SENDMSG,
///         pid_tgid: pid_tgid(1200, 1201),
///         ktime: Nanos::from_millis(i),
///         ret: 64,
///         net: NetCtx::NONE,
///     });
/// }
/// assert_eq!(probe.counters().send.count, 2);
/// ```
///
/// # Sharing one probe between instances
///
/// The programs sit behind [`Arc`]s, and [`BytecodeBackend::instantiate`]
/// makes a new instance that shares them — with their verifier proofs
/// and JIT code — but owns fresh, zeroed maps. That is sound because
/// nothing a built program carries depends on a map *instance*:
///
/// * Verification is a pure function of three inputs: the instructions,
///   the map definitions in fd order, and the verifier's `ctx_size`
///   ([`CTX_SIZE`] / [`NET_CTX_SIZE`]). The verifier reads no map
///   contents, only [`MapRegistry::def`].
/// * Every instance's registry is made by [`MapRegistry::fresh_like`]
///   from the registry the programs were verified against, so it is
///   layout-identical by construction: same definitions, same fds.
///   The same holds for the cost certificate, which reads only the
///   instructions.
/// * JIT code binds no map instance. It reaches maps only through the
///   descriptor table [`MapRegistry::runtime_descs`] of the registry it
///   runs against, built from that registry's own storage as its maps
///   are created; nothing about map storage is baked in at compile
///   time.
///
/// So each instance runs exactly the programs the registration checks
/// passed, against maps those checks describe.
#[derive(Debug)]
pub struct BytecodeBackend {
    maps: MapRegistry,
    vm: Vm,
    enter: Arc<Program>,
    exit: Arc<Program>,
    net_rx: Option<Arc<Program>>,
    sock_drain: Option<Arc<Program>>,
    stats_fd: MapFd,
    hist_fd: Option<MapFd>,
    sketch_fd: Option<MapFd>,
    stack_hist_fd: Option<MapFd>,
    stack_stats_fd: Option<MapFd>,
    shift: u32,
    tgids: Vec<Pid>,
    insns_executed: u64,
    faults: u64,
}

impl BytecodeBackend {
    /// Assembles and verifies the probe programs for one process.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if assembly or verification fails — which
    /// would indicate a bug in the program generator, not bad input.
    pub fn new(tgid: Pid, profile: SyscallProfile, shift: u32) -> Result<BytecodeBackend, BuildError> {
        BytecodeBackend::build(vec![tgid], profile, shift, false, None)
    }

    /// Like [`BytecodeBackend::new`], but the exit program additionally
    /// maintains a [`HIST_BUCKETS`]-bucket log2 histogram of scaled poll
    /// durations in its own array map. The bucket index is computed *in
    /// the probe* with a branch-free-of-loops bit ladder and used as a
    /// register offset into the map value — the access pattern the
    /// value-tracking verifier exists to admit.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] on generator bugs, as for
    /// [`BytecodeBackend::new`].
    pub fn new_with_histogram(
        tgid: Pid,
        profile: SyscallProfile,
        shift: u32,
    ) -> Result<BytecodeBackend, BuildError> {
        BytecodeBackend::build(vec![tgid], profile, shift, true, None)
    }

    /// Like [`BytecodeBackend::new_with_histogram`], but the exit
    /// program additionally folds each completed request (send exit)
    /// into a Top-K sketch map keyed by `pid_tgid` — the in-probe
    /// per-entity heavy-hitter structure whose bounded summary the
    /// fleet's O(K) reports carry. `sketch_capacity` is the candidate
    /// table size (the map's `max_entries`).
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] on generator bugs, as for
    /// [`BytecodeBackend::new`].
    pub fn new_with_histogram_and_sketch(
        tgid: Pid,
        profile: SyscallProfile,
        shift: u32,
        sketch_capacity: u32,
    ) -> Result<BytecodeBackend, BuildError> {
        BytecodeBackend::build(vec![tgid], profile, shift, true, Some(sketch_capacity))
    }

    /// Builds a probe observing several processes at once (multi-stage
    /// applications like Web Search aggregate every process into one
    /// stream, §V-B).
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] on generator bugs, as for
    /// [`BytecodeBackend::new`].
    ///
    /// # Panics
    ///
    /// Panics if `tgids` is empty.
    pub fn new_multi(
        tgids: Vec<Pid>,
        profile: SyscallProfile,
        shift: u32,
    ) -> Result<BytecodeBackend, BuildError> {
        BytecodeBackend::build(tgids, profile, shift, false, None)
    }

    fn build(
        tgids: Vec<Pid>,
        profile: SyscallProfile,
        shift: u32,
        histogram: bool,
        sketch_capacity: Option<u32>,
    ) -> Result<BytecodeBackend, BuildError> {
        assert!(!tgids.is_empty(), "observe at least one process");
        let mut maps = MapRegistry::new();
        let start_fd = maps.create("start", MapDef::hash(8, 8, 4096));
        let stats_fd = maps.create("stats", MapDef::array(offsets::VALUE_SIZE as u32, 1));
        let hist_fd = histogram
            .then(|| maps.create("poll_hist", MapDef::array((HIST_BUCKETS * 8) as u32, 1)));
        let sketch_fd =
            sketch_capacity.map(|cap| maps.create("topk", MapDef::topk_sketch(8, cap)));

        let send_no = profile.primary(SyscallRole::Send).raw() as i32;
        let recv_no = profile.primary(SyscallRole::Receive).raw() as i32;
        let poll_no = profile.primary(SyscallRole::Poll).raw() as i32;

        let enter = build_enter(&tgids, poll_no, start_fd).map_err(BuildError::Asm)?;
        let exit = build_exit(
            &tgids, send_no, recv_no, poll_no, shift, start_fd, stats_fd, hist_fd, sketch_fd,
        )
        .map_err(BuildError::Asm)?;

        let verifier = Verifier::new(VerifierConfig {
            ctx_size: CTX_SIZE,
            ..VerifierConfig::default()
        });
        verifier.verify(&enter, &maps).map_err(BuildError::Verify)?;
        verifier.verify(&exit, &maps).map_err(BuildError::Verify)?;

        Ok(BytecodeBackend {
            maps,
            vm: Vm::new(),
            enter: Arc::new(enter),
            exit: Arc::new(exit),
            net_rx: None,
            sock_drain: None,
            stats_fd,
            hist_fd,
            sketch_fd,
            stack_hist_fd: None,
            stack_stats_fd: None,
            shift,
            tgids,
            insns_executed: 0,
            faults: 0,
        })
    }

    /// A new instance of this probe: the same programs — shared, not
    /// copied, along with their verifier proofs and JIT code — over
    /// fresh maps with the same layout and nothing in them. The
    /// instance keeps this one's dispatch tier and starts with zero
    /// executed instructions and zero faults. This instance's map
    /// contents are never read. See the type-level docs for why the
    /// shared programs stay verified for the new maps.
    pub fn instantiate(&self) -> BytecodeBackend {
        let maps = self.maps.fresh_like();
        debug_assert!(
            maps.defs().eq(self.maps.defs()),
            "an instance's maps must match the verified layout in fd order"
        );
        BytecodeBackend {
            maps,
            // The VM holds the tier plus per-invocation scratch that
            // every execution resets.
            vm: self.vm.clone(),
            enter: Arc::clone(&self.enter),
            exit: Arc::clone(&self.exit),
            net_rx: self.net_rx.clone(),
            sock_drain: self.sock_drain.clone(),
            stats_fd: self.stats_fd,
            hist_fd: self.hist_fd,
            sketch_fd: self.sketch_fd,
            stack_hist_fd: self.stack_hist_fd,
            stack_stats_fd: self.stack_stats_fd,
            shift: self.shift,
            tgids: self.tgids.clone(),
            insns_executed: 0,
            faults: 0,
        }
    }

    /// Attaches the network-stack probe pair: `kscope_net_rx` on the
    /// modeled `net_rx_softirq` tracepoint records each request's NIC
    /// arrival timestamp in an in-flight hash map; `kscope_sock_drain` on
    /// `sock_queue_drain` looks it up, computes the request's total
    /// time-in-stack (NIC arrival to socket-queue drain), deletes the
    /// entry, and folds the scaled sample into a stats array and a
    /// [`HIST_BUCKETS`]-bucket log2 histogram — the same register-offset
    /// bit-ladder idiom as the poll histogram. Both the histogram and the
    /// stats cells are cumulative (never reset by `reset_window`), like
    /// the entity sketch, so fleet report envelopes can carry them
    /// directly.
    ///
    /// The netstack programs do **not** tgid-filter: `net_rx_softirq`
    /// fires in softirq context where `bpf_get_current_pid_tgid` reports
    /// whatever task the interrupt preempted, so a tgid filter there
    /// would drop valid packets (see DESIGN.md §7b).
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if assembly or verification of the netstack
    /// programs fails — a generator bug, as for [`BytecodeBackend::new`].
    pub fn with_netstack(mut self) -> Result<BytecodeBackend, BuildError> {
        let inflight_fd = self.maps.create("inflight_stack", MapDef::hash(8, 8, 4096));
        let stack_hist_fd = self
            .maps
            .create("stack_hist", MapDef::array((HIST_BUCKETS * 8) as u32, 1));
        let stack_stats_fd = self
            .maps
            .create("stack_stats", MapDef::array(stack_offsets::VALUE_SIZE as u32, 1));
        let net_rx = build_net_rx(inflight_fd).map_err(BuildError::Asm)?;
        let sock_drain = build_sock_drain(self.shift, inflight_fd, stack_stats_fd, stack_hist_fd)
            .map_err(BuildError::Asm)?;
        let verifier = Verifier::new(VerifierConfig {
            ctx_size: NET_CTX_SIZE,
            ..VerifierConfig::default()
        });
        verifier.verify(&net_rx, &self.maps).map_err(BuildError::Verify)?;
        verifier
            .verify(&sock_drain, &self.maps)
            .map_err(BuildError::Verify)?;
        self.net_rx = Some(Arc::new(net_rx));
        self.sock_drain = Some(Arc::new(sock_drain));
        self.stack_hist_fd = Some(stack_hist_fd);
        self.stack_stats_fd = Some(stack_stats_fd);
        Ok(self.precompiled())
    }

    /// Switches probe execution to the template JIT
    /// ([`Vm::with_jit`]): verified programs run as native x86-64 with
    /// verifier-proof bounds-check elision, falling back to the
    /// interpreter on unsupported programs or targets. Opting in never
    /// changes observable behavior — the differential suite holds the
    /// dispatchers bitwise-identical — only execution speed. The
    /// `NS_PER_INSN` cost model is unchanged: modeled probe cost stays
    /// comparable across dispatchers.
    ///
    /// Every attached program is compiled here, and so is any program a
    /// later builder attaches or swaps in: no event pays the compile.
    pub fn with_jit(mut self) -> BytecodeBackend {
        self.vm = self.vm.with_jit();
        self.precompiled()
    }

    /// Every attached program: the syscall pair, then the netstack pair
    /// when attached.
    fn all_programs(&self) -> impl Iterator<Item = &Program> {
        [
            Some(&self.enter),
            Some(&self.exit),
            self.net_rx.as_ref(),
            self.sock_drain.as_ref(),
        ]
        .into_iter()
        .flatten()
        .map(|p| &**p)
    }

    /// Compiles every attached program for the VM's tier now (a no-op
    /// off the JIT tier and for programs already compiled).
    fn precompiled(self) -> BytecodeBackend {
        for program in self.all_programs() {
            self.vm.precompile(program);
        }
        self
    }

    /// True when probe execution goes through the JIT dispatcher.
    pub fn uses_jit(&self) -> bool {
        self.vm.uses_jit()
    }

    /// Certified worst-case cost of the (enter, exit) programs.
    pub fn cost_reports(&self) -> (Option<CostReport>, Option<CostReport>) {
        (cost_report(&self.enter), cost_report(&self.exit))
    }

    /// Registration gate: checks both programs carry a finite certified
    /// worst-case instruction bound within `budget_insns`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::CostBudget`] naming the offending program
    /// when a bound is missing or exceeds the budget.
    pub fn check_cost_budget(&self, budget_insns: u64) -> Result<(), BuildError> {
        for prog in self.all_programs() {
            let over = |bound| BuildError::CostBudget {
                program: prog.name().to_string(),
                bound,
                budget: budget_insns,
            };
            match cost_report(prog) {
                None => return Err(over(None)),
                Some(c) if c.max_insns > budget_insns => {
                    return Err(over(Some(c.max_insns)))
                }
                Some(_) => {}
            }
        }
        Ok(())
    }

    /// The processes being observed.
    pub fn tgids(&self) -> &[Pid] {
        &self.tgids
    }

    /// Total eBPF instructions executed so far (the interpreter cost model).
    pub fn insns_executed(&self) -> u64 {
        self.insns_executed
    }

    /// Program runs that faulted. The kernel's semantics apply: a
    /// faulting run is aborted where it faulted, charged nothing, and
    /// counted here; map writes it made before the fault stay. The
    /// verifier's soundness claim is that this stays 0.
    pub fn faults(&self) -> u64 {
        self.faults
    }

    /// The assembled `sys_enter` and `sys_exit` programs, in that order
    /// (for acceptance-corpus tests and tooling).
    pub fn programs(&self) -> (&Program, &Program) {
        (&self.enter, &self.exit)
    }

    /// The assembled netstack programs `(kscope_net_rx,
    /// kscope_sock_drain)`, or `None` when the backend was built without
    /// [`BytecodeBackend::with_netstack`].
    pub fn net_programs(&self) -> Option<(&Program, &Program)> {
        Some((self.net_rx.as_ref()?, self.sock_drain.as_ref()?))
    }

    /// The map registry backing the programs.
    pub fn map_registry(&self) -> &MapRegistry {
        &self.maps
    }

    /// Disassembly of both programs (for documentation and debugging).
    pub fn disassembly(&self) -> String {
        format!("{}\n{}", self.enter.disassemble(), self.exit.disassemble())
    }

    /// Replaces the exit program with `exit` *without verifying it*, so
    /// tests can make a program fault at run time.
    #[cfg(test)]
    fn with_unverified_exit(mut self, exit: Program) -> BytecodeBackend {
        self.exit = Arc::new(exit);
        self
    }

    /// Array-map slot 0 of one of this backend's own maps. Both the
    /// stats and histogram maps are 1-entry arrays created in `build`,
    /// so the slot exists by construction.
    fn slot0(maps: &MapRegistry, fd: MapFd) -> &[u8] {
        match maps.lookup(fd, &0u32.to_le_bytes()) {
            Ok(Some(value)) => value,
            other => unreachable!("backend-owned array slot 0 missing: {other:?}"),
        }
    }

    fn slot0_mut(maps: &mut MapRegistry, fd: MapFd) -> &mut [u8] {
        match maps.lookup_mut(fd, &0u32.to_le_bytes()) {
            Ok(Some(value)) => value,
            other => unreachable!("backend-owned array slot 0 missing: {other:?}"),
        }
    }

    fn stats_value(&self) -> Vec<u8> {
        Self::slot0(&self.maps, self.stats_fd).to_vec()
    }

    /// The in-probe log2 histogram of scaled poll durations, or `None`
    /// when the backend was built without one. Bucket `i` counts polls
    /// with `floor(log2(max(duration >> shift, 1))) == i`.
    pub fn poll_histogram(&self) -> Option<[u64; HIST_BUCKETS]> {
        let fd = self.hist_fd?;
        let value = Self::slot0(&self.maps, fd);
        let mut out = [0u64; HIST_BUCKETS];
        for (i, chunk) in value.chunks_exact(8).enumerate() {
            match chunk.try_into() {
                Ok(bytes) => out[i] = u64::from_le_bytes(bytes),
                Err(_) => unreachable!("chunks_exact(8) yields 8-byte chunks"),
            }
        }
        Some(out)
    }

    /// The in-probe log2 histogram of scaled time-in-stack samples, or
    /// `None` when the backend was built without
    /// [`BytecodeBackend::with_netstack`]. Cumulative across windows
    /// (never reset by `reset_window`), like the entity sketch.
    pub fn stack_histogram(&self) -> Option<[u64; HIST_BUCKETS]> {
        let fd = self.stack_hist_fd?;
        let value = Self::slot0(&self.maps, fd);
        let mut out = [0u64; HIST_BUCKETS];
        for (i, chunk) in value.chunks_exact(8).enumerate() {
            match chunk.try_into() {
                Ok(bytes) => out[i] = u64::from_le_bytes(bytes),
                Err(_) => unreachable!("chunks_exact(8) yields 8-byte chunks"),
            }
        }
        Some(out)
    }

    /// The netstack probe's scalar stats cells, or `None` without
    /// [`BytecodeBackend::with_netstack`]. Cumulative across windows.
    pub fn stack_counters(&self) -> Option<StackCounters> {
        let fd = self.stack_stats_fd?;
        let value = Self::slot0(&self.maps, fd);
        let cell = |off: usize| -> u64 {
            match value[off..off + 8].try_into() {
                Ok(bytes) => u64::from_le_bytes(bytes),
                Err(_) => unreachable!("stack_stats value is 32 bytes"),
            }
        };
        Some(StackCounters {
            count: cell(stack_offsets::COUNT),
            sum: cell(stack_offsets::SUM),
            sumsq: cell(stack_offsets::SUMSQ),
            misses: cell(stack_offsets::MISSES),
        })
    }

    /// The in-probe Top-K entity sketch, or `None` when the backend was
    /// built without one. The sketch is cumulative across windows (it
    /// is never reset by `reset_window`), matching the cumulative
    /// counters the fleet's report envelopes carry.
    pub fn entity_sketch(&self) -> Option<&kscope_ebpf::SketchState> {
        let fd = self.sketch_fd?;
        match self.maps.sketch_state(fd) {
            Ok(state) => Some(state),
            Err(e) => unreachable!("backend-owned sketch map missing: {e:?}"),
        }
    }
}

impl MetricBackend for BytecodeBackend {
    fn on_event(&mut self, ctx: &TracepointCtx) -> Nanos {
        let mut syscall_buf = [0u8; CTX_SIZE];
        let mut net_buf = [0u8; NET_CTX_SIZE];
        let (program, buf): (&Program, &[u8]) = match ctx.phase {
            TracePhase::Enter | TracePhase::Exit => {
                syscall_buf[..8].copy_from_slice(&(ctx.no.raw() as u64).to_le_bytes());
                syscall_buf[8..16].copy_from_slice(&(ctx.ret as u64).to_le_bytes());
                let program = match ctx.phase {
                    TracePhase::Enter => &self.enter,
                    _ => &self.exit,
                };
                (program, &syscall_buf)
            }
            TracePhase::NetRxSoftirq | TracePhase::SockQueueDrain => {
                // Without the netstack pair attached, these tracepoints
                // have no program — real eBPF simply wouldn't be attached
                // there, so the firing is free.
                let program = match ctx.phase {
                    TracePhase::NetRxSoftirq => self.net_rx.as_ref(),
                    _ => self.sock_drain.as_ref(),
                };
                let Some(program) = program else {
                    return Nanos::ZERO;
                };
                net_buf[..8].copy_from_slice(&ctx.net.request.to_le_bytes());
                net_buf[8..16].copy_from_slice(&ctx.net.stage_ns.to_le_bytes());
                net_buf[16..24].copy_from_slice(&ctx.net.arg.to_le_bytes());
                (program, &net_buf)
            }
        };
        let mut env = ExecEnv {
            ktime_ns: ctx.ktime.as_nanos(),
            pid_tgid: ctx.pid_tgid,
            ..ExecEnv::default()
        };
        let Ok(outcome) = self.vm.execute(program, buf, &mut self.maps, &mut env) else {
            // Verified programs should never get here; if one does, it
            // is aborted and counted, as the kernel would, not allowed
            // to take the host down.
            self.faults += 1;
            return Nanos::ZERO;
        };
        self.insns_executed += outcome.insns_executed;
        Nanos::from_nanos((outcome.insns_executed as f64 * NS_PER_INSN).round() as u64)
    }

    fn counters(&self) -> RawCounters {
        RawCounters::decode(self.shift, &self.stats_value())
    }

    fn reset_window(&mut self) {
        let value = Self::slot0_mut(&mut self.maps, self.stats_fd);
        // Zero everything except the two last-timestamp cells, which chain
        // deltas across window boundaries.
        for off in [
            offsets::SEND_COUNT,
            offsets::SEND_SUM,
            offsets::SEND_SUMSQ,
            offsets::RECV_COUNT,
            offsets::RECV_SUM,
            offsets::RECV_SUMSQ,
            offsets::POLL_COUNT,
            offsets::POLL_SUM,
            offsets::POLL_SUMSQ,
            offsets::EVENTS,
        ] {
            value[off..off + 8].copy_from_slice(&0u64.to_le_bytes());
        }
        if let Some(fd) = self.hist_fd {
            Self::slot0_mut(&mut self.maps, fd).fill(0);
        }
    }

    fn backend_name(&self) -> &'static str {
        "ebpf-bytecode"
    }

    fn poll_histogram(&self) -> Option<[u64; HIST_BUCKETS]> {
        BytecodeBackend::poll_histogram(self)
    }

    fn stack_histogram(&self) -> Option<[u64; HIST_BUCKETS]> {
        BytecodeBackend::stack_histogram(self)
    }

    fn stack_counters(&self) -> Option<StackCounters> {
        BytecodeBackend::stack_counters(self)
    }
}

/// Emits the tgid filter: fall through when the tgid (already in `R2`)
/// matches any observed process, jump to `out` otherwise.
fn filter_tgids(mut asm: Asm, tgids: &[Pid]) -> Asm {
    for tgid in tgids {
        asm = asm.jeq_imm(R2, *tgid as i32, "tgid_ok");
    }
    asm.ja("out").label("tgid_ok")
}

/// Builds the `sys_enter` program: store the poll-entry timestamp.
fn build_enter(tgids: &[Pid], poll_no: i32, start_fd: MapFd) -> Result<Program, kscope_ebpf::asm::AsmError> {
    let asm = Asm::new("kscope_sys_enter")
        .mov64_reg(R9, R1) // save ctx
        .call(Helper::GetCurrentPidTgid)
        .mov64_reg(R6, R0)
        .mov64_reg(R2, R6)
        .rsh64_imm(R2, 32);
    filter_tgids(asm, tgids)
        .load(SZ_DW, R8, R9, 0) // args->id
        .jne_imm(R8, poll_no, "out")
        // start[pid_tgid] = bpf_ktime_get_ns()
        .store_reg(SZ_DW, R10, R6, -8)
        .call(Helper::KtimeGetNs)
        .store_reg(SZ_DW, R10, R0, -16)
        .ld_map_fd(R1, start_fd)
        .mov64_reg(R2, R10)
        .add64_imm(R2, -8)
        .mov64_reg(R3, R10)
        .add64_imm(R3, -16)
        .mov64_imm(R4, 0)
        .call(Helper::MapUpdateElem)
        .label("out")
        .mov64_imm(R0, 0)
        .exit()
        .assemble()
}

/// Builds the `sys_exit` program: classify and update the stats cells,
/// plus the optional in-probe log2 histogram of poll durations.
#[allow(clippy::too_many_arguments)]
fn build_exit(
    tgids: &[Pid],
    send_no: i32,
    recv_no: i32,
    poll_no: i32,
    shift: u32,
    start_fd: MapFd,
    stats_fd: MapFd,
    hist_fd: Option<MapFd>,
    sketch_fd: Option<MapFd>,
) -> Result<Program, kscope_ebpf::asm::AsmError> {
    let asm = Asm::new("kscope_sys_exit")
        .mov64_reg(R9, R1) // save ctx
        .call(Helper::GetCurrentPidTgid)
        .mov64_reg(R6, R0)
        .mov64_reg(R2, R6)
        .rsh64_imm(R2, 32);
    let mut asm = filter_tgids(asm, tgids)
        .load(SZ_DW, R8, R9, 0) // args->id
        .jeq_imm(R8, send_no, "send")
        .jeq_imm(R8, recv_no, "recv")
        .jeq_imm(R8, poll_no, "poll")
        .label("out")
        .mov64_imm(R0, 0)
        .exit();

    // Shared delta-section generator for send/recv.
    for (label, count_off, sum_off, sumsq_off, last_off) in [
        (
            "send",
            offsets::SEND_COUNT,
            offsets::SEND_SUM,
            offsets::SEND_SUMSQ,
            offsets::SEND_LAST_TS,
        ),
        (
            "recv",
            offsets::RECV_COUNT,
            offsets::RECV_SUM,
            offsets::RECV_SUMSQ,
            offsets::RECV_LAST_TS,
        ),
    ] {
        let ok = format!("{label}_ok");
        let delta = format!("{label}_delta");
        let fin = format!("{label}_done");
        asm = asm.label(label);
        if label == "send" {
            if let Some(sketch_fd) = sketch_fd {
                // Fold this request's entity (pid_tgid, still live in
                // R6) into the Top-K sketch with weight 1. One helper
                // call per completed request; the stats section below
                // starts fresh from R6/R10, so nothing it needs is
                // clobbered here.
                asm = asm
                    .store_reg(SZ_DW, R10, R6, -16)
                    .ld_map_fd(R1, sketch_fd)
                    .mov64_reg(R2, R10)
                    .add64_imm(R2, -16)
                    .mov64_imm(R3, 1)
                    .call(Helper::SketchUpdate);
            }
        }
        asm = asm
            // stats value pointer -> R7
            .store_imm(SZ_W, R10, -4, 0)
            .ld_map_fd(R1, stats_fd)
            .mov64_reg(R2, R10)
            .add64_imm(R2, -4)
            .call(Helper::MapLookupElem)
            .jne_imm(R0, 0, ok.clone())
            .mov64_imm(R0, 0)
            .exit()
            .label(ok)
            .mov64_reg(R7, R0)
            // events++
            .load(SZ_DW, R1, R7, offsets::EVENTS as i16)
            .add64_imm(R1, 1)
            .store_reg(SZ_DW, R7, R1, offsets::EVENTS as i16)
            // now -> R8; last -> R1; store new last
            .call(Helper::KtimeGetNs)
            .mov64_reg(R8, R0)
            .load(SZ_DW, R1, R7, last_off as i16)
            .store_reg(SZ_DW, R7, R8, last_off as i16)
            .jne_imm(R1, 0, delta.clone())
            .mov64_imm(R0, 0)
            .exit()
            .label(delta)
            // delta = now - last, scaled
            .mov64_reg(R2, R8)
            .sub64_reg(R2, R1)
            .rsh64_imm(R2, shift as i32)
            // count++
            .load(SZ_DW, R3, R7, count_off as i16)
            .add64_imm(R3, 1)
            .store_reg(SZ_DW, R7, R3, count_off as i16)
            // sum += delta
            .load(SZ_DW, R3, R7, sum_off as i16)
            .add64_reg(R3, R2)
            .store_reg(SZ_DW, R7, R3, sum_off as i16)
            // sum_sq += delta * delta
            .mov64_reg(R4, R2)
            .mul64_reg(R4, R2)
            .load(SZ_DW, R3, R7, sumsq_off as i16)
            .add64_reg(R3, R4)
            .store_reg(SZ_DW, R7, R3, sumsq_off as i16)
            .label(fin)
            .mov64_imm(R0, 0)
            .exit();
    }

    // Poll section: duration = now - start[pid_tgid].
    asm = asm
        .label("poll")
        .call(Helper::KtimeGetNs)
        .mov64_reg(R8, R0) // now
        .store_reg(SZ_DW, R10, R6, -16)
        .ld_map_fd(R1, start_fd)
        .mov64_reg(R2, R10)
        .add64_imm(R2, -16)
        .call(Helper::MapLookupElem)
        .jne_imm(R0, 0, "poll_have_start")
        .mov64_imm(R0, 0)
        .exit()
        .label("poll_have_start")
        .load(SZ_DW, R2, R0, 0) // start ts
        .mov64_reg(R3, R8)
        .sub64_reg(R3, R2) // duration
        .rsh64_imm(R3, shift as i32)
        .mov64_reg(R8, R3) // duration survives the next call in R8
        // stats value pointer -> R7
        .store_imm(SZ_W, R10, -4, 0)
        .ld_map_fd(R1, stats_fd)
        .mov64_reg(R2, R10)
        .add64_imm(R2, -4)
        .call(Helper::MapLookupElem)
        .jne_imm(R0, 0, "poll_ok")
        .mov64_imm(R0, 0)
        .exit()
        .label("poll_ok")
        .mov64_reg(R7, R0)
        // events++
        .load(SZ_DW, R1, R7, offsets::EVENTS as i16)
        .add64_imm(R1, 1)
        .store_reg(SZ_DW, R7, R1, offsets::EVENTS as i16)
        // poll count / sum / sumsq
        .load(SZ_DW, R1, R7, offsets::POLL_COUNT as i16)
        .add64_imm(R1, 1)
        .store_reg(SZ_DW, R7, R1, offsets::POLL_COUNT as i16)
        .load(SZ_DW, R1, R7, offsets::POLL_SUM as i16)
        .add64_reg(R1, R8)
        .store_reg(SZ_DW, R7, R1, offsets::POLL_SUM as i16)
        .mov64_reg(R4, R8)
        .mul64_reg(R4, R8)
        .load(SZ_DW, R1, R7, offsets::POLL_SUMSQ as i16)
        .add64_reg(R1, R4)
        .store_reg(SZ_DW, R7, R1, offsets::POLL_SUMSQ as i16);

    if let Some(hist_fd) = hist_fd {
        // bucket = floor(log2(duration)) via a loop-free bit ladder: the
        // duration is still in R8, the bucket accumulates in R6 (the
        // pid_tgid it held is dead by now). Each rung tests one power of
        // two with a forward jump, so the program stays a DAG.
        asm = asm.mov64_imm(R6, 0).ld_dw(R5, 1u64 << 32).jlt_reg(
            R8,
            R5,
            "hist_lt32",
        );
        asm = asm.add64_imm(R6, 32).rsh64_imm(R8, 32).label("hist_lt32");
        for k in [16, 8, 4, 2] {
            let skip = format!("hist_lt{k}");
            asm = asm
                .jmp_imm(OP_JLT, R8, 1i32 << k, skip.clone())
                .add64_imm(R6, k)
                .rsh64_imm(R8, k)
                .label(skip);
        }
        asm = asm
            .jmp_imm(OP_JLT, R8, 2, "hist_lt1")
            .add64_imm(R6, 1)
            .label("hist_lt1")
            // The ladder already bounds R6 to [0, 63]; the mask makes the
            // proof local (AND pins the tnum) and guards future edits.
            .and64_imm(R6, 63)
            .lsh64_imm(R6, 3) // byte offset of the 8-byte bucket cell
            // hist value pointer -> R0, then a *register-offset* increment.
            .store_imm(SZ_W, R10, -4, 0)
            .ld_map_fd(R1, hist_fd)
            .mov64_reg(R2, R10)
            .add64_imm(R2, -4)
            .call(Helper::MapLookupElem)
            .jeq_imm(R0, 0, "hist_done")
            .add64_reg(R0, R6)
            .load(SZ_DW, R1, R0, 0)
            .add64_imm(R1, 1)
            .store_reg(SZ_DW, R0, R1, 0)
            .label("hist_done");
    }

    asm = asm.mov64_imm(R0, 0).exit();

    asm.assemble()
}

/// Builds the `net_rx_softirq` program: reconstruct the request's NIC
/// arrival timestamp (`bpf_ktime_get_ns() - nic_wait`) and record it in
/// the in-flight hash map keyed by request id. No tgid filter — softirq
/// context has no meaningful current task (see
/// [`BytecodeBackend::with_netstack`]).
fn build_net_rx(inflight_fd: MapFd) -> Result<Program, kscope_ebpf::asm::AsmError> {
    Asm::new("kscope_net_rx")
        .mov64_reg(R9, R1) // save ctx
        .load(SZ_DW, R6, R9, 0) // args->request
        .load(SZ_DW, R7, R9, 8) // args->nic_wait_ns
        .call(Helper::KtimeGetNs)
        .mov64_reg(R8, R0)
        .sub64_reg(R8, R7) // NIC arrival = now - nic_wait
        // inflight[request] = nic_arrival
        .store_reg(SZ_DW, R10, R6, -8)
        .store_reg(SZ_DW, R10, R8, -16)
        .ld_map_fd(R1, inflight_fd)
        .mov64_reg(R2, R10)
        .add64_imm(R2, -8)
        .mov64_reg(R3, R10)
        .add64_imm(R3, -16)
        .mov64_imm(R4, 0)
        .call(Helper::MapUpdateElem)
        .mov64_imm(R0, 0)
        .exit()
        .assemble()
}

/// Builds the `sock_queue_drain` program: look up the request's NIC
/// arrival, compute total time-in-stack (`now - nic_arrival`), delete the
/// in-flight entry, and fold the scaled sample into the stats cells and
/// the log2 histogram (the same register-offset bit-ladder idiom the poll
/// histogram uses).
fn build_sock_drain(
    shift: u32,
    inflight_fd: MapFd,
    stack_stats_fd: MapFd,
    stack_hist_fd: MapFd,
) -> Result<Program, kscope_ebpf::asm::AsmError> {
    let mut asm = Asm::new("kscope_sock_drain")
        .mov64_reg(R9, R1) // save ctx
        .load(SZ_DW, R6, R9, 0) // args->request
        .store_reg(SZ_DW, R10, R6, -8)
        .ld_map_fd(R1, inflight_fd)
        .mov64_reg(R2, R10)
        .add64_imm(R2, -8)
        .call(Helper::MapLookupElem)
        .jne_imm(R0, 0, "have_entry")
        // Miss: the rx edge was never seen (or the entry was evicted);
        // count it so the estimator can report coverage.
        .store_imm(SZ_W, R10, -4, 0)
        .ld_map_fd(R1, stack_stats_fd)
        .mov64_reg(R2, R10)
        .add64_imm(R2, -4)
        .call(Helper::MapLookupElem)
        .jne_imm(R0, 0, "miss_ok")
        .mov64_imm(R0, 0)
        .exit()
        .label("miss_ok")
        .load(SZ_DW, R1, R0, stack_offsets::MISSES as i16)
        .add64_imm(R1, 1)
        .store_reg(SZ_DW, R0, R1, stack_offsets::MISSES as i16)
        .mov64_imm(R0, 0)
        .exit()
        .label("have_entry")
        .load(SZ_DW, R7, R0, 0) // NIC arrival ts
        .call(Helper::KtimeGetNs)
        .mov64_reg(R8, R0)
        .sub64_reg(R8, R7) // time-in-stack
        // The request is drained: drop the in-flight entry so the map
        // stays bounded by the number of genuinely in-flight requests.
        .ld_map_fd(R1, inflight_fd)
        .mov64_reg(R2, R10)
        .add64_imm(R2, -8)
        .call(Helper::MapDeleteElem)
        .rsh64_imm(R8, shift as i32) // scaled sample
        // stats value pointer -> R7
        .store_imm(SZ_W, R10, -4, 0)
        .ld_map_fd(R1, stack_stats_fd)
        .mov64_reg(R2, R10)
        .add64_imm(R2, -4)
        .call(Helper::MapLookupElem)
        .jne_imm(R0, 0, "stats_ok")
        .mov64_imm(R0, 0)
        .exit()
        .label("stats_ok")
        .mov64_reg(R7, R0)
        // count++
        .load(SZ_DW, R1, R7, stack_offsets::COUNT as i16)
        .add64_imm(R1, 1)
        .store_reg(SZ_DW, R7, R1, stack_offsets::COUNT as i16)
        // sum += sample
        .load(SZ_DW, R1, R7, stack_offsets::SUM as i16)
        .add64_reg(R1, R8)
        .store_reg(SZ_DW, R7, R1, stack_offsets::SUM as i16)
        // sumsq += sample * sample
        .mov64_reg(R4, R8)
        .mul64_reg(R4, R8)
        .load(SZ_DW, R1, R7, stack_offsets::SUMSQ as i16)
        .add64_reg(R1, R4)
        .store_reg(SZ_DW, R7, R1, stack_offsets::SUMSQ as i16);

    // bucket = floor(log2(max(sample, 1))) via the loop-free bit ladder;
    // the sample is in R8, the bucket accumulates in R6 (the request id
    // it held is dead by now).
    asm = asm
        .mov64_imm(R6, 0)
        .ld_dw(R5, 1u64 << 32)
        .jlt_reg(R8, R5, "shist_lt32")
        .add64_imm(R6, 32)
        .rsh64_imm(R8, 32)
        .label("shist_lt32");
    for k in [16, 8, 4, 2] {
        let skip = format!("shist_lt{k}");
        asm = asm
            .jmp_imm(OP_JLT, R8, 1i32 << k, skip.clone())
            .add64_imm(R6, k)
            .rsh64_imm(R8, k)
            .label(skip);
    }
    asm = asm
        .jmp_imm(OP_JLT, R8, 2, "shist_lt1")
        .add64_imm(R6, 1)
        .label("shist_lt1")
        .and64_imm(R6, 63)
        .lsh64_imm(R6, 3) // byte offset of the 8-byte bucket cell
        .store_imm(SZ_W, R10, -4, 0)
        .ld_map_fd(R1, stack_hist_fd)
        .mov64_reg(R2, R10)
        .add64_imm(R2, -4)
        .call(Helper::MapLookupElem)
        .jeq_imm(R0, 0, "shist_done")
        .add64_reg(R0, R6)
        .load(SZ_DW, R1, R0, 0)
        .add64_imm(R1, 1)
        .store_reg(SZ_DW, R0, R1, 0)
        .label("shist_done")
        .mov64_imm(R0, 0)
        .exit();

    asm.assemble()
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

    fn probe() -> BytecodeBackend {
        BytecodeBackend::new(1200, SyscallProfile::data_caching(), 0).unwrap()
    }

    #[test]
    fn programs_assemble_and_verify_for_all_profiles() {
        for profile in [
            SyscallProfile::tailbench(),
            SyscallProfile::data_caching(),
            SyscallProfile::web_search(),
            SyscallProfile::triton_grpc(),
            SyscallProfile::triton_http(),
        ] {
            BytecodeBackend::new(42, profile, 10).expect("builds");
        }
    }

    #[test]
    fn send_deltas_via_bytecode() {
        let mut p = probe();
        for t in [100, 300, 600] {
            p.on_event(&ctx(TracePhase::Exit, SyscallNo::SENDMSG, 1, t));
        }
        let c = p.counters();
        assert_eq!(c.send.count, 2);
        assert_eq!(c.send.sum, 500_000);
        assert_eq!(c.send_last_ts, 600_000);
        assert_eq!(c.events, 3);
        assert!(p.insns_executed() > 0);
    }

    #[test]
    fn poll_duration_via_bytecode() {
        let mut p = probe();
        p.on_event(&ctx(TracePhase::Enter, SyscallNo::EPOLL_WAIT, 1, 100));
        p.on_event(&ctx(TracePhase::Exit, SyscallNo::EPOLL_WAIT, 1, 450));
        let c = p.counters();
        assert_eq!(c.poll.count, 1);
        assert_eq!(c.poll.sum, 350_000);
    }

    #[test]
    fn tgid_filter_in_bytecode() {
        let mut p = probe();
        let mut foreign = ctx(TracePhase::Exit, SyscallNo::SENDMSG, 1, 100);
        foreign.pid_tgid = pid_tgid(7, 7);
        p.on_event(&foreign);
        assert_eq!(p.counters().events, 0);
    }

    #[test]
    fn disassembly_mentions_tracepoint_programs() {
        let p = probe();
        let dis = p.disassembly();
        assert!(dis.contains("kscope_sys_enter"));
        assert!(dis.contains("kscope_sys_exit"));
        assert!(dis.contains("call 14")); // bpf_get_current_pid_tgid
        assert!(dis.contains("call 5")); // bpf_ktime_get_ns
    }

    #[test]
    fn histogram_probe_verifies_and_buckets_poll_durations() {
        let mut p =
            BytecodeBackend::new_with_histogram(1200, SyscallProfile::data_caching(), 0).unwrap();
        // 350_000 ns: floor(log2) = 18 (2^18 = 262144 <= 350000 < 2^19).
        p.on_event(&ctx(TracePhase::Enter, SyscallNo::EPOLL_WAIT, 1, 100));
        p.on_event(&ctx(TracePhase::Exit, SyscallNo::EPOLL_WAIT, 1, 450));
        // 1_000 ns: floor(log2(1000)) = 9.
        p.on_event(&ctx(TracePhase::Enter, SyscallNo::EPOLL_WAIT, 2, 500));
        p.on_event(&TracepointCtx {
            phase: TracePhase::Exit,
            no: SyscallNo::EPOLL_WAIT,
            pid_tgid: pid_tgid(1200, 2),
            ktime: Nanos::from_nanos(501_000),
            ret: 1,
            net: NetCtx::NONE,
        });
        let hist = p.poll_histogram().expect("histogram enabled");
        assert_eq!(hist[18], 1, "350us poll lands in bucket 18: {hist:?}");
        assert_eq!(hist[9], 1, "1us poll lands in bucket 9: {hist:?}");
        assert_eq!(hist.iter().sum::<u64>(), 2);
        // Scalar counters keep working alongside the histogram.
        assert_eq!(p.counters().poll.count, 2);
    }

    #[test]
    fn histogram_edge_buckets() {
        let mut p =
            BytecodeBackend::new_with_histogram(1200, SyscallProfile::data_caching(), 0).unwrap();
        // Zero-length poll: bucket 0 (log2 clamped up from -inf).
        p.on_event(&ctx(TracePhase::Enter, SyscallNo::EPOLL_WAIT, 1, 100));
        p.on_event(&ctx(TracePhase::Exit, SyscallNo::EPOLL_WAIT, 1, 100));
        // 1 ns: also bucket 0.
        p.on_event(&ctx(TracePhase::Enter, SyscallNo::EPOLL_WAIT, 2, 200));
        p.on_event(&TracepointCtx {
            phase: TracePhase::Exit,
            no: SyscallNo::EPOLL_WAIT,
            pid_tgid: pid_tgid(1200, 2),
            ktime: Nanos::from_nanos(200_001),
            ret: 1,
            net: NetCtx::NONE,
        });
        let hist = p.poll_histogram().expect("histogram enabled");
        assert_eq!(hist[0], 2, "{hist:?}");
    }

    #[test]
    fn histogram_absent_without_opt_in() {
        let p = probe();
        assert!(p.poll_histogram().is_none());
        assert!(MetricBackend::poll_histogram(&p).is_none());
    }

    #[test]
    fn histogram_resets_with_window() {
        let mut p =
            BytecodeBackend::new_with_histogram(1200, SyscallProfile::data_caching(), 0).unwrap();
        p.on_event(&ctx(TracePhase::Enter, SyscallNo::EPOLL_WAIT, 1, 100));
        p.on_event(&ctx(TracePhase::Exit, SyscallNo::EPOLL_WAIT, 1, 450));
        p.reset_window();
        let hist = p.poll_histogram().expect("histogram enabled");
        assert_eq!(hist.iter().sum::<u64>(), 0);
    }

    fn sketch_probe(capacity: u32) -> BytecodeBackend {
        BytecodeBackend::new_with_histogram_and_sketch(
            1200,
            SyscallProfile::data_caching(),
            0,
            capacity,
        )
        .unwrap()
    }

    #[test]
    fn sketch_counts_send_exits_per_entity() {
        let mut p = sketch_probe(8);
        // tid 1 completes three requests, tid 2 one; a recv and a poll
        // exit must not touch the sketch.
        for (tid, t) in [(1, 100), (1, 200), (1, 300), (2, 400)] {
            p.on_event(&ctx(TracePhase::Exit, SyscallNo::SENDMSG, tid, t));
        }
        p.on_event(&ctx(TracePhase::Exit, SyscallNo::RECVMSG, 1, 500));
        p.on_event(&ctx(TracePhase::Enter, SyscallNo::EPOLL_WAIT, 1, 600));
        p.on_event(&ctx(TracePhase::Exit, SyscallNo::EPOLL_WAIT, 1, 700));

        let sketch = p.entity_sketch().expect("sketch enabled");
        assert_eq!(sketch.update_count(), 4, "only send exits update it");
        assert_eq!(sketch.total_weight(), 4);
        let heavy = pid_tgid(1200, 1).to_le_bytes();
        let light = pid_tgid(1200, 2).to_le_bytes();
        assert!(sketch.estimate(&heavy) >= 3);
        assert!(sketch.estimate(&light) >= 1);
        assert!(sketch.candidate_keys().any(|k| k == heavy));
        assert!(sketch.candidate_keys().any(|k| k == light));
    }

    #[test]
    fn sketch_is_cumulative_across_windows() {
        let mut p = sketch_probe(8);
        p.on_event(&ctx(TracePhase::Exit, SyscallNo::SENDMSG, 1, 100));
        p.reset_window();
        p.on_event(&ctx(TracePhase::Exit, SyscallNo::SENDMSG, 1, 200));
        let sketch = p.entity_sketch().expect("sketch enabled");
        assert_eq!(sketch.update_count(), 2, "reset_window leaves the sketch");
        // While the windowed counters did reset (only the post-reset
        // delta remains).
        assert_eq!(p.counters().send.count, 1);
    }

    #[test]
    fn sketch_absent_without_opt_in() {
        assert!(probe().entity_sketch().is_none());
    }

    #[test]
    fn sketch_probe_matches_userspace_replay() {
        let mut p = sketch_probe(16);
        let tids: Vec<u32> = (0..24).map(|i| 1 + i % 6).collect();
        for (i, &tid) in tids.iter().enumerate() {
            p.on_event(&ctx(TracePhase::Exit, SyscallNo::SENDMSG, tid, 100 * (i as u64 + 1)));
        }
        let mut replay = kscope_ebpf::SketchState::new(8, 16);
        for &tid in &tids {
            replay.update(&pid_tgid(1200, tid).to_le_bytes(), 1);
        }
        assert_eq!(p.entity_sketch().expect("sketch enabled"), &replay);
    }

    #[test]
    fn reset_window_preserves_delta_chain() {
        let mut p = probe();
        p.on_event(&ctx(TracePhase::Exit, SyscallNo::SENDMSG, 1, 100));
        p.on_event(&ctx(TracePhase::Exit, SyscallNo::SENDMSG, 1, 200));
        p.reset_window();
        assert_eq!(p.counters().send.count, 0);
        assert_eq!(p.counters().send_last_ts, 200_000);
        p.on_event(&ctx(TracePhase::Exit, SyscallNo::SENDMSG, 1, 350));
        assert_eq!(p.counters().send.sum, 150_000);
    }

    // --- netstack probe pair -------------------------------------------

    use kscope_syscalls::NetCtx as Net;

    fn net_ctx(phase: TracePhase, request: u64, stage_ns: u64, arg: u64, t_ns: u64) -> TracepointCtx {
        TracepointCtx {
            phase,
            // Net tracepoints are not syscalls; the kernel dispatches
            // them with a sentinel number and no current task.
            no: SyscallNo::from_raw(u32::MAX),
            pid_tgid: 0,
            ktime: Nanos::from_nanos(t_ns),
            ret: 0,
            net: Net {
                request,
                stage_ns,
                arg,
            },
        }
    }

    /// Every signal the probe has: histogram, sketch, netstack.
    fn full_probe(jit: bool) -> BytecodeBackend {
        let p = BytecodeBackend::new_with_histogram_and_sketch(
            1200,
            SyscallProfile::data_caching(),
            0,
            8,
        )
        .unwrap()
        .with_netstack()
        .unwrap();
        if jit {
            p.with_jit()
        } else {
            p
        }
    }

    /// One request's tracepoints: poll, rx, drain, recv, send.
    fn feed_request(p: &mut BytecodeBackend, tid: u32, request: u64, t_us: u64) {
        let (rx_ns, poll_exit, drain_ns) = ((t_us + 5) * 1_000, t_us + 10, (t_us + 12) * 1_000);
        p.on_event(&ctx(TracePhase::Enter, SyscallNo::EPOLL_WAIT, tid, t_us));
        p.on_event(&net_ctx(TracePhase::NetRxSoftirq, request, 500, 64, rx_ns));
        p.on_event(&ctx(TracePhase::Exit, SyscallNo::EPOLL_WAIT, tid, poll_exit));
        p.on_event(&net_ctx(TracePhase::SockQueueDrain, request, 0, 0, drain_ns));
        p.on_event(&ctx(TracePhase::Exit, SyscallNo::RECVMSG, tid, t_us + 15));
        p.on_event(&ctx(TracePhase::Exit, SyscallNo::SENDMSG, tid, t_us + 20));
    }

    /// Every map cell of the probe, keys and values alike.
    fn map_dump(p: &BytecodeBackend) -> String {
        format!("{:?}", p.map_registry())
    }

    #[test]
    fn instances_share_programs_and_start_from_empty_maps() {
        for jit in [false, true] {
            let mut source = full_probe(jit);
            // Live contents in the source must not reach an instance.
            feed_request(&mut source, 1, 1, 100);
            let a = source.instantiate();
            let b = source.instantiate();

            let (enter, exit) = source.programs();
            let (rx, drain) = source.net_programs().unwrap();
            for inst in [&a, &b] {
                assert!(std::ptr::eq(inst.programs().0, enter));
                assert!(std::ptr::eq(inst.programs().1, exit));
                let (irx, idrain) = inst.net_programs().unwrap();
                assert!(std::ptr::eq(irx, rx) && std::ptr::eq(idrain, drain));
                assert_eq!(inst.uses_jit(), jit);
                assert_eq!(inst.insns_executed(), 0);
                assert_eq!(inst.faults(), 0);
                assert_eq!(inst.counters(), RawCounters::new(0));
                assert_eq!(inst.poll_histogram(), Some([0; HIST_BUCKETS]));
                assert_eq!(inst.stack_counters(), Some(StackCounters::default()));
                assert_eq!(inst.stack_histogram(), Some([0; HIST_BUCKETS]));
                assert_eq!(inst.entity_sketch().unwrap().update_count(), 0);
                // Layout and contents both equal a probe built from
                // scratch, before any event.
                assert_eq!(map_dump(inst), map_dump(&full_probe(jit)));
            }
        }
    }

    #[test]
    fn instances_do_not_share_map_state() {
        for jit in [false, true] {
            let source = full_probe(jit);
            let mut a = source.instantiate();
            let mut b = source.instantiate();
            feed_request(&mut b, 2, 9, 50);
            let b_before = map_dump(&b);
            let source_before = map_dump(&source);
            for (i, t) in [100, 300, 600].into_iter().enumerate() {
                feed_request(&mut a, 1, i as u64, t);
            }
            assert_eq!(a.counters().send.count, 2);
            assert_eq!(a.stack_counters().unwrap().count, 3);
            assert_eq!(map_dump(&b), b_before, "jit={jit}");
            assert_eq!(map_dump(&source), source_before, "jit={jit}");
            // And B still runs on its own state.
            feed_request(&mut b, 2, 10, 700);
            assert_eq!(b.counters().send.count, 1);
            assert_eq!(b.stack_counters().unwrap().count, 2);
        }
    }

    #[test]
    fn a_faulting_program_is_aborted_and_counted() {
        // Reads past the end of the 16-byte context. The verifier rejects
        // it, so only an unverified install can run it.
        let faulting = || {
            Asm::new("faulting_exit")
                .load(SZ_DW, R0, R1, 64)
                .exit()
                .assemble()
                .unwrap()
        };
        for jit in [false, true] {
            let mut p = full_probe(jit);
            let verifier = Verifier::new(VerifierConfig {
                ctx_size: CTX_SIZE,
                ..VerifierConfig::default()
            });
            assert!(verifier.verify(&faulting(), p.map_registry()).is_err());
            p = p.with_unverified_exit(faulting());
            feed_request(&mut p, 1, 1, 100);
            // The request's three exits faulted; the verified enter and
            // netstack programs ran.
            assert_eq!(p.faults(), 3, "jit={jit}");
            let cost = p.on_event(&ctx(TracePhase::Exit, SyscallNo::SENDMSG, 1, 200));
            assert_eq!(cost, Nanos::ZERO);
            assert_eq!(p.faults(), 4);
            // The faulting program wrote nothing; the others' cells hold.
            assert_eq!(p.counters(), RawCounters::new(0));
            assert_eq!(p.poll_histogram(), Some([0; HIST_BUCKETS]));
            assert_eq!(p.entity_sketch().unwrap().update_count(), 0);
            assert_eq!(p.stack_counters().unwrap().count, 1);
            let start = p.map_registry().fd_by_name("start").unwrap();
            let key = pid_tgid(1200, 1).to_le_bytes();
            let stamp = p.map_registry().lookup(start, &key).unwrap();
            assert_eq!(stamp, Some(&100_000u64.to_le_bytes()[..]));
        }
    }

    fn netstack_probe(shift: u32) -> BytecodeBackend {
        BytecodeBackend::new(1200, SyscallProfile::data_caching(), shift)
            .unwrap()
            .with_netstack()
            .unwrap()
    }

    #[test]
    fn netstack_programs_verify_and_certify_finite_cost() {
        let p = netstack_probe(6);
        let (rx, drain) = p.net_programs().expect("netstack attached");
        assert_eq!(rx.name(), "kscope_net_rx");
        assert_eq!(drain.name(), "kscope_sock_drain");
        // Both programs must carry a finite certified worst-case bound,
        // together with the syscall pair (the registration gate).
        p.check_cost_budget(10_000).expect("finite cost bound");
    }

    #[test]
    fn netstack_absent_without_opt_in() {
        let p = probe();
        assert!(p.net_programs().is_none());
        assert!(BytecodeBackend::stack_histogram(&p).is_none());
        assert!(p.stack_counters().is_none());
        // Un-attached tracepoints cost nothing.
        let mut p = p;
        let cost = p.on_event(&net_ctx(TracePhase::NetRxSoftirq, 1, 0, 64, 1_000));
        assert_eq!(cost, Nanos::ZERO);
    }

    #[test]
    fn netstack_rx_to_drain_measures_time_in_stack() {
        let mut p = netstack_probe(0);
        // NIC arrival at 95_000 (rx fires at 100_000 after a 5_000ns ring
        // wait); drained from the socket queue at 130_000.
        p.on_event(&net_ctx(TracePhase::NetRxSoftirq, 7, 5_000, 512, 100_000));
        p.on_event(&net_ctx(TracePhase::SockQueueDrain, 7, 30_000, 0, 130_000));
        let c = p.stack_counters().expect("netstack attached");
        assert_eq!(c.count, 1);
        assert_eq!(c.sum, 35_000); // 130_000 - (100_000 - 5_000)
        assert_eq!(c.sumsq, 35_000 * 35_000);
        assert_eq!(c.misses, 0);
        let hist = BytecodeBackend::stack_histogram(&p).expect("netstack attached");
        // floor(log2(35_000)) == 15.
        assert_eq!(hist[15], 1);
        assert_eq!(hist.iter().sum::<u64>(), 1);
        // The in-flight entry is deleted on drain: a second drain for the
        // same request is a miss.
        p.on_event(&net_ctx(TracePhase::SockQueueDrain, 7, 0, 0, 140_000));
        assert_eq!(p.stack_counters().unwrap().misses, 1);
        assert_eq!(p.stack_counters().unwrap().count, 1);
    }

    #[test]
    fn netstack_scaling_shift_applies() {
        let mut p = netstack_probe(10);
        p.on_event(&net_ctx(TracePhase::NetRxSoftirq, 3, 5_000, 64, 100_000));
        p.on_event(&net_ctx(TracePhase::SockQueueDrain, 3, 0, 0, 130_000));
        let c = p.stack_counters().unwrap();
        assert_eq!(c.sum, 35_000 >> 10); // 34
        let hist = BytecodeBackend::stack_histogram(&p).unwrap();
        assert_eq!(hist[5], 1); // floor(log2(34)) == 5
    }

    #[test]
    fn netstack_drain_without_rx_is_a_miss() {
        let mut p = netstack_probe(0);
        p.on_event(&net_ctx(TracePhase::SockQueueDrain, 99, 1_000, 0, 50_000));
        let c = p.stack_counters().unwrap();
        assert_eq!(c.count, 0);
        assert_eq!(c.misses, 1);
        assert_eq!(
            BytecodeBackend::stack_histogram(&p).unwrap().iter().sum::<u64>(),
            0
        );
    }

    #[test]
    fn netstack_cells_are_cumulative_across_reset_window() {
        let mut p = netstack_probe(0);
        p.on_event(&net_ctx(TracePhase::NetRxSoftirq, 1, 0, 64, 10_000));
        p.on_event(&net_ctx(TracePhase::SockQueueDrain, 1, 0, 0, 20_000));
        p.reset_window();
        let c = p.stack_counters().unwrap();
        assert_eq!(c.count, 1, "reset_window must not clear stack stats");
        assert_eq!(
            BytecodeBackend::stack_histogram(&p).unwrap().iter().sum::<u64>(),
            1,
            "reset_window must not clear the stack histogram"
        );
    }

    #[test]
    fn netstack_matches_native_mirror_and_survives_jit() {
        use crate::native::NativeBackend;
        let shift = 6;
        let mut plain = netstack_probe(shift);
        let mut jit = BytecodeBackend::new(1200, SyscallProfile::data_caching(), shift)
            .unwrap()
            .with_netstack()
            .unwrap()
            .with_jit();
        let mut native =
            NativeBackend::new(1200, SyscallProfile::data_caching(), shift).with_netstack();
        // A stream with overlapping requests, misses, and reordering.
        let events = [
            net_ctx(TracePhase::NetRxSoftirq, 1, 2_000, 100, 50_000),
            net_ctx(TracePhase::NetRxSoftirq, 2, 0, 200, 52_000),
            net_ctx(TracePhase::SockQueueDrain, 1, 10_000, 1, 62_000),
            net_ctx(TracePhase::SockQueueDrain, 5, 0, 0, 63_000), // miss
            net_ctx(TracePhase::NetRxSoftirq, 3, 7_500, 300, 70_000),
            net_ctx(TracePhase::SockQueueDrain, 3, 100, 0, 170_000),
            net_ctx(TracePhase::SockQueueDrain, 2, 0, 0, 1_052_000),
        ];
        for ev in &events {
            plain.on_event(ev);
            jit.on_event(ev);
            native.on_event(ev);
        }
        let expect = plain.stack_counters().unwrap();
        assert_eq!(expect, jit.stack_counters().unwrap());
        assert_eq!(Some(expect), native.stack_counters());
        let hist = BytecodeBackend::stack_histogram(&plain).unwrap();
        assert_eq!(hist, BytecodeBackend::stack_histogram(&jit).unwrap());
        assert_eq!(Some(hist), MetricBackend::stack_histogram(&native));
        assert_eq!(expect.count, 3);
        assert_eq!(expect.misses, 1);
    }
}
