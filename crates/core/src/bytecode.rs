//! The bytecode metric backend: the paper's methodology as *actual eBPF
//! programs*, assembled by `kscope-ebpf` and run by the probe runtime
//! ([`ProgramProbe`]) on the JIT, which falls back to the interpreter by
//! itself where it cannot compile.
//!
//! A [`ProbeSet`] describes the probe; [`ProbeSet::build`] turns it into a
//! running [`BytecodeBackend`]. The core is Listing 1's program pair:
//!
//! * **sys_enter** — filter tgid, filter the poll syscall, store
//!   `start[pid_tgid] = bpf_ktime_get_ns()`;
//! * **sys_exit** — filter tgid, classify the syscall into
//!   send/receive/poll, and update the twelve-cell stats map value:
//!   inter-exit deltas (scaled, with sum and sum-of-squares for Eq. 2) for
//!   send and receive, durations for poll.
//!
//! The programs read the runtime's tracepoint contexts (see
//! [`ProgramProbe`]'s context ABI): syscall id and return value are the
//! only syscall tracepoint fields the methodology reads; timestamps and
//! pid come from the `bpf_ktime_get_ns` / `bpf_get_current_pid_tgid`
//! helpers, as in real eBPF.

use std::sync::Arc;

use kscope_ebpf::asm::{Asm, AsmError};
use kscope_ebpf::insn::{OP_JLT, R0, R1, R10, R2, R3, R4, R5, R6, R7, R8, R9, SZ_DW, SZ_W};
use kscope_ebpf::maps::{MapDef, MapFd, MapRegistry};
use kscope_ebpf::{Helper, Program};
use kscope_simcore::Nanos;
use kscope_syscalls::{Pid, SyscallProfile, SyscallRole, TracePhase, TracepointCtx};

use crate::counters::{offsets, RawCounters};
use crate::observer::MetricBackend;
use crate::runtime::{BuildError, ProgramProbe};

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

/// The paper's probe as one declarative program set: Listing 1's
/// `sys_enter`/`sys_exit` pair over the observed processes, plus the
/// optional signals kscope adds to it. [`ProbeSet::build`] is the one
/// path that turns a set into a running [`BytecodeBackend`].
///
/// The `with_*` steps only switch a signal on, so their order does not
/// matter: `build` always lays out the maps and programs the same way.
///
/// # Examples
///
/// ```
/// use kscope_core::{MetricBackend, ProbeSet};
/// use kscope_syscalls::SyscallProfile;
///
/// let probe = ProbeSet::new(vec![1200], SyscallProfile::data_caching(), 10)
///     .with_poll_histogram()
///     .with_netstack()
///     .build()
///     .unwrap();
/// assert!(probe.net_programs().is_some());
/// assert_eq!(probe.poll_histogram(), Some([0; 64]));
/// assert!(probe.entity_sketch().is_none());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeSet {
    tgids: Vec<Pid>,
    profile: SyscallProfile,
    shift: u32,
    poll_histogram: bool,
    sketch_capacity: Option<u32>,
    netstack: bool,
}

impl ProbeSet {
    /// The syscall pair alone, observing every process in `tgids`
    /// (multi-stage applications like Web Search aggregate every process
    /// into one stream, §V-B), with deltas and durations scaled by
    /// `>> shift`.
    ///
    /// # Panics
    ///
    /// Panics if `tgids` is empty.
    pub fn new(tgids: Vec<Pid>, profile: SyscallProfile, shift: u32) -> ProbeSet {
        assert!(!tgids.is_empty(), "observe at least one process");
        ProbeSet {
            tgids,
            profile,
            shift,
            poll_histogram: false,
            sketch_capacity: None,
            netstack: false,
        }
    }

    /// Adds a [`HIST_BUCKETS`]-bucket log2 histogram of scaled poll
    /// durations, kept by the exit program in its own array map and
    /// cleared with each window. The bucket index is computed *in the
    /// probe* with a loop-free bit ladder and used as a register offset
    /// into the map value — the access pattern the value-tracking
    /// verifier exists to admit.
    pub fn with_poll_histogram(mut self) -> ProbeSet {
        self.poll_histogram = true;
        self
    }

    /// Adds a Top-K entity sketch: the exit program folds each completed
    /// request (send exit) into a sketch map keyed by `pid_tgid` — the
    /// in-probe per-entity heavy-hitter structure whose bounded summary
    /// the fleet's O(K) reports carry. `capacity` is the candidate table
    /// size (the map's `max_entries`). The sketch is cumulative across
    /// windows.
    pub fn with_entity_sketch(mut self, capacity: u32) -> ProbeSet {
        self.sketch_capacity = Some(capacity);
        self
    }

    /// Adds the network-stack probe pair: `kscope_net_rx` on the modeled
    /// `net_rx_softirq` tracepoint records each request's NIC arrival
    /// timestamp in an in-flight hash map; `kscope_sock_drain` on
    /// `sock_queue_drain` looks it up, computes the request's total
    /// time-in-stack (NIC arrival to socket-queue drain), deletes the
    /// entry, and folds the scaled sample into a stats array and a
    /// [`HIST_BUCKETS`]-bucket log2 histogram. Both are cumulative (never
    /// reset by `reset_window`), like the entity sketch, so fleet report
    /// envelopes can carry them directly.
    ///
    /// The netstack programs do **not** tgid-filter: `net_rx_softirq`
    /// fires in softirq context where `bpf_get_current_pid_tgid` reports
    /// whatever task the interrupt preempted, so a tgid filter there
    /// would drop valid packets (see DESIGN.md §7b).
    pub fn with_netstack(mut self) -> ProbeSet {
        self.netstack = true;
        self
    }

    /// Builds the probe. This is the only code that creates the probe's
    /// maps, always in the fd order `start`, `stats`, `poll_hist`,
    /// `topk`, `inflight_stack`, `stack_hist`, `stack_stats` (leaving out
    /// the maps of absent signals), and assembles its programs. It hands
    /// them to the probe runtime's registration ([`ProgramProbe`]),
    /// which verifies each against its tracepoint's context
    /// ([`CTX_SIZE`](crate::CTX_SIZE) for the syscall pair,
    /// [`NET_CTX_SIZE`](crate::NET_CTX_SIZE) for the netstack pair),
    /// rejects any whose certified worst-case bound exceeds
    /// [`PROBE_COST_BUDGET`](crate::PROBE_COST_BUDGET), and compiles every
    /// program on the template JIT
    /// ([`Vm::with_jit`](kscope_ebpf::interp::Vm::with_jit)), so no event
    /// pays the compile. Verified programs run as native x86-64 with
    /// verifier-proof bounds-check elision, and the JIT falls back to the
    /// interpreter by itself on programs or targets it does not support,
    /// as the kernel does. The differential suite holds the two tiers
    /// bitwise-identical, and the [`NS_PER_INSN`](crate::NS_PER_INSN)
    /// cost model is the same on both.
    ///
    /// # Errors
    ///
    /// [`BuildError::Asm`] or [`BuildError::Verify`] when a generated
    /// program fails to assemble or verify (a generator bug, not bad
    /// input), and [`BuildError::CostBudget`] when a program has no
    /// finite certified bound or one over the budget — the
    /// `sys_enter` tgid filter costs one instruction per process, so
    /// about a thousand processes are too many.
    pub fn build(self) -> Result<BytecodeBackend, BuildError> {
        let mut maps = MapRegistry::new();
        let start_fd = maps.create("start", MapDef::hash(8, 8, 4096));
        let stats_fd = maps.create("stats", MapDef::array(offsets::VALUE_SIZE as u32, 1));
        let hist_fd = self
            .poll_histogram
            .then(|| maps.create("poll_hist", MapDef::array((HIST_BUCKETS * 8) as u32, 1)));
        let sketch_fd = self
            .sketch_capacity
            .map(|cap| maps.create("topk", MapDef::topk_sketch(8, cap)));
        let net_fds = self.netstack.then(|| {
            let inflight = maps.create("inflight_stack", MapDef::hash(8, 8, 4096));
            let hist = maps.create("stack_hist", MapDef::array((HIST_BUCKETS * 8) as u32, 1));
            let stats = maps.create(
                "stack_stats",
                MapDef::array(stack_offsets::VALUE_SIZE as u32, 1),
            );
            (inflight, hist, stats)
        });

        // One slot per tracepoint, in `TracePhase` order.
        let programs = [
            Some(emit_enter(&self, start_fd)?),
            Some(emit_exit(&self, start_fd, stats_fd, hist_fd, sketch_fd)?),
            net_fds
                .map(|(inflight, _, _)| emit_net_rx(inflight))
                .transpose()?,
            net_fds
                .map(|(inflight, hist, stats)| emit_sock_drain(self.shift, inflight, stats, hist))
                .transpose()?,
        ];
        let runtime = ProgramProbe::attach(programs, maps)?;
        let probe = Arc::new(BuiltProbe {
            set: self,
            stats_fd,
            hist_fd,
            sketch_fd,
            stack_fds: net_fds.map(|(_, hist, stats)| (hist, stats)),
        });
        Ok(BytecodeBackend { runtime, probe })
    }
}

/// A built [`ProbeSet`]: the set and the fds of the signal maps its
/// readouts decode. Every instance of the probe shares one.
#[derive(Debug)]
struct BuiltProbe {
    set: ProbeSet,
    stats_fd: MapFd,
    hist_fd: Option<MapFd>,
    sketch_fd: Option<MapFd>,
    /// `(stack_hist, stack_stats)` with the netstack pair.
    stack_fds: Option<(MapFd, MapFd)>,
}

/// The eBPF-executed observability probe, built by [`ProbeSet::build`].
///
/// # Examples
///
/// ```
/// use kscope_core::{MetricBackend, ProbeSet};
/// use kscope_simcore::Nanos;
/// use kscope_syscalls::{pid_tgid, NetCtx, SyscallNo, SyscallProfile, TracePhase, TracepointCtx};
///
/// let mut probe = ProbeSet::new(vec![1200], SyscallProfile::data_caching(), 10)
///     .build()
///     .unwrap();
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
#[derive(Debug)]
pub struct BytecodeBackend {
    runtime: ProgramProbe,
    probe: Arc<BuiltProbe>,
}

impl BytecodeBackend {
    /// Shorthand for `ProbeSet::new(tgids, profile, shift).build()`.
    ///
    /// # Errors
    ///
    /// As for [`ProbeSet::build`].
    ///
    /// # Panics
    ///
    /// Panics if `tgids` is empty.
    pub fn new_multi(
        tgids: Vec<Pid>,
        profile: SyscallProfile,
        shift: u32,
    ) -> Result<BytecodeBackend, BuildError> {
        ProbeSet::new(tgids, profile, shift).build()
    }

    /// This probe's set with [`ProbeSet::with_netstack`] added, built
    /// afresh. Map contents are not carried over.
    ///
    /// # Errors
    ///
    /// As for [`ProbeSet::build`].
    pub fn with_netstack(self) -> Result<BytecodeBackend, BuildError> {
        self.into_set().with_netstack().build()
    }

    /// Returns the probe unchanged: it already runs on the JIT. Kept
    /// only for the end-to-end benchmark harness, which still calls it.
    #[doc(hidden)]
    pub fn with_jit(self) -> BytecodeBackend {
        self
    }

    /// The set this probe was built from. The probe and its maps are
    /// dropped here, before a rebuild allocates new ones.
    fn into_set(self) -> ProbeSet {
        self.probe.set.clone()
    }

    /// A new instance of this probe: the same programs over fresh,
    /// empty maps (see [`ProgramProbe::instantiate`] for why the shared
    /// programs stay verified for the new maps).
    pub fn instantiate(&self) -> BytecodeBackend {
        BytecodeBackend {
            runtime: self.runtime.instantiate(),
            probe: Arc::clone(&self.probe),
        }
    }

    /// A new instance of this probe, as [`BytecodeBackend::instantiate`],
    /// that runs its programs on the interpreter: the reference tier the
    /// JIT is benchmarked and differentially tested against. Nothing
    /// attaches it; it exists for the benchmark baseline and the tests.
    #[doc(hidden)]
    pub fn interpreted(&self) -> BytecodeBackend {
        BytecodeBackend {
            runtime: self.runtime.interpreted(),
            probe: Arc::clone(&self.probe),
        }
    }

    /// True when probe execution goes through the JIT dispatcher.
    pub fn uses_jit(&self) -> bool {
        self.runtime.uses_jit()
    }

    /// Total eBPF instructions executed so far (the cost model's input).
    pub fn insns_executed(&self) -> u64 {
        self.runtime.insns_executed()
    }

    /// Program runs that faulted (see [`ProgramProbe::faults`]); the
    /// verifier's soundness claim is that this stays 0.
    pub fn faults(&self) -> u64 {
        self.runtime.faults()
    }

    /// The assembled `sys_enter` and `sys_exit` programs, in that order
    /// (for acceptance-corpus tests and tooling).
    pub fn programs(&self) -> (&Program, &Program) {
        match (
            self.runtime.program(TracePhase::Enter),
            self.runtime.program(TracePhase::Exit),
        ) {
            (Some(enter), Some(exit)) => (enter, exit),
            _ => unreachable!("`ProbeSet::build` always attaches the syscall pair"),
        }
    }

    /// The assembled netstack programs `(kscope_net_rx,
    /// kscope_sock_drain)`, or `None` when the set has no
    /// [`ProbeSet::with_netstack`].
    pub fn net_programs(&self) -> Option<(&Program, &Program)> {
        self.runtime
            .program(TracePhase::NetRxSoftirq)
            .zip(self.runtime.program(TracePhase::SockQueueDrain))
    }

    /// The map registry backing the programs.
    pub fn map_registry(&self) -> &MapRegistry {
        self.runtime.maps()
    }

    /// Disassembly of every attached program (for documentation and
    /// debugging).
    pub fn disassembly(&self) -> String {
        let listings: Vec<String> = self.runtime.programs().map(Program::disassemble).collect();
        listings.join("\n")
    }

    /// Array-map slot 0 of one of this probe's own maps. Every array map
    /// `build` creates has exactly one entry, so the slot exists by
    /// construction.
    fn slot0(&self, fd: MapFd) -> &[u8] {
        match self.runtime.maps().lookup(fd, &0u32.to_le_bytes()) {
            Ok(Some(value)) => value,
            other => unreachable!("backend-owned array slot 0 missing: {other:?}"),
        }
    }

    fn slot0_mut(&mut self, fd: MapFd) -> &mut [u8] {
        match self.runtime.maps_mut().lookup_mut(fd, &0u32.to_le_bytes()) {
            Ok(Some(value)) => value,
            other => unreachable!("backend-owned array slot 0 missing: {other:?}"),
        }
    }

    /// The first `N` little-endian `u64` cells of array slot 0 of `fd`.
    fn slot0_cells<const N: usize>(&self, fd: MapFd) -> [u64; N] {
        let mut cells = [0u64; N];
        for (cell, bytes) in cells.iter_mut().zip(self.slot0(fd).chunks_exact(8)) {
            let mut le = [0u8; 8];
            le.copy_from_slice(bytes);
            *cell = u64::from_le_bytes(le);
        }
        cells
    }

    /// The in-probe Top-K entity sketch, or `None` when the set has no
    /// [`ProbeSet::with_entity_sketch`]. The sketch is cumulative across
    /// windows (it is never reset by `reset_window`), matching the
    /// cumulative counters the fleet's report envelopes carry.
    pub fn entity_sketch(&self) -> Option<&kscope_ebpf::SketchState> {
        let fd = self.probe.sketch_fd?;
        match self.runtime.maps().sketch_state(fd) {
            Ok(state) => Some(state),
            Err(e) => unreachable!("backend-owned sketch map missing: {e:?}"),
        }
    }
}

impl MetricBackend for BytecodeBackend {
    fn on_event(&mut self, ctx: &TracepointCtx) -> Nanos {
        self.runtime.run(ctx)
    }

    fn counters(&self) -> RawCounters {
        RawCounters::decode(self.probe.set.shift, self.slot0(self.probe.stats_fd))
    }

    fn reset_window(&mut self) {
        let value = self.slot0_mut(self.probe.stats_fd);
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
        if let Some(fd) = self.probe.hist_fd {
            self.slot0_mut(fd).fill(0);
        }
    }

    fn backend_name(&self) -> &'static str {
        "ebpf-bytecode"
    }

    /// Bucket `i` counts polls with
    /// `floor(log2(max(duration >> shift, 1))) == i`.
    fn poll_histogram(&self) -> Option<[u64; HIST_BUCKETS]> {
        Some(self.slot0_cells(self.probe.hist_fd?))
    }

    fn stack_histogram(&self) -> Option<[u64; HIST_BUCKETS]> {
        let (hist_fd, _) = self.probe.stack_fds?;
        Some(self.slot0_cells(hist_fd))
    }

    fn stack_counters(&self) -> Option<StackCounters> {
        let (_, stats_fd) = self.probe.stack_fds?;
        // The cells in `stack_offsets` order.
        let [count, sum, sumsq, misses] = self.slot0_cells(stats_fd);
        Some(StackCounters {
            count,
            sum,
            sumsq,
            misses,
        })
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

/// Emits the lookup of array slot 0 of `fd` (key `0u32` at `fp-4`):
/// exit with 0 if it misses, else continue at label `ok` with the value
/// pointer in `R0`.
fn slot0_or_exit(asm: Asm, fd: MapFd, ok: &str) -> Asm {
    asm.store_imm(SZ_W, R10, -4, 0)
        .ld_map_fd(R1, fd)
        .mov64_reg(R2, R10)
        .add64_imm(R2, -4)
        .call(Helper::MapLookupElem)
        .jne_imm(R0, 0, ok)
        .mov64_imm(R0, 0)
        .exit()
        .label(ok)
}

/// Emits `hist[floor(log2(max(R8, 1)))] += 1` into the
/// [`HIST_BUCKETS`]-cell slot 0 of the array map `hist_fd`. A loop-free
/// bit ladder accumulates the bucket in `R6`: each rung tests one power
/// of two with a forward jump, so the program stays a DAG. The bucket
/// then becomes a *register offset* into the map value. Clobbers `R0`,
/// `R1`, `R2`, `R5`, `R6` and `R8`; its labels are fixed, so emit it at
/// most once per program.
fn log2_bucket_increment(mut asm: Asm, hist_fd: MapFd) -> Asm {
    asm = asm
        .mov64_imm(R6, 0)
        .ld_dw(R5, 1u64 << 32)
        .jlt_reg(R8, R5, "hist_lt32")
        .add64_imm(R6, 32)
        .rsh64_imm(R8, 32)
        .label("hist_lt32");
    for k in [16, 8, 4, 2] {
        let skip = format!("hist_lt{k}");
        asm = asm
            .jmp_imm(OP_JLT, R8, 1i32 << k, skip.clone())
            .add64_imm(R6, k)
            .rsh64_imm(R8, k)
            .label(skip);
    }
    asm.jmp_imm(OP_JLT, R8, 2, "hist_lt1")
        .add64_imm(R6, 1)
        .label("hist_lt1")
        // The ladder already bounds R6 to [0, 63]; the mask makes the
        // proof local (AND pins the tnum) and guards future edits.
        .and64_imm(R6, 63)
        .lsh64_imm(R6, 3) // byte offset of the 8-byte bucket cell
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
        .label("hist_done")
}

/// The profile's primary syscall number for `role`, as a jump immediate.
fn syscall_imm(set: &ProbeSet, role: SyscallRole) -> i32 {
    set.profile.primary(role).raw() as i32
}

/// Emits the `sys_enter` program: store the poll-entry timestamp.
fn emit_enter(set: &ProbeSet, start_fd: MapFd) -> Result<Program, AsmError> {
    let asm = Asm::new("kscope_sys_enter")
        .mov64_reg(R9, R1) // save ctx
        .call(Helper::GetCurrentPidTgid)
        .mov64_reg(R6, R0)
        .mov64_reg(R2, R6)
        .rsh64_imm(R2, 32);
    filter_tgids(asm, &set.tgids)
        .load(SZ_DW, R8, R9, 0) // args->id
        .jne_imm(R8, syscall_imm(set, SyscallRole::Poll), "out")
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

/// Emits the `sys_exit` program: classify and update the stats cells,
/// plus the optional entity sketch and poll histogram.
fn emit_exit(
    set: &ProbeSet,
    start_fd: MapFd,
    stats_fd: MapFd,
    hist_fd: Option<MapFd>,
    sketch_fd: Option<MapFd>,
) -> Result<Program, AsmError> {
    let shift = set.shift as i32;
    let asm = Asm::new("kscope_sys_exit")
        .mov64_reg(R9, R1) // save ctx
        .call(Helper::GetCurrentPidTgid)
        .mov64_reg(R6, R0)
        .mov64_reg(R2, R6)
        .rsh64_imm(R2, 32);
    let mut asm = filter_tgids(asm, &set.tgids)
        .load(SZ_DW, R8, R9, 0) // args->id
        .jeq_imm(R8, syscall_imm(set, SyscallRole::Send), "send")
        .jeq_imm(R8, syscall_imm(set, SyscallRole::Receive), "recv")
        .jeq_imm(R8, syscall_imm(set, SyscallRole::Poll), "poll")
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
        let delta = format!("{label}_delta");
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
        asm = slot0_or_exit(asm, stats_fd, &format!("{label}_ok"))
            .mov64_reg(R7, R0) // stats value pointer
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
            .rsh64_imm(R2, shift)
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
        .rsh64_imm(R3, shift)
        .mov64_reg(R8, R3); // duration survives the next call in R8
    asm = slot0_or_exit(asm, stats_fd, "poll_ok")
        .mov64_reg(R7, R0) // stats value pointer
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
        // The duration is still in R8; the pid_tgid R6 held is dead.
        asm = log2_bucket_increment(asm, hist_fd);
    }
    asm.mov64_imm(R0, 0).exit().assemble()
}

/// Emits the `net_rx_softirq` program: reconstruct the request's NIC
/// arrival timestamp (`bpf_ktime_get_ns() - nic_wait`) and record it in
/// the in-flight hash map keyed by request id. No tgid filter — softirq
/// context has no meaningful current task (see
/// [`ProbeSet::with_netstack`]).
fn emit_net_rx(inflight_fd: MapFd) -> Result<Program, AsmError> {
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

/// Emits the `sock_queue_drain` program: look up the request's NIC
/// arrival, compute total time-in-stack (`now - nic_arrival`), delete the
/// in-flight entry, and fold the scaled sample into the stats cells and
/// the log2 histogram.
fn emit_sock_drain(
    shift: u32,
    inflight_fd: MapFd,
    stack_stats_fd: MapFd,
    stack_hist_fd: MapFd,
) -> Result<Program, AsmError> {
    let asm = Asm::new("kscope_sock_drain")
        .mov64_reg(R9, R1) // save ctx
        .load(SZ_DW, R6, R9, 0) // args->request
        .store_reg(SZ_DW, R10, R6, -8)
        .ld_map_fd(R1, inflight_fd)
        .mov64_reg(R2, R10)
        .add64_imm(R2, -8)
        .call(Helper::MapLookupElem)
        .jne_imm(R0, 0, "have_entry");
    // Miss: the rx edge was never seen (or the entry was evicted); count
    // it so the estimator can report coverage.
    let asm = slot0_or_exit(asm, stack_stats_fd, "miss_ok")
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
        .rsh64_imm(R8, shift as i32); // scaled sample
    let asm = slot0_or_exit(asm, stack_stats_fd, "stats_ok")
        .mov64_reg(R7, R0) // stats value pointer
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
    // The sample is still in R8; the request id R6 held is dead.
    log2_bucket_increment(asm, stack_hist_fd)
        .mov64_imm(R0, 0)
        .exit()
        .assemble()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::tests::with_unchecked;
    use crate::runtime::{CTX_SIZE, NET_CTX_SIZE, PROBE_COST_BUDGET};
    use kscope_ebpf::cost_report;
    use kscope_ebpf::verifier::{Verifier, VerifierConfig};
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

    fn set(shift: u32) -> ProbeSet {
        ProbeSet::new(vec![1200], SyscallProfile::data_caching(), shift)
    }

    fn probe() -> BytecodeBackend {
        set(0).build().unwrap()
    }

    fn hist_probe() -> BytecodeBackend {
        set(0).with_poll_histogram().build().unwrap()
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
            ProbeSet::new(vec![42], profile, 10)
                .build()
                .expect("builds");
        }
    }

    /// Every subset of the optional signals builds, verifies and
    /// certifies under the budget, and the order of the `with_*` steps
    /// changes neither a program nor the map layout.
    #[test]
    fn every_signal_subset_builds_and_is_order_independent() {
        let steps: [fn(ProbeSet) -> ProbeSet; 3] = [
            ProbeSet::with_poll_histogram,
            |set| set.with_entity_sketch(8),
            ProbeSet::with_netstack,
        ];
        let orders = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        for subset in 0..8u32 {
            let has = |step: usize| subset & (1 << step) != 0;
            let builds: Vec<BytecodeBackend> = orders
                .iter()
                .map(|order| {
                    order
                        .iter()
                        .filter(|&&step| has(step))
                        .fold(set(10), |set, &step| steps[step](set))
                        .build()
                        .unwrap_or_else(|e| panic!("subset {subset:03b} failed to build: {e}"))
                })
                .collect();
            let first = &builds[0];
            assert_eq!(first.poll_histogram().is_some(), has(0));
            assert_eq!(first.entity_sketch().is_some(), has(1));
            assert_eq!(first.net_programs().is_some(), has(2));
            let programs: Vec<&Program> = first.runtime.programs().collect();
            assert_eq!(programs.len(), if has(2) { 4 } else { 2 });
            for program in &programs {
                let verifier = Verifier::new(VerifierConfig {
                    ctx_size: if program.name().starts_with("kscope_sys") {
                        CTX_SIZE
                    } else {
                        NET_CTX_SIZE
                    },
                    ..VerifierConfig::default()
                });
                assert!(verifier.verify(program, first.map_registry()).is_ok());
                let bound = cost_report(program).map(|c| c.max_insns);
                assert!(
                    bound.is_some_and(|b| b <= PROBE_COST_BUDGET),
                    "subset {subset:03b}: '{}' bound {bound:?}",
                    program.name()
                );
            }
            for other in &builds[1..] {
                assert_eq!(other.probe.set, first.probe.set);
                let insns: Vec<_> = other.runtime.programs().map(Program::insns).collect();
                assert_eq!(
                    insns,
                    programs.iter().map(|p| p.insns()).collect::<Vec<_>>()
                );
                assert_eq!(map_dump(other), map_dump(first), "subset {subset:03b}");
            }
        }
    }

    #[test]
    fn cost_gate_rejects_a_filter_over_budget() {
        // The tgid filter costs one instruction per process, so about a
        // thousand processes push `sys_enter` past the budget.
        let tgids: Vec<Pid> = (1..=1_010).collect();
        match ProbeSet::new(tgids, SyscallProfile::data_caching(), 10).build() {
            Err(BuildError::CostBudget {
                program,
                bound: Some(bound),
                budget,
            }) => {
                assert_eq!(program, "kscope_sys_enter");
                assert_eq!(budget, PROBE_COST_BUDGET);
                assert!(bound > PROBE_COST_BUDGET, "bound {bound}");
            }
            other => panic!("expected a cost-budget rejection, got {other:?}"),
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
        let net_programs = ["kscope_net_rx", "kscope_sock_drain"];
        for netstack in [false, true] {
            let p = if netstack {
                set(0).with_netstack()
            } else {
                set(0)
            }
            .build()
            .unwrap();
            let dis = p.disassembly();
            assert!(dis.contains("kscope_sys_enter"));
            assert!(dis.contains("kscope_sys_exit"));
            assert!(dis.contains("call 14")); // bpf_get_current_pid_tgid
            assert!(dis.contains("call 5")); // bpf_ktime_get_ns
            for name in net_programs {
                assert_eq!(
                    dis.contains(name),
                    netstack,
                    "{name} with netstack={netstack}"
                );
            }
        }
    }

    #[test]
    fn histogram_probe_verifies_and_buckets_poll_durations() {
        let mut p = hist_probe();
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
        let mut p = hist_probe();
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
    }

    #[test]
    fn histogram_resets_with_window() {
        let mut p = hist_probe();
        p.on_event(&ctx(TracePhase::Enter, SyscallNo::EPOLL_WAIT, 1, 100));
        p.on_event(&ctx(TracePhase::Exit, SyscallNo::EPOLL_WAIT, 1, 450));
        p.reset_window();
        let hist = p.poll_histogram().expect("histogram enabled");
        assert_eq!(hist.iter().sum::<u64>(), 0);
    }

    fn sketch_probe(capacity: u32) -> BytecodeBackend {
        set(0)
            .with_poll_histogram()
            .with_entity_sketch(capacity)
            .build()
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
            p.on_event(&ctx(
                TracePhase::Exit,
                SyscallNo::SENDMSG,
                tid,
                100 * (i as u64 + 1),
            ));
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

    fn net_ctx(
        phase: TracePhase,
        request: u64,
        stage_ns: u64,
        arg: u64,
        t_ns: u64,
    ) -> TracepointCtx {
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

    /// Every signal the probe has: histogram, sketch, netstack — on the
    /// JIT, or on the interpreter (the reference tier) when `!jit`.
    fn full_probe(jit: bool) -> BytecodeBackend {
        let full = set(0)
            .with_poll_histogram()
            .with_entity_sketch(8)
            .with_netstack()
            .build()
            .unwrap();
        if jit {
            full
        } else {
            full.interpreted()
        }
    }

    /// One request's tracepoints: poll, rx, drain, recv, send.
    fn feed_request(p: &mut BytecodeBackend, tid: u32, request: u64, t_us: u64) {
        let (rx_ns, poll_exit, drain_ns) = ((t_us + 5) * 1_000, t_us + 10, (t_us + 12) * 1_000);
        p.on_event(&ctx(TracePhase::Enter, SyscallNo::EPOLL_WAIT, tid, t_us));
        p.on_event(&net_ctx(TracePhase::NetRxSoftirq, request, 500, 64, rx_ns));
        p.on_event(&ctx(
            TracePhase::Exit,
            SyscallNo::EPOLL_WAIT,
            tid,
            poll_exit,
        ));
        p.on_event(&net_ctx(
            TracePhase::SockQueueDrain,
            request,
            0,
            0,
            drain_ns,
        ));
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
            p.runtime = with_unchecked(p.runtime, TracePhase::Exit, faulting());
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
        set(shift).with_netstack().build().unwrap()
    }

    #[test]
    fn netstack_programs_verify_and_certify_finite_cost() {
        let p = netstack_probe(6);
        let (rx, drain) = p.net_programs().expect("netstack attached");
        assert_eq!(rx.name(), "kscope_net_rx");
        assert_eq!(drain.name(), "kscope_sock_drain");
        // The build verified both and certified them under the budget.
        for program in [rx, drain] {
            let bound = cost_report(program).map(|c| c.max_insns);
            assert!(bound.is_some_and(|b| b <= PROBE_COST_BUDGET), "{bound:?}");
        }
    }

    #[test]
    fn netstack_absent_without_opt_in() {
        let p = probe();
        assert!(p.net_programs().is_none());
        assert!(p.stack_histogram().is_none());
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
        let hist = p.stack_histogram().expect("netstack attached");
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
        let hist = p.stack_histogram().unwrap();
        assert_eq!(hist[5], 1); // floor(log2(34)) == 5
    }

    #[test]
    fn netstack_drain_without_rx_is_a_miss() {
        let mut p = netstack_probe(0);
        p.on_event(&net_ctx(TracePhase::SockQueueDrain, 99, 1_000, 0, 50_000));
        let c = p.stack_counters().unwrap();
        assert_eq!(c.count, 0);
        assert_eq!(c.misses, 1);
        assert_eq!(p.stack_histogram().unwrap().iter().sum::<u64>(), 0);
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
            p.stack_histogram().unwrap().iter().sum::<u64>(),
            1,
            "reset_window must not clear the stack histogram"
        );
    }

    #[test]
    fn netstack_matches_native_mirror_and_survives_jit() {
        use crate::native::NativeBackend;
        let shift = 6;
        let mut jit = netstack_probe(shift);
        let mut plain = jit.interpreted();
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
        let hist = plain.stack_histogram().unwrap();
        assert_eq!(hist, jit.stack_histogram().unwrap());
        assert_eq!(Some(hist), MetricBackend::stack_histogram(&native));
        assert_eq!(expect.count, 3);
        assert_eq!(expect.misses, 1);
    }
}
