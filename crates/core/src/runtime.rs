//! The eBPF probe runtime: every program kscope attaches to a tracepoint
//! — the paper's probe ([`ProbeSet`](crate::ProbeSet)), the streaming
//! collector ([`StreamingProbe`](crate::streaming::StreamingProbe)) and
//! user-supplied programs — registers through [`ProgramProbe`]'s one check
//! (verification plus the [`PROBE_COST_BUDGET`] cost gate) and runs
//! through its one per-event runner.

use std::sync::Arc;

use kscope_ebpf::asm::AsmError;
use kscope_ebpf::interp::{ExecEnv, Vm};
use kscope_ebpf::maps::MapRegistry;
use kscope_ebpf::verifier::{Verifier, VerifierConfig};
use kscope_ebpf::{Helper, Program};
use kscope_kernel::TracepointProbe;
use kscope_simcore::Nanos;
use kscope_syscalls::{TracePhase, TracepointCtx};

/// Modeled cost in nanoseconds of one executed eBPF instruction, on
/// either tier: a firing is charged `insns_executed * NS_PER_INSN`.
/// An integer, so charging a firing costs one multiply.
pub const NS_PER_INSN: u64 = 5;

/// Size of the context buffer the syscall programs receive.
pub const CTX_SIZE: usize = 16;

/// Size of the context buffer the network-stack programs receive (the
/// fields of [`kscope_syscalls::NetCtx`]).
pub const NET_CTX_SIZE: usize = 24;

/// The registration budget: the largest certified worst-case instruction
/// count ([`max_insns`](kscope_ebpf::CostReport::max_insns)) a probe
/// program may have. Registration rejects any program over it, or
/// without a finite bound. Shipped programs certify in the low hundreds
/// of instructions; 1024 leaves headroom while still catching runaway
/// programs.
pub const PROBE_COST_BUDGET: u64 = 1024;

/// Errors from building a probe.
#[derive(Debug)]
pub enum BuildError {
    /// A generated program failed to assemble (a builder bug).
    Asm(AsmError),
    /// A program failed verification against its tracepoint's context.
    Verify(kscope_ebpf::verifier::VerifyError),
    /// A program's certified worst-case cost exceeds
    /// [`PROBE_COST_BUDGET`] (or no finite bound exists).
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
            BuildError::CostBudget {
                program,
                bound: Some(bound),
                budget,
            } => write!(
                f,
                "probe '{program}' worst-case cost {bound} insns exceeds budget {budget}"
            ),
            BuildError::CostBudget {
                program,
                bound: None,
                budget,
            } => write!(
                f,
                "probe '{program}' has no finite cost bound (budget {budget})"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<AsmError> for BuildError {
    fn from(e: AsmError) -> BuildError {
        BuildError::Asm(e)
    }
}

/// One program slot per [`TracePhase`], indexed by `phase as usize`.
type PhasePrograms = [Option<Program>; 4];

/// The context size of each slot's tracepoint: the syscall pair, then the
/// network-stack pair.
const SLOT_CTX_SIZES: [usize; 4] = [CTX_SIZE, CTX_SIZE, NET_CTX_SIZE, NET_CTX_SIZE];

/// The registration check: `program` must verify against a `ctx_size`
/// context and `maps`, and certify a worst-case cost within
/// [`PROBE_COST_BUDGET`].
fn check(program: &Program, ctx_size: usize, maps: &MapRegistry) -> Result<(), BuildError> {
    let verifier = Verifier::new(VerifierConfig {
        ctx_size,
        ..VerifierConfig::default()
    });
    // The report of a verified program carries its cost certificate.
    let report = verifier.verify_report(program, maps);
    if let Some(diagnostic) = report.errors.into_iter().next() {
        return Err(BuildError::Verify(diagnostic.error));
    }
    match report.cost {
        Some(cost) if cost.max_insns <= PROBE_COST_BUDGET => Ok(()),
        cost => Err(BuildError::CostBudget {
            program: program.name().to_string(),
            bound: cost.map(|c| c.max_insns),
            budget: PROBE_COST_BUDGET,
        }),
    }
}

/// Checked eBPF programs attached to the kernel's tracepoints, with the
/// maps they address, the VM that runs them, and their run counters.
///
/// [`ProgramProbe::new`] attaches user-supplied programs to the syscall
/// tracepoints — the extension point for the "blackbox application
/// optimization" uses the paper sketches in §VI. Write the programs with
/// [`Asm`](kscope_ebpf::asm::Asm) or the text assembler
/// ([`parse_program`](kscope_ebpf::text::parse_program)), create maps in
/// a [`MapRegistry`], and read the maps back out after the run.
///
/// # Context ABI
///
/// Little-endian `u64` words at offsets 0, 8 and 16:
///
/// | tracepoints | bytes | word 0 | word 1 | word 2 |
/// |---|---|---|---|---|
/// | `sys_enter` / `sys_exit` | [`CTX_SIZE`] | syscall id | return value (0 on enter) | — |
/// | `net_rx_softirq` / `sock_queue_drain` | [`NET_CTX_SIZE`] | request token | stage residency (ns) | payload bytes (rx) / queue depth (drain) |
///
/// Timestamps and pid/tgid come from the `bpf_ktime_get_ns` /
/// `bpf_get_current_pid_tgid` helpers, as in real eBPF.
///
/// # Examples
///
/// Count `epoll_wait` exits with a text-assembled program:
///
/// ```
/// use kscope_core::ProgramProbe;
/// use kscope_ebpf::maps::{MapDef, MapRegistry};
/// use kscope_ebpf::text::parse_program;
/// use kscope_kernel::TracepointProbe;
/// use kscope_simcore::Nanos;
/// use kscope_syscalls::{pid_tgid, NetCtx, SyscallNo, TracePhase, TracepointCtx};
///
/// let mut maps = MapRegistry::new();
/// let counts = maps.create("counts", MapDef::array(8, 1)); // fd 0
/// let exit_prog = parse_program("count_epoll", r"
///     ldxdw r8, [r1+0]
///     jeq   r8, 232, hit
///     mov   r0, 0
///     exit
/// hit:
///     stw   [r10-4], 0
///     ld_map_fd r1, 0
///     mov   r2, r10
///     add   r2, -4
///     call  bpf_map_lookup_elem
///     jne   r0, 0, ok
///     mov   r0, 0
///     exit
/// ok:
///     ldxdw r1, [r0+0]
///     add   r1, 1
///     stxdw [r0+0], r1
///     mov   r0, 0
///     exit
/// ").unwrap();
/// let mut probe = ProgramProbe::new(None, Some(exit_prog), maps).unwrap();
/// probe.fire(&TracepointCtx {
///     phase: TracePhase::Exit,
///     no: SyscallNo::EPOLL_WAIT,
///     pid_tgid: pid_tgid(1, 1),
///     ktime: Nanos::ZERO,
///     ret: 1,
///     net: NetCtx::NONE,
/// });
/// assert_eq!(probe.maps().array_u64(counts, 0).unwrap(), 1);
/// assert_eq!(probe.faults(), 0);
/// ```
#[derive(Debug)]
pub struct ProgramProbe {
    maps: MapRegistry,
    vm: Vm,
    programs: Arc<PhasePrograms>,
    insns_executed: u64,
    faults: u64,
}

impl ProgramProbe {
    /// Checks user programs for the `sys_enter` / `sys_exit` tracepoints
    /// against `maps` and attaches them, on the JIT (which falls back to
    /// the interpreter by itself where it cannot compile). Pass `None`
    /// to leave an edge without a program (e.g. exit-only probes).
    ///
    /// # Errors
    ///
    /// [`BuildError::Verify`] if a program fails verification against
    /// the [`CTX_SIZE`]-byte syscall context, and
    /// [`BuildError::CostBudget`] if its certified worst-case cost is
    /// unbounded or over [`PROBE_COST_BUDGET`].
    pub fn new(
        enter: Option<Program>,
        exit: Option<Program>,
        maps: MapRegistry,
    ) -> Result<ProgramProbe, BuildError> {
        ProgramProbe::attach([enter, exit, None, None], maps)
    }

    /// Checks each program against the context of the tracepoint its
    /// slot attaches to, then compiles every program on the JIT (which
    /// falls back to the interpreter by itself where it cannot compile),
    /// so no event pays the compile.
    pub(crate) fn attach(
        programs: PhasePrograms,
        maps: MapRegistry,
    ) -> Result<ProgramProbe, BuildError> {
        for (program, &ctx_size) in programs.iter().zip(&SLOT_CTX_SIZES) {
            if let Some(program) = program {
                check(program, ctx_size, &maps)?;
            }
        }
        let vm = Vm::new().with_jit();
        for program in programs.iter().flatten() {
            vm.precompile(program);
        }
        Ok(ProgramProbe {
            maps,
            vm,
            programs: Arc::new(programs),
            insns_executed: 0,
            faults: 0,
        })
    }

    /// A new instance of this probe: the same programs — shared, not
    /// copied, along with their verifier proofs and JIT code — over
    /// fresh maps with the same layout and nothing in them. The
    /// instance starts with zero executed instructions and zero faults.
    /// This instance's map contents are never read.
    ///
    /// The shared programs stay verified for the new maps because
    /// nothing a checked program carries depends on a map *instance*:
    ///
    /// * Verification is a pure function of three inputs: the
    ///   instructions, the map definitions in fd order, and the
    ///   verifier's `ctx_size` ([`CTX_SIZE`] / [`NET_CTX_SIZE`]). The
    ///   verifier reads no map contents, only [`MapRegistry::def`].
    /// * The instance's registry is made by [`MapRegistry::fresh_like`]
    ///   from the registry the programs were verified against, so it is
    ///   layout-identical by construction: same definitions, same fds.
    ///   The same holds for the cost certificate, which reads only the
    ///   instructions.
    /// * JIT code binds no map instance. It reaches maps only through
    ///   the descriptor table [`MapRegistry::runtime_descs`] of the
    ///   registry it runs against, built from that registry's own
    ///   storage as its maps are created and republished whenever a hash
    ///   table grows; nothing about map storage is baked in at compile
    ///   time.
    ///
    /// So each instance runs exactly the programs the registration
    /// check passed, against maps that check describes.
    pub fn instantiate(&self) -> ProgramProbe {
        // A fresh VM on this probe's tier: it holds only per-invocation
        // scratch, and its trampoline counts start at zero.
        let vm = Vm::new();
        self.instance_on(if self.vm.uses_jit() {
            vm.with_jit()
        } else {
            vm
        })
    }

    /// As [`ProgramProbe::instantiate`], but the instance runs its
    /// programs on the interpreter: the reference tier the JIT is
    /// measured and differentially tested against, as the native probe
    /// is the reference oracle for the programs themselves.
    pub(crate) fn interpreted(&self) -> ProgramProbe {
        self.instance_on(Vm::new())
    }

    /// An instance over fresh maps, running the shared programs on `vm`.
    fn instance_on(&self, vm: Vm) -> ProgramProbe {
        let maps = self.maps.fresh_like();
        debug_assert!(
            maps.defs().eq(self.maps.defs()),
            "an instance's maps must match the verified layout in fd order"
        );
        ProgramProbe {
            maps,
            vm,
            programs: Arc::clone(&self.programs),
            insns_executed: 0,
            faults: 0,
        }
    }

    /// Runs the program attached at `ctx.phase`, if any, and returns the
    /// overhead to charge: [`NS_PER_INSN`] per executed instruction, or
    /// nothing when no program is attached there or the run faults.
    #[inline]
    pub(crate) fn run(&mut self, ctx: &TracepointCtx) -> Nanos {
        let Some(program) = &self.programs[ctx.phase as usize] else {
            // Real eBPF simply has no program attached there, so the
            // firing is free.
            return Nanos::ZERO;
        };
        let mut buf = [0u8; NET_CTX_SIZE];
        let len = if ctx.phase.is_net() {
            buf[..8].copy_from_slice(&ctx.net.request.to_le_bytes());
            buf[8..16].copy_from_slice(&ctx.net.stage_ns.to_le_bytes());
            buf[16..24].copy_from_slice(&ctx.net.arg.to_le_bytes());
            NET_CTX_SIZE
        } else {
            buf[..8].copy_from_slice(&(ctx.no.raw() as u64).to_le_bytes());
            buf[8..16].copy_from_slice(&(ctx.ret as u64).to_le_bytes());
            CTX_SIZE
        };
        let mut env = ExecEnv {
            ktime_ns: ctx.ktime.as_nanos(),
            pid_tgid: ctx.pid_tgid,
            ..ExecEnv::default()
        };
        // Exactly the verified context length: the JIT's elided code
        // checks its `min_ctx_len` against it.
        let Ok(outcome) = self
            .vm
            .execute(program, &buf[..len], &mut self.maps, &mut env)
        else {
            // Checked programs should never get here; if one does, it is
            // aborted and counted, as the kernel would, not allowed to
            // take the host down.
            self.faults += 1;
            return Nanos::ZERO;
        };
        self.insns_executed += outcome.insns_executed;
        Nanos::from_nanos(outcome.insns_executed * NS_PER_INSN)
    }

    /// The program attached at `phase`, if any.
    pub(crate) fn program(&self, phase: TracePhase) -> Option<&Program> {
        self.programs[phase as usize].as_ref()
    }

    /// Every attached program, in [`TracePhase`] order.
    pub fn programs(&self) -> impl Iterator<Item = &Program> {
        self.programs.iter().flatten()
    }

    /// The probe's maps (read results here after the run).
    pub fn maps(&self) -> &MapRegistry {
        &self.maps
    }

    /// Mutable map access (pre-seed state, reset windows, drain rings).
    pub fn maps_mut(&mut self) -> &mut MapRegistry {
        &mut self.maps
    }

    /// True when the programs run through the JIT dispatcher.
    pub fn uses_jit(&self) -> bool {
        self.vm.uses_jit()
    }

    /// Total eBPF instructions executed so far (the cost model's input).
    pub fn insns_executed(&self) -> u64 {
        self.insns_executed
    }

    /// Calls of `helper` that JIT code made through the checked
    /// trampoline (see [`Vm::trampoline_entries`]); 0 on the
    /// interpreter.
    pub fn trampoline_entries(&self, helper: Helper) -> u64 {
        self.vm.trampoline_entries(helper)
    }

    /// Program runs that faulted. The kernel's semantics apply: a
    /// faulting run is aborted where it faulted, charged nothing, and
    /// counted here; map writes it made before the fault stay. The
    /// verifier's soundness claim is that this stays 0.
    pub fn faults(&self) -> u64 {
        self.faults
    }
}

impl TracepointProbe for ProgramProbe {
    /// The first attached program's name.
    fn name(&self) -> &str {
        self.programs()
            .next()
            .map_or("ebpf-programs", Program::name)
    }

    fn fire(&mut self, ctx: &TracepointCtx) -> Nanos {
        self.run(ctx)
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use kscope_ebpf::asm::Asm;
    use kscope_ebpf::insn::{R0, R1, SZ_DW};
    use kscope_ebpf::maps::MapDef;
    use kscope_ebpf::text::parse_program;
    use kscope_syscalls::{pid_tgid, NetCtx, SyscallNo};

    /// Replaces the program at `phase` with `program` *without checking
    /// it*, so tests can make a program fault at run time.
    pub(crate) fn with_unchecked(
        mut probe: ProgramProbe,
        phase: TracePhase,
        program: Program,
    ) -> ProgramProbe {
        match Arc::get_mut(&mut probe.programs) {
            Some(programs) => programs[phase as usize] = Some(program),
            None => panic!("only a probe with no other instances can swap a program"),
        }
        probe
    }

    fn fire(probe: &mut ProgramProbe, phase: TracePhase, no: SyscallNo, t_us: u64) -> Nanos {
        probe.fire(&TracepointCtx {
            phase,
            no,
            pid_tgid: pid_tgid(1, 2),
            ktime: Nanos::from_micros(t_us),
            ret: 9,
            net: NetCtx::NONE,
        })
    }

    /// `counts[0] += 1` on every run.
    const COUNT_ALL: &str = r"
        stw   [r10-4], 0
        ld_map_fd r1, 0
        mov   r2, r10
        add   r2, -4
        call  bpf_map_lookup_elem
        jne   r0, 0, ok
        mov   r0, 0
        exit
    ok:
        ldxdw r1, [r0+0]
        add   r1, 1
        stxdw [r0+0], r1
        mov   r0, 0
        exit
    ";

    #[test]
    fn exit_only_counter_program() {
        let mut maps = MapRegistry::new();
        let counts = maps.create("counts", MapDef::array(8, 1));
        let exit = parse_program("count_all", COUNT_ALL).unwrap();
        let mut probe = ProgramProbe::new(None, Some(exit), maps).unwrap();
        fire(&mut probe, TracePhase::Exit, SyscallNo::READ, 1);
        fire(&mut probe, TracePhase::Enter, SyscallNo::READ, 2); // no enter prog
        fire(&mut probe, TracePhase::Exit, SyscallNo::SENDMSG, 3);
        assert_eq!(probe.maps().array_u64(counts, 0).unwrap(), 2);
        assert_eq!(probe.name(), "count_all");
        assert_eq!(probe.faults(), 0);
        assert!(probe.insns_executed() > 0);
    }

    #[test]
    fn bad_programs_are_rejected_at_construction() {
        let maps = MapRegistry::new();
        let bad = parse_program("bad", "ldxdw r0, [r10-8]\nexit").unwrap();
        let err = ProgramProbe::new(None, Some(bad), maps).unwrap_err();
        assert!(matches!(err, BuildError::Verify(_)), "{err}");
    }

    #[test]
    fn out_of_range_registers_are_rejected_at_construction() {
        use kscope_ebpf::insn::Insn;
        use kscope_ebpf::verifier::VerifyError;
        // The 4-bit register fields encode r11-r15; a `mov` into r11 and
        // one reading r12 are refused, not run.
        for (insn, reg) in [(Insn::mov64_imm(11, 1), 11), (Insn::mov64_reg(R0, 12), 12)] {
            let program = Program::new("bad_reg", vec![insn, Insn::mov64_imm(R0, 0), Insn::exit()]);
            match ProgramProbe::new(None, Some(program), MapRegistry::new()) {
                Err(BuildError::Verify(VerifyError::BadRegister { pc: 0, reg: r })) => {
                    assert_eq!(r, reg)
                }
                other => panic!("expected a bad-register rejection, got {other:?}"),
            }
        }
    }

    #[test]
    fn missing_edges_cost_nothing() {
        let mut probe = ProgramProbe::new(None, None, MapRegistry::new()).unwrap();
        assert_eq!(
            fire(&mut probe, TracePhase::Enter, SyscallNo::READ, 1),
            Nanos::ZERO
        );
        assert_eq!(probe.insns_executed(), 0);
    }

    #[test]
    fn a_user_program_over_the_cost_budget_is_refused() {
        // Loop-free, so the bound is exact: one instruction per `mov`,
        // plus the `exit`.
        let mut asm = Asm::new("long_exit");
        for i in 0..PROBE_COST_BUDGET {
            asm = asm.mov64_imm(R0, i as i32);
        }
        let long = asm.exit().assemble().unwrap();
        match ProgramProbe::new(None, Some(long), MapRegistry::new()) {
            Err(BuildError::CostBudget {
                program,
                bound: Some(bound),
                budget,
            }) => {
                assert_eq!(program, "long_exit");
                assert_eq!(bound, PROBE_COST_BUDGET + 1);
                assert_eq!(budget, PROBE_COST_BUDGET);
            }
            other => panic!("expected a cost-budget rejection, got {other:?}"),
        }
    }

    #[test]
    fn user_programs_run_on_the_jit() {
        let mut maps = MapRegistry::new();
        let counts = maps.create("counts", MapDef::array(8, 1));
        let exit = parse_program("count_all", COUNT_ALL).unwrap();
        let mut probe = ProgramProbe::new(None, Some(exit), maps).unwrap();
        assert!(probe.uses_jit());
        // An instance shares the JIT and the program, not the maps.
        let mut instance = probe.instantiate();
        assert!(instance.uses_jit());
        assert!(std::ptr::eq(
            instance.program(TracePhase::Exit).unwrap(),
            probe.program(TracePhase::Exit).unwrap()
        ));
        fire(&mut probe, TracePhase::Exit, SyscallNo::READ, 1);
        fire(&mut instance, TracePhase::Exit, SyscallNo::READ, 1);
        fire(&mut instance, TracePhase::Exit, SyscallNo::READ, 2);
        assert_eq!(probe.maps().array_u64(counts, 0).unwrap(), 1);
        assert_eq!(instance.maps().array_u64(counts, 0).unwrap(), 2);
    }

    #[test]
    fn a_faulting_user_program_is_counted_not_a_panic() {
        // Reads past the end of the 16-byte context: the check refuses
        // it, so only an unchecked install can run it.
        let faulting = Asm::new("faulting_exit")
            .load(SZ_DW, R0, R1, 64)
            .exit()
            .assemble()
            .unwrap();
        assert!(matches!(
            ProgramProbe::new(None, Some(faulting.clone()), MapRegistry::new()),
            Err(BuildError::Verify(_))
        ));
        let empty = ProgramProbe::new(None, None, MapRegistry::new()).unwrap();
        let mut probe = with_unchecked(empty, TracePhase::Exit, faulting);
        for t in 1..=3 {
            assert_eq!(
                fire(&mut probe, TracePhase::Exit, SyscallNo::READ, t),
                Nanos::ZERO
            );
        }
        assert_eq!(probe.faults(), 3);
        assert_eq!(probe.insns_executed(), 0);
    }
}
