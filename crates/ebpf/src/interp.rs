//! The eBPF bytecode interpreter.
//!
//! Executes one program invocation against a read-only context buffer, a
//! 512-byte stack, and the shared [`MapRegistry`]. Pointers are modeled as
//! tagged 64-bit addresses in disjoint regions (context, stack, map-value
//! slots), so a verified program behaves exactly as its abstract model
//! predicts, and an unverified program faults with a descriptive
//! [`ExecError`] instead of corrupting memory.
//!
//! # One interpreter, one JIT
//!
//! The interpreter steps the raw instruction words, re-extracting the
//! opcode fields on every step. It is the reference semantics and the
//! fallback for programs or platforms the template JIT ([`crate::jit`],
//! opt in via [`Vm::with_jit`]) declines. The testkit's differential
//! suite holds the JIT tiers to byte-identical [`ExecOutcome`]s over
//! thousands of programs.
//!
//! # Allocation discipline
//!
//! The per-event probe path (`map_lookup_elem` / `map_update_elem` /
//! `map_delete_elem` and all loads/stores) performs no heap allocation:
//! helper keys live in fixed stack buffers, helper values go through a
//! scratch buffer owned by the [`Vm`] and reused across invocations, and
//! map-value slot accesses borrow straight from the registry. The repo
//! lint gate enforces this file stays free of `to_vec()`/`clone()` outside
//! annotated cold paths.

use crate::decode::{AluOp, CmpOp};
use crate::helpers::Helper;
use crate::insn::{
    CLS_ALU, CLS_ALU64, CLS_JMP, CLS_JMP32, CLS_LD, CLS_LDX, CLS_ST, CLS_STX, OP_CALL, OP_EXIT,
    OP_JA, PSEUDO_MAP_FD, REG_COUNT, STACK_SIZE,
};
use crate::mapindex::SlotEntry;
use crate::maps::{MapFd, MapRegistry, MAX_KEY_SIZE};
use crate::program::Program;

/// Base address of the read-only context region.
pub(crate) const CTX_BASE: u64 = 0x1000_0000_0000;
/// Base address of the stack region; `r10` points at `STACK_BASE + 512`.
pub(crate) const STACK_BASE: u64 = 0x2000_0000_0000;
/// Base address of map-value slots handed out by `map_lookup_elem`.
pub(crate) const MAP_SLOT_BASE: u64 = 0x3000_0000_0000;
/// Stride between map-value slots (bounds the value size).
pub(crate) const MAP_SLOT_STRIDE: u64 = 1 << 20;
/// Tag marking a register value as a map handle (`ld_map_fd` result).
pub(crate) const MAP_HANDLE_BASE: u64 = 0x4000_0000_0000;
/// Poison written into r1–r5 after every helper call.
pub(crate) const CALLER_SAVED_POISON: u64 = 0xDEAD_BEEF_DEAD_BEEF;
/// Default cap on executed instructions per invocation.
pub const DEFAULT_INSN_BUDGET: u64 = 1 << 20;

/// Per-invocation inputs for the stateful helpers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecEnv {
    /// Value returned by `bpf_ktime_get_ns`.
    pub ktime_ns: u64,
    /// Value returned by `bpf_get_current_pid_tgid`.
    pub pid_tgid: u64,
    /// Seed/state for `bpf_get_prandom_u32` (advanced on each call).
    pub prandom_state: u64,
}

impl Default for ExecEnv {
    fn default() -> Self {
        ExecEnv {
            ktime_ns: 0,
            pid_tgid: 0,
            prandom_state: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

/// Successful invocation result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecOutcome {
    /// The program's return value (`r0` at `exit`).
    pub ret: u64,
    /// Number of instructions executed — the runtime cost proxy the kernel
    /// simulator converts into probe overhead time.
    pub insns_executed: u64,
    /// Raw byte payloads passed to `bpf_trace_printk`.
    pub trace_output: Vec<Vec<u8>>,
}

/// Runtime faults (unreachable for verified programs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Memory access outside any region or across a region boundary.
    BadMemAccess {
        /// Faulting pc.
        pc: usize,
        /// Faulting address.
        addr: u64,
        /// Access size.
        size: usize,
    },
    /// Unknown or malformed opcode.
    BadOpcode {
        /// Faulting pc.
        pc: usize,
        /// Opcode byte.
        code: u8,
    },
    /// Jump landed outside the program.
    BadJumpTarget {
        /// Faulting pc.
        pc: usize,
        /// Target pc.
        target: i64,
    },
    /// Execution ran past the last instruction.
    FellOffEnd,
    /// `call` with an unknown helper id.
    UnknownHelper {
        /// Faulting pc.
        pc: usize,
        /// Helper id.
        id: i32,
    },
    /// A helper was passed a value that is not a map handle.
    NotAMapHandle {
        /// Faulting pc.
        pc: usize,
        /// The offending register value.
        value: u64,
    },
    /// The instruction budget was exhausted (runaway program).
    BudgetExhausted {
        /// The budget that was exceeded.
        budget: u64,
    },
    /// `ld_dw` missing its second slot.
    MalformedLdDw {
        /// Faulting pc.
        pc: usize,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::BadMemAccess { pc, addr, size } => {
                write!(f, "pc {pc}: bad memory access at {addr:#x} size {size}")
            }
            ExecError::BadOpcode { pc, code } => write!(f, "pc {pc}: bad opcode {code:#04x}"),
            ExecError::BadJumpTarget { pc, target } => {
                write!(f, "pc {pc}: jump to invalid target {target}")
            }
            ExecError::FellOffEnd => f.write_str("execution fell off the end of the program"),
            ExecError::UnknownHelper { pc, id } => write!(f, "pc {pc}: unknown helper {id}"),
            ExecError::NotAMapHandle { pc, value } => {
                write!(f, "pc {pc}: {value:#x} is not a map handle")
            }
            ExecError::BudgetExhausted { budget } => {
                write!(f, "instruction budget of {budget} exhausted")
            }
            ExecError::MalformedLdDw { pc } => write!(f, "pc {pc}: ld_dw missing second slot"),
        }
    }
}

impl std::error::Error for ExecError {}

/// The virtual machine.
///
/// A `Vm` is cheap to construct; all persistent *map* state lives in the
/// [`MapRegistry`] passed to [`Vm::execute`]. The `Vm` itself owns only
/// reusable execution buffers (live map-slot table, helper scratch), so
/// keeping one `Vm` alive across invocations — as the kernel-simulation
/// backends do — makes the per-event path allocation-free.
///
/// # Examples
///
/// ```
/// use kscope_ebpf::asm::Asm;
/// use kscope_ebpf::insn::R0;
/// use kscope_ebpf::interp::{ExecEnv, Vm};
/// use kscope_ebpf::maps::MapRegistry;
///
/// let prog = Asm::new("ret42").mov64_imm(R0, 42).exit().assemble().unwrap();
/// let mut maps = MapRegistry::new();
/// let outcome = Vm::new()
///     .execute(&prog, &[], &mut maps, &mut ExecEnv::default())
///     .unwrap();
/// assert_eq!(outcome.ret, 42);
/// ```
#[derive(Debug, Clone)]
pub struct Vm {
    insn_budget: u64,
    /// Which executor steps the program.
    dispatch: Dispatch,
    /// Live map-value slots handed out by `map_lookup_elem`, reset per
    /// invocation; owned here so repeated invocations reuse the storage.
    /// `#[repr(C)]` entries because the JIT's inline lookup fast path
    /// appends to this vector directly (within its reserved capacity).
    slots: Vec<SlotEntry>,
    /// Reusable buffer for helper value transfers (`map_update_elem`
    /// payloads, ring-buffer records).
    scratch: Vec<u8>,
}

/// Executor selection. Both produce byte-identical [`ExecOutcome`]s;
/// they differ only in speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dispatch {
    /// Re-decode every raw instruction word per step (reference, default).
    Raw,
    /// Native code compiled by [`crate::jit`], falling back to `Raw`
    /// when the program or platform is unsupported.
    Jit,
}

impl Default for Vm {
    fn default() -> Self {
        Vm::new()
    }
}

/// The interpreter's view of memory: the regions registers may point into.
///
/// `pub(crate)` so the JIT's trampolines execute loads, stores, and helper
/// calls through the exact same code paths (and therefore the exact same
/// fault shapes) as the interpreter.
pub(crate) struct Memory<'a> {
    pub(crate) ctx: &'a [u8],
    pub(crate) stack: [u8; STACK_SIZE],
    pub(crate) maps: &'a mut MapRegistry,
    /// Live map-value slots: `(fd, key)` resolved on each access so writes
    /// land in the registry directly.
    pub(crate) slots: &'a mut Vec<SlotEntry>,
}

impl Memory<'_> {
    pub(crate) fn read(&mut self, pc: usize, addr: u64, size: usize) -> Result<u64, ExecError> {
        let mut buf = [0u8; 8];
        self.read_bytes(pc, addr, &mut buf[..size])?;
        Ok(u64::from_le_bytes(buf))
    }

    /// The `size` value bytes a map-slot address points at. The slot's
    /// `(fd, key)` is resolved again on every access, since a looked-up
    /// value may since have been deleted. A slot or key that no longer
    /// resolves faults with `unresolved_size`: reads report 0, as the
    /// access never reached a concrete value (historical fault shape,
    /// relied on by golden error fixtures), and writes the access size.
    /// An access past the value's end faults with `size`.
    fn map_value(
        &mut self,
        pc: usize,
        addr: u64,
        size: usize,
        unresolved_size: usize,
    ) -> Result<&mut [u8], ExecError> {
        let bad = |size: usize| ExecError::BadMemAccess { pc, addr, size };
        let slot = ((addr - MAP_SLOT_BASE) / MAP_SLOT_STRIDE) as usize;
        let off = ((addr - MAP_SLOT_BASE) % MAP_SLOT_STRIDE) as usize;
        let entry = *self.slots.get(slot).ok_or_else(|| bad(unresolved_size))?;
        let value = self
            .maps
            .lookup_mut(MapFd(entry.fd), entry.key_bytes())
            .ok()
            .flatten()
            .ok_or_else(|| bad(unresolved_size))?;
        off.checked_add(size)
            .and_then(|end| value.get_mut(off..end))
            .ok_or_else(|| bad(size))
    }

    /// Read for an access the verifier proved lands in a map value: skips
    /// the region dispatch but keeps slot resolution, with identical
    /// fault shapes.
    pub(crate) fn read_map_value(
        &mut self,
        pc: usize,
        addr: u64,
        size: usize,
    ) -> Result<u64, ExecError> {
        let mut buf = [0u8; 8];
        buf[..size].copy_from_slice(self.map_value(pc, addr, size, 0)?);
        Ok(u64::from_le_bytes(buf))
    }

    /// Write counterpart of [`Memory::read_map_value`].
    pub(crate) fn write_map_value(
        &mut self,
        pc: usize,
        addr: u64,
        size: usize,
        value: u64,
    ) -> Result<(), ExecError> {
        self.map_value(pc, addr, size, size)?
            .copy_from_slice(&value.to_le_bytes()[..size]);
        Ok(())
    }

    pub(crate) fn read_bytes(
        &mut self,
        pc: usize,
        addr: u64,
        out: &mut [u8],
    ) -> Result<(), ExecError> {
        let size = out.len();
        let bad = |size: usize| ExecError::BadMemAccess { pc, addr, size };
        if (CTX_BASE..STACK_BASE).contains(&addr) {
            let off = (addr - CTX_BASE) as usize;
            let end = off.checked_add(size).ok_or_else(|| bad(size))?;
            if end > self.ctx.len() {
                return Err(bad(size));
            }
            out.copy_from_slice(&self.ctx[off..end]);
            Ok(())
        } else if (STACK_BASE..MAP_SLOT_BASE).contains(&addr) {
            let off = (addr - STACK_BASE) as usize;
            let end = off.checked_add(size).ok_or_else(|| bad(size))?;
            if end > STACK_SIZE {
                return Err(bad(size));
            }
            out.copy_from_slice(&self.stack[off..end]);
            Ok(())
        } else if (MAP_SLOT_BASE..MAP_HANDLE_BASE).contains(&addr) {
            out.copy_from_slice(self.map_value(pc, addr, size, 0)?);
            Ok(())
        } else {
            Err(bad(size))
        }
    }

    pub(crate) fn write(
        &mut self,
        pc: usize,
        addr: u64,
        size: usize,
        value: u64,
    ) -> Result<(), ExecError> {
        let bytes = value.to_le_bytes();
        self.write_bytes(pc, addr, &bytes[..size])
    }

    pub(crate) fn write_bytes(
        &mut self,
        pc: usize,
        addr: u64,
        data: &[u8],
    ) -> Result<(), ExecError> {
        let size = data.len();
        let bad = || ExecError::BadMemAccess { pc, addr, size };
        if (STACK_BASE..MAP_SLOT_BASE).contains(&addr) {
            let off = (addr - STACK_BASE) as usize;
            let end = off.checked_add(size).ok_or_else(bad)?;
            if end > STACK_SIZE {
                return Err(bad());
            }
            self.stack[off..end].copy_from_slice(data);
            Ok(())
        } else if (MAP_SLOT_BASE..MAP_HANDLE_BASE).contains(&addr) {
            self.map_value(pc, addr, size, size)?.copy_from_slice(data);
            Ok(())
        } else {
            // The context is read-only; everything else is unmapped.
            Err(bad())
        }
    }
}

impl Vm {
    /// Creates an interpreting VM with the default instruction budget.
    pub fn new() -> Vm {
        Vm {
            insn_budget: DEFAULT_INSN_BUDGET,
            dispatch: Dispatch::Raw,
            slots: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Overrides the per-invocation instruction budget.
    ///
    /// # Panics
    ///
    /// Panics if `budget` is zero.
    pub fn with_insn_budget(budget: u64) -> Vm {
        assert!(budget > 0, "instruction budget must be positive");
        Vm {
            insn_budget: budget,
            ..Vm::new()
        }
    }

    /// Switches this VM to the program's JIT-compiled native code (see
    /// [`Program::jit`]), falling back to the interpreter for programs or
    /// platforms the JIT declines and for a context shorter than the one
    /// the program was verified against — so opting in never changes
    /// behavior, only speed.
    pub fn with_jit(mut self) -> Vm {
        self.dispatch = Dispatch::Jit;
        self
    }

    /// True when this VM attempts JIT execution.
    pub fn uses_jit(&self) -> bool {
        self.dispatch == Dispatch::Jit
    }

    /// Runs, ahead of time, the one-time JIT compile that [`Vm::execute`]
    /// would otherwise do on `program`'s first run, so no invocation
    /// pays it.
    /// The native code is cached on the program itself, so every JIT VM
    /// that later runs it shares the one compilation. A no-op
    /// on the interpreter.
    pub fn precompile(&self, program: &Program) {
        if self.dispatch == Dispatch::Jit {
            program.jit();
        }
    }

    /// Runs one invocation of `program`.
    ///
    /// `ctx` is the read-only context the program sees through `r1`;
    /// `env` supplies the clock/pid helpers. Map state persists in `maps`
    /// across invocations.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] on memory faults, unknown opcodes/helpers, or
    /// budget exhaustion. Programs accepted by the
    /// [`Verifier`](crate::verifier::Verifier) never fault.
    pub fn execute(
        &mut self,
        program: &Program,
        ctx: &[u8],
        maps: &mut MapRegistry,
        env: &mut ExecEnv,
    ) -> Result<ExecOutcome, ExecError> {
        self.slots.clear();
        if self.slots.capacity() < 64 {
            // One-time growth: the JIT's inline lookup fast path appends
            // into spare capacity and must never be the first to allocate.
            self.slots.reserve(64 - self.slots.capacity());
        }
        let Vm {
            insn_budget,
            dispatch,
            slots,
            scratch,
        } = self;
        let mut mem = Memory {
            ctx,
            stack: [0; STACK_SIZE],
            maps,
            slots,
        };
        match *dispatch {
            Dispatch::Raw => run_raw(*insn_budget, program, &mut mem, scratch, env),
            // Compile lazily (cached on the Program). Elided code is only
            // sound when the runtime context is at least as long as the one
            // the program was verified against; a shorter context, like an
            // unsupported program or platform, runs on the interpreter.
            Dispatch::Jit => match program.jit() {
                Some(j) if ctx.len() >= j.min_ctx_len() => {
                    crate::jit::run(j, *insn_budget, &mut mem, scratch, env)
                }
                _ => run_raw(*insn_budget, program, &mut mem, scratch, env),
            },
        }
    }
}

/// The interpreter's step loop: re-decode every raw instruction word on
/// each step. This is the reference semantics the JIT must match byte for
/// byte.
fn run_raw(
    budget: u64,
    program: &Program,
    mem: &mut Memory<'_>,
    scratch: &mut Vec<u8>,
    env: &mut ExecEnv,
) -> Result<ExecOutcome, ExecError> {
    let insns = program.insns();
    let mut regs = [0u64; REG_COUNT];
    regs[1] = CTX_BASE;
    regs[10] = STACK_BASE + STACK_SIZE as u64;
    let mut trace_output = Vec::new();
    let mut executed: u64 = 0;
    let mut pc: usize = 0;

    loop {
        if executed >= budget {
            return Err(ExecError::BudgetExhausted { budget });
        }
        let Some(&insn) = insns.get(pc) else {
            return Err(ExecError::FellOffEnd);
        };
        executed += 1;

        match insn.class() {
            CLS_LD => {
                if !insn.is_ld_dw() {
                    return Err(ExecError::BadOpcode {
                        pc,
                        code: insn.code,
                    });
                }
                let Some(&hi) = insns.get(pc + 1) else {
                    return Err(ExecError::MalformedLdDw { pc });
                };
                if insn.src == PSEUDO_MAP_FD {
                    regs[insn.dst as usize] = MAP_HANDLE_BASE | insn.imm as u32 as u64;
                } else {
                    regs[insn.dst as usize] =
                        (insn.imm as u32 as u64) | ((hi.imm as u32 as u64) << 32);
                }
                pc += 2;
                continue;
            }
            CLS_LDX => {
                let addr = regs[insn.src as usize].wrapping_add(insn.off as i64 as u64);
                regs[insn.dst as usize] = mem.read(pc, addr, insn.size_bytes())?;
            }
            CLS_STX => {
                let addr = regs[insn.dst as usize].wrapping_add(insn.off as i64 as u64);
                mem.write(pc, addr, insn.size_bytes(), regs[insn.src as usize])?;
            }
            CLS_ST => {
                let addr = regs[insn.dst as usize].wrapping_add(insn.off as i64 as u64);
                mem.write(pc, addr, insn.size_bytes(), insn.imm as i64 as u64)?;
            }
            CLS_ALU64 => {
                let rhs = if insn.is_src_reg() {
                    regs[insn.src as usize]
                } else {
                    insn.imm as i64 as u64
                };
                let op = AluOp::from_bits(insn.op()).ok_or(ExecError::BadOpcode {
                    pc,
                    code: insn.code,
                })?;
                let dst = &mut regs[insn.dst as usize];
                *dst = exec_alu64(op, *dst, rhs);
            }
            CLS_ALU => {
                let rhs = if insn.is_src_reg() {
                    regs[insn.src as usize]
                } else {
                    insn.imm as i64 as u64
                };
                let op = AluOp::from_bits(insn.op()).ok_or(ExecError::BadOpcode {
                    pc,
                    code: insn.code,
                })?;
                let dst = &mut regs[insn.dst as usize];
                *dst = exec_alu32(op, *dst as u32, rhs as u32) as u64;
            }
            CLS_JMP | CLS_JMP32 => {
                let is32 = insn.class() == CLS_JMP32;
                let op = insn.op();
                // exit/call/ja are JMP-class only.
                if is32 && matches!(op, OP_EXIT | OP_CALL | OP_JA) {
                    return Err(ExecError::BadOpcode {
                        pc,
                        code: insn.code,
                    });
                }
                if op == OP_EXIT {
                    return Ok(ExecOutcome {
                        ret: regs[0],
                        insns_executed: executed,
                        trace_output,
                    });
                }
                if op == OP_CALL {
                    let helper = Helper::from_id(insn.imm)
                        .ok_or(ExecError::UnknownHelper { pc, id: insn.imm })?;
                    call_helper(pc, helper, &mut regs, mem, scratch, env, &mut trace_output)?;
                    pc += 1;
                    continue;
                }
                let rhs = if insn.is_src_reg() {
                    regs[insn.src as usize]
                } else {
                    insn.imm as i64 as u64
                };
                let lhs = regs[insn.dst as usize];
                let taken = if op == OP_JA {
                    true
                } else {
                    let op = CmpOp::from_bits(op).ok_or(ExecError::BadOpcode {
                        pc,
                        code: insn.code,
                    })?;
                    take_branch(op, is32, lhs, rhs)
                };
                if taken {
                    let target = pc as i64 + 1 + insn.off as i64;
                    if target < 0 || target as usize > insns.len() {
                        return Err(ExecError::BadJumpTarget { pc, target });
                    }
                    pc = target as usize;
                    continue;
                }
            }
            _ => {
                return Err(ExecError::BadOpcode {
                    pc,
                    code: insn.code,
                })
            }
        }
        pc += 1;
    }
}

/// Shared helper-call implementation for the interpreter and the JIT's
/// trampolines.
///
/// Keys are read into a fixed stack buffer (map creation caps hash keys at
/// [`MAX_KEY_SIZE`]); value payloads go through the `Vm`-owned `scratch`
/// buffer, so in steady state no helper on the probe path allocates.
#[allow(clippy::too_many_arguments)]
pub(crate) fn call_helper(
    pc: usize,
    helper: Helper,
    regs: &mut [u64; REG_COUNT],
    mem: &mut Memory<'_>,
    scratch: &mut Vec<u8>,
    env: &mut ExecEnv,
    trace_output: &mut Vec<Vec<u8>>,
) -> Result<(), ExecError> {
    let map_fd = |value: u64| -> Result<MapFd, ExecError> {
        if value & MAP_HANDLE_BASE == MAP_HANDLE_BASE {
            Ok(MapFd((value & 0xFFFF_FFFF) as u32))
        } else {
            Err(ExecError::NotAMapHandle { pc, value })
        }
    };
    let ret = match helper {
        Helper::KtimeGetNs => env.ktime_ns,
        Helper::GetCurrentPidTgid => env.pid_tgid,
        Helper::GetPrandomU32 => {
            // xorshift64*; low 32 bits returned, state advances.
            let mut x = env.prandom_state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            env.prandom_state = x;
            (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) as u32 as u64
        }
        Helper::MapLookupElem => {
            let fd = map_fd(regs[1])?;
            let key_size = mem
                .maps
                .def(fd)
                .map_err(|_| ExecError::NotAMapHandle { pc, value: regs[1] })?
                .key_size as usize;
            let mut key_buf = [0u8; MAX_KEY_SIZE];
            let key = &mut key_buf[..key_size];
            mem.read_bytes(pc, regs[2], key)?;
            match mem.maps.lookup(fd, key) {
                Ok(Some(_)) => {
                    let slot = mem.slots.len() as u64;
                    mem.slots.push(SlotEntry::new(fd.0, key));
                    MAP_SLOT_BASE + slot * MAP_SLOT_STRIDE
                }
                _ => 0,
            }
        }
        Helper::MapUpdateElem => {
            let fd = map_fd(regs[1])?;
            let def = mem
                .maps
                .def(fd)
                .map_err(|_| ExecError::NotAMapHandle { pc, value: regs[1] })?;
            let mut key_buf = [0u8; MAX_KEY_SIZE];
            let key = &mut key_buf[..def.key_size as usize];
            mem.read_bytes(pc, regs[2], key)?;
            let mut value = std::mem::take(scratch);
            value.clear();
            value.resize(def.value_size as usize, 0);
            let read = mem.read_bytes(pc, regs[3], &mut value);
            let ret = match read {
                Ok(()) => match mem.maps.update_in_place(fd, key, &value) {
                    Ok(()) => 0,
                    Err(_) => (-1i64) as u64,
                },
                Err(fault) => {
                    *scratch = value;
                    return Err(fault);
                }
            };
            *scratch = value;
            ret
        }
        Helper::MapDeleteElem => {
            let fd = map_fd(regs[1])?;
            let key_size = mem
                .maps
                .def(fd)
                .map_err(|_| ExecError::NotAMapHandle { pc, value: regs[1] })?
                .key_size as usize;
            let mut key_buf = [0u8; MAX_KEY_SIZE];
            let key = &mut key_buf[..key_size];
            mem.read_bytes(pc, regs[2], key)?;
            match mem.maps.delete(fd, key) {
                Ok(true) => 0,
                _ => (-2i64) as u64, // -ENOENT
            }
        }
        Helper::TracePrintk => {
            let len = (regs[2] as usize).min(512);
            let mut buf = vec![0u8; len];
            mem.read_bytes(pc, regs[1], &mut buf)?;
            trace_output.push(buf);
            0
        }
        Helper::SketchUpdate => {
            let fd = map_fd(regs[1])?;
            let key_size = mem
                .maps
                .def(fd)
                .map_err(|_| ExecError::NotAMapHandle { pc, value: regs[1] })?
                .key_size as usize;
            let mut key_buf = [0u8; MAX_KEY_SIZE];
            let key = &mut key_buf[..key_size];
            mem.read_bytes(pc, regs[2], key)?;
            match mem.maps.sketch_update(fd, key, regs[3]) {
                Ok(()) => 0,
                Err(_) => (-1i64) as u64,
            }
        }
        Helper::RingbufOutput => {
            let fd = map_fd(regs[1])?;
            let len = regs[3] as usize;
            let mut buf = std::mem::take(scratch);
            buf.clear();
            buf.resize(len, 0);
            let read = mem.read_bytes(pc, regs[2], &mut buf);
            let ret = match read {
                Ok(()) => match mem.maps.ring_push(fd, &buf) {
                    Ok(true) => 0,
                    _ => (-1i64) as u64,
                },
                Err(fault) => {
                    *scratch = buf;
                    return Err(fault);
                }
            };
            *scratch = buf;
            ret
        }
    };
    regs[0] = ret;
    // Caller-saved registers are clobbered, as on real hardware; use a
    // recognizable poison value to surface verifier escapes early.
    for reg in &mut regs[1..=5] {
        *reg = CALLER_SAVED_POISON;
    }
    regs[0] = ret;
    Ok(())
}

/// Executes a 64-bit ALU operation (total: invalid encodings are rejected
/// before an [`AluOp`] exists).
///
/// `pub(crate)` so the static analyzer's constant transfer functions
/// evaluate with the interpreter's exact semantics.
#[inline(always)]
pub(crate) fn exec_alu64(op: AluOp, a: u64, b: u64) -> u64 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Div => a.checked_div(b).unwrap_or(0),
        AluOp::Mod => {
            if b == 0 {
                a
            } else {
                a % b
            }
        }
        AluOp::Or => a | b,
        AluOp::And => a & b,
        AluOp::Xor => a ^ b,
        AluOp::Lsh => a.wrapping_shl(b as u32 & 63),
        AluOp::Rsh => a.wrapping_shr(b as u32 & 63),
        AluOp::Arsh => ((a as i64).wrapping_shr(b as u32 & 63)) as u64,
        AluOp::Mov => b,
        AluOp::Neg => (a as i64).wrapping_neg() as u64,
    }
}

/// Executes a 32-bit ALU operation.
#[inline(always)]
pub(crate) fn exec_alu32(op: AluOp, a: u32, b: u32) -> u32 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Div => a.checked_div(b).unwrap_or(0),
        AluOp::Mod => {
            if b == 0 {
                a
            } else {
                a % b
            }
        }
        AluOp::Or => a | b,
        AluOp::And => a & b,
        AluOp::Xor => a ^ b,
        AluOp::Lsh => a.wrapping_shl(b & 31),
        AluOp::Rsh => a.wrapping_shr(b & 31),
        AluOp::Arsh => ((a as i32).wrapping_shr(b & 31)) as u32,
        AluOp::Mov => b,
        AluOp::Neg => (a as i32).wrapping_neg() as u32,
    }
}

/// Evaluates a conditional-jump comparison. `w32` compares the low 32 bits
/// (signed variants sign-extend from bit 31).
#[inline(always)]
pub(crate) fn take_branch(op: CmpOp, w32: bool, mut lhs: u64, mut rhs: u64) -> bool {
    if w32 {
        lhs = lhs as u32 as u64;
        rhs = rhs as u32 as u64;
    }
    let (slhs, srhs) = if w32 {
        (lhs as u32 as i32 as i64, rhs as u32 as i32 as i64)
    } else {
        (lhs as i64, rhs as i64)
    };
    match op {
        CmpOp::Eq => lhs == rhs,
        CmpOp::Ne => lhs != rhs,
        CmpOp::Gt => lhs > rhs,
        CmpOp::Ge => lhs >= rhs,
        CmpOp::Lt => lhs < rhs,
        CmpOp::Le => lhs <= rhs,
        CmpOp::Set => lhs & rhs != 0,
        CmpOp::Sgt => slhs > srhs,
        CmpOp::Sge => slhs >= srhs,
        CmpOp::Slt => slhs < srhs,
        CmpOp::Sle => slhs <= srhs,
    }
}
