//! Static verification of eBPF programs.
//!
//! Mirrors the guarantees the in-kernel verifier gives before a program may
//! attach to a tracepoint (§III-A of the paper: "programs pass eBPF
//! verification before being loaded … fixed stack size, reduced instruction
//! set, … to ensure programs are verifiable in time and correctness"):
//!
//! * bounded size and **no back-edges** (the classic no-loop rule);
//! * no reads of uninitialized registers or stack bytes;
//! * all memory accesses bounds-checked against their region (context,
//!   stack, map value);
//! * map-value pointers must be null-checked before dereference;
//! * helper calls type-checked against their signatures;
//! * `r10` is read-only, the context is read-only, `exit` needs `r0` set.
//!
//! The analysis is a branch-sensitive abstract interpretation over the
//! instruction DAG (acyclicity makes a single in-order pass with state
//! joins sufficient). Scalars carry a *value-tracking* domain — a tristate
//! number ([`crate::tnum::Tnum`], known bits) plus unsigned and signed
//! interval bounds `{umin, umax, smin, smax}` — propagated through every
//! ALU op and refined along both directions of conditional jumps
//! (including `JSET` and the signed compares). Pointers carry an offset
//! *interval*, so a register-computed offset whose bounds provably fit the
//! target region verifies, exactly like the kernel's tnum + range
//! machinery admits per-CPU histogram bucketing.
//!
//! Beyond accept/reject, [`Verifier::verify_report`] returns a
//! [`VerifierReport`]: every error found (not just the first), each with
//! the abstract register file at the faulting instruction and a witness
//! path from the entry, plus structured warnings for unreachable
//! instructions and dead stack stores.

use crate::analysis::MapSite;
use crate::decode::{AluOp, CmpOp, Decoded};
use crate::helpers::{ArgClass, Helper, RetClass};
use crate::insn::{MAX_INSNS, REG_COUNT, STACK_SIZE};
use crate::interp::{exec_alu32, exec_alu64, take_branch};
use crate::maps::{MapFd, MapKind, MapRegistry};
use crate::program::Program;
use crate::tnum::Tnum;

/// Verifier configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifierConfig {
    /// Size in bytes of the read-only context the program receives in `r1`.
    pub ctx_size: usize,
    /// Whether scalars carry value information (tnum + ranges) that can
    /// justify register-offset pointer arithmetic and refine branches.
    ///
    /// `true` (the default) is the real verifier. `false` reproduces the
    /// historical type-only lattice — register-form pointer arithmetic is
    /// `PointerArith` and conditional jumps refine nothing — and exists so
    /// differential tests can assert the value-tracking verifier accepts
    /// a strict superset of what the old rules accepted.
    pub value_tracking: bool,
}

impl Default for VerifierConfig {
    fn default() -> Self {
        VerifierConfig {
            ctx_size: 64,
            value_tracking: true,
        }
    }
}

/// Verification failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The program has no instructions.
    Empty,
    /// The program exceeds the instruction limit.
    TooLarge {
        /// Actual size.
        len: usize,
        /// Allowed maximum.
        max: usize,
    },
    /// A jump lands at or before its own pc (loops are forbidden).
    BackEdge {
        /// The jumping instruction.
        from: usize,
        /// The target pc.
        to: usize,
    },
    /// A jump target is outside the program or inside an `ld_dw` pair.
    BadJumpTarget {
        /// The jumping instruction.
        from: usize,
        /// The bad target.
        to: i64,
    },
    /// Execution can fall off the end of the program.
    FallOffEnd {
        /// The last pc on the falling path.
        pc: usize,
    },
    /// Read of an uninitialized register.
    UninitRead {
        /// Instruction pc.
        pc: usize,
        /// The register.
        reg: u8,
    },
    /// Unknown or malformed opcode.
    BadOpcode {
        /// Instruction pc.
        pc: usize,
        /// The opcode byte.
        code: u8,
    },
    /// A register field names r11–r15, which the 4-bit encoding allows
    /// but the machine does not have.
    BadRegister {
        /// Instruction pc.
        pc: usize,
        /// The register number.
        reg: u8,
    },
    /// Write to the frame pointer `r10`.
    WriteToFp {
        /// Instruction pc.
        pc: usize,
    },
    /// Store through the read-only context pointer.
    WriteToCtx {
        /// Instruction pc.
        pc: usize,
    },
    /// Out-of-bounds or misaligned memory access.
    OutOfBounds {
        /// Instruction pc.
        pc: usize,
        /// Which region was accessed.
        region: &'static str,
        /// Byte offset of the access (lowest possible offset for
        /// register-offset accesses).
        off: i64,
        /// Access size.
        size: usize,
    },
    /// Read of uninitialized stack bytes.
    UninitStackRead {
        /// Instruction pc.
        pc: usize,
        /// Stack offset (relative to `r10`).
        off: i64,
    },
    /// Dereference of a possibly-NULL map-value pointer.
    MaybeNullDeref {
        /// Instruction pc.
        pc: usize,
    },
    /// Arithmetic that would corrupt a pointer.
    PointerArith {
        /// Instruction pc.
        pc: usize,
    },
    /// Immediate division or modulo by zero.
    DivByZeroImm {
        /// Instruction pc.
        pc: usize,
    },
    /// `call` with an unknown helper id.
    UnknownHelper {
        /// Instruction pc.
        pc: usize,
        /// The bad helper id.
        id: i32,
    },
    /// A helper argument has the wrong class.
    BadHelperArg {
        /// Instruction pc.
        pc: usize,
        /// Helper being called.
        helper: Helper,
        /// Argument index (1-based, i.e. the register number).
        arg: u8,
        /// What the signature expected.
        expected: &'static str,
    },
    /// `ld_map_fd` references a map that does not exist.
    BadMapFd {
        /// Instruction pc.
        pc: usize,
        /// The unknown fd.
        fd: u32,
    },
    /// Second slot of an `ld_dw` is malformed or missing.
    MalformedLdDw {
        /// Instruction pc of the first slot.
        pc: usize,
    },
    /// `exit` without a value in `r0`.
    ExitWithoutR0 {
        /// Instruction pc.
        pc: usize,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::Empty => f.write_str("program is empty"),
            VerifyError::TooLarge { len, max } => {
                write!(f, "program has {len} insns, limit is {max}")
            }
            VerifyError::BackEdge { from, to } => {
                write!(f, "back-edge from {from} to {to} (loops are forbidden)")
            }
            VerifyError::BadJumpTarget { from, to } => {
                write!(f, "jump from {from} to invalid target {to}")
            }
            VerifyError::FallOffEnd { pc } => write!(f, "control falls off the end after {pc}"),
            VerifyError::UninitRead { pc, reg } => {
                write!(f, "pc {pc}: read of uninitialized r{reg}")
            }
            VerifyError::BadOpcode { pc, code } => write!(f, "pc {pc}: bad opcode {code:#04x}"),
            VerifyError::BadRegister { pc, reg } => write!(f, "pc {pc}: no register r{reg}"),
            VerifyError::WriteToFp { pc } => write!(f, "pc {pc}: write to frame pointer r10"),
            VerifyError::WriteToCtx { pc } => write!(f, "pc {pc}: store to read-only context"),
            VerifyError::OutOfBounds {
                pc,
                region,
                off,
                size,
            } => write!(
                f,
                "pc {pc}: {region} access out of bounds (off {off}, size {size})"
            ),
            VerifyError::UninitStackRead { pc, off } => {
                write!(f, "pc {pc}: read of uninitialized stack at {off}")
            }
            VerifyError::MaybeNullDeref { pc } => {
                write!(
                    f,
                    "pc {pc}: map value pointer may be NULL; null-check first"
                )
            }
            VerifyError::PointerArith { pc } => {
                write!(f, "pc {pc}: forbidden arithmetic on pointer")
            }
            VerifyError::DivByZeroImm { pc } => {
                write!(f, "pc {pc}: division/modulo by constant zero")
            }
            VerifyError::UnknownHelper { pc, id } => {
                write!(f, "pc {pc}: unknown helper id {id}")
            }
            VerifyError::BadHelperArg {
                pc,
                helper,
                arg,
                expected,
            } => write!(
                f,
                "pc {pc}: {name} argument r{arg} must be {expected}",
                name = helper.name()
            ),
            VerifyError::BadMapFd { pc, fd } => write!(f, "pc {pc}: no map with fd {fd}"),
            VerifyError::MalformedLdDw { pc } => {
                write!(f, "pc {pc}: ld_dw missing its second slot")
            }
            VerifyError::ExitWithoutR0 { pc } => {
                write!(f, "pc {pc}: exit without setting r0")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Structured advisory findings: the program is safe to load, but parts
/// of it do nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyWarning {
    /// An instruction no execution path can reach.
    UnreachableInsn {
        /// The unreachable pc.
        pc: usize,
    },
    /// A stack store whose bytes are never read on any path to `exit`.
    DeadStore {
        /// The storing instruction.
        pc: usize,
        /// Stack offset of the store (relative to `r10`).
        off: i64,
        /// Store size in bytes.
        size: usize,
    },
}

impl std::fmt::Display for VerifyWarning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyWarning::UnreachableInsn { pc } => {
                write!(f, "pc {pc}: instruction is unreachable")
            }
            VerifyWarning::DeadStore { pc, off, size } => {
                write!(f, "pc {pc}: dead store to stack at {off} (size {size})")
            }
        }
    }
}

/// One verification error with the evidence that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The error itself.
    pub error: VerifyError,
    /// A witness path of pcs from the entry to the faulting instruction
    /// (empty for structural errors found before abstract interpretation).
    pub path: Vec<usize>,
    /// Rendered abstract register file (`r0` … `r10`) at the faulting
    /// instruction; empty for structural errors.
    pub regs: Vec<String>,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.error)?;
        if !self.path.is_empty() {
            let shown: Vec<String> = self
                .path
                .iter()
                .rev()
                .take(8)
                .rev()
                .map(|pc| pc.to_string())
                .collect();
            let prefix = if self.path.len() > 8 { "… -> " } else { "" };
            write!(f, "\n  path: {prefix}{}", shown.join(" -> "))?;
        }
        if !self.regs.is_empty() {
            write!(f, "\n  regs:")?;
            for (i, r) in self.regs.iter().enumerate() {
                if r != "uninit" {
                    write!(f, " r{i}={r}")?;
                }
            }
        }
        Ok(())
    }
}

/// Everything the verifier learned about a program: all errors (not just
/// the first) and advisory warnings.
///
/// Produced by [`Verifier::verify_report`]; [`Verifier::verify`] is the
/// thin first-error view over it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VerifierReport {
    /// Every error found, in program-counter order (structural errors
    /// first). Empty iff the program verifies.
    pub errors: Vec<Diagnostic>,
    /// Advisory findings; only populated when the program has no errors.
    pub warnings: Vec<VerifyWarning>,
    /// Certified worst-case per-invocation cost
    /// ([`crate::analysis::cost_report`]); populated for error-free
    /// programs whose CFG admits a finite bound, which every verified
    /// program's does. Not part of the `Display` rendering.
    pub cost: Option<crate::analysis::CostReport>,
}

impl VerifierReport {
    /// Whether the program verified (no errors; warnings don't count).
    pub fn is_ok(&self) -> bool {
        self.errors.is_empty()
    }
}

impl std::fmt::Display for VerifierReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.errors.is_empty() {
            write!(f, "verification passed")?;
        } else {
            write!(f, "verification failed: {} error(s)", self.errors.len())?;
            for d in &self.errors {
                write!(f, "\n{d}")?;
            }
        }
        for w in &self.warnings {
            write!(f, "\nwarning: {w}")?;
        }
        Ok(())
    }
}

const M32: u64 = 0xFFFF_FFFF;

/// The scalar abstract value: a tnum plus unsigned and signed interval
/// bounds, kept mutually consistent by [`Scalar::try_normalize`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Scalar {
    tn: Tnum,
    umin: u64,
    umax: u64,
    smin: i64,
    smax: i64,
}

impl Scalar {
    fn unknown() -> Scalar {
        Scalar {
            tn: Tnum::UNKNOWN,
            umin: 0,
            umax: u64::MAX,
            smin: i64::MIN,
            smax: i64::MAX,
        }
    }

    fn constant(v: u64) -> Scalar {
        Scalar {
            tn: Tnum::constant(v),
            umin: v,
            umax: v,
            smin: v as i64,
            smax: v as i64,
        }
    }

    /// Sound abstraction of the unsigned interval `[lo, hi]`.
    fn from_urange(lo: u64, hi: u64) -> Scalar {
        Scalar {
            tn: Tnum::range(lo, hi),
            umin: lo,
            umax: hi,
            smin: i64::MIN,
            smax: i64::MAX,
        }
        .normalized()
    }

    fn top32() -> Scalar {
        Scalar::from_urange(0, M32)
    }

    fn const_val(self) -> Option<u64> {
        if self.umin == self.umax {
            Some(self.umin)
        } else {
            self.tn.const_val()
        }
    }

    /// Cross-derives each bound representation from the others; `None`
    /// when the constraints are contradictory (the concretization is
    /// empty).
    fn try_normalize(mut self) -> Option<Scalar> {
        for _ in 0..2 {
            self.umin = self.umin.max(self.tn.min());
            self.umax = self.umax.min(self.tn.max());
            // Unsigned -> signed when the unsigned range stays on one
            // side of the sign boundary.
            if self.umax <= i64::MAX as u64 || self.umin > i64::MAX as u64 {
                self.smin = self.smin.max(self.umin as i64);
                self.smax = self.smax.min(self.umax as i64);
            }
            // Signed -> unsigned when the signed range doesn't cross zero
            // (as u64 both halves are order-preserving).
            if self.smin >= 0 || self.smax < 0 {
                self.umin = self.umin.max(self.smin as u64);
                self.umax = self.umax.min(self.smax as u64);
            }
            if self.umin > self.umax || self.smin > self.smax {
                return None;
            }
            self.tn = self.tn.intersect(Tnum::range(self.umin, self.umax))?;
        }
        Some(self)
    }

    /// Normalize, widening to top on contradiction (transfer functions on
    /// feasible inputs stay feasible; top is the sound fallback).
    fn normalized(self) -> Scalar {
        self.try_normalize().unwrap_or_else(Scalar::unknown)
    }

    /// Lattice join (union of concretizations, over-approximated).
    fn join(a: Scalar, b: Scalar) -> Scalar {
        Scalar {
            tn: a.tn.union(b.tn),
            umin: a.umin.min(b.umin),
            umax: a.umax.max(b.umax),
            smin: a.smin.min(b.smin),
            smax: a.smax.max(b.smax),
        }
        .normalized()
    }

    /// Lattice meet (intersection); `None` when provably empty.
    fn meet(a: Scalar, b: Scalar) -> Option<Scalar> {
        Scalar {
            tn: a.tn.intersect(b.tn)?,
            umin: a.umin.max(b.umin),
            umax: a.umax.min(b.umax),
            smin: a.smin.max(b.smin),
            smax: a.smax.min(b.smax),
        }
        .try_normalize()
    }
}

impl std::fmt::Display for Scalar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(v) = self.const_val() {
            write!(f, "scalar({v:#x})")
        } else {
            write!(
                f,
                "scalar(u=[{},{}] s=[{},{}] tnum={})",
                self.umin, self.umax, self.smin, self.smax, self.tn
            )
        }
    }
}

/// Smallest all-ones value >= x (upper bound for OR/XOR results).
fn all_ones_ceil(x: u64) -> u64 {
    if x == 0 {
        0
    } else {
        u64::MAX >> x.leading_zeros()
    }
}

/// 64-bit ALU transfer function on scalars; constants fold through the
/// interpreter's own [`exec_alu64`].
fn alu64_transfer(op: AluOp, a: Scalar, b: Scalar) -> Scalar {
    if let (Some(x), Some(y)) = (a.const_val(), b.const_val()) {
        return Scalar::constant(exec_alu64(op, x, y));
    }
    let r = match op {
        AluOp::Add => {
            let (umin, umax) = match (a.umin.checked_add(b.umin), a.umax.checked_add(b.umax)) {
                (Some(lo), Some(hi)) => (lo, hi),
                _ => (0, u64::MAX),
            };
            let (smin, smax) = match (a.smin.checked_add(b.smin), a.smax.checked_add(b.smax)) {
                (Some(lo), Some(hi)) => (lo, hi),
                _ => (i64::MIN, i64::MAX),
            };
            Scalar {
                tn: a.tn.add(b.tn),
                umin,
                umax,
                smin,
                smax,
            }
        }
        AluOp::Sub => {
            let (umin, umax) = match (a.umin.checked_sub(b.umax), a.umax.checked_sub(b.umin)) {
                (Some(lo), Some(hi)) => (lo, hi),
                _ => (0, u64::MAX),
            };
            let (smin, smax) = match (a.smin.checked_sub(b.smax), a.smax.checked_sub(b.smin)) {
                (Some(lo), Some(hi)) => (lo, hi),
                _ => (i64::MIN, i64::MAX),
            };
            Scalar {
                tn: a.tn.sub(b.tn),
                umin,
                umax,
                smin,
                smax,
            }
        }
        AluOp::Mul => {
            if a.umax <= M32 && b.umax <= M32 {
                // The product can't wrap 64 bits.
                Scalar {
                    tn: a.tn.mul(b.tn),
                    umin: a.umin * b.umin,
                    umax: a.umax * b.umax,
                    smin: i64::MIN,
                    smax: i64::MAX,
                }
            } else {
                Scalar {
                    tn: a.tn.mul(b.tn),
                    ..Scalar::unknown()
                }
            }
        }
        AluOp::Div => {
            if let Some(c) = b.const_val() {
                match (a.umin.checked_div(c), a.umax.checked_div(c)) {
                    (Some(lo), Some(hi)) => Scalar::from_urange(lo, hi),
                    // eBPF defines division by zero as yielding 0.
                    _ => Scalar::constant(0),
                }
            } else {
                // Divisor provably nonzero: proper interval division.
                // Otherwise it may be zero (result 0) and the quotient
                // still never exceeds the dividend.
                match (a.umin.checked_div(b.umax), a.umax.checked_div(b.umin)) {
                    (Some(lo), Some(hi)) => Scalar::from_urange(lo, hi),
                    _ => Scalar::from_urange(0, a.umax),
                }
            }
        }
        AluOp::Mod => {
            if let Some(c) = b.const_val() {
                if c == 0 {
                    a // BPF: mod by zero leaves dst unchanged
                } else {
                    Scalar::from_urange(0, a.umax.min(c - 1))
                }
            } else if b.umin > 0 {
                Scalar::from_urange(0, a.umax.min(b.umax - 1))
            } else {
                // Zero divisor passes the dividend through.
                Scalar::from_urange(0, a.umax.max(b.umax.saturating_sub(1)))
            }
        }
        AluOp::And => Scalar {
            tn: a.tn.and(b.tn),
            umin: 0,
            umax: a.umax.min(b.umax),
            smin: i64::MIN,
            smax: i64::MAX,
        },
        AluOp::Or => Scalar {
            tn: a.tn.or(b.tn),
            umin: a.umin.max(b.umin),
            umax: all_ones_ceil(a.umax.max(b.umax)),
            smin: i64::MIN,
            smax: i64::MAX,
        },
        AluOp::Xor => Scalar {
            tn: a.tn.xor(b.tn),
            umin: 0,
            umax: all_ones_ceil(a.umax.max(b.umax)),
            smin: i64::MIN,
            smax: i64::MAX,
        },
        AluOp::Lsh => {
            if let Some(s) = b.const_val() {
                let s = (s & 63) as u32;
                let bounded = a.umax.leading_zeros() >= s;
                Scalar {
                    tn: a.tn.lshift(s),
                    umin: if bounded { a.umin << s } else { 0 },
                    umax: if bounded { a.umax << s } else { u64::MAX },
                    smin: i64::MIN,
                    smax: i64::MAX,
                }
            } else {
                Scalar::unknown()
            }
        }
        AluOp::Rsh => {
            if let Some(s) = b.const_val() {
                let s = (s & 63) as u32;
                Scalar {
                    tn: a.tn.rshift(s),
                    umin: a.umin >> s,
                    umax: a.umax >> s,
                    smin: i64::MIN,
                    smax: i64::MAX,
                }
            } else {
                // A logical right shift never increases the value.
                Scalar::from_urange(0, a.umax)
            }
        }
        AluOp::Arsh => {
            if let Some(s) = b.const_val() {
                let s = (s & 63) as u32;
                Scalar {
                    tn: a.tn.arshift(s),
                    umin: 0,
                    umax: u64::MAX,
                    smin: a.smin >> s,
                    smax: a.smax >> s,
                }
            } else if a.smin >= 0 {
                // Shifting a non-negative value right keeps it in [0, smax].
                Scalar {
                    tn: Tnum::UNKNOWN,
                    umin: 0,
                    umax: a.umax,
                    smin: 0,
                    smax: a.smax,
                }
            } else {
                Scalar::unknown()
            }
        }
        AluOp::Neg => {
            if a.smin != i64::MIN {
                Scalar {
                    tn: Tnum::constant(0).sub(a.tn),
                    umin: 0,
                    umax: u64::MAX,
                    smin: -a.smax,
                    smax: -a.smin,
                }
            } else {
                Scalar::unknown()
            }
        }
        AluOp::Mov => b,
    };
    r.normalized()
}

/// 32-bit ALU transfer function: exact on constants (through
/// [`exec_alu32`]), tnum/range-based where cheap and sound, `[0,
/// u32::MAX]` otherwise. Results zero-extend.
fn alu32_transfer(op: AluOp, a: Scalar, b: Scalar) -> Scalar {
    if op == AluOp::Mov {
        return match b.const_val() {
            Some(v) => Scalar::constant(v & M32),
            None if b.umax <= M32 => b,
            None => Scalar {
                tn: b.tn.cast32(),
                ..Scalar::top32()
            }
            .normalized(),
        };
    }
    if let (Some(x), Some(y)) = (a.const_val(), b.const_val()) {
        return Scalar::constant(exec_alu32(op, x as u32, y as u32) as u64);
    }
    // Inputs truncated to their low 32 bits.
    let a32 = if a.umax <= M32 {
        a
    } else {
        Scalar {
            tn: a.tn.cast32(),
            ..Scalar::top32()
        }
        .normalized()
    };
    let b32 = if matches!(op, AluOp::Lsh | AluOp::Rsh) {
        // 32-bit shifts mask the count with 31; the 64-bit transfer we
        // delegate to masks with 63, so pre-mask a known count here and
        // give up on an unknown one (the 64-bit non-const shift paths
        // are sound for any count, but a count in [32, 63] would shift
        // a known tnum too far).
        match b.const_val() {
            Some(c) => Scalar::constant(c & 31),
            None => Scalar::unknown(),
        }
    } else if b.umax <= M32 {
        b
    } else {
        Scalar {
            tn: b.tn.cast32(),
            ..Scalar::top32()
        }
        .normalized()
    };
    match op {
        AluOp::And
        | AluOp::Or
        | AluOp::Xor
        | AluOp::Div
        | AluOp::Mod
        | AluOp::Rsh
        | AluOp::Add
        | AluOp::Sub
        | AluOp::Mul
        | AluOp::Lsh => {
            // The first six cannot produce bits above 31 from 32-bit
            // inputs, and the 64-bit transfer is exact for them on such
            // inputs (the shift count was pre-masked to [0, 31] above; an
            // unknown count degrades to a sound range anyway). The last
            // four may carry past bit 31: keep the result only if it
            // provably didn't wrap.
            let r = alu64_transfer(op, a32, b32);
            if r.umax <= M32 {
                r
            } else {
                Scalar {
                    tn: r.tn.cast32(),
                    ..Scalar::top32()
                }
                .normalized()
            }
        }
        AluOp::Neg | AluOp::Arsh | AluOp::Mov => Scalar::top32(),
    }
}

/// Negation of a conditional-jump op: the condition that holds on the
/// fall-through edge.
fn negate_cmp(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Eq => CmpOp::Ne,
        CmpOp::Ne => CmpOp::Eq,
        CmpOp::Gt => CmpOp::Le,
        CmpOp::Ge => CmpOp::Lt,
        CmpOp::Lt => CmpOp::Ge,
        CmpOp::Le => CmpOp::Gt,
        CmpOp::Sgt => CmpOp::Sle,
        CmpOp::Sge => CmpOp::Slt,
        CmpOp::Slt => CmpOp::Sge,
        CmpOp::Sle => CmpOp::Sgt,
        CmpOp::Set => CmpOp::Set, // handled out of band
    }
}

/// Removes the single point `c` from a scalar's range when it sits on an
/// interval endpoint. `None` when the scalar *is* exactly `c` (the branch
/// is infeasible).
fn exclude_point(mut s: Scalar, c: u64) -> Option<Scalar> {
    if s.const_val() == Some(c) {
        return None;
    }
    if s.umin == c {
        s.umin = s.umin.checked_add(1)?;
    }
    if s.umax == c {
        s.umax = s.umax.checked_sub(1)?;
    }
    let sc = c as i64;
    if s.smin == sc {
        s.smin = s.smin.checked_add(1)?;
    }
    if s.smax == sc {
        s.smax = s.smax.checked_sub(1)?;
    }
    s.try_normalize()
}

/// Refines `(d, s)` under the assumption that the 64-bit comparison
/// `d <op> s` *holds*. Returns `None` when the assumption is infeasible
/// (the corresponding branch edge is dead).
fn refine_cmp64(op: CmpOp, d: Scalar, s: Scalar) -> Option<(Scalar, Scalar)> {
    match op {
        CmpOp::Eq => {
            let m = Scalar::meet(d, s)?;
            Some((m, m))
        }
        CmpOp::Ne => {
            let mut d2 = d;
            let mut s2 = s;
            if let Some(c) = s.const_val() {
                d2 = exclude_point(d2, c)?;
            }
            if let Some(c) = d.const_val() {
                s2 = exclude_point(s2, c)?;
            }
            Some((d2, s2))
        }
        CmpOp::Gt => {
            let mut d2 = d;
            let mut s2 = s;
            d2.umin = d2.umin.max(s.umin.checked_add(1)?);
            s2.umax = s2.umax.min(d.umax.checked_sub(1)?);
            Some((d2.try_normalize()?, s2.try_normalize()?))
        }
        CmpOp::Ge => {
            let mut d2 = d;
            let mut s2 = s;
            d2.umin = d2.umin.max(s.umin);
            s2.umax = s2.umax.min(d.umax);
            Some((d2.try_normalize()?, s2.try_normalize()?))
        }
        CmpOp::Lt => {
            let mut d2 = d;
            let mut s2 = s;
            d2.umax = d2.umax.min(s.umax.checked_sub(1)?);
            s2.umin = s2.umin.max(d.umin.checked_add(1)?);
            Some((d2.try_normalize()?, s2.try_normalize()?))
        }
        CmpOp::Le => {
            let mut d2 = d;
            let mut s2 = s;
            d2.umax = d2.umax.min(s.umax);
            s2.umin = s2.umin.max(d.umin);
            Some((d2.try_normalize()?, s2.try_normalize()?))
        }
        CmpOp::Sgt => {
            let mut d2 = d;
            let mut s2 = s;
            d2.smin = d2.smin.max(s.smin.checked_add(1)?);
            s2.smax = s2.smax.min(d.smax.checked_sub(1)?);
            Some((d2.try_normalize()?, s2.try_normalize()?))
        }
        CmpOp::Sge => {
            let mut d2 = d;
            let mut s2 = s;
            d2.smin = d2.smin.max(s.smin);
            s2.smax = s2.smax.min(d.smax);
            Some((d2.try_normalize()?, s2.try_normalize()?))
        }
        CmpOp::Slt => {
            let mut d2 = d;
            let mut s2 = s;
            d2.smax = d2.smax.min(s.smax.checked_sub(1)?);
            s2.smin = s2.smin.max(d.smin.checked_add(1)?);
            Some((d2.try_normalize()?, s2.try_normalize()?))
        }
        CmpOp::Sle => {
            let mut d2 = d;
            let mut s2 = s;
            d2.smax = d2.smax.min(s.smax);
            s2.smin = s2.smin.max(d.smin);
            Some((d2.try_normalize()?, s2.try_normalize()?))
        }
        CmpOp::Set => Some((d, s)), // refined by the JSET functions
    }
}

/// Refines under `d & s != 0` (JSET taken).
fn refine_jset_taken(d: Scalar, s: Scalar) -> Option<(Scalar, Scalar)> {
    let mut d2 = d;
    let mut s2 = s;
    // Both operands must be nonzero for the AND to be nonzero.
    d2.umin = d2.umin.max(1);
    s2.umin = s2.umin.max(1);
    if let Some(c) = s.const_val() {
        // No possibly-set bit of d overlaps c: infeasible.
        if d.tn.max() & c == 0 {
            return None;
        }
        // A single-bit constant pins that bit of d to 1.
        if c.count_ones() == 1 {
            d2.tn = d2.tn.intersect(Tnum { value: c, mask: !c })?;
        }
    }
    if let Some(c) = d.const_val() {
        if s.tn.max() & c == 0 {
            return None;
        }
        if c.count_ones() == 1 {
            s2.tn = s2.tn.intersect(Tnum { value: c, mask: !c })?;
        }
    }
    Some((d2.try_normalize()?, s2.try_normalize()?))
}

/// Refines under `d & s == 0` (JSET not taken).
fn refine_jset_fall(d: Scalar, s: Scalar) -> Option<(Scalar, Scalar)> {
    let mut d2 = d;
    let mut s2 = s;
    if let Some(c) = s.const_val() {
        // A known-set bit of d overlapping c makes the AND nonzero.
        if d.tn.value & c != 0 {
            return None;
        }
        // Every bit of c is now known-0 in d.
        d2.tn = Tnum {
            value: d2.tn.value,
            mask: d2.tn.mask & !c,
        };
    }
    if let Some(c) = d.const_val() {
        if s.tn.value & c != 0 {
            return None;
        }
        s2.tn = Tnum {
            value: s2.tn.value,
            mask: s2.tn.mask & !c,
        };
    }
    Some((d2.try_normalize()?, s2.try_normalize()?))
}

/// Branch refinement entry point: refines `(d, s)` for one edge of a
/// conditional jump. `taken` selects the edge; `is32` marks a JMP32
/// compare (which only observes the low halves — refinement is applied
/// only where that is sound). `None` means the edge is provably dead.
fn refine_branch(
    op: CmpOp,
    taken: bool,
    is32: bool,
    d: Scalar,
    s: Scalar,
) -> Option<(Scalar, Scalar)> {
    if is32 {
        // Exact evaluation, by the interpreter's own compare, when both
        // low halves are known.
        if let (Some(x), Some(y)) = (d.const_val(), s.const_val()) {
            return (take_branch(op, true, x, y) == taken).then_some((d, s));
        }
        // Unsigned 32-bit compares agree with the 64-bit compare when
        // both operands provably fit in 32 bits.
        let unsigned = matches!(
            op,
            CmpOp::Eq | CmpOp::Ne | CmpOp::Gt | CmpOp::Ge | CmpOp::Lt | CmpOp::Le | CmpOp::Set
        );
        if !(unsigned && d.umax <= M32 && s.umax <= M32) {
            return Some((d, s));
        }
    }
    if op == CmpOp::Set {
        return if taken {
            refine_jset_taken(d, s)
        } else {
            refine_jset_fall(d, s)
        };
    }
    let effective = if taken { op } else { negate_cmp(op) };
    refine_cmp64(effective, d, s)
}

/// Abstract register contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RegType {
    Uninit,
    Scalar(Scalar),
    /// Context pointer with a total-offset interval `[lo, hi]`.
    PtrCtx {
        lo: i64,
        hi: i64,
    },
    /// Stack pointer (relative to `r10`) with offset interval `[lo, hi]`.
    PtrStack {
        lo: i64,
        hi: i64,
    },
    /// Map-value pointer with offset interval `[lo, hi]`.
    PtrMapValue {
        lo: i64,
        hi: i64,
        value_size: u32,
        nullable: bool,
    },
    MapHandle {
        fd: MapFd,
    },
}

impl RegType {
    fn scalar() -> RegType {
        RegType::Scalar(Scalar::unknown())
    }

    fn known(v: u64) -> RegType {
        RegType::Scalar(Scalar::constant(v))
    }

    fn is_init(self) -> bool {
        !matches!(self, RegType::Uninit)
    }

    fn join(a: RegType, b: RegType) -> RegType {
        use RegType::*;
        match (a, b) {
            (x, y) if x == y => x,
            (Scalar(sa), Scalar(sb)) => Scalar(self::Scalar::join(sa, sb)),
            (PtrCtx { lo: la, hi: ha }, PtrCtx { lo: lb, hi: hb }) => PtrCtx {
                lo: la.min(lb),
                hi: ha.max(hb),
            },
            (PtrStack { lo: la, hi: ha }, PtrStack { lo: lb, hi: hb }) => PtrStack {
                lo: la.min(lb),
                hi: ha.max(hb),
            },
            (
                PtrMapValue {
                    lo: la,
                    hi: ha,
                    value_size: sa,
                    nullable: na,
                },
                PtrMapValue {
                    lo: lb,
                    hi: hb,
                    value_size: sb,
                    nullable: nb,
                },
            ) if sa == sb => PtrMapValue {
                lo: la.min(lb),
                hi: ha.max(hb),
                value_size: sa,
                nullable: na || nb,
            },
            _ => Uninit,
        }
    }

    fn render(self) -> String {
        fn span(lo: i64, hi: i64) -> String {
            if lo == hi {
                format!("{lo:+}")
            } else {
                format!("+[{lo},{hi}]")
            }
        }
        match self {
            RegType::Uninit => "uninit".to_string(),
            RegType::Scalar(s) => s.to_string(),
            RegType::PtrCtx { lo, hi } => format!("ctx{}", span(lo, hi)),
            RegType::PtrStack { lo, hi } => format!("fp{}", span(lo, hi)),
            RegType::PtrMapValue {
                lo,
                hi,
                value_size,
                nullable,
            } => format!(
                "map_value{}{}(size {value_size})",
                span(lo, hi),
                if nullable { "_or_null" } else { "" }
            ),
            RegType::MapHandle { fd } => format!("map_fd({})", fd.0),
        }
    }
}

const SLOT_COUNT: usize = STACK_SIZE / 8;

/// Abstract stack-slot contents (8-byte granularity, byte-level init mask).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotType {
    /// `mask` bit i set means byte i of the slot is initialized scalar data.
    Bytes { mask: u8 },
    /// Full 8-byte spill of a register.
    Spill(RegType),
}

impl SlotType {
    const UNINIT: SlotType = SlotType::Bytes { mask: 0 };

    fn join(a: SlotType, b: SlotType) -> SlotType {
        use SlotType::*;
        match (a, b) {
            (x, y) if x == y => x,
            (Spill(ra), Spill(rb)) => {
                let joined = RegType::join(ra, rb);
                if joined.is_init() {
                    Spill(joined)
                } else {
                    SlotType::UNINIT
                }
            }
            (Spill(_), Bytes { mask }) | (Bytes { mask }, Spill(_)) => Bytes { mask },
            (Bytes { mask: ma }, Bytes { mask: mb }) => Bytes { mask: ma & mb },
        }
    }

    fn init_mask(self) -> u8 {
        match self {
            SlotType::Bytes { mask } => mask,
            SlotType::Spill(_) => 0xff,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct State {
    regs: [RegType; REG_COUNT],
    stack: [SlotType; SLOT_COUNT],
}

impl State {
    fn entry() -> State {
        let mut regs = [RegType::Uninit; REG_COUNT];
        regs[1] = RegType::PtrCtx { lo: 0, hi: 0 };
        regs[10] = RegType::PtrStack { lo: 0, hi: 0 };
        State {
            regs,
            stack: [SlotType::UNINIT; SLOT_COUNT],
        }
    }

    fn join_into(&mut self, other: &State) -> bool {
        let mut changed = false;
        for (mine, theirs) in self.regs.iter_mut().zip(&other.regs) {
            let joined = RegType::join(*mine, *theirs);
            if joined != *mine {
                *mine = joined;
                changed = true;
            }
        }
        for (mine, theirs) in self.stack.iter_mut().zip(&other.stack) {
            let joined = SlotType::join(*mine, *theirs);
            if joined != *mine {
                *mine = joined;
                changed = true;
            }
        }
        changed
    }

    fn render_regs(&self) -> Vec<String> {
        self.regs.iter().map(|r| r.render()).collect()
    }

    /// The abstract value of an instruction's right-hand operand.
    fn operand(&self, pc: usize, src: Operand) -> Result<RegType, VerifyError> {
        match src {
            Operand::Reg(reg) if !self.regs[reg as usize].is_init() => {
                Err(VerifyError::UninitRead { pc, reg })
            }
            Operand::Reg(reg) => Ok(self.regs[reg as usize]),
            Operand::Imm(v) => Ok(RegType::known(v)),
        }
    }
}

/// The right-hand operand of an ALU op or a conditional jump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Operand {
    Reg(u8),
    Imm(u64),
}

/// Per-pc record of resolved stack traffic, collected during abstract
/// interpretation and consumed by the dead-store analysis.
#[derive(Debug, Clone, Default)]
struct AccessLog {
    /// Byte windows read from the stack: `(abs_start, len)` with
    /// `abs = r10_offset + STACK_SIZE` (register-offset reads log their
    /// whole window, which only widens liveness — sound for warnings).
    reads: Vec<(usize, usize)>,
    /// An exact-offset stack store: `(abs_start, size)`. Register-offset
    /// stores are not candidates (they may write anywhere in a window).
    store: Option<(usize, usize)>,
    /// Region this pc's memory access was proven to stay inside, if the
    /// bounds check on the *joined* abstract state succeeded. Consumed by
    /// the JIT's bounds-check elision.
    proven: Option<ProvenRegion>,
    /// At a `map_lookup_elem`, `map_update_elem` or `map_delete_elem`
    /// call: the constant map fd and the fixed stack key (and value)
    /// the joined state proves. Consumed by the JIT's inline fast paths.
    map_site: Option<MapSite>,
}

/// Memory region a load/store was proven to stay inside by the
/// value-tracking pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProvenRegion {
    /// Read-only context, in-bounds of the configured
    /// [`VerifierConfig::ctx_size`].
    Ctx,
    /// The 512-byte stack window.
    Stack,
    /// A non-null map value, in-bounds of the map's value size at
    /// verification time.
    MapValue,
}

/// Per-pc bounds proofs and map-call facts exported by a successful
/// value-tracking run.
///
/// The verifier steps every reachable pc exactly once, on the join of all
/// abstract states reaching it (the CFG is a forward DAG walked in pc
/// order), so a proof recorded at a pc holds on *every* execution path.
/// Attached proofs are the only way into the JIT: the JIT compiles every
/// load and store from its proof, with no runtime region dispatch or
/// bounds check for stack and context accesses, and emits nothing for a
/// pc without one, which no execution reaches. The map-call facts are the
/// JIT's inline plan ([`crate::analysis::helper_inline_plan`]): a map
/// lookup, update or delete site without one keeps the trampoline.
/// Proofs are attached to the verified [`Program`] and only produced when
/// [`VerifierConfig::value_tracking`] is enabled; a program without them
/// runs on the interpreter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessProofs {
    /// One entry per instruction slot.
    proofs: Vec<Option<ProvenRegion>>,
    /// Inlineable map lookup, update and delete sites as `(pc, facts)`,
    /// in pc order.
    map_sites: Vec<(usize, MapSite)>,
    /// Minimum runtime context length for which the `Ctx` proofs hold
    /// (the `ctx_size` the program was verified against). A shorter
    /// context runs the program on the interpreter.
    min_ctx_len: usize,
}

impl AccessProofs {
    /// The proof recorded for `pc`, if any.
    pub fn proven(&self, pc: usize) -> Option<ProvenRegion> {
        self.proofs.get(pc).copied().flatten()
    }

    /// The facts recorded for the map-helper call site at `pc`.
    pub(crate) fn map_site(&self, pc: usize) -> Option<MapSite> {
        self.map_sites
            .iter()
            .find(|(p, _)| *p == pc)
            .map(|(_, site)| *site)
    }

    /// Minimum runtime context length for which `Ctx` proofs are sound.
    pub fn min_ctx_len(&self) -> usize {
        self.min_ctx_len
    }

    /// Number of instruction slots with a recorded proof.
    pub fn proven_count(&self) -> usize {
        self.proofs.iter().filter(|p| p.is_some()).count()
    }

    /// Number of instruction slots covered (proved or not).
    pub fn len(&self) -> usize {
        self.proofs.len()
    }

    /// True when no slots are covered.
    pub fn is_empty(&self) -> bool {
        self.proofs.is_empty()
    }

    /// An all-`None` proof table (nothing elidable) covering `len` slots.
    #[cfg(test)]
    pub(crate) fn empty_for_len(len: usize, min_ctx_len: usize) -> AccessProofs {
        AccessProofs {
            proofs: vec![None; len],
            map_sites: Vec::new(),
            min_ctx_len,
        }
    }
}

/// The verifier.
///
/// # Examples
///
/// ```
/// use kscope_ebpf::asm::Asm;
/// use kscope_ebpf::insn::R0;
/// use kscope_ebpf::maps::MapRegistry;
/// use kscope_ebpf::verifier::Verifier;
///
/// let prog = Asm::new("ok").mov64_imm(R0, 0).exit().assemble().unwrap();
/// Verifier::default().verify(&prog, &MapRegistry::new()).unwrap();
/// ```
#[derive(Debug, Clone, Default)]
pub struct Verifier {
    config: VerifierConfig,
}

impl Verifier {
    /// Creates a verifier with the given configuration.
    pub fn new(config: VerifierConfig) -> Verifier {
        Verifier { config }
    }

    /// Verifies `program` against the maps in `maps`.
    ///
    /// # Errors
    ///
    /// Returns the first [`VerifyError`] encountered; a verified program is
    /// guaranteed not to fault in the interpreter. This is the first-error
    /// view over [`Verifier::verify_report`].
    pub fn verify(&self, program: &Program, maps: &MapRegistry) -> Result<(), VerifyError> {
        match self.verify_report(program, maps).errors.into_iter().next() {
            None => Ok(()),
            Some(d) => Err(d.error),
        }
    }

    /// Verifies `program`, collecting *every* error (with per-error
    /// register dumps and witness paths) and advisory warnings
    /// (unreachable instructions, dead stack stores).
    pub fn verify_report(&self, program: &Program, maps: &MapRegistry) -> VerifierReport {
        let mut report = VerifierReport::default();
        let insns = program.insns();
        if insns.is_empty() {
            report.errors.push(Diagnostic {
                error: VerifyError::Empty,
                path: Vec::new(),
                regs: Vec::new(),
            });
            return report;
        }
        if insns.len() > MAX_INSNS {
            report.errors.push(Diagnostic {
                error: VerifyError::TooLarge {
                    len: insns.len(),
                    max: MAX_INSNS,
                },
                path: Vec::new(),
                regs: Vec::new(),
            });
            return report;
        }

        // Structural pass: ld_dw pairing and jump-target validation. A
        // structurally broken program has no meaningful CFG, so these
        // errors short-circuit the value analysis.
        let decoded = program.decoded();
        let is_ld_dw_hi = match crate::analysis::structure(decoded) {
            Ok(is_hi) => is_hi,
            Err(errors) => {
                report
                    .errors
                    .extend(errors.into_iter().map(|error| Diagnostic {
                        error,
                        path: Vec::new(),
                        regs: Vec::new(),
                    }));
                return report;
            }
        };

        // Abstract interpretation in pc order (valid because the CFG is a
        // DAG with edges only going forward), over the decoded slots the
        // JIT compiles. `pred` records the first
        // predecessor that reached each pc, giving a witness path for
        // diagnostics.
        let mut states: Vec<Option<State>> = vec![None; insns.len()];
        let mut pred: Vec<Option<usize>> = vec![None; insns.len()];
        states[0] = Some(State::entry());
        let mut logs: Vec<AccessLog> = vec![AccessLog::default(); insns.len()];
        let merge = |states: &mut Vec<Option<State>>,
                     pred: &mut Vec<Option<usize>>,
                     target: usize,
                     state: &State,
                     from: usize| {
            match &mut states[target] {
                Some(existing) => {
                    existing.join_into(state);
                }
                slot @ None => {
                    *slot = Some(state.clone());
                    pred[target] = Some(from);
                }
            }
        };
        let witness = |pred: &[Option<usize>], pc: usize| -> Vec<usize> {
            let mut path = vec![pc];
            let mut cur = pc;
            while let Some(p) = pred[cur] {
                path.push(p);
                cur = p;
            }
            path.reverse();
            path
        };

        let mut pc = 0;
        while pc < insns.len() {
            if is_ld_dw_hi[pc] {
                pc += 1;
                continue;
            }
            let Some(state) = states[pc].clone() else {
                pc += 1;
                continue; // unreachable instruction
            };
            let d = decoded[pc];
            match self.step(pc, d, state.clone(), maps, &mut logs[pc]) {
                Err(error) => {
                    // Record and stop propagating this path; other paths
                    // keep verifying so the report covers every error.
                    report.errors.push(Diagnostic {
                        error,
                        path: witness(&pred, pc),
                        regs: state.render_regs(),
                    });
                }
                Ok(Flow::Next(state)) => {
                    let next = pc + d.width();
                    if next >= insns.len() {
                        report.errors.push(Diagnostic {
                            error: VerifyError::FallOffEnd { pc },
                            path: witness(&pred, pc),
                            regs: state.render_regs(),
                        });
                    } else {
                        merge(&mut states, &mut pred, next, &state, pc);
                    }
                }
                Ok(Flow::Jump { target, state }) => {
                    merge(&mut states, &mut pred, target, &state, pc)
                }
                Ok(Flow::Branch {
                    taken,
                    taken_state,
                    fall_state,
                }) => {
                    if let Some(ts) = taken_state {
                        merge(&mut states, &mut pred, taken, &ts, pc);
                    }
                    if let Some(fs) = fall_state {
                        if pc + 1 >= insns.len() {
                            report.errors.push(Diagnostic {
                                error: VerifyError::FallOffEnd { pc },
                                path: witness(&pred, pc),
                                regs: state.render_regs(),
                            });
                        } else {
                            merge(&mut states, &mut pred, pc + 1, &fs, pc);
                        }
                    }
                }
                Ok(Flow::Exit) => {}
            }
            pc += 1;
        }

        // Advisory warnings, only meaningful for accepted programs. Both
        // analyses live in `crate::analysis`; the verifier supplies
        // reachability and its abstract access log.
        if report.errors.is_empty() {
            let reachable: Vec<bool> = states.iter().map(|s| s.is_some()).collect();
            report
                .warnings
                .extend(crate::analysis::unreachable_warnings(
                    &is_ld_dw_hi,
                    &reachable,
                ));
            report.warnings.extend(crate::analysis::dead_store_warnings(
                decoded,
                &is_ld_dw_hi,
                &reachable,
                |pc| {
                    let log = &logs[pc];
                    (log.reads.as_slice(), log.store)
                },
            ));
            // Publish per-pc access proofs and map-call facts for the JIT.
            // Sound because the walk above steps each pc exactly once, on
            // the join of every inbound path's state: a fact recorded
            // there holds on all executions. Gated on value tracking —
            // without it the ranges that justify the proofs were never
            // computed. Attached before pricing, so the certificate
            // prices the plan the JIT will emit.
            if self.config.value_tracking {
                program.attach_access_proofs(AccessProofs {
                    proofs: logs.iter().map(|l| l.proven).collect(),
                    map_sites: logs
                        .iter()
                        .enumerate()
                        .filter_map(|(pc, l)| Some((pc, l.map_site?)))
                        .collect(),
                    min_ctx_len: self.config.ctx_size,
                });
            }
            report.cost = crate::analysis::cost_report(program);
        }
        report
    }

    fn step(
        &self,
        pc: usize,
        d: Decoded,
        mut state: State,
        maps: &MapRegistry,
        log: &mut AccessLog,
    ) -> Result<Flow, VerifyError> {
        let read = |state: &State, reg: u8| -> Result<RegType, VerifyError> {
            let t = state.regs[reg as usize];
            if t.is_init() {
                Ok(t)
            } else {
                Err(VerifyError::UninitRead { pc, reg })
            }
        };
        let write = |state: &mut State, reg: u8, t: RegType| -> Result<(), VerifyError> {
            if reg == 10 {
                return Err(VerifyError::WriteToFp { pc });
            }
            state.regs[reg as usize] = t;
            Ok(())
        };

        match d {
            Decoded::LdImm64 { dst, value } => write(&mut state, dst, RegType::known(value))?,
            Decoded::LdMapFd { dst, fd } => {
                let fd = MapFd(fd);
                if maps.def(fd).is_err() {
                    return Err(VerifyError::BadMapFd { pc, fd: fd.0 });
                }
                write(&mut state, dst, RegType::MapHandle { fd })?;
            }
            Decoded::Load {
                size,
                dst,
                src,
                off,
            } => {
                let base = read(&state, src)?;
                let loaded = self.check_load(pc, &state, base, off.into(), size.into(), log)?;
                write(&mut state, dst, loaded)?;
            }
            Decoded::StoreReg {
                size,
                dst,
                src,
                off,
            } => {
                let base = read(&state, dst)?;
                let value = read(&state, src)?;
                self.check_store(pc, &mut state, base, off.into(), size.into(), value, log)?;
            }
            Decoded::StoreImm {
                size,
                dst,
                off,
                imm,
            } => {
                let base = read(&state, dst)?;
                let value = RegType::known(imm);
                self.check_store(pc, &mut state, base, off.into(), size.into(), value, log)?;
            }
            Decoded::Alu64Imm { op, dst, imm } => {
                self.alu(pc, op, true, dst, Operand::Imm(imm), &mut state)?
            }
            Decoded::Alu64Reg { op, dst, src } => {
                self.alu(pc, op, true, dst, Operand::Reg(src), &mut state)?
            }
            Decoded::Alu32Imm { op, dst, imm } => {
                self.alu(pc, op, false, dst, Operand::Imm(imm.into()), &mut state)?
            }
            Decoded::Alu32Reg { op, dst, src } => {
                self.alu(pc, op, false, dst, Operand::Reg(src), &mut state)?
            }
            Decoded::Call { helper } => self.check_call(pc, helper, &mut state, maps, log)?,
            Decoded::Exit => {
                if !matches!(state.regs[0], RegType::Scalar(_)) {
                    return Err(VerifyError::ExitWithoutR0 { pc });
                }
                return Ok(Flow::Exit);
            }
            Decoded::Ja { target } => {
                return Ok(Flow::Jump {
                    target: target as usize,
                    state,
                })
            }
            Decoded::JmpImm {
                op,
                w32,
                dst,
                rhs,
                target,
            } => {
                // The decoder zero-extends a JMP32 immediate; refinement
                // keeps the sign-extended value the instruction encodes.
                let rhs = if w32 { rhs as u32 as i32 as u64 } else { rhs };
                let (taken_state, fall_state) =
                    self.branch(pc, op, w32, dst, Operand::Imm(rhs), state)?;
                return Ok(Flow::Branch {
                    taken: target as usize,
                    taken_state,
                    fall_state,
                });
            }
            Decoded::JmpReg {
                op,
                w32,
                dst,
                src,
                target,
            } => {
                let (taken_state, fall_state) =
                    self.branch(pc, op, w32, dst, Operand::Reg(src), state)?;
                return Ok(Flow::Branch {
                    taken: target as usize,
                    taken_state,
                    fall_state,
                });
            }
            Decoded::UnknownHelper { id } => return Err(VerifyError::UnknownHelper { pc, id }),
            Decoded::BadOpcode { code, .. } => return Err(VerifyError::BadOpcode { pc, code }),
            Decoded::MalformedLdDw => return Err(VerifyError::MalformedLdDw { pc }),
            Decoded::BadRegister { reg, .. } => return Err(VerifyError::BadRegister { pc, reg }),
        }
        Ok(Flow::Next(state))
    }

    fn check_load(
        &self,
        pc: usize,
        state: &State,
        base: RegType,
        insn_off: i64,
        size: usize,
        log: &mut AccessLog,
    ) -> Result<RegType, VerifyError> {
        match base {
            RegType::PtrCtx { lo, hi } => {
                let start_lo = lo.saturating_add(insn_off);
                let start_hi = hi.saturating_add(insn_off);
                if start_lo < 0
                    || start_hi.saturating_add(size as i64) > self.config.ctx_size as i64
                {
                    return Err(VerifyError::OutOfBounds {
                        pc,
                        region: "context",
                        off: start_lo,
                        size,
                    });
                }
                log.proven = Some(ProvenRegion::Ctx);
                Ok(RegType::scalar())
            }
            RegType::PtrStack { lo, hi } => {
                let start_lo = lo.saturating_add(insn_off);
                let start_hi = hi.saturating_add(insn_off);
                check_stack_window(pc, start_lo, start_hi, size)?;
                log.proven = Some(ProvenRegion::Stack);
                let abs_lo = (start_lo + STACK_SIZE as i64) as usize;
                let abs_hi = (start_hi + STACK_SIZE as i64) as usize;
                log.reads.push((abs_lo, abs_hi - abs_lo + size));
                if start_lo == start_hi {
                    // Aligned 8-byte fill of a spilled register restores
                    // its type.
                    if size == 8 && abs_lo.is_multiple_of(8) {
                        if let SlotType::Spill(t) = state.stack[abs_lo / 8] {
                            return Ok(t);
                        }
                    }
                }
                // Every byte the access window can touch must be
                // initialized (for a register offset: the whole window).
                for byte in abs_lo..abs_hi + size {
                    let mask = state.stack[byte / 8].init_mask();
                    if mask & (1 << (byte % 8)) == 0 {
                        return Err(VerifyError::UninitStackRead { pc, off: start_lo });
                    }
                }
                Ok(RegType::scalar())
            }
            RegType::PtrMapValue {
                lo,
                hi,
                value_size,
                nullable,
            } => {
                if nullable {
                    return Err(VerifyError::MaybeNullDeref { pc });
                }
                let start_lo = lo.saturating_add(insn_off);
                let start_hi = hi.saturating_add(insn_off);
                if start_lo < 0 || start_hi.saturating_add(size as i64) > value_size as i64 {
                    return Err(VerifyError::OutOfBounds {
                        pc,
                        region: "map value",
                        off: start_lo,
                        size,
                    });
                }
                log.proven = Some(ProvenRegion::MapValue);
                Ok(RegType::scalar())
            }
            _ => Err(VerifyError::PointerArith { pc }),
        }
    }

    #[allow(clippy::too_many_arguments)] // mirrors check_load plus the stored type
    fn check_store(
        &self,
        pc: usize,
        state: &mut State,
        base: RegType,
        insn_off: i64,
        size: usize,
        src_type: RegType,
        log: &mut AccessLog,
    ) -> Result<(), VerifyError> {
        match base {
            RegType::PtrCtx { .. } => Err(VerifyError::WriteToCtx { pc }),
            RegType::PtrStack { lo, hi } => {
                let start_lo = lo.saturating_add(insn_off);
                let start_hi = hi.saturating_add(insn_off);
                check_stack_window(pc, start_lo, start_hi, size)?;
                log.proven = Some(ProvenRegion::Stack);
                let abs_lo = (start_lo + STACK_SIZE as i64) as usize;
                let abs_hi = (start_hi + STACK_SIZE as i64) as usize;
                if start_lo == start_hi {
                    log.store = Some((abs_lo, size));
                    if size == 8 && abs_lo.is_multiple_of(8) {
                        state.stack[abs_lo / 8] = SlotType::Spill(src_type);
                    } else {
                        for byte in abs_lo..abs_lo + size {
                            let slot = &mut state.stack[byte / 8];
                            let mask = slot.init_mask();
                            // A partial overwrite of a spilled pointer
                            // degrades the whole slot to scalar bytes.
                            let base_mask = if matches!(slot, SlotType::Spill(_)) {
                                0xff
                            } else {
                                mask
                            };
                            *slot = SlotType::Bytes {
                                mask: base_mask | (1 << (byte % 8)),
                            };
                        }
                    }
                } else {
                    // Register-offset store: it lands *somewhere* in the
                    // window. No byte becomes provably initialized, and
                    // any spill the window overlaps may have been
                    // clobbered — degrade those slots to raw bytes.
                    for slot_idx in (abs_lo / 8)..=((abs_hi + size - 1) / 8).min(SLOT_COUNT - 1) {
                        if matches!(state.stack[slot_idx], SlotType::Spill(_)) {
                            state.stack[slot_idx] = SlotType::Bytes { mask: 0xff };
                        }
                    }
                }
                Ok(())
            }
            RegType::PtrMapValue {
                lo,
                hi,
                value_size,
                nullable,
            } => {
                if nullable {
                    return Err(VerifyError::MaybeNullDeref { pc });
                }
                let start_lo = lo.saturating_add(insn_off);
                let start_hi = hi.saturating_add(insn_off);
                if start_lo < 0 || start_hi.saturating_add(size as i64) > value_size as i64 {
                    return Err(VerifyError::OutOfBounds {
                        pc,
                        region: "map value",
                        off: start_lo,
                        size,
                    });
                }
                // Storing pointers into maps would leak kernel addresses.
                if !matches!(src_type, RegType::Scalar(_)) {
                    return Err(VerifyError::PointerArith { pc });
                }
                log.proven = Some(ProvenRegion::MapValue);
                Ok(())
            }
            _ => Err(VerifyError::PointerArith { pc }),
        }
    }

    fn alu(
        &self,
        pc: usize,
        op: AluOp,
        is64: bool,
        dst: u8,
        src: Operand,
        state: &mut State,
    ) -> Result<(), VerifyError> {
        if dst == 10 {
            return Err(VerifyError::WriteToFp { pc });
        }
        let rhs = state.operand(pc, src)?;
        // MOV initializes dst; every other op also reads it.
        let dst_t = state.regs[dst as usize];
        if op != AluOp::Mov && !dst_t.is_init() {
            return Err(VerifyError::UninitRead { pc, reg: dst });
        }
        if matches!(op, AluOp::Div | AluOp::Mod) && src == Operand::Imm(0) {
            return Err(VerifyError::DivByZeroImm { pc });
        }

        if !is64 {
            // 32-bit ALU only operates on scalars (pointer truncation is
            // forbidden).
            if op != AluOp::Mov && !matches!(dst_t, RegType::Scalar(_)) {
                return Err(VerifyError::PointerArith { pc });
            }
            let RegType::Scalar(rhs_s) = rhs else {
                return Err(VerifyError::PointerArith { pc });
            };
            let dst_s = match dst_t {
                RegType::Scalar(s) => s,
                _ => Scalar::unknown(), // only reachable for MOV
            };
            state.regs[dst as usize] = RegType::Scalar(alu32_transfer(op, dst_s, rhs_s));
            return Ok(());
        }

        let result = match op {
            AluOp::Mov => rhs,
            AluOp::Add | AluOp::Sub => match (dst_t, rhs) {
                (RegType::Scalar(a), RegType::Scalar(b)) => {
                    RegType::Scalar(alu64_transfer(op, a, b))
                }
                (ptr, RegType::Scalar(s)) if is_ptr(ptr) => {
                    if matches!(src, Operand::Reg(_)) && !self.config.value_tracking {
                        // Type-only mode: a register offset has no known
                        // bounds, so pointer arithmetic with it is opaque.
                        return Err(VerifyError::PointerArith { pc });
                    }
                    // A bounded unknown scalar is fine: the pointer keeps
                    // an offset interval and every later access is checked
                    // against it. An offset that may have wrapped becomes
                    // the full interval, which no access check admits.
                    adjust_ptr_range(ptr, op, s)
                }
                _ => return Err(VerifyError::PointerArith { pc }),
            },
            AluOp::Neg => {
                let RegType::Scalar(a) = dst_t else {
                    return Err(VerifyError::PointerArith { pc });
                };
                RegType::Scalar(alu64_transfer(AluOp::Neg, a, a))
            }
            AluOp::Mul
            | AluOp::Div
            | AluOp::Or
            | AluOp::And
            | AluOp::Lsh
            | AluOp::Rsh
            | AluOp::Mod
            | AluOp::Xor
            | AluOp::Arsh => {
                let (RegType::Scalar(a), RegType::Scalar(b)) = (dst_t, rhs) else {
                    return Err(VerifyError::PointerArith { pc });
                };
                RegType::Scalar(alu64_transfer(op, a, b))
            }
        };
        state.regs[dst as usize] = result;
        Ok(())
    }

    /// The two out-edges of a conditional jump, `(taken, fall-through)`;
    /// a `None` edge is proven dead.
    fn branch(
        &self,
        pc: usize,
        op: CmpOp,
        w32: bool,
        dst: u8,
        src: Operand,
        state: State,
    ) -> Result<(Option<State>, Option<State>), VerifyError> {
        let dst_t = state.regs[dst as usize];
        if !dst_t.is_init() {
            return Err(VerifyError::UninitRead { pc, reg: dst });
        }
        if w32 && !matches!(dst_t, RegType::Scalar(_)) {
            // Comparing the lower half of a pointer is meaningless.
            return Err(VerifyError::PointerArith { pc });
        }
        let rhs_is_zero_imm = !w32 && src == Operand::Imm(0);
        let rhs = state.operand(pc, src)?;
        if let Operand::Reg(_) = src {
            // Register comparisons must involve scalars or pointers of the
            // same region; comparing a map handle is meaningless.
            if matches!(dst_t, RegType::MapHandle { .. })
                || matches!(rhs, RegType::MapHandle { .. })
            {
                return Err(VerifyError::PointerArith { pc });
            }
        } else if matches!(dst_t, RegType::MapHandle { .. }) {
            return Err(VerifyError::PointerArith { pc });
        } else if is_ptr(dst_t)
            && !(rhs_is_zero_imm && matches!(dst_t, RegType::PtrMapValue { .. }))
        {
            // The only pointer-vs-immediate comparison allowed is the
            // NULL check on a map value.
            return Err(VerifyError::PointerArith { pc });
        }

        let mut taken_state = Some(state.clone());
        let mut fall_state = Some(state);

        // NULL-check refinement on map-value pointers.
        if let RegType::PtrMapValue {
            lo, hi, value_size, ..
        } = dst_t
        {
            if rhs_is_zero_imm {
                let non_null = RegType::PtrMapValue {
                    lo,
                    hi,
                    value_size,
                    nullable: false,
                };
                // On the NULL edge the pointer is treated as scalar 0. A
                // pointer takes no scalar refinement below.
                let (null_edge, non_null_edge) = match op {
                    CmpOp::Eq => (&mut taken_state, &mut fall_state),
                    CmpOp::Ne => (&mut fall_state, &mut taken_state),
                    _ => return Ok((taken_state, fall_state)),
                };
                if let Some(s) = null_edge {
                    s.regs[dst as usize] = RegType::known(0);
                }
                if let Some(s) = non_null_edge {
                    s.regs[dst as usize] = non_null;
                }
            }
        }

        // Scalar-vs-scalar refinement along both edges, with dead-edge
        // pruning. Type-only mode leaves both edges live and unrefined.
        if let (RegType::Scalar(d), RegType::Scalar(s)) = (dst_t, rhs) {
            if self.config.value_tracking {
                let apply = |edge: &mut Option<State>, refined| match refined {
                    None => *edge = None,
                    Some((d2, s2)) => {
                        if let Some(st) = edge {
                            st.regs[dst as usize] = RegType::Scalar(d2);
                            if let Operand::Reg(src) = src {
                                st.regs[src as usize] = RegType::Scalar(s2);
                            }
                        }
                    }
                };
                apply(&mut taken_state, refine_branch(op, true, w32, d, s));
                apply(&mut fall_state, refine_branch(op, false, w32, d, s));
            }
        }
        Ok((taken_state, fall_state))
    }

    fn check_call(
        &self,
        pc: usize,
        helper: Helper,
        state: &mut State,
        maps: &MapRegistry,
        log: &mut AccessLog,
    ) -> Result<(), VerifyError> {
        let signature = helper.signature();
        let mut map_fd: Option<MapFd> = None;
        let mut mem_ptr_pending: Option<(u8, RegType)> = None;
        for (i, class) in signature.iter().enumerate() {
            let reg = (i + 1) as u8;
            let t = state.regs[reg as usize];
            if !t.is_init() {
                return Err(VerifyError::UninitRead { pc, reg });
            }
            match class {
                ArgClass::Map => match t {
                    RegType::MapHandle { fd } => map_fd = Some(fd),
                    _ => {
                        return Err(VerifyError::BadHelperArg {
                            pc,
                            helper,
                            arg: reg,
                            expected: "a map handle (ld_map_fd)",
                        })
                    }
                },
                ArgClass::MapKeyPtr | ArgClass::MapValuePtr => {
                    let fd = map_fd.ok_or(VerifyError::BadHelperArg {
                        pc,
                        helper,
                        arg: reg,
                        expected: "a map handle before key/value args",
                    })?;
                    let def = maps
                        .def(fd)
                        .map_err(|_| VerifyError::BadMapFd { pc, fd: fd.0 })?;
                    let needed = if *class == ArgClass::MapKeyPtr {
                        def.key_size
                    } else {
                        def.value_size
                    } as usize;
                    self.check_readable(pc, state, t, needed, log)
                        .map_err(|_| VerifyError::BadHelperArg {
                            pc,
                            helper,
                            arg: reg,
                            expected: "a readable pointer covering the key/value size",
                        })?;
                }
                ArgClass::MemPtr => {
                    mem_ptr_pending = Some((reg, t));
                }
                ArgClass::Scalar => {
                    let RegType::Scalar(s) = t else {
                        return Err(VerifyError::BadHelperArg {
                            pc,
                            helper,
                            arg: reg,
                            expected: "a scalar",
                        });
                    };
                    // If the previous arg was a MemPtr, this scalar is its
                    // length and must be a known constant for bounds checks.
                    if let Some((mem_reg, mem_t)) = mem_ptr_pending.take() {
                        let Some(len) = s.const_val() else {
                            return Err(VerifyError::BadHelperArg {
                                pc,
                                helper,
                                arg: reg,
                                expected: "a known-constant length",
                            });
                        };
                        self.check_readable(pc, state, mem_t, len as usize, log)
                            .map_err(|_| VerifyError::BadHelperArg {
                                pc,
                                helper,
                                arg: mem_reg,
                                expected: "a readable buffer of the given length",
                            })?;
                    }
                }
            }
        }

        // Map-kind admission, mirroring the kernel's
        // check_map_func_compatibility: the generic key/value helpers
        // reject sketch maps (their storage is not key/value shaped),
        // and the sketch helper accepts only sketch maps.
        if let Some(fd) = map_fd {
            let def = maps
                .def(fd)
                .map_err(|_| VerifyError::BadMapFd { pc, fd: fd.0 })?;
            let compatible = match helper {
                Helper::SketchUpdate => def.kind == MapKind::TopkSketch,
                Helper::MapLookupElem | Helper::MapUpdateElem | Helper::MapDeleteElem => {
                    def.kind != MapKind::TopkSketch
                }
                _ => true,
            };
            if !compatible {
                return Err(VerifyError::BadHelperArg {
                    pc,
                    helper,
                    arg: 1,
                    expected: "a map kind this helper accepts",
                });
            }
        }

        // A map call whose map and stack addresses are the same on every
        // path can compile inline (DESIGN §6f).
        let site = match (state.regs[1], state.regs[2]) {
            (RegType::MapHandle { fd }, RegType::PtrStack { lo, hi }) if lo == hi => {
                MapSite::new(fd, lo)
            }
            _ => None,
        };
        log.map_site = match (helper, state.regs[3], map_fd.map(|fd| maps.def(fd))) {
            (Helper::MapLookupElem, _, _) => site,
            // Only hash keys have a delete fast path.
            (Helper::MapDeleteElem, _, _) => site.filter(|s| s.hash8_ok),
            (Helper::MapUpdateElem, RegType::PtrStack { lo, hi }, Some(Ok(def))) if lo == hi => {
                site.and_then(|s| s.for_update(lo, def.value_size))
            }
            _ => None,
        };

        // Caller-saved registers are clobbered; r0 takes the return type.
        for reg in 1..=5 {
            state.regs[reg] = RegType::Uninit;
        }
        state.regs[0] = match helper.return_class() {
            RetClass::Scalar => RegType::scalar(),
            RetClass::MapValueOrNull => {
                // Helpers returning a map value always take a Map arg; a
                // signature without one is unsatisfiable here.
                let Some(fd) = map_fd else {
                    return Err(VerifyError::BadHelperArg {
                        pc,
                        helper,
                        arg: 1,
                        expected: "a map handle (ld_map_fd)",
                    });
                };
                let def = maps
                    .def(fd)
                    .map_err(|_| VerifyError::BadMapFd { pc, fd: fd.0 })?;
                RegType::PtrMapValue {
                    lo: 0,
                    hi: 0,
                    value_size: def.value_size,
                    nullable: true,
                }
            }
        };
        Ok(())
    }

    /// Checks `len` bytes are readable through `ptr`.
    fn check_readable(
        &self,
        pc: usize,
        state: &State,
        ptr: RegType,
        len: usize,
        log: &mut AccessLog,
    ) -> Result<(), VerifyError> {
        if len == 0 {
            return Ok(());
        }
        match ptr {
            RegType::PtrStack { lo, hi } => {
                check_stack_window(pc, lo, hi, len)?;
                let abs_lo = (lo + STACK_SIZE as i64) as usize;
                let abs_hi = (hi + STACK_SIZE as i64) as usize;
                log.reads.push((abs_lo, abs_hi - abs_lo + len));
                for byte in abs_lo..abs_hi + len {
                    if state.stack[byte / 8].init_mask() & (1 << (byte % 8)) == 0 {
                        return Err(VerifyError::UninitStackRead { pc, off: lo });
                    }
                }
                Ok(())
            }
            RegType::PtrMapValue {
                lo,
                hi,
                value_size,
                nullable,
            } => {
                if nullable {
                    return Err(VerifyError::MaybeNullDeref { pc });
                }
                if lo < 0 || hi.saturating_add(len as i64) > value_size as i64 {
                    return Err(VerifyError::OutOfBounds {
                        pc,
                        region: "map value",
                        off: lo,
                        size: len,
                    });
                }
                Ok(())
            }
            RegType::PtrCtx { lo, hi } => {
                if lo < 0 || hi.saturating_add(len as i64) > self.config.ctx_size as i64 {
                    return Err(VerifyError::OutOfBounds {
                        pc,
                        region: "context",
                        off: lo,
                        size: len,
                    });
                }
                Ok(())
            }
            _ => Err(VerifyError::PointerArith { pc }),
        }
    }
}

/// Bounds-checks a stack access window `[lo, hi] + size` (offsets
/// relative to `r10`).
fn check_stack_window(pc: usize, lo: i64, hi: i64, size: usize) -> Result<(), VerifyError> {
    if lo < -(STACK_SIZE as i64) || hi.saturating_add(size as i64) > 0 || lo > hi {
        Err(VerifyError::OutOfBounds {
            pc,
            region: "stack",
            off: lo,
            size,
        })
    } else {
        Ok(())
    }
}

fn is_ptr(t: RegType) -> bool {
    matches!(
        t,
        RegType::PtrCtx { .. } | RegType::PtrStack { .. } | RegType::PtrMapValue { .. }
    )
}

/// Pointer ± scalar: shifts the offset interval by the scalar's signed
/// range. If negating the range or shifting either endpoint overflows,
/// the concrete offset may have wrapped, so the interval widens to
/// `[i64::MIN, i64::MAX]`: it contains every offset mod 2⁶⁴, stays full
/// under further shifts, and fails every access check.
fn adjust_ptr_range(ptr: RegType, op: AluOp, s: Scalar) -> RegType {
    let delta = if op == AluOp::Add {
        Some((s.smin, s.smax))
    } else {
        s.smax.checked_neg().zip(s.smin.checked_neg())
    };
    let shift = |lo: i64, hi: i64| {
        delta
            .and_then(|(dmin, dmax)| lo.checked_add(dmin).zip(hi.checked_add(dmax)))
            .unwrap_or((i64::MIN, i64::MAX))
    };
    match ptr {
        RegType::PtrCtx { lo, hi } => {
            let (lo, hi) = shift(lo, hi);
            RegType::PtrCtx { lo, hi }
        }
        RegType::PtrStack { lo, hi } => {
            let (lo, hi) = shift(lo, hi);
            RegType::PtrStack { lo, hi }
        }
        RegType::PtrMapValue {
            lo,
            hi,
            value_size,
            nullable,
        } => {
            let (lo, hi) = shift(lo, hi);
            RegType::PtrMapValue {
                lo,
                hi,
                value_size,
                nullable,
            }
        }
        other => other,
    }
}

#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // transient per-instruction value
enum Flow {
    Next(State),
    Jump {
        target: usize,
        state: State,
    },
    /// Conditional jump; a `None` edge is proven dead and not merged.
    Branch {
        taken: usize,
        taken_state: Option<State>,
        fall_state: Option<State>,
    },
    Exit,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift64* for in-module soundness fuzzing.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545F4914F6CDD1D)
        }
        /// A scalar abstraction together with a concrete member value.
        fn scalar_and_member(&mut self) -> (Scalar, u64) {
            let v = match self.next() % 4 {
                0 => self.next() % 256,
                1 => self.next(),
                2 => self.next() % 64,
                _ => u64::MAX - self.next() % 16,
            };
            let s = match self.next() % 4 {
                0 => Scalar::constant(v),
                1 => Scalar::unknown(),
                2 => {
                    let slack = self.next() % 1024;
                    Scalar::from_urange(v.saturating_sub(slack), v.saturating_add(slack))
                }
                _ => {
                    // Known high bits via tnum.
                    let mask = (1u64 << (self.next() % 17)) - 1;
                    Scalar {
                        tn: Tnum {
                            value: v & !mask,
                            mask,
                        },
                        umin: 0,
                        umax: u64::MAX,
                        smin: i64::MIN,
                        smax: i64::MAX,
                    }
                    .normalized()
                }
            };
            (s, v)
        }
    }

    fn contains(s: Scalar, v: u64) -> bool {
        s.tn.contains(v)
            && v >= s.umin
            && v <= s.umax
            && (v as i64) >= s.smin
            && (v as i64) <= s.smax
    }

    const OPS: &[AluOp] = &[
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::Div,
        AluOp::Mod,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Lsh,
        AluOp::Rsh,
        AluOp::Arsh,
        AluOp::Neg,
    ];

    /// Headline transfer-function soundness: the abstract result always
    /// contains the concrete result the interpreter computes, for every
    /// op, 64- and 32-bit.
    #[test]
    fn alu_transfer_is_sound() {
        let mut rng = Rng(0x5EED_0001);
        for _ in 0..20_000 {
            let (a, x) = rng.scalar_and_member();
            let (b, y) = rng.scalar_and_member();
            assert!(contains(a, x), "generator broke: {a} !∋ {x}");
            assert!(contains(b, y), "generator broke: {b} !∋ {y}");
            let op = OPS[(rng.next() % OPS.len() as u64) as usize];
            let v = exec_alu64(op, x, y);
            let r = alu64_transfer(op, a, b);
            assert!(contains(r, v), "{a} {op:?} {b} = {r} !∋ {v} ({x} op {y})");
            let v = exec_alu32(op, x as u32, y as u32) as u64;
            let r = alu32_transfer(op, a, b);
            assert!(contains(r, v), "32-bit {op:?}: {r} !∋ {v} ({x} op {y})");
        }
    }

    /// Pointer-offset transfer soundness at the signed wrap: for offset
    /// intervals and scalar ranges near `i64::MIN`/`i64::MAX`, every
    /// concrete `off ± d` (wrapping, as the machine computes it) lies
    /// inside the abstract result.
    #[test]
    fn ptr_offset_transfer_is_sound_at_wrap() {
        fn edge(rng: &mut Rng) -> i64 {
            let k = (rng.next() % 8) as i64;
            match rng.next() % 3 {
                0 => i64::MIN + k,
                1 => i64::MAX - k,
                _ => k - 4,
            }
        }
        fn sorted(a: i64, b: i64) -> (i64, i64) {
            (a.min(b), a.max(b))
        }
        /// The endpoints and one interior point of `[lo, hi]`.
        fn members(rng: &mut Rng, lo: i64, hi: i64) -> [i64; 3] {
            let span = (hi as i128 - lo as i128) as u128 + 1;
            let mid = (lo as i128 + (rng.next() as u128 % span) as i128) as i64;
            [lo, mid, hi]
        }
        let mut rng = Rng(0x5EED_0003);
        for _ in 0..20_000 {
            let (lo, hi) = sorted(edge(&mut rng), edge(&mut rng));
            let (smin, smax) = sorted(edge(&mut rng), edge(&mut rng));
            let s = Scalar {
                smin,
                smax,
                ..Scalar::unknown()
            };
            let ptr = RegType::PtrMapValue {
                lo,
                hi,
                value_size: 8,
                nullable: false,
            };
            for op in [AluOp::Add, AluOp::Sub] {
                let RegType::PtrMapValue {
                    lo: rlo, hi: rhi, ..
                } = adjust_ptr_range(ptr, op, s)
                else {
                    panic!("pointer arithmetic changed the region");
                };
                for off in members(&mut rng, lo, hi) {
                    for d in members(&mut rng, smin, smax) {
                        let v = if op == AluOp::Add {
                            off.wrapping_add(d)
                        } else {
                            off.wrapping_sub(d)
                        };
                        assert!(
                            rlo <= v && v <= rhi,
                            "[{lo}, {hi}] {op:?} [{smin}, {smax}] = [{rlo}, {rhi}] !∋ {v} \
                             ({off} op {d})"
                        );
                    }
                }
            }
        }
    }

    /// Branch refinement soundness: whenever the concrete comparison
    /// agrees with the edge, the refined abstractions still contain the
    /// concrete operands; a pruned (None) edge is never concretely taken.
    #[test]
    fn branch_refinement_is_sound() {
        let cmps = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Sgt,
            CmpOp::Sge,
            CmpOp::Slt,
            CmpOp::Sle,
            CmpOp::Set,
        ];
        let mut rng = Rng(0x5EED_0002);
        for _ in 0..20_000 {
            let (a, x) = rng.scalar_and_member();
            let (b, y) = rng.scalar_and_member();
            let op = cmps[(rng.next() % cmps.len() as u64) as usize];
            let holds = take_branch(op, false, x, y);
            for taken in [true, false] {
                if holds != taken {
                    continue; // this edge isn't the concretely-taken one
                }
                match refine_branch(op, taken, false, a, b) {
                    None => panic!(
                        "pruned a live edge: op {op:?} taken={taken} x={x} y={y} a={a} b={b}"
                    ),
                    Some((a2, b2)) => {
                        assert!(contains(a2, x), "refined dst {a2} lost {x}");
                        assert!(contains(b2, y), "refined src {b2} lost {y}");
                    }
                }
            }
        }
    }

    #[test]
    fn normalize_cross_derives_bounds() {
        // AND with 63 pins the value to [0, 63] in every representation.
        let r = alu64_transfer(AluOp::And, Scalar::unknown(), Scalar::constant(63));
        assert_eq!(r.umin, 0);
        assert_eq!(r.umax, 63);
        assert_eq!(r.smin, 0);
        assert_eq!(r.smax, 63);
        assert_eq!(r.tn.mask, 63);
        // Then <<3 gives a multiple of 8 in [0, 504].
        let r = alu64_transfer(AluOp::Lsh, r, Scalar::constant(3));
        assert_eq!((r.umin, r.umax), (0, 504));
        assert_eq!(r.tn.mask, 0b111111000);
        assert_eq!(r.tn.value, 0);
    }

    #[test]
    fn jgt_refinement_tightens_both_sides() {
        let d = Scalar::unknown();
        let s = Scalar::constant(63);
        // taken edge of `if d > 63`: d in [64, MAX]
        let Some((d2, _)) = refine_branch(CmpOp::Gt, true, false, d, s) else {
            panic!("edge should be feasible");
        };
        assert_eq!(d2.umin, 64);
        // fall edge: d in [0, 63]
        let Some((d3, _)) = refine_branch(CmpOp::Gt, false, false, d, s) else {
            panic!("edge should be feasible");
        };
        assert_eq!((d3.umin, d3.umax), (0, 63));
        assert_eq!((d3.smin, d3.smax), (0, 63));
    }

    #[test]
    fn const_compares_prune_dead_edges() {
        let a = Scalar::constant(5);
        let b = Scalar::constant(9);
        assert!(refine_branch(CmpOp::Eq, true, false, a, b).is_none());
        assert!(refine_branch(CmpOp::Eq, false, false, a, b).is_some());
        assert!(refine_branch(CmpOp::Lt, false, false, a, b).is_none());
        assert!(refine_branch(CmpOp::Set, true, false, a, Scalar::constant(2)).is_none());
    }

    #[test]
    fn jset_refines_known_bits() {
        // fall edge of `if d & 0x8`: bit 3 is known clear.
        let Some((d2, _)) = refine_branch(
            CmpOp::Set,
            false,
            false,
            Scalar::unknown(),
            Scalar::constant(8),
        ) else {
            panic!("fall edge feasible");
        };
        assert_eq!(d2.tn.mask & 8, 0);
        assert_eq!(d2.tn.value & 8, 0);
        // taken edge with a single-bit constant: bit known set, so d >= 8.
        let Some((d3, _)) = refine_branch(
            CmpOp::Set,
            true,
            false,
            Scalar::unknown(),
            Scalar::constant(8),
        ) else {
            panic!("taken edge feasible");
        };
        assert_eq!(d3.tn.value & 8, 8);
        assert!(d3.umin >= 8);
    }

    #[test]
    fn div_with_proven_nonzero_divisor_is_tight() {
        // divisor in [2, 4]: 100 / d in [25, 50]
        let a = Scalar::constant(100);
        let b = Scalar::from_urange(2, 4);
        let r = alu64_transfer(AluOp::Div, a, b);
        assert_eq!((r.umin, r.umax), (25, 50));
        // divisor maybe zero: only [0, 100]
        let r = alu64_transfer(AluOp::Div, a, Scalar::from_urange(0, 4));
        assert_eq!((r.umin, r.umax), (0, 100));
    }
}
