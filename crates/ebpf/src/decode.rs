//! Pre-decoded instruction representation: the one place an eBPF word
//! is decoded, and the input of the verifier, the JIT, the static
//! analyses and the text renderer.
//!
//! The raw [`Insn`] word is compact but awkward to consume: every reader
//! would re-extract the class, operation, source flag, and access size
//! from the opcode byte, re-sign-extend immediates, and re-fuse `ld_dw`
//! pairs. [`decode_program`] performs all of that work once, at
//! [`Program`](crate::Program) construction time, producing one
//! [`Decoded`] entry per instruction *slot*. The structural pass and the
//! dataflow of [`crate::analysis`] (inline plan, cost certifier) read it,
//! the verifier ([`crate::verifier`]) abstractly interprets it, the
//! template JIT ([`crate::jit`]) emits machine code from it, and
//! [`Decoded::text`] renders it for [`emit_program`](crate::text::emit_program)
//! and [`Program::disassemble`](crate::Program::disassemble). So the JIT
//! compiles exactly the instructions the verifier checked, and an
//! encoding that decodes to a trap variant is one the verifier rejects.
//! Only the reference interpreter ([`crate::interp`]) steps the raw
//! words, and it faults on the same malformations by the same rules
//! (`bad_register`, `ld_dw_hi`).
//!
//! # Slot-for-slot decoding
//!
//! Every slot decodes independently, including the second slot of a
//! `ld_dw` pair and slots holding invalid opcodes. This is what makes
//! JIT-compiled code behave *byte-for-byte* like the raw-word
//! interpreter:
//!
//! * a jump **into** the high slot of a `ld_dw` executes that slot as its
//!   own (almost always invalid) instruction, exactly as the raw loop
//!   does;
//! * invalid encodings decode to trap variants ([`Decoded::BadOpcode`],
//!   [`Decoded::UnknownHelper`], [`Decoded::MalformedLdDw`],
//!   [`Decoded::BadRegister`]) that only raise their error when actually
//!   executed — a dead invalid instruction costs nothing, as before.
//!
//! The testkit's `interp_decode_differential` suite holds the JIT tiers
//! to the interpreter's [`ExecOutcome`](crate::interp::ExecOutcome)s
//! (return value, instruction count, faults) over thousands of generated
//! programs and every committed fixture probe.

use core::fmt;

use crate::helpers::Helper;
use crate::insn::{
    mnemonic, Insn, ALU_MNEMONICS, CLS_ALU, CLS_ALU64, CLS_JMP, CLS_JMP32, CLS_LD, CLS_LDX, CLS_ST,
    CLS_STX, JMP_MNEMONICS, OP_ADD, OP_AND, OP_ARSH, OP_CALL, OP_DIV, OP_EXIT, OP_JA, OP_JEQ,
    OP_JGE, OP_JGT, OP_JLE, OP_JLT, OP_JNE, OP_JSET, OP_JSGE, OP_JSGT, OP_JSLE, OP_JSLT, OP_LSH,
    OP_MOD, OP_MOV, OP_MUL, OP_NEG, OP_OR, OP_RSH, OP_SUB, OP_XOR, PSEUDO_MAP_FD, REG_COUNT,
    SIZE_SUFFIXES, SZ_B, SZ_DW, SZ_H, SZ_W,
};

/// ALU operation, resolved from the opcode's operation bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Unsigned division (by zero yields zero).
    Div,
    /// Bitwise OR.
    Or,
    /// Bitwise AND.
    And,
    /// Logical shift left (shift amount masked to the operand width).
    Lsh,
    /// Logical shift right.
    Rsh,
    /// Arithmetic negation (ignores the right-hand operand).
    Neg,
    /// Unsigned modulo (by zero leaves the destination unchanged).
    Mod,
    /// Bitwise XOR.
    Xor,
    /// Move.
    Mov,
    /// Arithmetic shift right.
    Arsh,
}

impl AluOp {
    /// Resolves the operation bits of an ALU opcode; `None` for encodings
    /// the instruction set does not define.
    pub fn from_bits(op: u8) -> Option<AluOp> {
        Some(match op {
            OP_ADD => AluOp::Add,
            OP_SUB => AluOp::Sub,
            OP_MUL => AluOp::Mul,
            OP_DIV => AluOp::Div,
            OP_OR => AluOp::Or,
            OP_AND => AluOp::And,
            OP_LSH => AluOp::Lsh,
            OP_RSH => AluOp::Rsh,
            OP_NEG => AluOp::Neg,
            OP_MOD => AluOp::Mod,
            OP_XOR => AluOp::Xor,
            OP_MOV => AluOp::Mov,
            OP_ARSH => AluOp::Arsh,
            _ => return None,
        })
    }
}

/// Conditional-jump comparison, resolved from the opcode's operation bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `lhs == rhs`.
    Eq,
    /// `lhs != rhs`.
    Ne,
    /// Unsigned `lhs > rhs`.
    Gt,
    /// Unsigned `lhs >= rhs`.
    Ge,
    /// Unsigned `lhs < rhs`.
    Lt,
    /// Unsigned `lhs <= rhs`.
    Le,
    /// `lhs & rhs != 0`.
    Set,
    /// Signed `lhs > rhs`.
    Sgt,
    /// Signed `lhs >= rhs`.
    Sge,
    /// Signed `lhs < rhs`.
    Slt,
    /// Signed `lhs <= rhs`.
    Sle,
}

impl CmpOp {
    /// Resolves the operation bits of a conditional jump; `None` for
    /// `ja`/`call`/`exit` (handled separately) and undefined encodings.
    pub fn from_bits(op: u8) -> Option<CmpOp> {
        Some(match op {
            OP_JEQ => CmpOp::Eq,
            OP_JNE => CmpOp::Ne,
            OP_JGT => CmpOp::Gt,
            OP_JGE => CmpOp::Ge,
            OP_JLT => CmpOp::Lt,
            OP_JLE => CmpOp::Le,
            OP_JSET => CmpOp::Set,
            OP_JSGT => CmpOp::Sgt,
            OP_JSGE => CmpOp::Sge,
            OP_JSLT => CmpOp::Slt,
            OP_JSLE => CmpOp::Sle,
            _ => return None,
        })
    }
}

/// One pre-decoded instruction slot.
///
/// Operand widths, sign extensions, fused `ld_dw` immediates, map fds,
/// helper identities, and jump targets are all resolved at decode time;
/// the verifier, the JIT emitter and the analyses only match on the
/// variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decoded {
    /// Fused two-slot 64-bit immediate load (`ld_dw`). Advances the pc
    /// by two slots.
    LdImm64 {
        /// Destination register.
        dst: u8,
        /// The full 64-bit value.
        value: u64,
    },
    /// Fused two-slot pseudo map-fd load (`ld_map_fd`): `dst` becomes the
    /// handle of map `fd`. Advances the pc by two slots.
    LdMapFd {
        /// Destination register.
        dst: u8,
        /// The map's file descriptor (the low slot's immediate).
        fd: u32,
    },
    /// `ld_dw` whose second slot is past the end of the program or is not
    /// a bare hi word (opcode 0).
    MalformedLdDw,
    /// `dst = *(size*)(src + off)`.
    Load {
        /// Access size in bytes (1, 2, 4, or 8).
        size: u8,
        /// Destination register.
        dst: u8,
        /// Base-address register.
        src: u8,
        /// Signed byte offset from the base.
        off: i16,
    },
    /// `*(size*)(dst + off) = src`.
    StoreReg {
        /// Access size in bytes.
        size: u8,
        /// Base-address register.
        dst: u8,
        /// Value register.
        src: u8,
        /// Signed byte offset from the base.
        off: i16,
    },
    /// `*(size*)(dst + off) = imm`.
    StoreImm {
        /// Access size in bytes.
        size: u8,
        /// Base-address register.
        dst: u8,
        /// Signed byte offset from the base.
        off: i16,
        /// Sign-extended immediate (stored low bytes first).
        imm: u64,
    },
    /// 64-bit ALU with a pre-sign-extended immediate operand.
    Alu64Imm {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dst: u8,
        /// Sign-extended immediate.
        imm: u64,
    },
    /// 64-bit ALU with a register operand.
    Alu64Reg {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dst: u8,
        /// Source register.
        src: u8,
    },
    /// 32-bit ALU with an immediate operand (result zero-extends).
    Alu32Imm {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dst: u8,
        /// Truncated immediate.
        imm: u32,
    },
    /// 32-bit ALU with a register operand.
    Alu32Reg {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dst: u8,
        /// Source register.
        src: u8,
    },
    /// Unconditional jump to a pre-computed absolute slot index.
    Ja {
        /// Absolute target slot (may be out of range; checked at
        /// execution, matching the raw path).
        target: i64,
    },
    /// Conditional jump against an immediate, target pre-computed.
    JmpImm {
        /// Comparison.
        op: CmpOp,
        /// True for `JMP32` (compare low halves).
        w32: bool,
        /// Left-hand register.
        dst: u8,
        /// Right-hand operand, already sign-extended (64-bit) or masked
        /// (32-bit).
        rhs: u64,
        /// Absolute target slot.
        target: i64,
    },
    /// Conditional jump against a register, target pre-computed.
    JmpReg {
        /// Comparison.
        op: CmpOp,
        /// True for `JMP32` (compare low halves).
        w32: bool,
        /// Left-hand register.
        dst: u8,
        /// Right-hand register.
        src: u8,
        /// Absolute target slot.
        target: i64,
    },
    /// Helper call with the helper pre-resolved.
    Call {
        /// The helper to invoke.
        helper: Helper,
    },
    /// `call` naming an id no helper answers to.
    UnknownHelper {
        /// The unresolvable helper id.
        id: i32,
    },
    /// `exit` — return `r0`.
    Exit,
    /// Any encoding the instruction set does not define.
    BadOpcode {
        /// The offending opcode byte.
        code: u8,
        /// For a jump-class word other than a `JMP` `call`/`exit`, the
        /// absolute slot its offset points at, which the structural pass
        /// bounds like any jump target; `None` otherwise.
        target: Option<i64>,
    },
    /// A slot whose `dst` or `src` field names a register past r10.
    BadRegister {
        /// The first such field, `dst` before `src`.
        reg: u8,
        /// True for the lo slot of a well-formed `ld_dw` pair, which
        /// still occupies two slots.
        ld_dw: bool,
    },
}

impl Decoded {
    /// How many slots the instruction occupies: 2 for a well-formed
    /// `ld_dw` pair, whose hi slot is never entered, and 1 otherwise.
    pub fn width(&self) -> usize {
        match self {
            Decoded::LdImm64 { .. }
            | Decoded::LdMapFd { .. }
            | Decoded::BadRegister { ld_dw: true, .. } => 2,
            _ => 1,
        }
    }

    /// True for the trap variants: each faults where it is executed, and
    /// the verifier rejects each it reaches.
    pub fn is_trap(&self) -> bool {
        matches!(
            self,
            Decoded::BadOpcode { .. }
                | Decoded::UnknownHelper { .. }
                | Decoded::MalformedLdDw
                | Decoded::BadRegister { .. }
        )
    }

    /// False for the traps no text form names: all but `call` with an
    /// unknown id, which renders as `call <id>`.
    pub fn has_text(&self) -> bool {
        !self.is_trap() || matches!(self, Decoded::UnknownHelper { .. })
    }

    /// The slot at `pc` rendered in the text syntax
    /// [`parse_program`](crate::text::parse_program) reads: jumps as
    /// `+N`/`-N` displacements from `pc`, helpers by name, immediates as
    /// the signed 32-bit values they were encoded from. A trap without a
    /// text form ([`Decoded::has_text`]) renders as a description in
    /// parentheses.
    ///
    /// # Examples
    ///
    /// ```
    /// use kscope_ebpf::decode::decode_program;
    /// use kscope_ebpf::insn::{Insn, OP_JNE, R0};
    ///
    /// let decoded = decode_program(&[Insn::jmp_imm(OP_JNE, R0, -1, 3), Insn::call(5)]);
    /// assert_eq!(decoded[0].text(0).to_string(), "jne r0, -1, +3");
    /// assert_eq!(decoded[1].text(1).to_string(), "call bpf_ktime_get_ns");
    /// ```
    pub fn text(self, pc: usize) -> impl fmt::Display {
        fmt::from_fn(move |f| {
            use Decoded::*;
            let off = |target: i64| target - pc as i64 - 1;
            let reg = |r: u8| format!("r{r}");
            match self {
                LdImm64 { dst, value } => write!(f, "ld_dw r{dst}, {value:#x}"),
                LdMapFd { dst, fd } => write!(f, "ld_map_fd r{dst}, {fd}"),
                Load {
                    size,
                    dst,
                    src,
                    off,
                } => write!(f, "ldx{} r{dst}, [r{src}{off:+}]", sfx(size)),
                StoreReg {
                    size,
                    dst,
                    src,
                    off,
                } => write!(f, "stx{} [r{dst}{off:+}], r{src}", sfx(size)),
                StoreImm {
                    size,
                    dst,
                    off,
                    imm,
                } => write!(f, "st{} [r{dst}{off:+}], {}", sfx(size), imm as i64),
                Alu64Imm { op, dst, imm } => write_alu(f, op, "", dst, imm as i64),
                Alu64Reg { op, dst, src } => write_alu(f, op, "", dst, reg(src)),
                Alu32Imm { op, dst, imm } => write_alu(f, op, "32", dst, imm as i32),
                Alu32Reg { op, dst, src } => write_alu(f, op, "32", dst, reg(src)),
                Ja { target } => write!(f, "ja {:+}", off(target)),
                // Both widths keep the encoded i32 in the low half.
                JmpImm {
                    op,
                    w32,
                    dst,
                    rhs,
                    target,
                } => write_jmp(f, op, w32, dst, rhs as u32 as i32, off(target)),
                JmpReg {
                    op,
                    w32,
                    dst,
                    src,
                    target,
                } => write_jmp(f, op, w32, dst, reg(src), off(target)),
                Call { helper } => write!(f, "call {}", helper.name()),
                UnknownHelper { id } => write!(f, "call {id}"),
                Exit => f.write_str("exit"),
                BadOpcode { code, .. } => write!(f, "(bad opcode {code:#04x})"),
                MalformedLdDw => f.write_str("(malformed ld_dw)"),
                BadRegister { reg: r, .. } => write!(f, "(no register r{r})"),
            }
        })
    }
}

/// An ALU instruction; `neg` takes no right-hand operand.
fn write_alu(
    f: &mut fmt::Formatter<'_>,
    op: AluOp,
    width: &str,
    dst: u8,
    rhs: impl fmt::Display,
) -> fmt::Result {
    let name = mnemonic(&ALU_MNEMONICS, |bits| AluOp::from_bits(bits) == Some(op));
    if op == AluOp::Neg {
        write!(f, "{name}{width} r{dst}")
    } else {
        write!(f, "{name}{width} r{dst}, {rhs}")
    }
}

/// A conditional jump `off` slots past the next one.
fn write_jmp(
    f: &mut fmt::Formatter<'_>,
    op: CmpOp,
    w32: bool,
    dst: u8,
    rhs: impl fmt::Display,
    off: i64,
) -> fmt::Result {
    let name = mnemonic(&JMP_MNEMONICS, |bits| CmpOp::from_bits(bits) == Some(op));
    let width = if w32 { "32" } else { "" };
    write!(f, "{name}{width} r{dst}, {rhs}, {off:+}")
}

/// The mnemonic suffix of a load/store access `size` in bytes.
fn sfx(size: u8) -> &'static str {
    let bits = match size {
        1 => SZ_B,
        2 => SZ_H,
        4 => SZ_W,
        _ => SZ_DW,
    };
    mnemonic(&SIZE_SUFFIXES, |b| b == bits)
}

/// Decodes every instruction slot of a program.
///
/// The result has exactly one entry per input slot, so raw and decoded
/// program counters coincide — the property that keeps arbitrary (even
/// hostile) jump targets behaving identically under both executors.
pub fn decode_program(insns: &[Insn]) -> Vec<Decoded> {
    insns
        .iter()
        .enumerate()
        .map(|(pc, &insn)| decode_slot(insns, pc, insn))
        .collect()
}

/// The hi slot of the `ld_dw` whose lo slot is at `pc`, if it is there
/// and is a bare hi word (opcode 0).
pub(crate) fn ld_dw_hi(insns: &[Insn], pc: usize) -> Option<Insn> {
    insns.get(pc + 1).copied().filter(|hi| hi.code == 0)
}

/// The first of `insn`'s `dst` and `src` fields that names no register
/// (r11–r15), whatever the opcode: the rule behind
/// [`Decoded::BadRegister`] and the interpreter's matching fault.
pub(crate) fn bad_register(insn: Insn) -> Option<u8> {
    [insn.dst, insn.src]
        .into_iter()
        .find(|&r| usize::from(r) >= REG_COUNT)
}

/// One slot's meaning. The malformations come first, in the order the
/// verifier reports them: a torn `ld_dw`, then a bad register.
fn decode_slot(insns: &[Insn], pc: usize, insn: Insn) -> Decoded {
    let hi = ld_dw_hi(insns, pc).filter(|_| insn.is_ld_dw());
    if insn.is_ld_dw() && hi.is_none() {
        return Decoded::MalformedLdDw;
    }
    if let Some(reg) = bad_register(insn) {
        return Decoded::BadRegister {
            reg,
            ld_dw: insn.is_ld_dw(),
        };
    }
    let bad = |target| Decoded::BadOpcode {
        code: insn.code,
        target,
    };
    match insn.class() {
        CLS_LD => {
            let Some(hi) = hi else {
                return bad(None);
            };
            if insn.src == PSEUDO_MAP_FD {
                return Decoded::LdMapFd {
                    dst: insn.dst,
                    fd: insn.imm as u32,
                };
            }
            Decoded::LdImm64 {
                dst: insn.dst,
                value: (insn.imm as u32 as u64) | ((hi.imm as u32 as u64) << 32),
            }
        }
        CLS_LDX => Decoded::Load {
            size: insn.size_bytes() as u8,
            dst: insn.dst,
            src: insn.src,
            off: insn.off,
        },
        CLS_STX => Decoded::StoreReg {
            size: insn.size_bytes() as u8,
            dst: insn.dst,
            src: insn.src,
            off: insn.off,
        },
        CLS_ST => Decoded::StoreImm {
            size: insn.size_bytes() as u8,
            dst: insn.dst,
            off: insn.off,
            imm: insn.imm as i64 as u64,
        },
        CLS_ALU64 => match AluOp::from_bits(insn.op()) {
            Some(op) if insn.is_src_reg() => Decoded::Alu64Reg {
                op,
                dst: insn.dst,
                src: insn.src,
            },
            Some(op) => Decoded::Alu64Imm {
                op,
                dst: insn.dst,
                imm: insn.imm as i64 as u64,
            },
            None => bad(None),
        },
        CLS_ALU => match AluOp::from_bits(insn.op()) {
            Some(op) if insn.is_src_reg() => Decoded::Alu32Reg {
                op,
                dst: insn.dst,
                src: insn.src,
            },
            Some(op) => Decoded::Alu32Imm {
                op,
                dst: insn.dst,
                // The raw path sign-extends the immediate and then
                // truncates to 32 bits; that composes to plain truncation.
                imm: insn.imm as u32,
            },
            None => bad(None),
        },
        CLS_JMP | CLS_JMP32 => {
            let is32 = insn.class() == CLS_JMP32;
            let op = insn.op();
            let target = pc as i64 + 1 + insn.off as i64;
            // exit/call/ja are JMP-class only.
            if is32 && matches!(op, OP_EXIT | OP_CALL | OP_JA) {
                return bad(Some(target));
            }
            if op == OP_EXIT {
                return Decoded::Exit;
            }
            if op == OP_CALL {
                return match Helper::from_id(insn.imm) {
                    Some(helper) => Decoded::Call { helper },
                    None => Decoded::UnknownHelper { id: insn.imm },
                };
            }
            if op == OP_JA {
                return Decoded::Ja { target };
            }
            let Some(op) = CmpOp::from_bits(op) else {
                return bad(Some(target));
            };
            if insn.is_src_reg() {
                Decoded::JmpReg {
                    op,
                    w32: is32,
                    dst: insn.dst,
                    src: insn.src,
                    target,
                }
            } else {
                let rhs = if is32 {
                    insn.imm as u32 as u64
                } else {
                    insn.imm as i64 as u64
                };
                Decoded::JmpImm {
                    op,
                    w32: is32,
                    dst: insn.dst,
                    rhs,
                    target,
                }
            }
        }
        _ => unreachable!("class() is a 3-bit field; all eight values are handled"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::{R0, R1, R10, R2, R3, R4};

    #[test]
    fn one_entry_per_slot() {
        let insns = vec![
            Insn::ld_dw_lo(R1, 0xAABB_CCDD_0011_2233),
            Insn::ld_dw_hi(0xAABB_CCDD_0011_2233),
            Insn::exit(),
        ];
        let decoded = decode_program(&insns);
        assert_eq!(decoded.len(), insns.len());
        assert_eq!(
            decoded[0],
            Decoded::LdImm64 {
                dst: R1,
                value: 0xAABB_CCDD_0011_2233
            }
        );
        // The hi slot decodes as its own instruction: opcode 0 is CLS_LD
        // without the ld_dw pattern — a trap if ever jumped into.
        assert_eq!(
            decoded[1],
            Decoded::BadOpcode {
                code: 0,
                target: None
            }
        );
        assert_eq!(decoded[2], Decoded::Exit);
    }

    #[test]
    fn display_is_readable() {
        let text = |insns: &[Insn]| decode_program(insns)[0].text(0).to_string();
        assert_eq!(text(&[Insn::mov64_imm(R1, 7)]), "mov r1, 7");
        assert_eq!(text(&[Insn::mov64_reg(R2, R3)]), "mov r2, r3");
        assert_eq!(text(&[Insn::alu32_imm(OP_ADD, R1, -2)]), "add32 r1, -2");
        assert_eq!(text(&[Insn::alu64_imm(OP_NEG, R4, 0)]), "neg r4");
        assert_eq!(text(&[Insn::load(SZ_DW, R0, R10, -8)]), "ldxdw r0, [r10-8]");
        assert_eq!(
            text(&[Insn::store_imm(SZ_B, R10, -1, -3)]),
            "stb [r10-1], -3"
        );
        assert_eq!(text(&[Insn::exit()]), "exit");
        assert_eq!(text(&[Insn::call(5)]), "call bpf_ktime_get_ns");
        assert_eq!(text(&[Insn::call(9999)]), "call 9999");
        assert_eq!(
            text(&[Insn::jmp_imm(OP_JNE, R0, 232, 3)]),
            "jne r0, 232, +3"
        );
        assert_eq!(
            text(&[Insn::jmp32_imm(OP_JGT, R0, -1, -1)]),
            "jgt32 r0, -1, -1"
        );
        assert_eq!(
            text(&[Insn::ld_map_fd_lo(R1, 2), Insn::ld_dw_hi(0)]),
            "ld_map_fd r1, 2"
        );
        assert_eq!(
            text(&[Insn::ld_dw_lo(R1, 1 << 40), Insn::ld_dw_hi(1 << 40)]),
            "ld_dw r1, 0x10000000000"
        );
        // Traps have no text form, but still render.
        let traps = decode_program(&[Insn::ld_dw_lo(R0, 1), Insn::mov64_imm(12, 0)]);
        assert!(!traps[0].has_text() && !traps[1].has_text());
        assert_eq!(traps[0].text(0).to_string(), "(malformed ld_dw)");
        assert_eq!(traps[1].text(1).to_string(), "(no register r12)");
    }

    #[test]
    fn malformations_decode_before_the_opcode() {
        // A hi slot must be a bare hi word (code 0).
        let torn = [Insn::ld_dw_lo(R0, 1), Insn::exit()];
        assert_eq!(decode_program(&torn)[0], Decoded::MalformedLdDw);
        // A torn ld_dw is malformed before it names a bad register.
        assert_eq!(
            decode_program(&[Insn::ld_dw_lo(12, 1)]),
            vec![Decoded::MalformedLdDw]
        );
        // `dst` is reported before `src`, whatever the opcode; a paired
        // ld_dw still spans two slots.
        let wild = Insn {
            src: 13,
            ..Insn::mov64_imm(14, 0)
        };
        let decoded = decode_program(&[
            wild,
            Insn::ld_dw_lo(R0, 1),
            Insn {
                src: 15,
                ..Insn::ld_dw_hi(1)
            },
            Insn {
                src: 11,
                ..Insn::ld_dw_lo(R0, 1)
            },
            Insn::ld_dw_hi(1),
        ]);
        assert_eq!(
            decoded[0],
            Decoded::BadRegister {
                reg: 14,
                ld_dw: false
            }
        );
        assert_eq!(decoded[1].width(), 2);
        assert_eq!(
            decoded[2],
            Decoded::BadRegister {
                reg: 15,
                ld_dw: false
            }
        );
        assert_eq!(
            decoded[3],
            Decoded::BadRegister {
                reg: 11,
                ld_dw: true
            }
        );
        assert_eq!(decoded[3].width(), 2);
    }

    #[test]
    fn map_fd_loads_keep_the_fd() {
        let insns = vec![Insn::ld_map_fd_lo(R1, 7), Insn::ld_dw_hi(0), Insn::exit()];
        let decoded = decode_program(&insns);
        assert_eq!(decoded[0], Decoded::LdMapFd { dst: R1, fd: 7 });
    }

    #[test]
    fn truncated_ld_dw_decodes_to_the_trap_variant() {
        let decoded = decode_program(&[Insn::ld_dw_lo(R0, 1)]);
        assert_eq!(decoded, vec![Decoded::MalformedLdDw]);
    }

    #[test]
    fn immediates_are_pre_extended() {
        let decoded = decode_program(&[
            Insn::alu64_imm(OP_ADD, R0, -1),
            Insn::alu32_imm(OP_ADD, R0, -1),
            Insn::store_imm(SZ_W, R2, 4, -1),
        ]);
        assert_eq!(
            decoded[0],
            Decoded::Alu64Imm {
                op: AluOp::Add,
                dst: R0,
                imm: u64::MAX
            }
        );
        assert_eq!(
            decoded[1],
            Decoded::Alu32Imm {
                op: AluOp::Add,
                dst: R0,
                imm: u32::MAX
            }
        );
        assert_eq!(
            decoded[2],
            Decoded::StoreImm {
                size: 4,
                dst: R2,
                off: 4,
                imm: u64::MAX
            }
        );
    }

    #[test]
    fn jump_targets_are_absolute() {
        let decoded =
            decode_program(&[Insn::jmp_imm(OP_JEQ, R0, 5, 1), Insn::ja(-2), Insn::exit()]);
        assert_eq!(
            decoded[0],
            Decoded::JmpImm {
                op: CmpOp::Eq,
                w32: false,
                dst: R0,
                rhs: 5,
                target: 2
            }
        );
        assert_eq!(decoded[1], Decoded::Ja { target: 0 });
    }

    #[test]
    fn jmp32_rejects_jmp_only_ops_and_masks_immediates() {
        let exit32 = Insn {
            code: CLS_JMP32 | OP_EXIT,
            dst: 0,
            src: 0,
            off: 0,
            imm: 0,
        };
        assert_eq!(
            decode_program(&[exit32])[0],
            Decoded::BadOpcode {
                code: exit32.code,
                target: Some(1)
            }
        );
        // JMP32 immediate comparisons see the truncated low half.
        let decoded = decode_program(&[Insn::jmp32_imm(OP_JGT, R0, -1, 0)]);
        assert_eq!(
            decoded[0],
            Decoded::JmpImm {
                op: CmpOp::Gt,
                w32: true,
                dst: R0,
                rhs: u32::MAX as u64,
                target: 1
            }
        );
    }

    #[test]
    fn helpers_resolve_at_decode_time() {
        let decoded = decode_program(&[Insn::call(5), Insn::call(9999)]);
        assert_eq!(
            decoded[0],
            Decoded::Call {
                helper: Helper::KtimeGetNs
            }
        );
        assert_eq!(decoded[1], Decoded::UnknownHelper { id: 9999 });
    }

    #[test]
    fn undefined_operations_trap() {
        let bad_alu = Insn {
            code: CLS_ALU64 | 0xe0,
            dst: 0,
            src: 0,
            off: 0,
            imm: 0,
        };
        let bad_jmp = Insn {
            code: CLS_JMP | 0xe0,
            dst: 0,
            src: 0,
            off: 0,
            imm: 0,
        };
        let decoded = decode_program(&[bad_alu, bad_jmp]);
        assert_eq!(
            decoded[0],
            Decoded::BadOpcode {
                code: bad_alu.code,
                target: None
            }
        );
        // An undefined jump op keeps its offset for the structural pass.
        assert_eq!(
            decoded[1],
            Decoded::BadOpcode {
                code: bad_jmp.code,
                target: Some(2)
            }
        );
    }

    #[test]
    fn loads_and_stores_carry_byte_sizes() {
        let decoded = decode_program(&[
            Insn::load(SZ_DW, R0, R1, -8),
            Insn::store_reg(SZ_W, R2, R0, 16),
        ]);
        assert_eq!(
            decoded[0],
            Decoded::Load {
                size: 8,
                dst: R0,
                src: R1,
                off: -8
            }
        );
        assert_eq!(
            decoded[1],
            Decoded::StoreReg {
                size: 4,
                dst: R2,
                src: R0,
                off: 16
            }
        );
    }
}
