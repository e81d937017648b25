//! Pre-decoded instruction representation: the one place an eBPF word
//! is decoded, and the input of the verifier, the JIT and the static
//! analyses.
//!
//! The raw [`Insn`] word is compact but awkward to consume: every reader
//! would re-extract the class, operation, source flag, and access size
//! from the opcode byte, re-sign-extend immediates, and re-fuse `ld_dw`
//! pairs. [`decode_program`] performs all of that work once, at
//! [`Program`](crate::Program) construction time, producing one
//! [`Decoded`] entry per instruction *slot*. The verifier
//! ([`crate::verifier`]) abstractly interprets it, the template JIT
//! ([`crate::jit`]) emits machine code from it, and [`crate::analysis`]
//! runs its dataflow (inline plan, cost certifier) over it. So the JIT
//! compiles exactly the instructions the verifier checked, and an
//! encoding that decodes to a trap variant is one the verifier rejects.
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
//!   [`Decoded::UnknownHelper`], [`Decoded::MalformedLdDw`]) that only
//!   raise their error when actually executed — a dead invalid
//!   instruction costs nothing, as before.
//!
//! The testkit's `interp_decode_differential` suite holds the JIT tiers
//! to the interpreter's [`ExecOutcome`](crate::interp::ExecOutcome)s
//! (return value, instruction count, faults) over thousands of generated
//! programs and every committed fixture probe.

use crate::helpers::Helper;
use crate::insn::{
    Insn, CLS_ALU, CLS_ALU64, CLS_JMP, CLS_JMP32, CLS_LD, CLS_LDX, CLS_ST, CLS_STX, OP_ADD, OP_AND,
    OP_ARSH, OP_CALL, OP_DIV, OP_EXIT, OP_JA, OP_JEQ, OP_JGE, OP_JGT, OP_JLE, OP_JLT, OP_JNE,
    OP_JSET, OP_JSGE, OP_JSGT, OP_JSLE, OP_JSLT, OP_LSH, OP_MOD, OP_MOV, OP_MUL, OP_NEG, OP_OR,
    OP_RSH, OP_SUB, OP_XOR, PSEUDO_MAP_FD,
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
    /// `ld_dw` whose second slot is past the end of the program.
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
    },
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

fn decode_slot(insns: &[Insn], pc: usize, insn: Insn) -> Decoded {
    match insn.class() {
        CLS_LD => {
            if !insn.is_ld_dw() {
                return Decoded::BadOpcode { code: insn.code };
            }
            let Some(&hi) = insns.get(pc + 1) else {
                return Decoded::MalformedLdDw;
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
            None => Decoded::BadOpcode { code: insn.code },
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
            None => Decoded::BadOpcode { code: insn.code },
        },
        CLS_JMP | CLS_JMP32 => {
            let is32 = insn.class() == CLS_JMP32;
            let op = insn.op();
            // exit/call/ja are JMP-class only.
            if is32 && matches!(op, OP_EXIT | OP_CALL | OP_JA) {
                return Decoded::BadOpcode { code: insn.code };
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
            let target = pc as i64 + 1 + insn.off as i64;
            if op == OP_JA {
                return Decoded::Ja { target };
            }
            let Some(op) = CmpOp::from_bits(op) else {
                return Decoded::BadOpcode { code: insn.code };
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
    use crate::insn::{R0, R1, R2, SZ_DW, SZ_W};

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
        assert_eq!(decoded[1], Decoded::BadOpcode { code: 0 });
        assert_eq!(decoded[2], Decoded::Exit);
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
            Decoded::BadOpcode { code: exit32.code }
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
        assert_eq!(decoded[0], Decoded::BadOpcode { code: bad_alu.code });
        assert_eq!(decoded[1], Decoded::BadOpcode { code: bad_jmp.code });
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
