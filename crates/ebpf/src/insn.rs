//! eBPF instruction representation and encoding.
//!
//! Instructions follow the real Linux eBPF layout: a 64-bit word holding an
//! 8-bit opcode, 4-bit destination and source registers, a 16-bit signed
//! offset, and a 32-bit signed immediate. The one exception is `LD_DW`
//! (64-bit immediate load), which occupies two instruction slots exactly as
//! in the kernel.

/// Register identifier (`r0`–`r10`).
pub type Reg = u8;

/// Return-value / scratch register.
pub const R0: Reg = 0;
/// First argument register (holds the context pointer at entry).
pub const R1: Reg = 1;
/// Second argument register.
pub const R2: Reg = 2;
/// Third argument register.
pub const R3: Reg = 3;
/// Fourth argument register.
pub const R4: Reg = 4;
/// Fifth argument register.
pub const R5: Reg = 5;
/// Callee-saved register 6.
pub const R6: Reg = 6;
/// Callee-saved register 7.
pub const R7: Reg = 7;
/// Callee-saved register 8.
pub const R8: Reg = 8;
/// Callee-saved register 9.
pub const R9: Reg = 9;
/// Frame pointer (read-only, points at the top of the 512-byte stack).
pub const R10: Reg = 10;

/// Number of registers (r0–r10).
pub const REG_COUNT: usize = 11;
/// Size of the per-invocation stack, in bytes.
pub const STACK_SIZE: usize = 512;
/// Maximum number of instructions the verifier accepts (Linux `BPF_MAXINSNS`).
pub const MAX_INSNS: usize = 4096;

// --- Instruction classes (low 3 bits of the opcode) ---

/// Immediate/absolute loads (only `LD_DW` is supported).
pub const CLS_LD: u8 = 0x00;
/// Register-indirect loads.
pub const CLS_LDX: u8 = 0x01;
/// Immediate stores.
pub const CLS_ST: u8 = 0x02;
/// Register stores.
pub const CLS_STX: u8 = 0x03;
/// 32-bit ALU operations.
pub const CLS_ALU: u8 = 0x04;
/// 64-bit jumps.
pub const CLS_JMP: u8 = 0x05;
/// 32-bit jumps.
pub const CLS_JMP32: u8 = 0x06;
/// 64-bit ALU operations.
pub const CLS_ALU64: u8 = 0x07;

// --- Size field for loads/stores (bits 3-4) ---

/// 4-byte access.
pub const SZ_W: u8 = 0x00;
/// 2-byte access.
pub const SZ_H: u8 = 0x08;
/// 1-byte access.
pub const SZ_B: u8 = 0x10;
/// 8-byte access.
pub const SZ_DW: u8 = 0x18;

// --- Mode field (bits 5-7) ---

/// Immediate mode (used by `LD_DW`).
pub const MODE_IMM: u8 = 0x00;
/// Memory mode (normal loads/stores).
pub const MODE_MEM: u8 = 0x60;

// --- ALU / JMP operation field (bits 4-7) ---

/// Addition.
pub const OP_ADD: u8 = 0x00;
/// Subtraction.
pub const OP_SUB: u8 = 0x10;
/// Multiplication.
pub const OP_MUL: u8 = 0x20;
/// Unsigned division (division by zero yields zero, as in the kernel).
pub const OP_DIV: u8 = 0x30;
/// Bitwise OR.
pub const OP_OR: u8 = 0x40;
/// Bitwise AND.
pub const OP_AND: u8 = 0x50;
/// Logical shift left.
pub const OP_LSH: u8 = 0x60;
/// Logical shift right.
pub const OP_RSH: u8 = 0x70;
/// Arithmetic negation.
pub const OP_NEG: u8 = 0x80;
/// Unsigned modulo (modulo by zero leaves the destination unchanged).
pub const OP_MOD: u8 = 0x90;
/// Bitwise XOR.
pub const OP_XOR: u8 = 0xa0;
/// Move.
pub const OP_MOV: u8 = 0xb0;
/// Arithmetic shift right.
pub const OP_ARSH: u8 = 0xc0;

/// Unconditional jump.
pub const OP_JA: u8 = 0x00;
/// Jump if equal.
pub const OP_JEQ: u8 = 0x10;
/// Jump if unsigned greater-than.
pub const OP_JGT: u8 = 0x20;
/// Jump if unsigned greater-or-equal.
pub const OP_JGE: u8 = 0x30;
/// Jump if `dst & src` is non-zero.
pub const OP_JSET: u8 = 0x40;
/// Jump if not equal.
pub const OP_JNE: u8 = 0x50;
/// Jump if signed greater-than.
pub const OP_JSGT: u8 = 0x60;
/// Jump if signed greater-or-equal.
pub const OP_JSGE: u8 = 0x70;
/// Helper call.
pub const OP_CALL: u8 = 0x80;
/// Program exit.
pub const OP_EXIT: u8 = 0x90;
/// Jump if unsigned less-than.
pub const OP_JLT: u8 = 0xa0;
/// Jump if unsigned less-or-equal.
pub const OP_JLE: u8 = 0xb0;
/// Jump if signed less-than.
pub const OP_JSLT: u8 = 0xc0;
/// Jump if signed less-or-equal.
pub const OP_JSLE: u8 = 0xd0;

// --- Source field (bit 3 of ALU/JMP opcodes) ---

/// Operand comes from the immediate.
pub const SRC_K: u8 = 0x00;
/// Operand comes from the source register.
pub const SRC_X: u8 = 0x08;

/// Pseudo source-register value marking an `LD_DW` as a map-fd load
/// (`BPF_PSEUDO_MAP_FD`).
pub const PSEUDO_MAP_FD: u8 = 1;

// --- Mnemonics: one table per field, shared by the text parser and the
// one instruction renderer, `Decoded::text` ---

/// ALU operation bits and their mnemonics.
pub(crate) const ALU_MNEMONICS: [(u8, &str); 13] = [
    (OP_ADD, "add"),
    (OP_SUB, "sub"),
    (OP_MUL, "mul"),
    (OP_DIV, "div"),
    (OP_OR, "or"),
    (OP_AND, "and"),
    (OP_LSH, "lsh"),
    (OP_RSH, "rsh"),
    (OP_NEG, "neg"),
    (OP_MOD, "mod"),
    (OP_XOR, "xor"),
    (OP_MOV, "mov"),
    (OP_ARSH, "arsh"),
];

/// Conditional-jump operation bits and their mnemonics.
pub(crate) const JMP_MNEMONICS: [(u8, &str); 11] = [
    (OP_JEQ, "jeq"),
    (OP_JGT, "jgt"),
    (OP_JGE, "jge"),
    (OP_JSET, "jset"),
    (OP_JNE, "jne"),
    (OP_JSGT, "jsgt"),
    (OP_JSGE, "jsge"),
    (OP_JLT, "jlt"),
    (OP_JLE, "jle"),
    (OP_JSLT, "jslt"),
    (OP_JSLE, "jsle"),
];

/// Load/store size bits and their mnemonic suffixes.
pub(crate) const SIZE_SUFFIXES: [(u8, &str); 4] =
    [(SZ_B, "b"), (SZ_H, "h"), (SZ_W, "w"), (SZ_DW, "dw")];

/// The mnemonic `table` gives the first field value `is` accepts.
pub(crate) fn mnemonic(table: &[(u8, &'static str)], is: impl Fn(u8) -> bool) -> &'static str {
    table
        .iter()
        .find(|(b, _)| is(*b))
        .map_or("?", |(_, name)| *name)
}

/// The field value `table` gives the mnemonic `name`.
pub(crate) fn field_bits(table: &[(u8, &str)], name: &str) -> Option<u8> {
    table.iter().find(|(_, n)| *n == name).map(|(b, _)| *b)
}

/// One eBPF instruction slot.
///
/// # Examples
///
/// ```
/// use kscope_ebpf::insn::{Insn, R1, R2};
///
/// let mov = Insn::mov64_reg(R2, R1);
/// assert_eq!(Insn::decode(mov.encode()), mov);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Insn {
    /// Opcode byte (class | size/op | mode/src).
    pub code: u8,
    /// Destination register.
    pub dst: Reg,
    /// Source register.
    pub src: Reg,
    /// Signed 16-bit offset (jump displacement or memory offset).
    pub off: i16,
    /// Signed 32-bit immediate.
    pub imm: i32,
}

impl Insn {
    /// The instruction class (low three opcode bits).
    #[inline]
    pub fn class(self) -> u8 {
        self.code & 0x07
    }

    /// The ALU/JMP operation bits.
    #[inline]
    pub fn op(self) -> u8 {
        self.code & 0xf0
    }

    /// True if the operand comes from the source register.
    #[inline]
    pub fn is_src_reg(self) -> bool {
        self.code & 0x08 != 0
    }

    /// The access size bits for load/store classes.
    #[inline]
    pub fn size(self) -> u8 {
        self.code & 0x18
    }

    /// Access size in bytes for load/store classes.
    pub fn size_bytes(self) -> usize {
        match self.size() {
            SZ_B => 1,
            SZ_H => 2,
            SZ_W => 4,
            SZ_DW => 8,
            _ => unreachable!("size mask covers all patterns"),
        }
    }

    /// Encodes to the kernel's 64-bit little-endian instruction word.
    pub fn encode(self) -> u64 {
        (self.code as u64)
            | ((self.dst as u64 & 0x0f) << 8)
            | ((self.src as u64 & 0x0f) << 12)
            | ((self.off as u16 as u64) << 16)
            | ((self.imm as u32 as u64) << 32)
    }

    /// Decodes from a 64-bit instruction word.
    pub fn decode(word: u64) -> Insn {
        Insn {
            code: word as u8,
            dst: ((word >> 8) & 0x0f) as u8,
            src: ((word >> 12) & 0x0f) as u8,
            off: (word >> 16) as u16 as i16,
            imm: (word >> 32) as u32 as i32,
        }
    }

    // --- constructors ---

    /// `dst = imm` (64-bit).
    pub fn mov64_imm(dst: Reg, imm: i32) -> Insn {
        Insn {
            code: CLS_ALU64 | OP_MOV | SRC_K,
            dst,
            src: 0,
            off: 0,
            imm,
        }
    }

    /// `dst = src` (64-bit).
    pub fn mov64_reg(dst: Reg, src: Reg) -> Insn {
        Insn {
            code: CLS_ALU64 | OP_MOV | SRC_X,
            dst,
            src,
            off: 0,
            imm: 0,
        }
    }

    /// 64-bit ALU op with immediate operand.
    pub fn alu64_imm(op: u8, dst: Reg, imm: i32) -> Insn {
        Insn {
            code: CLS_ALU64 | op | SRC_K,
            dst,
            src: 0,
            off: 0,
            imm,
        }
    }

    /// 64-bit ALU op with register operand.
    pub fn alu64_reg(op: u8, dst: Reg, src: Reg) -> Insn {
        Insn {
            code: CLS_ALU64 | op | SRC_X,
            dst,
            src,
            off: 0,
            imm: 0,
        }
    }

    /// 32-bit ALU op with immediate operand.
    pub fn alu32_imm(op: u8, dst: Reg, imm: i32) -> Insn {
        Insn {
            code: CLS_ALU | op | SRC_K,
            dst,
            src: 0,
            off: 0,
            imm,
        }
    }

    /// 32-bit ALU op with register operand.
    pub fn alu32_reg(op: u8, dst: Reg, src: Reg) -> Insn {
        Insn {
            code: CLS_ALU | op | SRC_X,
            dst,
            src,
            off: 0,
            imm: 0,
        }
    }

    /// `dst = *(size*)(src + off)`.
    pub fn load(size: u8, dst: Reg, src: Reg, off: i16) -> Insn {
        Insn {
            code: CLS_LDX | size | MODE_MEM,
            dst,
            src,
            off,
            imm: 0,
        }
    }

    /// `*(size*)(dst + off) = src`.
    pub fn store_reg(size: u8, dst: Reg, src: Reg, off: i16) -> Insn {
        Insn {
            code: CLS_STX | size | MODE_MEM,
            dst,
            src,
            off,
            imm: 0,
        }
    }

    /// `*(size*)(dst + off) = imm`.
    pub fn store_imm(size: u8, dst: Reg, off: i16, imm: i32) -> Insn {
        Insn {
            code: CLS_ST | size | MODE_MEM,
            dst,
            off,
            src: 0,
            imm,
        }
    }

    /// First slot of a 64-bit immediate load (`dst = imm64`); must be
    /// followed by [`Insn::ld_dw_hi`].
    pub fn ld_dw_lo(dst: Reg, imm64: u64) -> Insn {
        Insn {
            code: CLS_LD | SZ_DW | MODE_IMM,
            dst,
            src: 0,
            off: 0,
            imm: imm64 as u32 as i32,
        }
    }

    /// Second slot of a 64-bit immediate load.
    pub fn ld_dw_hi(imm64: u64) -> Insn {
        Insn {
            code: 0,
            dst: 0,
            src: 0,
            off: 0,
            imm: (imm64 >> 32) as u32 as i32,
        }
    }

    /// First slot of a pseudo map-fd load (`dst = map_by_fd(fd)`).
    pub fn ld_map_fd_lo(dst: Reg, fd: u32) -> Insn {
        Insn {
            code: CLS_LD | SZ_DW | MODE_IMM,
            dst,
            src: PSEUDO_MAP_FD,
            off: 0,
            imm: fd as i32,
        }
    }

    /// 32-bit conditional jump comparing against an immediate.
    pub fn jmp32_imm(op: u8, dst: Reg, imm: i32, off: i16) -> Insn {
        Insn {
            code: CLS_JMP32 | op | SRC_K,
            dst,
            src: 0,
            off,
            imm,
        }
    }

    /// 32-bit conditional jump comparing against a register.
    pub fn jmp32_reg(op: u8, dst: Reg, src: Reg, off: i16) -> Insn {
        Insn {
            code: CLS_JMP32 | op | SRC_X,
            dst,
            src,
            off,
            imm: 0,
        }
    }

    /// Conditional jump comparing against an immediate.
    pub fn jmp_imm(op: u8, dst: Reg, imm: i32, off: i16) -> Insn {
        Insn {
            code: CLS_JMP | op | SRC_K,
            dst,
            src: 0,
            off,
            imm,
        }
    }

    /// Conditional jump comparing against a register.
    pub fn jmp_reg(op: u8, dst: Reg, src: Reg, off: i16) -> Insn {
        Insn {
            code: CLS_JMP | op | SRC_X,
            dst,
            src,
            off,
            imm: 0,
        }
    }

    /// Unconditional jump.
    pub fn ja(off: i16) -> Insn {
        Insn {
            code: CLS_JMP | OP_JA,
            dst: 0,
            src: 0,
            off,
            imm: 0,
        }
    }

    /// Helper call by helper id.
    pub fn call(helper: i32) -> Insn {
        Insn {
            code: CLS_JMP | OP_CALL,
            dst: 0,
            src: 0,
            off: 0,
            imm: helper,
        }
    }

    /// Program exit (`return r0`).
    pub fn exit() -> Insn {
        Insn {
            code: CLS_JMP | OP_EXIT,
            dst: 0,
            src: 0,
            off: 0,
            imm: 0,
        }
    }

    /// True if this is the first slot of a two-slot `LD_DW`.
    pub fn is_ld_dw(self) -> bool {
        self.code == CLS_LD | SZ_DW | MODE_IMM
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let samples = [
            Insn::mov64_imm(R3, -5),
            Insn::mov64_reg(R2, R1),
            Insn::alu64_imm(OP_ADD, R4, 1024),
            Insn::alu32_reg(OP_XOR, R5, R6),
            Insn::load(SZ_W, R0, R1, -8),
            Insn::store_reg(SZ_DW, R10, R7, -16),
            Insn::store_imm(SZ_B, R10, -1, 0x7f),
            Insn::jmp_imm(OP_JEQ, R0, 0, 5),
            Insn::jmp_reg(OP_JSGT, R3, R4, -2),
            Insn::ja(9),
            Insn::call(14),
            Insn::exit(),
            Insn::ld_map_fd_lo(R1, 3),
        ];
        for insn in samples {
            assert_eq!(Insn::decode(insn.encode()), insn, "{insn:?}");
        }
    }

    #[test]
    fn ld_dw_pair_reconstructs_imm64() {
        let value: u64 = 0xDEAD_BEEF_CAFE_F00D;
        let lo = Insn::ld_dw_lo(R2, value);
        let hi = Insn::ld_dw_hi(value);
        let rebuilt = (lo.imm as u32 as u64) | ((hi.imm as u32 as u64) << 32);
        assert_eq!(rebuilt, value);
        assert!(lo.is_ld_dw());
    }

    #[test]
    fn size_bytes_mapping() {
        assert_eq!(Insn::load(SZ_B, R0, R1, 0).size_bytes(), 1);
        assert_eq!(Insn::load(SZ_H, R0, R1, 0).size_bytes(), 2);
        assert_eq!(Insn::load(SZ_W, R0, R1, 0).size_bytes(), 4);
        assert_eq!(Insn::load(SZ_DW, R0, R1, 0).size_bytes(), 8);
    }

    #[test]
    fn class_and_flags() {
        let insn = Insn::alu64_reg(OP_SUB, R1, R2);
        assert_eq!(insn.class(), CLS_ALU64);
        assert_eq!(insn.op(), OP_SUB);
        assert!(insn.is_src_reg());
        assert!(!Insn::mov64_imm(R1, 0).is_src_reg());
    }
}
