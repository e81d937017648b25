//! A structured assembler for eBPF programs.
//!
//! [`Asm`] builds instruction sequences with named labels, resolving jump
//! displacements at assembly time. It is the programmatic equivalent of
//! writing restricted C for bcc and letting clang emit bytecode: every kscope
//! bytecode probe (including the reproduction of the paper's Listing 1) is
//! authored through this builder.

use std::collections::HashMap;

use crate::insn::{
    Insn, Reg, OP_ADD, OP_AND, OP_DIV, OP_JEQ, OP_JGT, OP_JLT, OP_JNE, OP_LSH, OP_MUL, OP_RSH,
    OP_SUB,
};
use crate::maps::MapFd;
use crate::program::Program;

/// Errors raised while assembling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A jump references a label that was never defined.
    UndefinedLabel(String),
    /// The same label was defined twice.
    DuplicateLabel(String),
    /// A jump displacement does not fit in 16 bits.
    JumpOutOfRange(String),
}

impl std::fmt::Display for AsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AsmError::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            AsmError::DuplicateLabel(l) => write!(f, "label `{l}` defined twice"),
            AsmError::JumpOutOfRange(l) => write!(f, "jump to `{l}` out of 16-bit range"),
        }
    }
}

impl std::error::Error for AsmError {}

#[derive(Debug, Clone)]
enum Item {
    Fixed(Insn),
    /// Two-slot 64-bit immediate load.
    LdDw {
        dst: Reg,
        value: u64,
    },
    /// Two-slot pseudo map-fd load.
    LdMapFd {
        dst: Reg,
        fd: MapFd,
    },
    /// Conditional jump to a label (imm operand).
    JmpImm {
        op: u8,
        dst: Reg,
        imm: i32,
        label: String,
    },
    /// Conditional jump to a label (register operand).
    JmpReg {
        op: u8,
        dst: Reg,
        src: Reg,
        label: String,
    },
    /// Unconditional jump to a label.
    Ja {
        label: String,
    },
}

impl Item {
    fn slots(&self) -> usize {
        match self {
            Item::LdDw { .. } | Item::LdMapFd { .. } => 2,
            _ => 1,
        }
    }
}

/// Builder for an eBPF instruction sequence with labeled jumps.
///
/// # Examples
///
/// A program that returns 1 when its first context quadword equals 232
/// (the paper's `epoll_wait` filter) and 0 otherwise:
///
/// ```
/// use kscope_ebpf::asm::Asm;
/// use kscope_ebpf::insn::{R0, R1, SZ_DW};
///
/// let prog = Asm::new("epoll_filter")
///     .load(SZ_DW, R0, R1, 0)
///     .jeq_imm(R0, 232, "matched")
///     .mov64_imm(R0, 0)
///     .exit()
///     .label("matched")
///     .mov64_imm(R0, 1)
///     .exit()
///     .assemble()
///     .unwrap();
/// assert_eq!(prog.insns().len(), 6);
/// ```
#[derive(Debug, Clone)]
pub struct Asm {
    name: String,
    items: Vec<Item>,
    /// Label -> index into `items` of the instruction that follows it.
    labels: HashMap<String, usize>,
    duplicate: Option<String>,
}

impl Asm {
    /// Starts a new program named `name`.
    pub fn new(name: impl Into<String>) -> Asm {
        Asm {
            name: name.into(),
            items: Vec::new(),
            labels: HashMap::new(),
            duplicate: None,
        }
    }

    /// Defines a label at the current position.
    pub fn label(mut self, name: impl Into<String>) -> Self {
        let name = name.into();
        if self.labels.insert(name.clone(), self.items.len()).is_some() {
            self.duplicate.get_or_insert(name);
        }
        self
    }

    /// Emits a raw instruction.
    pub fn insn(mut self, insn: Insn) -> Self {
        self.items.push(Item::Fixed(insn));
        self
    }

    /// `dst = imm` (64-bit).
    pub fn mov64_imm(self, dst: Reg, imm: i32) -> Self {
        self.insn(Insn::mov64_imm(dst, imm))
    }

    /// `dst = src` (64-bit).
    pub fn mov64_reg(self, dst: Reg, src: Reg) -> Self {
        self.insn(Insn::mov64_reg(dst, src))
    }

    /// `dst = imm64` (two slots).
    pub fn ld_dw(mut self, dst: Reg, value: u64) -> Self {
        self.items.push(Item::LdDw { dst, value });
        self
    }

    /// `dst = map handle for fd` (two slots).
    pub fn ld_map_fd(mut self, dst: Reg, fd: MapFd) -> Self {
        self.items.push(Item::LdMapFd { dst, fd });
        self
    }

    /// `dst = *(size*)(src + off)`.
    pub fn load(self, size: u8, dst: Reg, src: Reg, off: i16) -> Self {
        self.insn(Insn::load(size, dst, src, off))
    }

    /// `*(size*)(dst + off) = src`.
    pub fn store_reg(self, size: u8, dst: Reg, src: Reg, off: i16) -> Self {
        self.insn(Insn::store_reg(size, dst, src, off))
    }

    /// `*(size*)(dst + off) = imm`.
    pub fn store_imm(self, size: u8, dst: Reg, off: i16, imm: i32) -> Self {
        self.insn(Insn::store_imm(size, dst, off, imm))
    }

    /// Helper call.
    pub fn call(self, helper: crate::helpers::Helper) -> Self {
        self.insn(Insn::call(helper.id()))
    }

    /// `return r0`.
    pub fn exit(self) -> Self {
        self.insn(Insn::exit())
    }

    /// Conditional jump (immediate comparison) to `label`.
    pub fn jmp_imm(mut self, op: u8, dst: Reg, imm: i32, label: impl Into<String>) -> Self {
        self.items.push(Item::JmpImm {
            op,
            dst,
            imm,
            label: label.into(),
        });
        self
    }

    /// Conditional jump (register comparison) to `label`.
    pub fn jmp_reg(mut self, op: u8, dst: Reg, src: Reg, label: impl Into<String>) -> Self {
        self.items.push(Item::JmpReg {
            op,
            dst,
            src,
            label: label.into(),
        });
        self
    }

    /// Unconditional jump to `label`.
    pub fn ja(mut self, label: impl Into<String>) -> Self {
        self.items.push(Item::Ja {
            label: label.into(),
        });
        self
    }

    /// Resolves labels and produces the final [`Program`].
    ///
    /// # Errors
    ///
    /// Returns [`AsmError`] for undefined or duplicate labels and for jump
    /// displacements that do not fit in 16 bits.
    pub fn assemble(self) -> Result<Program, AsmError> {
        if let Some(label) = self.duplicate {
            return Err(AsmError::DuplicateLabel(label));
        }
        // First pass: slot index of every item.
        let mut slot_of_item = Vec::with_capacity(self.items.len());
        let mut slot = 0usize;
        for item in &self.items {
            slot_of_item.push(slot);
            slot += item.slots();
        }
        let total_slots = slot;
        // Labels may also sit at the very end (pointing past the last insn is
        // invalid to jump to, but defining one is not an error by itself).
        let label_slot = |label: &str| -> Result<usize, AsmError> {
            let item_idx = *self
                .labels
                .get(label)
                .ok_or_else(|| AsmError::UndefinedLabel(label.to_string()))?;
            Ok(if item_idx == self.items.len() {
                total_slots
            } else {
                slot_of_item[item_idx]
            })
        };

        let mut insns = Vec::with_capacity(total_slots);
        for (idx, item) in self.items.iter().enumerate() {
            let here = slot_of_item[idx];
            let displacement = |label: &str| -> Result<i16, AsmError> {
                let target = label_slot(label)? as i64;
                let off = target - here as i64 - 1;
                i16::try_from(off).map_err(|_| AsmError::JumpOutOfRange(label.to_string()))
            };
            match item {
                Item::Fixed(insn) => insns.push(*insn),
                Item::LdDw { dst, value } => {
                    insns.push(Insn::ld_dw_lo(*dst, *value));
                    insns.push(Insn::ld_dw_hi(*value));
                }
                Item::LdMapFd { dst, fd } => {
                    insns.push(Insn::ld_map_fd_lo(*dst, fd.0));
                    insns.push(Insn::ld_dw_hi(0));
                }
                Item::JmpImm {
                    op,
                    dst,
                    imm,
                    label,
                } => {
                    insns.push(Insn::jmp_imm(*op, *dst, *imm, displacement(label)?));
                }
                Item::JmpReg {
                    op,
                    dst,
                    src,
                    label,
                } => {
                    insns.push(Insn::jmp_reg(*op, *dst, *src, displacement(label)?));
                }
                Item::Ja { label } => insns.push(Insn::ja(displacement(label)?)),
            }
        }
        Ok(Program::new(self.name, insns))
    }

    // --- ergonomic jump aliases ---

    /// Jump to `label` if `dst == imm`.
    pub fn jeq_imm(self, dst: Reg, imm: i32, label: impl Into<String>) -> Self {
        self.jmp_imm(OP_JEQ, dst, imm, label)
    }

    /// Jump to `label` if `dst != imm`.
    pub fn jne_imm(self, dst: Reg, imm: i32, label: impl Into<String>) -> Self {
        self.jmp_imm(OP_JNE, dst, imm, label)
    }

    /// Jump to `label` if `dst == src`.
    pub fn jeq_reg(self, dst: Reg, src: Reg, label: impl Into<String>) -> Self {
        self.jmp_reg(OP_JEQ, dst, src, label)
    }

    /// Jump to `label` if `dst > imm` (unsigned).
    pub fn jgt_imm(self, dst: Reg, imm: i32, label: impl Into<String>) -> Self {
        self.jmp_imm(OP_JGT, dst, imm, label)
    }

    /// Jump to `label` if `dst < src` (unsigned).
    pub fn jlt_reg(self, dst: Reg, src: Reg, label: impl Into<String>) -> Self {
        self.jmp_reg(OP_JLT, dst, src, label)
    }

    // --- ergonomic ALU aliases (64-bit) ---

    /// `dst += imm`.
    pub fn add64_imm(self, dst: Reg, imm: i32) -> Self {
        self.insn(Insn::alu64_imm(OP_ADD, dst, imm))
    }

    /// `dst += src`.
    pub fn add64_reg(self, dst: Reg, src: Reg) -> Self {
        self.insn(Insn::alu64_reg(OP_ADD, dst, src))
    }

    /// `dst -= src`.
    pub fn sub64_reg(self, dst: Reg, src: Reg) -> Self {
        self.insn(Insn::alu64_reg(OP_SUB, dst, src))
    }

    /// `dst *= src`.
    pub fn mul64_reg(self, dst: Reg, src: Reg) -> Self {
        self.insn(Insn::alu64_reg(OP_MUL, dst, src))
    }

    /// `dst /= imm` (unsigned; division by zero yields zero).
    pub fn div64_imm(self, dst: Reg, imm: i32) -> Self {
        self.insn(Insn::alu64_imm(OP_DIV, dst, imm))
    }

    /// `dst >>= imm` (logical).
    pub fn rsh64_imm(self, dst: Reg, imm: i32) -> Self {
        self.insn(Insn::alu64_imm(OP_RSH, dst, imm))
    }

    /// `dst <<= imm`.
    pub fn lsh64_imm(self, dst: Reg, imm: i32) -> Self {
        self.insn(Insn::alu64_imm(OP_LSH, dst, imm))
    }

    /// `dst &= imm`.
    pub fn and64_imm(self, dst: Reg, imm: i32) -> Self {
        self.insn(Insn::alu64_imm(OP_AND, dst, imm))
    }
}

// Re-export the op constants so assembler users need a single import path.
#[allow(unused_imports)]
pub use crate::insn::{
    OP_ADD as ADD, OP_AND as AND, OP_ARSH as ARSH, OP_DIV as DIV, OP_JA as JA, OP_JEQ as JEQ,
    OP_JGE as JGE, OP_JGT as JGT, OP_JLE as JLE, OP_JLT as JLT, OP_JNE as JNE, OP_JSET as JSET,
    OP_JSGE as JSGE, OP_JSGT as JSGT, OP_JSLE as JSLE, OP_JSLT as JSLT, OP_LSH as LSH,
    OP_MOD as MOD, OP_MOV as MOV, OP_MUL as MUL, OP_NEG as NEG, OP_OR as OR, OP_RSH as RSH,
    OP_SUB as SUB, OP_XOR as XOR, SZ_B as B, SZ_DW as DW, SZ_H as H, SZ_W as W,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::{R0, R1, R2};

    #[test]
    fn forward_jump_resolves() {
        let prog = Asm::new("t")
            .jeq_imm(R1, 5, "end")
            .mov64_imm(R0, 1)
            .label("end")
            .exit()
            .assemble()
            .unwrap();
        assert_eq!(prog.insns()[0].off, 1);
    }

    #[test]
    fn jump_over_ld_dw_counts_two_slots() {
        let prog = Asm::new("t")
            .jeq_imm(R1, 5, "end")
            .ld_dw(R2, 0x1_0000_0000)
            .label("end")
            .exit()
            .assemble()
            .unwrap();
        // ld_dw occupies slots 1 and 2; "end" is slot 3; jump from slot 0.
        assert_eq!(prog.insns()[0].off, 2);
        assert_eq!(prog.insns().len(), 4);
    }

    #[test]
    fn label_at_end_points_past_last_insn() {
        let prog = Asm::new("t").ja("end").label("end").assemble().unwrap();
        assert_eq!(prog.insns()[0].off, 0);
    }

    #[test]
    fn undefined_label_is_an_error() {
        let err = Asm::new("t").ja("nowhere").assemble().unwrap_err();
        assert_eq!(err, AsmError::UndefinedLabel("nowhere".to_string()));
        assert!(err.to_string().contains("nowhere"));
    }

    #[test]
    fn duplicate_label_is_an_error() {
        let err = Asm::new("t")
            .label("x")
            .mov64_imm(R0, 0)
            .label("x")
            .exit()
            .assemble()
            .unwrap_err();
        assert_eq!(err, AsmError::DuplicateLabel("x".to_string()));
    }

    #[test]
    fn map_fd_load_emits_pseudo_pair() {
        let prog = Asm::new("t")
            .ld_map_fd(R1, MapFd(7))
            .exit()
            .assemble()
            .unwrap();
        let insns = prog.insns();
        assert!(insns[0].is_ld_dw());
        assert_eq!(insns[0].src, crate::insn::PSEUDO_MAP_FD);
        assert_eq!(insns[0].imm, 7);
    }

    #[test]
    fn backward_jump_has_negative_offset() {
        let prog = Asm::new("t")
            .label("top")
            .mov64_imm(R0, 0)
            .ja("top")
            .assemble()
            .unwrap();
        assert_eq!(prog.insns()[1].off, -2);
    }
}
