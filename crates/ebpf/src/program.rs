//! Program container.

use std::sync::OnceLock;

use crate::decode::{decode_program, Decoded};
use crate::insn::Insn;
use crate::jit::JitProgram;
use crate::verifier::AccessProofs;

/// An assembled (but not yet verified) eBPF program.
///
/// Obtain one from the [`Asm`](crate::asm::Asm) builder, then pass it to
/// [`Verifier::verify`](crate::verifier::Verifier::verify) and execute it
/// with [`Vm`](crate::interp::Vm).
///
/// Construction eagerly pre-decodes the instruction stream into the
/// [`Decoded`] representation the verifier checks, the JIT compiles and
/// the static analyses read, so field extraction is paid once per
/// program load and all three see the same instructions.
///
/// A successful value-tracking verification attaches per-pc
/// memory-access proofs and map-call facts ([`AccessProofs`]) as a side
/// effect; they are the only way into the JIT, whose first execution
/// compiles and caches native code once. Both are interior-mutable
/// caches that do not participate in the program's identity.
#[derive(Debug)]
pub struct Program {
    name: String,
    insns: Vec<Insn>,
    decoded: Vec<Decoded>,
    /// Verifier access proofs and lookup facts, attached by a successful
    /// value-tracking verification. Write-once: the first verification
    /// wins (re-verifying the same program yields the same proofs).
    analysis: OnceLock<AccessProofs>,
    /// Lazily compiled native code, once proofs are attached. `None`
    /// inside means compilation was declined (no certified bound, or
    /// the platform) — don't retry.
    jit: OnceLock<Option<JitProgram>>,
}

// `decoded` is a pure function of `insns`; identity is (name, insns).
// The analysis/JIT caches are derived state and excluded.
impl PartialEq for Program {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.insns == other.insns
    }
}

impl Eq for Program {}

impl Clone for Program {
    fn clone(&self) -> Program {
        Program {
            name: self.name.clone(),
            insns: self.insns.clone(),
            decoded: self.decoded.clone(),
            // Proofs are a pure function of (insns, verifier config) —
            // carrying them over lets a clone compile on the JIT.
            analysis: self.analysis.clone(),
            // Native code buffers are not cloneable; recompile on demand.
            jit: OnceLock::new(),
        }
    }
}

impl Program {
    /// Wraps a raw instruction sequence, pre-decoding it for the
    /// verifier, the JIT and the analyses.
    pub fn new(name: impl Into<String>, insns: Vec<Insn>) -> Program {
        let decoded = decode_program(&insns);
        Program {
            name: name.into(),
            insns,
            decoded,
            analysis: OnceLock::new(),
            jit: OnceLock::new(),
        }
    }

    /// The program's name (used in diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instruction slots.
    pub fn insns(&self) -> &[Insn] {
        &self.insns
    }

    /// The pre-decoded instruction slots (one entry per raw slot).
    pub fn decoded(&self) -> &[Decoded] {
        &self.decoded
    }

    /// Number of instruction slots.
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    /// True for a program with no instructions.
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }

    /// Access proofs attached by the most recent successful
    /// value-tracking verification, if any.
    pub fn access_proofs(&self) -> Option<&AccessProofs> {
        self.analysis.get()
    }

    /// Records verifier access proofs. Only the verifier calls it, on a
    /// successful value-tracking pass (`tools/lint.rs` keeps it so), so
    /// attached proofs mean the program was verified. First write wins.
    pub(crate) fn attach_access_proofs(&self, proofs: AccessProofs) {
        let _ = self.analysis.set(proofs);
    }

    /// The cached JIT compilation for this program, compiling on first
    /// use. Only a verified program compiles: `None` when no successful
    /// value-tracking verification attached its
    /// [`access_proofs`](Program::access_proofs) (an unverified program,
    /// a `Program::new` copy of a verified one, or one verified with
    /// `value_tracking: false`), when it has no certified bound
    /// ([`cost_report`](crate::analysis::cost_report)), or off x86-64
    /// Linux. Callers then run the interpreter. Memory accesses compile
    /// without bounds checks on the proofs, and helper calls follow
    /// [`helper_inline_plan`](crate::analysis::helper_inline_plan).
    pub fn jit(&self) -> Option<&JitProgram> {
        // Checked before the cache, so a call ahead of verification
        // does not pin `None`.
        let proofs = self.access_proofs()?;
        self.jit
            .get_or_init(|| {
                let cost = crate::analysis::cost_report(self)?;
                let plan = crate::analysis::helper_inline_plan(self);
                crate::jit::compile(&self.decoded, &plan, proofs, cost.max_insns)
            })
            .as_ref()
    }

    /// Renders a disassembly listing: a `; program <name>` header, then
    /// one line per slot, its index and then the line
    /// [`emit_program`](crate::text::emit_program) writes for it
    /// ([`Decoded::text`]). A hi slot reads `(ld_dw continuation)` and a
    /// trap its description, so the listing never fails.
    pub fn disassemble(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "; program {}", self.name);
        let mut pc = 0;
        while let Some(&slot) = self.decoded.get(pc) {
            let _ = writeln!(out, "{pc:4}:  {}", slot.text(pc));
            if slot.width() == 2 {
                let _ = writeln!(out, "{:4}:  (ld_dw continuation)", pc + 1);
            }
            pc += slot.width();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::{Insn, R0};

    #[test]
    fn accessors() {
        let prog = Program::new("p", vec![Insn::mov64_imm(R0, 0), Insn::exit()]);
        assert_eq!(prog.name(), "p");
        assert_eq!(prog.len(), 2);
        assert!(!prog.is_empty());
        assert!(prog.access_proofs().is_none());
    }

    #[test]
    fn clone_carries_proofs_but_not_native_code() {
        let prog = Program::new("p", vec![Insn::mov64_imm(R0, 0), Insn::exit()]);
        prog.attach_access_proofs(AccessProofs::empty_for_len(2, 64));
        let cloned = prog.clone();
        assert!(cloned.access_proofs().is_some());
        assert_eq!(prog, cloned);
    }

    #[test]
    fn disassembly_lists_every_slot() {
        let prog = Program::new(
            "p",
            vec![
                Insn::ld_dw_lo(R0, 0xFFFF_FFFF_FFFF),
                Insn::ld_dw_hi(0xFFFF_FFFF_FFFF),
                Insn::exit(),
            ],
        );
        let dis = prog.disassemble();
        assert_eq!(
            dis,
            "; program p\n   0:  ld_dw r0, 0xffffffffffff\n   1:  (ld_dw continuation)\n   2:  exit\n"
        );
        // A trap renders too: the listing never fails.
        let torn = Program::new("t", vec![Insn::ld_dw_lo(R0, 1), Insn::mov64_imm(12, 0)]);
        assert_eq!(
            torn.disassemble(),
            "; program t\n   0:  (malformed ld_dw)\n   1:  (no register r12)\n"
        );
    }
}
