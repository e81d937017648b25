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
/// [`Decoded`] representation the JIT compiles and the static analyses
/// read, so field extraction is paid once per program load.
///
/// Verification attaches per-pc memory-access proofs and map-lookup
/// facts ([`AccessProofs`]) as a side effect, and the first JIT execution
/// compiles and caches native code once; both are interior-mutable caches
/// that do not participate in the program's identity.
#[derive(Debug)]
pub struct Program {
    name: String,
    insns: Vec<Insn>,
    decoded: Vec<Decoded>,
    /// Verifier access proofs and lookup facts, attached by a successful
    /// value-tracking verification. Write-once: the first verification
    /// wins (re-verifying the same program yields the same proofs).
    analysis: OnceLock<AccessProofs>,
    /// Lazily compiled native code. `None` inside means compilation was
    /// attempted and declined (unsupported instruction or platform) —
    /// don't retry.
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
            // carrying them over keeps elision available on clones.
            analysis: self.analysis.clone(),
            // Native code buffers are not cloneable; recompile on demand.
            jit: OnceLock::new(),
        }
    }
}

impl Program {
    /// Wraps a raw instruction sequence, pre-decoding it for the JIT and
    /// the analyses.
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

    /// Records verifier access proofs (called by the verifier on a
    /// successful value-tracking pass). First write wins.
    pub(crate) fn attach_access_proofs(&self, proofs: AccessProofs) {
        let _ = self.analysis.set(proofs);
    }

    /// The cached JIT compilation for this program, compiling on first
    /// use. Helper calls follow [`helper_inline_plan`](crate::analysis::helper_inline_plan),
    /// and bounds checks the verifier's value-tracking pass proved safe
    /// are omitted; both read the [`access_proofs`](Program::access_proofs)
    /// attached at the time of the first call, so an unverified program
    /// compiles fully checked and trampolines every map lookup. Returns
    /// `None` when the program or platform is unsupported; callers fall
    /// back to the interpreter.
    pub fn jit(&self) -> Option<&JitProgram> {
        self.jit
            .get_or_init(|| {
                let plan = crate::analysis::helper_inline_plan(self);
                crate::jit::compile(&self.decoded, &plan, self.access_proofs())
            })
            .as_ref()
    }

    /// Renders a human-readable disassembly listing.
    pub fn disassemble(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "; program {}", self.name);
        let mut skip_next = false;
        for (idx, insn) in self.insns.iter().enumerate() {
            if skip_next {
                skip_next = false;
                let _ = writeln!(out, "{idx:4}:  (ld_dw continuation)");
                continue;
            }
            let _ = writeln!(out, "{idx:4}:  {insn}");
            if insn.is_ld_dw() {
                skip_next = true;
            }
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
        assert_eq!(dis.lines().count(), 4); // header + 3 slots
        assert!(dis.contains("continuation"));
        assert!(dis.contains("exit"));
    }
}
