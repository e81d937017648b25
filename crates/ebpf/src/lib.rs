//! # kscope-ebpf
//!
//! A self-contained eBPF virtual machine: instruction set, structured
//! assembler, static verifier, interpreter, and maps.
//!
//! The paper's methodology runs inside the kernel's eBPF runtime
//! (§III-A: sandboxed bytecode, verifier-enforced termination and memory
//! safety, no floating point, maps shared with userspace). This crate
//! rebuilds that runtime so the observability programs of `kscope-core`
//! can execute as *actual bytecode* against the simulated kernel's
//! tracepoints — not just as Rust closures standing in for them.
//!
//! * [`insn`] — the real x86-64 eBPF instruction encoding;
//! * [`decode`] — the pre-decoded representation the verifier checks,
//!   the JIT compiles and the static analyses read (fields resolved once
//!   at program load);
//! * [`analysis`] — the structural pass, the verifier's warnings, the
//!   JIT's helper-inline plan (read from the lookup facts the verifier
//!   records) and a worst-case per-event cost certifier
//!   ([`analysis::CostReport`]);
//! * [`asm::Asm`] — a label-resolving builder (the "clang" of this
//!   stack), which the text parser ([`text`]) assembles through too;
//! * [`tnum::Tnum`] — the known-bits (tristate number) abstract domain;
//! * [`verifier::Verifier`] — bounded size, no back-edges, uninitialized
//!   read detection, value-tracking abstract interpretation (tnums +
//!   signed/unsigned ranges) admitting register-offset memory accesses,
//!   null-check enforcement for map values, helper signature checking,
//!   and a [`verifier::VerifierReport`] collecting every error with
//!   register dumps plus unreachable/dead-store warnings;
//! * [`interp::Vm`] — the reference interpreter with tagged address
//!   regions, stepping the raw instruction words;
//! * [`jit`] — a template JIT compiling verified programs to native
//!   x86-64 (opt in via [`interp::Vm::with_jit`]; falls back to the
//!   interpreter on unsupported programs or targets);
//! * [`maps::MapRegistry`] — hash/array/ringbuf/Top-K-sketch maps shared
//!   with userspace ([`sketch`] holds the heavy-hitter state and the
//!   collection tree's merge of it);
//! * [`helpers::Helper`] — Linux-numbered kernel helpers
//!   (`bpf_ktime_get_ns` = 5, `bpf_get_current_pid_tgid` = 14, …).
//!
//! # Examples
//!
//! Assemble, verify, and run a program that doubles a context word:
//!
//! ```
//! use kscope_ebpf::asm::Asm;
//! use kscope_ebpf::insn::{R0, R1, SZ_DW};
//! use kscope_ebpf::interp::{ExecEnv, Vm};
//! use kscope_ebpf::maps::MapRegistry;
//! use kscope_ebpf::verifier::Verifier;
//!
//! let prog = Asm::new("double")
//!     .load(SZ_DW, R0, R1, 0)
//!     .add64_reg(R0, R0)
//!     .exit()
//!     .assemble()?;
//! let mut maps = MapRegistry::new();
//! Verifier::default().verify(&prog, &maps)?;
//! let ctx = 21u64.to_le_bytes();
//! let out = Vm::new().execute(&prog, &ctx, &mut maps, &mut ExecEnv::default())?;
//! assert_eq!(out.ret, 42);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// `deny` (not `forbid`) so the JIT module — machine-code emission,
// executable mappings, and C-ABI trampolines — can opt in explicitly;
// every other module stays safe Rust.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod asm;
pub mod decode;
pub mod helpers;
pub mod insn;
pub mod interp;
#[allow(unsafe_code)]
pub mod jit;
pub mod mapindex;
pub mod maps;
pub mod program;
pub mod sketch;
pub mod text;
pub mod tnum;
pub mod verifier;

pub use analysis::{
    cost_report, helper_inline_plan, CostReport, HelperInline, InlinePlan, MapSite,
};
pub use asm::Asm;
pub use decode::Decoded;
pub use helpers::Helper;
pub use interp::{ExecEnv, ExecError, ExecOutcome, Vm};
pub use maps::{MapDef, MapError, MapFd, MapKind, MapRegistry};
pub use program::Program;
pub use sketch::SketchState;
pub use text::parse_program;
pub use tnum::Tnum;
pub use verifier::{
    AccessProofs, Diagnostic, ProvenRegion, Verifier, VerifierConfig, VerifierReport, VerifyError,
    VerifyWarning,
};
