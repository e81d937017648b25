//! Table-driven rejection-path coverage for the verifier.
//!
//! One minimal program per [`VerifyError`] class, and one per
//! [`VerifyWarning`] class. The tables are the specification: adding a
//! variant without extending the matching table fails a completeness
//! check, so rejection and diagnostic paths can't silently lose
//! coverage. A third table pins the value-tracking bounds checks:
//! register-offset accesses whose intervals do *not* provably fit must
//! still be rejected. Beside them, every opcode byte is checked both
//! ways against the decoder: a trap is a `BadOpcode` rejection, and an
//! instruction is never rejected as a trap.

use kscope_ebpf::asm::Asm;
use kscope_ebpf::decode::decode_program;
use kscope_ebpf::insn::{
    Insn, OP_ADD, OP_AND, OP_DIV, OP_MUL, R0, R1, R10, R2, R6, R7, SZ_DW, SZ_W,
};
use kscope_ebpf::maps::{MapDef, MapRegistry};
use kscope_ebpf::verifier::{Verifier, VerifyError, VerifyWarning};
use kscope_ebpf::{jit, Decoded, Helper, Program};

struct Case {
    /// Which `VerifyError` variant this program must trigger.
    class: &'static str,
    build: fn(&mut MapRegistry) -> Program,
    matches: fn(&VerifyError) -> bool,
}

/// The full variant list of `VerifyError`, kept in declaration order.
const ALL_CLASSES: &[&str] = &[
    "Empty",
    "TooLarge",
    "BackEdge",
    "BadJumpTarget",
    "FallOffEnd",
    "UninitRead",
    "BadOpcode",
    "BadRegister",
    "WriteToFp",
    "WriteToCtx",
    "OutOfBounds",
    "UninitStackRead",
    "MaybeNullDeref",
    "PointerArith",
    "DivByZeroImm",
    "UnknownHelper",
    "BadHelperArg",
    "BadMapFd",
    "MalformedLdDw",
    "ExitWithoutR0",
];

fn cases() -> Vec<Case> {
    vec![
        Case {
            class: "Empty",
            build: |_| Program::new("empty", vec![]),
            matches: |e| matches!(e, VerifyError::Empty),
        },
        Case {
            class: "TooLarge",
            build: |_| {
                let mut insns = vec![Insn::mov64_imm(R0, 0); 4096];
                insns.push(Insn::exit());
                Program::new("huge", insns)
            },
            matches: |e| matches!(e, VerifyError::TooLarge { .. }),
        },
        Case {
            class: "BackEdge",
            build: |_| {
                // `ja -2` from pc 1 targets pc 0: a loop.
                Program::new(
                    "loop",
                    vec![Insn::mov64_imm(R0, 0), Insn::ja(-2), Insn::exit()],
                )
            },
            matches: |e| matches!(e, VerifyError::BackEdge { .. }),
        },
        Case {
            class: "BadJumpTarget",
            build: |_| {
                Program::new(
                    "wild-jump",
                    vec![Insn::mov64_imm(R0, 0), Insn::ja(100), Insn::exit()],
                )
            },
            matches: |e| matches!(e, VerifyError::BadJumpTarget { .. }),
        },
        Case {
            class: "FallOffEnd",
            build: |_| Program::new("no-exit", vec![Insn::mov64_imm(R0, 0)]),
            matches: |e| matches!(e, VerifyError::FallOffEnd { .. }),
        },
        Case {
            class: "UninitRead",
            build: |_| {
                // r6 was never written.
                Program::new("uninit", vec![Insn::mov64_reg(R0, 6), Insn::exit()])
            },
            matches: |e| matches!(e, VerifyError::UninitRead { reg: 6, .. }),
        },
        Case {
            class: "BadOpcode",
            build: |_| {
                let garbage = Insn {
                    code: 0xFF,
                    dst: 0,
                    src: 0,
                    off: 0,
                    imm: 0,
                };
                Program::new(
                    "garbage",
                    vec![Insn::mov64_imm(R0, 0), garbage, Insn::exit()],
                )
            },
            matches: |e| matches!(e, VerifyError::BadOpcode { code: 0xFF, .. }),
        },
        Case {
            class: "BadRegister",
            build: |_| {
                // The 4-bit `src` field encodes r12, which does not exist.
                Program::new("r12", vec![Insn::mov64_reg(R0, 12), Insn::exit()])
            },
            matches: |e| matches!(e, VerifyError::BadRegister { pc: 0, reg: 12 }),
        },
        Case {
            class: "WriteToFp",
            build: |_| {
                Program::new(
                    "clobber-fp",
                    vec![
                        Insn::alu64_imm(OP_ADD, R10, 8),
                        Insn::mov64_imm(R0, 0),
                        Insn::exit(),
                    ],
                )
            },
            matches: |e| matches!(e, VerifyError::WriteToFp { .. }),
        },
        Case {
            class: "WriteToCtx",
            build: |_| {
                // r1 is the read-only context pointer at entry.
                Program::new(
                    "ctx-write",
                    vec![
                        Insn::mov64_imm(R0, 0),
                        Insn::store_imm(SZ_W, R1, 0, 1),
                        Insn::exit(),
                    ],
                )
            },
            matches: |e| matches!(e, VerifyError::WriteToCtx { .. }),
        },
        Case {
            class: "OutOfBounds",
            build: |_| {
                // Stack grows down from fp; offset 0 is past its top.
                Program::new(
                    "oob",
                    vec![
                        Insn::mov64_imm(R0, 0),
                        Insn::store_imm(SZ_DW, R10, 0, 1),
                        Insn::exit(),
                    ],
                )
            },
            matches: |e| matches!(e, VerifyError::OutOfBounds { .. }),
        },
        Case {
            class: "UninitStackRead",
            build: |_| {
                Program::new(
                    "uninit-stack",
                    vec![Insn::load(SZ_DW, R0, R10, -8), Insn::exit()],
                )
            },
            matches: |e| matches!(e, VerifyError::UninitStackRead { .. }),
        },
        Case {
            class: "MaybeNullDeref",
            build: |maps| {
                let fd = maps.create("m", MapDef::hash(8, 8, 16));
                Asm::new("null-deref")
                    .store_imm(SZ_DW, R10, -8, 1)
                    .ld_map_fd(R1, fd)
                    .mov64_reg(R2, R10)
                    .insn(Insn::alu64_imm(OP_ADD, R2, -8))
                    .call(Helper::MapLookupElem)
                    .load(SZ_DW, R0, R0, 0) // no null check!
                    .exit()
                    .assemble()
                    .unwrap()
            },
            matches: |e| matches!(e, VerifyError::MaybeNullDeref { .. }),
        },
        Case {
            class: "PointerArith",
            build: |_| {
                Program::new(
                    "ptr-mul",
                    vec![
                        Insn::mov64_reg(R2, R10),
                        Insn::alu64_imm(OP_MUL, R2, 4),
                        Insn::mov64_imm(R0, 0),
                        Insn::exit(),
                    ],
                )
            },
            matches: |e| matches!(e, VerifyError::PointerArith { .. }),
        },
        Case {
            class: "DivByZeroImm",
            build: |_| {
                Program::new(
                    "div0",
                    vec![
                        Insn::mov64_imm(R0, 5),
                        Insn::alu64_imm(OP_DIV, R0, 0),
                        Insn::exit(),
                    ],
                )
            },
            matches: |e| matches!(e, VerifyError::DivByZeroImm { .. }),
        },
        Case {
            class: "UnknownHelper",
            build: |_| Program::new("bad-call", vec![Insn::call(9999), Insn::exit()]),
            matches: |e| matches!(e, VerifyError::UnknownHelper { id: 9999, .. }),
        },
        Case {
            class: "BadHelperArg",
            build: |maps| {
                let _fd = maps.create("m", MapDef::hash(8, 8, 16));
                // r1 must be a map handle; a scalar zero is not.
                Asm::new("bad-arg")
                    .mov64_imm(R1, 0)
                    .mov64_reg(R2, R10)
                    .call(Helper::MapLookupElem)
                    .exit()
                    .assemble()
                    .unwrap()
            },
            matches: |e| matches!(e, VerifyError::BadHelperArg { arg: 1, .. }),
        },
        Case {
            class: "BadMapFd",
            build: |_| {
                // Registry is empty, so fd 42 cannot exist.
                Program::new(
                    "bad-fd",
                    vec![
                        Insn::ld_map_fd_lo(R1, 42),
                        Insn::ld_dw_hi(0),
                        Insn::mov64_imm(R0, 0),
                        Insn::exit(),
                    ],
                )
            },
            matches: |e| matches!(e, VerifyError::BadMapFd { fd: 42, .. }),
        },
        Case {
            class: "MalformedLdDw",
            build: |_| {
                // The second slot must be a bare hi word (code 0); `exit`
                // is not one.
                Program::new("torn-lddw", vec![Insn::ld_dw_lo(R0, 5), Insn::exit()])
            },
            matches: |e| matches!(e, VerifyError::MalformedLdDw { .. }),
        },
        Case {
            class: "ExitWithoutR0",
            build: |_| Program::new("no-r0", vec![Insn::exit()]),
            matches: |e| matches!(e, VerifyError::ExitWithoutR0 { .. }),
        },
    ]
}

/// Every case must be rejected with exactly its declared error class.
#[test]
fn each_class_fires_on_its_minimal_program() {
    for case in cases() {
        let mut maps = MapRegistry::new();
        let prog = (case.build)(&mut maps);
        match Verifier::default().verify(&prog, &maps) {
            Ok(()) => panic!(
                "case `{}`: verifier accepted the program\n{}",
                case.class,
                prog.disassemble()
            ),
            Err(e) => assert!(
                (case.matches)(&e),
                "case `{}`: expected that class, got {e:?}\n{}",
                case.class,
                prog.disassemble()
            ),
        }
    }
}

/// The table must name every `VerifyError` variant exactly once.
#[test]
fn every_error_class_is_covered() {
    let table: Vec<&str> = cases().iter().map(|c| c.class).collect();
    for class in ALL_CLASSES {
        assert!(
            table.contains(class),
            "no rejection case for VerifyError::{class}"
        );
    }
    assert_eq!(
        table.len(),
        ALL_CLASSES.len(),
        "table has duplicate or stray classes"
    );
}

/// The decoder and the verifier agree on every opcode byte, both ways: a
/// word the decoder turns into `BadOpcode` is rejected as that at its pc,
/// in every class and width (an undefined 32-bit ALU op such as 0xd4
/// included), so a verified program never reaches a trap and the JIT may
/// emit nothing for one; and a word it decodes to an instruction is never
/// rejected as a trap (`BadOpcode`, `UnknownHelper` or `MalformedLdDw`).
/// Where the JIT runs, every such program the verifier accepts compiles.
#[test]
fn every_decoder_trap_is_a_bad_opcode() {
    let maps = MapRegistry::new();
    let (mut traps, mut accepted) = (0, 0);
    for code in 0..=u8::MAX {
        // An immediate no helper answers to, and one that names a helper.
        for imm in [16, Helper::KtimeGetNs.id()] {
            let word = Insn {
                code,
                dst: 0,
                src: 1,
                off: 0,
                imm,
            };
            let mut insns = vec![Insn::mov64_imm(R0, 0), Insn::mov64_imm(R1, 0), word];
            if word.is_ld_dw() {
                insns.push(Insn::ld_dw_hi(0));
            }
            insns.push(Insn::exit());
            let decoded = decode_program(&insns)[2];
            let prog = Program::new("word", insns);
            let verdict = Verifier::default().verify(&prog, &maps);
            match decoded {
                Decoded::BadOpcode { .. } => {
                    traps += 1;
                    assert_eq!(
                        verdict,
                        Err(VerifyError::BadOpcode { pc: 2, code }),
                        "code {code:#04x}"
                    );
                }
                Decoded::UnknownHelper { .. } | Decoded::MalformedLdDw => {}
                _ => {
                    assert!(
                        !matches!(
                            verdict,
                            Err(VerifyError::BadOpcode { .. }
                                | VerifyError::UnknownHelper { .. }
                                | VerifyError::MalformedLdDw { .. })
                        ),
                        "code {code:#04x} imm {imm} decodes to {decoded:?}: {verdict:?}"
                    );
                    if verdict.is_ok() {
                        accepted += 1;
                        if jit::supported() {
                            assert!(
                                prog.jit().is_some(),
                                "code {code:#04x} imm {imm}: verified but does not compile"
                            );
                        }
                    }
                }
            }
        }
    }
    assert!(traps > 0, "no opcode byte decoded to a trap");
    assert!(accepted > 0, "no decoded opcode byte verified");
}

#[test]
fn rejections_are_deterministic() {
    for case in cases() {
        let mut maps = MapRegistry::new();
        let prog = (case.build)(&mut maps);
        let first = Verifier::default().verify(&prog, &maps).unwrap_err();
        let second = Verifier::default().verify(&prog, &maps).unwrap_err();
        assert_eq!(first, second, "case `{}` gave unstable errors", case.class);
    }
}

// --- warnings ---

struct WarnCase {
    class: &'static str,
    build: fn() -> Program,
    matches: fn(&VerifyWarning) -> bool,
}

/// The full variant list of `VerifyWarning`, kept in declaration order.
const ALL_WARNING_CLASSES: &[&str] = &["UnreachableInsn", "DeadStore"];

fn warn_cases() -> Vec<WarnCase> {
    vec![
        WarnCase {
            class: "UnreachableInsn",
            build: || {
                // r0 is the constant 0, so `jeq r0, 0` is always taken
                // and the fall-through instruction can never execute.
                Program::new(
                    "dead-code",
                    vec![
                        Insn::mov64_imm(R0, 0),
                        Insn::jmp_imm(kscope_ebpf::insn::OP_JEQ, R0, 0, 1),
                        Insn::mov64_imm(R0, 1),
                        Insn::exit(),
                    ],
                )
            },
            matches: |w| matches!(w, VerifyWarning::UnreachableInsn { pc: 2 }),
        },
        WarnCase {
            class: "DeadStore",
            build: || {
                // The stored slot is never read before `exit`.
                Program::new(
                    "dead-store",
                    vec![
                        Insn::mov64_imm(R0, 7),
                        Insn::store_reg(SZ_DW, R10, R0, -8),
                        Insn::exit(),
                    ],
                )
            },
            matches: |w| {
                matches!(
                    w,
                    VerifyWarning::DeadStore {
                        pc: 1,
                        off: -8,
                        size: 8
                    }
                )
            },
        },
    ]
}

/// Each warning case's program is *accepted* and produces exactly its
/// declared warning class.
#[test]
fn each_warning_class_fires_on_its_minimal_program() {
    for case in warn_cases() {
        let maps = MapRegistry::new();
        let prog = (case.build)();
        let report = Verifier::default().verify_report(&prog, &maps);
        assert!(
            report.is_ok(),
            "warning case `{}` must verify, got:\n{report}",
            case.class
        );
        assert!(
            report.warnings.iter().any(case.matches),
            "warning case `{}`: expected that class, got {:?}\n{}",
            case.class,
            report.warnings,
            prog.disassemble()
        );
    }
}

/// The warning table must name every `VerifyWarning` variant once.
#[test]
fn every_warning_class_is_covered() {
    let table: Vec<&str> = warn_cases().iter().map(|c| c.class).collect();
    for class in ALL_WARNING_CLASSES {
        assert!(
            table.contains(class),
            "no warning case for VerifyWarning::{class}"
        );
    }
    assert_eq!(
        table.len(),
        ALL_WARNING_CLASSES.len(),
        "warning table has duplicate or stray classes"
    );
}

/// An overwritten-before-read store is dead too, and a consumed store
/// must NOT warn — the liveness analysis reads through register offsets.
#[test]
fn dead_store_analysis_tracks_reads() {
    let maps = MapRegistry::new();
    // Overwrite: the first store can never be observed.
    let prog = Program::new(
        "overwrite",
        vec![
            Insn::mov64_imm(R0, 1),
            Insn::store_reg(SZ_DW, R10, R0, -8),
            Insn::store_reg(SZ_DW, R10, R0, -8),
            Insn::load(SZ_DW, R0, R10, -8),
            Insn::exit(),
        ],
    );
    let report = Verifier::default().verify_report(&prog, &maps);
    assert!(report.is_ok());
    assert!(
        report
            .warnings
            .iter()
            .any(|w| matches!(w, VerifyWarning::DeadStore { pc: 1, .. })),
        "overwritten store should be dead: {:?}",
        report.warnings
    );
    assert!(
        !report
            .warnings
            .iter()
            .any(|w| matches!(w, VerifyWarning::DeadStore { pc: 2, .. })),
        "consumed store must not warn: {:?}",
        report.warnings
    );
}

// --- value-tracking bounds rejections ---

/// Register-offset accesses whose interval does not provably fit are
/// still rejected: value tracking admits proofs, not hopes.
#[test]
fn unproven_register_offsets_stay_rejected() {
    // Completely unclamped context word used as a stack offset.
    let unclamped = Asm::new("unclamped")
        .mov64_imm(R0, 0)
        .load(SZ_DW, R6, R1, 0)
        .mov64_reg(R7, R10)
        .add64_imm(R7, -64)
        .insn(Insn::alu64_reg(OP_ADD, R7, R6))
        .store_reg(SZ_DW, R7, R0, 0)
        .exit()
        .assemble()
        .unwrap();

    // Clamped, but to a window wider than the stack.
    let too_wide = Asm::new("too-wide")
        .mov64_imm(R0, 0)
        .load(SZ_DW, R6, R1, 0)
        .insn(Insn::alu64_imm(OP_AND, R6, 127))
        .insn(Insn::alu64_imm(kscope_ebpf::insn::OP_LSH, R6, 3))
        .mov64_reg(R7, R10)
        .add64_imm(R7, -512)
        .insn(Insn::alu64_reg(OP_ADD, R7, R6))
        .store_reg(SZ_DW, R7, R0, 0)
        .exit()
        .assemble()
        .unwrap();

    // A 32-bit compare must not bound the upper 32 bits: on the
    // fall-through of `jge32 r6, 56` the *low* word is < 56 but the
    // high word is still anything, so the store remains unprovable.
    let jmp32_guard = Asm::new("jmp32-guard")
        .mov64_imm(R0, 0)
        .load(SZ_DW, R6, R1, 0)
        .insn(Insn::jmp32_imm(kscope_ebpf::insn::OP_JGE, R6, 56, 4))
        .mov64_reg(R7, R10)
        .add64_imm(R7, -64)
        .insn(Insn::alu64_reg(OP_ADD, R7, R6))
        .store_reg(SZ_DW, R7, R0, 0)
        .exit()
        .assemble()
        .unwrap();

    // Two subtractions whose offsets sum to 2⁶⁴ + 1: the pointer wraps
    // back to base + 1, so an interval that lost the wrap would admit
    // the 8-byte load at "offset 0" past the end of the 8-byte value.
    let mut maps = MapRegistry::new();
    let fd = maps.create("v", MapDef::array(8, 1));
    let wrapped = Asm::new("wrapped-offset")
        .store_imm(SZ_W, R10, -4, 0)
        .ld_map_fd(R1, fd)
        .mov64_reg(R2, R10)
        .add64_imm(R2, -4)
        .call(Helper::MapLookupElem)
        .jeq_imm(R0, 0, "out")
        .ld_dw(R2, 0x7FFF_FFFF_FFFF_FFFF)
        .sub64_reg(R0, R2)
        .ld_dw(R2, 0x8000_0000_0000_0000)
        .sub64_reg(R0, R2)
        .load(SZ_DW, R1, R0, 0)
        .label("out")
        .mov64_imm(R0, 0)
        .exit()
        .assemble()
        .unwrap();

    for (name, prog) in [
        ("unclamped", &unclamped),
        ("too-wide", &too_wide),
        ("jmp32-guard", &jmp32_guard),
        ("wrapped-offset", &wrapped),
    ] {
        let err = Verifier::default().verify(prog, &maps).unwrap_err();
        assert!(
            matches!(err, VerifyError::OutOfBounds { .. }),
            "{name}: expected OutOfBounds, got {err:?}\n{}",
            prog.disassemble()
        );
    }
}

/// A variable-offset load requires *every* byte the window can touch to
/// be initialized; one initialized slot is not enough.
#[test]
fn var_offset_load_needs_fully_initialized_window() {
    let prog = Asm::new("partial-window")
        .mov64_imm(R0, 0)
        .store_reg(SZ_DW, R10, R0, -8) // only one of two slots
        .load(SZ_DW, R6, R1, 0)
        .insn(Insn::alu64_imm(OP_AND, R6, 8)) // offset in {0, 8}
        .mov64_reg(R7, R10)
        .add64_imm(R7, -16)
        .insn(Insn::alu64_reg(OP_ADD, R7, R6))
        .load(SZ_DW, R0, R7, 0)
        .exit()
        .assemble()
        .unwrap();
    let maps = MapRegistry::new();
    let err = Verifier::default().verify(&prog, &maps).unwrap_err();
    assert!(
        matches!(err, VerifyError::UninitStackRead { .. }),
        "expected UninitStackRead, got {err:?}\n{}",
        prog.disassemble()
    );
}
