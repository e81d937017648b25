//! Differential fuzzing of the eBPF stack.
//!
//! Three oracles, all seeded and replayable through the testkit harness:
//!
//! 1. **Verifier soundness** — any program the verifier accepts executes
//!    in the interpreter without faulting (1200 random programs plus 400
//!    structured ones: over 1000 fuzz iterations per `cargo test` run).
//! 2. **Text round-trip** — assembling a program, rendering it with
//!    `emit_program`, and re-parsing it reproduces the instruction
//!    stream slot for slot, byte for byte.
//! 3. **Reference evaluation** — for branch-free ALU programs the
//!    interpreter's result equals an independent straight-line evaluator
//!    transcribed from the instruction-set semantics.
//! 4. **Value-tracking precision and soundness** — 1000 bounds-clamped
//!    register-offset programs all verify and never fault, and on mixed
//!    program streams the value-tracking verifier accepts a strict
//!    superset of what the historical type-only rules accepted.

use kscope_ebpf::insn::Insn;
use kscope_ebpf::interp::{ExecEnv, Vm};
use kscope_ebpf::maps::{MapDef, MapRegistry};
use kscope_ebpf::text::{emit_program, parse_program};
use kscope_ebpf::verifier::{Verifier, VerifierConfig};
use kscope_ebpf::Program;
use kscope_simcore::SimRng;
use kscope_testkit::ebpf_gen::{
    bounded_offset_program, fuzz_program, reference_eval, straightline_program, valid_program,
};
use kscope_testkit::Config;

/// 1200 arbitrary-body programs: everything the verifier accepts must
/// run clean, for arbitrary context bytes.
#[test]
fn verified_fuzz_programs_never_fault() {
    kscope_testkit::check!(
        Config::cases(1200),
        |rng: &mut SimRng| fuzz_program(rng, 24).insns().to_vec(),
        |insns: &Vec<Insn>| {
            let prog = Program::new("fuzz", insns.clone());
            let mut maps = MapRegistry::new();
            maps.create("m", MapDef::hash(8, 8, 64));
            if Verifier::default().verify(&prog, &maps).is_ok() {
                let result =
                    Vm::new().execute(&prog, &[0xA5u8; 64], &mut maps, &mut ExecEnv::default());
                assert!(
                    result.is_ok(),
                    "verifier accepted but interpreter faulted: {result:?}\n{}",
                    prog.disassemble()
                );
            }
        }
    );
}

/// Structured programs are accepted by construction, and still must run
/// clean — this drives the interpreter through its *verified* paths
/// (stack traffic, branches, wide immediates), not just rejections.
#[test]
fn structured_programs_verify_and_run() {
    kscope_testkit::check!(
        Config::cases(400),
        |rng: &mut SimRng| valid_program(rng, true).insns().to_vec(),
        |insns: &Vec<Insn>| {
            let prog = Program::new("valid", insns.clone());
            let mut maps = MapRegistry::new();
            // Shrunk instruction streams may no longer verify; the
            // soundness contract is only about accepted programs.
            if Verifier::default().verify(&prog, &maps).is_ok() {
                let result =
                    Vm::new().execute(&prog, &[0u8; 64], &mut maps, &mut ExecEnv::default());
                assert!(
                    result.is_ok(),
                    "verified structured program faulted: {result:?}\n{}",
                    prog.disassemble()
                );
            }
        }
    );
}

/// Freshly generated structured programs must pass the verifier — the
/// generator's validity promise itself, checked separately so a
/// generator regression can't silently turn the soundness fuzz above
/// into a no-op that never reaches the interpreter.
#[test]
fn structured_generator_keeps_its_validity_promise() {
    let mut rng = SimRng::seed_from_u64(Config::default().seed);
    let maps = MapRegistry::new();
    for i in 0..400 {
        let prog = valid_program(&mut rng, true);
        Verifier::default()
            .verify(&prog, &maps)
            .unwrap_or_else(|e| {
                panic!(
                    "iteration {i}: generator emitted a rejected program: {e}\n{}",
                    prog.disassemble()
                )
            });
    }
}

/// Text round-trip: emit → parse reproduces every instruction slot
/// byte-identically (including two-slot `ld_dw` immediates and relative
/// jump displacements).
#[test]
fn text_round_trip_is_byte_identical() {
    kscope_testkit::check!(
        Config::cases(400),
        |rng: &mut SimRng| valid_program(rng, true).insns().to_vec(),
        |insns: &Vec<Insn>| {
            let prog = Program::new("valid", insns.clone());
            // Shrinking can orphan an `ld_dw` half, which legitimately
            // has no text form; the round-trip contract covers every
            // program the emitter can render.
            let Ok(text) = emit_program(&prog) else {
                return;
            };
            let reparsed = parse_program("valid", &text)
                .unwrap_or_else(|e| panic!("emitted text failed to parse: {e}\n{text}"));
            assert_eq!(
                reparsed.insns(),
                prog.insns(),
                "round trip diverged\n{text}"
            );
            for (a, b) in prog.insns().iter().zip(reparsed.insns()) {
                assert_eq!(a.encode(), b.encode(), "encoded words differ");
            }
            // One renderer: the listing's instruction lines, index
            // stripped, are the emitted lines.
            let listing = prog.disassemble();
            let listed: Vec<&str> = listing
                .lines()
                .skip(1) // `; program <name>`
                .map(|line| match line.split_once(":  ") {
                    Some((_, insn)) => insn,
                    None => panic!("listing line without an index: {line}"),
                })
                .filter(|insn| *insn != "(ld_dw continuation)")
                .collect();
            assert_eq!(
                listed,
                text.lines().collect::<Vec<_>>(),
                "listing and emitted text differ\n{listing}"
            );
        }
    );
}

/// Branch-free programs: the interpreter's return value equals the
/// independent reference evaluator's, on every generated program.
#[test]
fn interpreter_matches_reference_evaluator() {
    kscope_testkit::check!(
        Config::cases(600),
        |rng: &mut SimRng| straightline_program(rng).insns().to_vec(),
        |insns: &Vec<Insn>| {
            let prog = Program::new("straightline", insns.clone());
            // Shrunk streams can fall outside the straight-line fragment
            // (e.g. a dropped init leaves a read-before-write); the
            // reference declines those and there is nothing to compare.
            let Some(expected) = reference_eval(&prog) else {
                return;
            };
            let mut maps = MapRegistry::new();
            Verifier::default()
                .verify(&prog, &maps)
                .unwrap_or_else(|e| panic!("straightline program rejected: {e}"));
            let out = Vm::new()
                .execute(&prog, &[], &mut maps, &mut ExecEnv::default())
                .unwrap_or_else(|e| panic!("straightline program faulted: {e:?}"));
            assert_eq!(
                out.ret,
                expected,
                "interpreter {} != reference {expected}\n{}",
                out.ret,
                prog.disassemble()
            );
        }
    );
}

/// 1000 bounds-clamped register-offset programs: the value-tracking
/// verifier must accept every one (the generator's clamps are designed
/// to be provable), and every accepted program must run clean on
/// randomized context bytes — the soundness half of the precision story.
#[test]
fn bounded_offset_programs_verify_and_never_fault() {
    let mut rng = SimRng::seed_from_u64(Config::default().seed);
    for i in 0..1000 {
        let mut maps = MapRegistry::new();
        let fd = maps.create("vals", MapDef::array(128, 1));
        let prog = bounded_offset_program(&mut rng, (i % 2 == 0).then_some(fd));
        Verifier::default()
            .verify(&prog, &maps)
            .unwrap_or_else(|e| {
                panic!(
                    "iteration {i}: bounded-offset program rejected: {e}\n{}",
                    prog.disassemble()
                )
            });
        let mut ctx = [0u8; 64];
        for b in ctx.iter_mut() {
            *b = rng.next_u64() as u8;
        }
        let result = Vm::new().execute(&prog, &ctx, &mut maps, &mut ExecEnv::default());
        assert!(
            result.is_ok(),
            "iteration {i}: accepted program faulted on ctx {ctx:02x?}: {result:?}\n{}",
            prog.disassemble()
        );
    }
}

/// The value-tracking verifier accepts a strict superset of the
/// type-only rules: on a mixed stream of arbitrary, structured, and
/// bounded-offset programs, nothing the old lattice accepted is newly
/// rejected — and the bounded-offset corpus demonstrates genuine new
/// acceptances, so the inclusion is strict, not vacuous.
#[test]
fn value_tracking_accepts_strict_superset_of_type_only() {
    let mut rng = SimRng::seed_from_u64(Config::default().seed ^ 0x5EED);
    let type_only = Verifier::new(VerifierConfig {
        value_tracking: false,
        ..VerifierConfig::default()
    });
    let full = Verifier::default();
    let mut newly_accepted = 0usize;
    for i in 0..1200 {
        let mut maps = MapRegistry::new();
        let fd = maps.create("vals", MapDef::array(128, 1));
        let prog = match i % 3 {
            0 => fuzz_program(&mut rng, 24),
            1 => valid_program(&mut rng, true),
            _ => bounded_offset_program(&mut rng, Some(fd)),
        };
        let old = type_only.verify(&prog, &maps);
        let new = full.verify(&prog, &maps);
        if old.is_ok() {
            assert!(
                new.is_ok(),
                "iteration {i}: value tracking rejected a type-only-accepted program: {new:?}\n{}",
                prog.disassemble()
            );
        }
        if old.is_err() && new.is_ok() {
            newly_accepted += 1;
        }
    }
    assert!(
        newly_accepted >= 100,
        "expected a strict precision gain, saw only {newly_accepted} new acceptances"
    );
}

/// The reference evaluator must produce a value on every freshly
/// generated straight-line program (all registers initialized, no
/// branches) — otherwise the differential above would silently compare
/// nothing.
#[test]
fn reference_evaluator_covers_the_generator() {
    let mut rng = SimRng::seed_from_u64(Config::default().seed);
    for i in 0..600 {
        let prog = straightline_program(&mut rng);
        assert!(
            reference_eval(&prog).is_some(),
            "iteration {i}: reference declined a generated program\n{}",
            prog.disassemble()
        );
    }
}
