//! Bounds-check elision in the template JIT is invisible except in the
//! generated code, and only verified programs get it.
//!
//! The verifier's value-tracking pass attaches per-pc [`AccessProofs`]
//! to a program it accepts; the JIT compiles only such a program, and
//! consumes the proofs to emit its stack and context accesses as direct
//! machine loads/stores with no bounds check. These tests pin the
//! contract from both sides:
//!
//! * **Identity**: for verified programs, the elided JIT and the
//!   interpreter produce bitwise-identical outcomes and map state —
//!   elision may never change observable behavior.
//! * **Effectiveness**: a stack/context-heavy verified program carries a
//!   proof for every access and compiles, and an unverified copy of it
//!   does not compile at all.
//! * **Entry rule**: verifying with `value_tracking: false` attaches no
//!   proofs, so the program never compiles and runs on the interpreter.
//! * **Runtime guards**: context proofs are conditioned on the verified
//!   `ctx_size`, and the native code keeps no budget; executing with a
//!   shorter context, or under a budget below the certified bound, must
//!   run on the interpreter and fault exactly like it.

use kscope_ebpf::asm::Asm;
use kscope_ebpf::insn::SZ_DW;
use kscope_ebpf::interp::{ExecEnv, Vm};
use kscope_ebpf::maps::{MapDef, MapRegistry};
use kscope_ebpf::verifier::{Verifier, VerifierConfig};
use kscope_ebpf::{cost_report, ExecError, Helper, Program};

use kscope_simcore::SimRng;
use kscope_testkit::ebpf_gen::{bounded_offset_program, valid_program};
use kscope_testkit::{check, Config};

/// Executes `prog` on the interpreter and on a JIT VM from identical
/// states, and asserts both agree on the `Result`, the helper
/// environment, and the full map state. A program carrying the
/// verifier's proofs must compile where the JIT is supported.
fn assert_elision_invisible(label: &str, prog: &Program, ctx: &[u8], base: &MapRegistry) {
    if prog.access_proofs().is_some() && kscope_ebpf::jit::supported() {
        assert!(
            prog.jit().is_some(),
            "{label}: a verified program must compile"
        );
    }
    let env = ExecEnv {
        ktime_ns: 1_000_000,
        pid_tgid: 0x0042_0043,
        prandom_state: 7,
    };

    let mut maps_interp = base.clone();
    let mut env_interp = env;
    let interp = Vm::new().execute(prog, ctx, &mut maps_interp, &mut env_interp);

    let mut maps_jit = base.clone();
    let mut env_jit = env;
    let jit = Vm::new()
        .with_jit()
        .execute(prog, ctx, &mut maps_jit, &mut env_jit);
    assert_eq!(
        interp,
        jit,
        "{label}: interpreter vs jit outcomes diverge\n{}",
        prog.disassemble()
    );
    assert_eq!(
        env_interp, env_jit,
        "{label}: interpreter vs jit env diverges"
    );
    assert_eq!(
        format!("{maps_interp:?}"),
        format!("{maps_jit:?}"),
        "{label}: interpreter vs jit map state diverges\n{}",
        prog.disassemble()
    );
}

/// The same instructions with no proofs attached.
fn unverified_copy(prog: &Program) -> Program {
    Program::new(prog.name(), prog.insns().to_vec())
}

/// A verified program dense with provable accesses: constant-offset
/// context loads and aligned stack spill/fill traffic.
fn stack_ctx_heavy() -> Program {
    Asm::new("stack_ctx_heavy")
        .load(SZ_DW, 6, 1, 0)
        .load(SZ_DW, 7, 1, 8)
        .load(SZ_DW, 8, 1, 16)
        .store_reg(SZ_DW, 10, 6, -8)
        .store_reg(SZ_DW, 10, 7, -16)
        .store_reg(SZ_DW, 10, 8, -24)
        .load(SZ_DW, 0, 10, -8)
        .load(SZ_DW, 6, 10, -16)
        .add64_reg(0, 6)
        .load(SZ_DW, 6, 10, -24)
        .add64_reg(0, 6)
        .exit()
        .assemble()
        .unwrap_or_else(|e| panic!("must assemble: {e}"))
}

/// Property: over generated verified programs (structured bodies and
/// register-offset clamped memory traffic with live maps), the elided
/// JIT never changes any observable result.
#[test]
fn elision_on_off_identical_for_generated_programs() {
    check!(
        Config::cases(300),
        |rng: &mut SimRng| {
            let style = rng.next_below(2);
            let ctx: Vec<u8> = (0..64).map(|_| rng.next_u64() as u8).collect();
            (style, rng.next_u64(), ctx)
        },
        |(style, seed, ctx)| {
            let mut rng = SimRng::seed_from_u64(*seed);
            let mut base = MapRegistry::new();
            let vals = base.create("vals", MapDef::array(128, 1));
            let prog = if *style == 0 {
                valid_program(&mut rng, true)
            } else {
                bounded_offset_program(&mut rng, Some(vals))
            };
            // Generated programs verify by construction; verification
            // attaches the proofs elision runs on.
            Verifier::default()
                .verify(&prog, &base)
                .unwrap_or_else(|e| panic!("generator emitted an unverifiable program: {e}"));
            assert!(prog.access_proofs().is_some());
            assert_elision_invisible("generated", &prog, ctx, &base);
        },
    );
}

/// The stack/context-heavy program compiles with real elisions when
/// proofs are attached, and a `Program::new` copy of it, which carries
/// none, never compiles.
#[test]
fn elided_jit_removes_proven_checks() {
    let prog = stack_ctx_heavy();
    let maps = MapRegistry::new();
    Verifier::default()
        .verify(&prog, &maps)
        .unwrap_or_else(|e| panic!("must verify: {e}"));
    let proofs = prog.access_proofs().expect("proofs attach on verification");
    assert!(
        proofs.proven_count() >= 9,
        "all nine memory accesses should be proven, got {}",
        proofs.proven_count()
    );

    assert!(
        unverified_copy(&prog).jit().is_none(),
        "an unverified copy of a verified program must not compile"
    );
    #[cfg(target_arch = "x86_64")]
    {
        let elided = prog.jit().expect("compilable on x86-64");
        assert_eq!(
            elided.min_ctx_len(),
            64,
            "context proofs are conditioned on the verified ctx_size"
        );
    }

    let ctx: Vec<u8> = (0..64).map(|i| i as u8).collect();
    assert_elision_invisible("stack_ctx_heavy", &prog, &ctx, &maps);
}

/// `value_tracking: false` attaches no proofs, so the program never
/// compiles: it runs on the interpreter, every bounds check in.
#[test]
fn disabling_value_tracking_forces_checks_back_in() {
    let prog = stack_ctx_heavy();
    let maps = MapRegistry::new();
    Verifier::new(VerifierConfig {
        value_tracking: false,
        ..VerifierConfig::default()
    })
    .verify(&prog, &maps)
    .unwrap_or_else(|e| panic!("constant-offset accesses verify under type-only rules: {e}"));
    assert!(
        prog.access_proofs().is_none(),
        "type-only verification must not attach proofs"
    );

    assert!(
        prog.jit().is_none(),
        "a program verified without value tracking must not compile"
    );

    let ctx: Vec<u8> = (0..64).map(|i| i as u8).collect();
    assert_elision_invisible("no_value_tracking", &prog, &ctx, &maps);
}

/// A context shorter than the verified `ctx_size` must not be read
/// through elided (unchecked) loads: the VM runs it on the interpreter,
/// so it faults exactly like the interpreter.
#[test]
fn short_context_takes_the_checked_path() {
    let prog = stack_ctx_heavy();
    let maps = MapRegistry::new();
    Verifier::default()
        .verify(&prog, &maps)
        .unwrap_or_else(|e| panic!("must verify: {e}"));

    // 8 bytes: the loads at offsets 8 and 16 are now out of bounds at
    // runtime even though they were proven against a 64-byte context.
    let short_ctx = [0x5Au8; 8];
    assert_elision_invisible("short_ctx", &prog, &short_ctx, &maps);

    // And an empty context, where even offset 0 faults.
    assert_elision_invisible("empty_ctx", &prog, &[], &maps);
}

/// The native code keeps no instruction budget, so a VM whose budget is
/// below a verified program's certified bound runs the interpreter,
/// which returns its exact `BudgetExhausted { budget }`; from the bound
/// up the program runs natively and both tiers report the same count.
/// A trampolined `trace_printk` call shows which tier ran: only JIT code
/// counts its trampoline entries.
#[test]
fn budget_below_the_certified_bound_runs_the_interpreter() {
    let prog = Asm::new("printk")
        .store_imm(SZ_DW, 10, -8, 7)
        .mov64_reg(1, 10)
        .add64_imm(1, -8)
        .mov64_imm(2, 8)
        .call(Helper::TracePrintk)
        .mov64_imm(0, 1)
        .exit()
        .assemble()
        .unwrap_or_else(|e| panic!("must assemble: {e}"));
    let maps = MapRegistry::new();
    Verifier::default()
        .verify(&prog, &maps)
        .unwrap_or_else(|e| panic!("must verify: {e}"));
    let bound = cost_report(&prog)
        .expect("verified programs are certified")
        .max_insns;
    assert_eq!(bound, 7, "straight-line: one per instruction");
    let native = kscope_ebpf::jit::supported();
    if native {
        assert_eq!(prog.jit().expect("compiles").max_insns(), bound);
    }
    for budget in 1..=bound + 1 {
        let run = |mut vm: Vm| {
            let mut maps = maps.clone();
            let out = vm.execute(&prog, &[], &mut maps, &mut ExecEnv::default());
            (out, vm.trampoline_entries(Helper::TracePrintk))
        };
        let (interp, _) = run(Vm::with_insn_budget(budget));
        let (jit, tramp) = run(Vm::with_insn_budget(budget).with_jit());
        assert_eq!(interp, jit, "budget {budget}: the tiers diverge");
        if budget < bound {
            assert_eq!(jit, Err(ExecError::BudgetExhausted { budget }));
            assert_eq!(tramp, 0, "budget {budget}: ran on the interpreter");
        } else {
            assert_eq!(jit.map(|o| o.insns_executed), Ok(bound));
            assert_eq!(tramp, u64::from(native), "budget {budget}: ran natively");
        }
    }
}
