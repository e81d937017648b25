//! Bounds-check elision in the template JIT is invisible except in the
//! generated code.
//!
//! The verifier's value-tracking pass attaches per-pc [`AccessProofs`]
//! to a program it accepts; the JIT consumes them to replace trampolined
//! (bounds-checked) stack and context accesses with direct machine
//! loads/stores. These tests pin the contract from both sides:
//!
//! * **Identity**: for verified programs, the elided JIT, the unelided
//!   JIT, and the interpreter produce bitwise-identical outcomes
//!   and map state — elision may never change observable behavior.
//! * **Effectiveness**: a stack/context-heavy verified program actually
//!   compiles with `elided_accesses() > 0`, and the same program
//!   compiled without proofs keeps every check in.
//! * **Soundness knob**: verifying with `value_tracking: false` attaches
//!   no proofs, so even an elision-requesting JIT emits the fully
//!   checked code.
//! * **Runtime guard**: context proofs are conditioned on the verified
//!   `ctx_size`; executing with a shorter context must take the checked
//!   path and fault exactly like the interpreter.

use kscope_ebpf::asm::Asm;
use kscope_ebpf::insn::SZ_DW;
use kscope_ebpf::interp::{ExecEnv, Vm};
use kscope_ebpf::maps::{MapDef, MapRegistry};
use kscope_ebpf::verifier::{Verifier, VerifierConfig};
use kscope_ebpf::Program;
use kscope_simcore::SimRng;
use kscope_testkit::ebpf_gen::{bounded_offset_program, valid_program};
use kscope_testkit::{check, Config};

/// Executes `prog` on the interpreter, the elided JIT, and the
/// unelided JIT from identical states and asserts all three agree on
/// the `Result`, the helper environment, and the full map state.
fn assert_elision_invisible(label: &str, prog: &Program, ctx: &[u8], base: &MapRegistry) {
    let env = ExecEnv {
        ktime_ns: 1_000_000,
        pid_tgid: 0x0042_0043,
        prandom_state: 7,
    };

    let mut maps_interp = base.clone();
    let mut env_interp = env;
    let interp = Vm::new().execute(prog, ctx, &mut maps_interp, &mut env_interp);

    for (arm, mut vm) in [
        ("jit", Vm::new().with_jit()),
        ("jit-no-elide", Vm::new().with_jit().without_bounds_elision()),
    ] {
        let mut maps_jit = base.clone();
        let mut env_jit = env;
        let jit = vm.execute(prog, ctx, &mut maps_jit, &mut env_jit);
        assert_eq!(
            interp,
            jit,
            "{label}: interpreter vs {arm} outcomes diverge\n{}",
            prog.disassemble()
        );
        assert_eq!(env_interp, env_jit, "{label}: interpreter vs {arm} env diverges");
        assert_eq!(
            format!("{maps_interp:?}"),
            format!("{maps_jit:?}"),
            "{label}: interpreter vs {arm} map state diverges\n{}",
            prog.disassemble()
        );
    }
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
/// register-offset clamped memory traffic with live maps), turning
/// elision on or off never changes any observable result.
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
/// proofs are attached — and with none when elision is declined.
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

    #[cfg(target_arch = "x86_64")]
    {
        let elided = prog.jit_for(true).expect("compilable on x86-64");
        let checked = prog.jit_for(false).expect("compilable on x86-64");
        assert!(
            elided.elided_accesses() >= 9,
            "elided JIT should drop the proven checks, got {}",
            elided.elided_accesses()
        );
        assert_eq!(
            checked.elided_accesses(),
            0,
            "the unelided JIT must keep every check in"
        );
        assert_eq!(
            elided.min_ctx_len(),
            64,
            "context proofs are conditioned on the verified ctx_size"
        );
    }

    let ctx: Vec<u8> = (0..64).map(|i| i as u8).collect();
    assert_elision_invisible("stack_ctx_heavy", &prog, &ctx, &maps);
}

/// `value_tracking: false` attaches no proofs, so the elision-requesting
/// JIT cache compiles fully checked code: every bounds check is back in.
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

    #[cfg(target_arch = "x86_64")]
    {
        let jit = prog.jit_for(true).expect("compilable on x86-64");
        assert_eq!(
            jit.elided_accesses(),
            0,
            "without proofs, elision must be a no-op"
        );
    }

    let ctx: Vec<u8> = (0..64).map(|i| i as u8).collect();
    assert_elision_invisible("no_value_tracking", &prog, &ctx, &maps);
}

/// A context shorter than the verified `ctx_size` must not be read
/// through elided (unchecked) loads: the VM falls back to the checked
/// compilation and faults exactly like the interpreter.
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
