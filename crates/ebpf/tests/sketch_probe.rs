//! The Top-K sketch map behaves identically on every execution engine.
//!
//! `bpf_sketch_update` (id 200) is a trampolined helper: the interpreter
//! and the JIT both route it through the same `call_helper`
//! implementation, so a probe stream fed through either engine must
//! leave a bit-identical sketch. These tests pin that agreement, the
//! verifier's map-kind admission rules,
//! and the exact probe-vs-userspace replay equivalence the fleet's
//! report merging depends on.

use kscope_ebpf::asm::Asm;
use kscope_ebpf::insn::{R1, R10, R2, R3, SZ_DW};
use kscope_ebpf::interp::{ExecEnv, Vm};
use kscope_ebpf::maps::{MapDef, MapRegistry};
use kscope_ebpf::sketch::SketchState;
use kscope_ebpf::verifier::{Verifier, VerifyError};
use kscope_ebpf::{Helper, Program};

/// A probe that reads an 8-byte entity key from the context and folds
/// weight 1 into the sketch map: the minimal `bpf_sketch_update` caller.
fn sketch_probe(fd: kscope_ebpf::maps::MapFd) -> Program {
    Asm::new("sketch_update")
        .load(SZ_DW, R1, R1, 0) // entity key from ctx[0..8]
        .store_reg(SZ_DW, R10, R1, -8)
        .ld_map_fd(R1, fd)
        .mov64_reg(R2, R10)
        .add64_imm(R2, -8)
        .mov64_imm(R3, 1)
        .call(Helper::SketchUpdate)
        .exit()
        .assemble()
        .unwrap_or_else(|e| panic!("assemble: {e}"))
}

#[test]
fn verifier_admits_sketch_update_on_sketch_maps_only() {
    let mut maps = MapRegistry::new();
    let sketch = maps.create("topk", MapDef::topk_sketch(8, 16));
    let hash = maps.create("h", MapDef::hash(8, 8, 16));

    Verifier::default()
        .verify(&sketch_probe(sketch), &maps)
        .unwrap_or_else(|e| panic!("sketch probe must verify: {e}"));

    // The same program pointed at a hash map must be rejected...
    let err = Verifier::default()
        .verify(&sketch_probe(hash), &maps)
        .expect_err("sketch update on a hash map must not verify");
    assert!(matches!(err, VerifyError::BadHelperArg { .. }), "{err}");

    // ...and the generic lookup/update/delete must reject sketch fds.
    for helper in [Helper::MapLookupElem, Helper::MapDeleteElem] {
        let prog = Asm::new("generic_on_sketch")
            .mov64_imm(R1, 0)
            .store_reg(SZ_DW, R10, R1, -8)
            .ld_map_fd(R1, sketch)
            .mov64_reg(R2, R10)
            .add64_imm(R2, -8)
            .call(helper)
            .exit()
            .assemble()
            .unwrap_or_else(|e| panic!("assemble: {e}"));
        let err = Verifier::default()
            .verify(&prog, &maps)
            .expect_err("generic map op on a sketch map must not verify");
        assert!(
            matches!(err, VerifyError::BadHelperArg { .. }),
            "{helper:?}: {err}"
        );
    }
}

#[test]
fn three_engines_leave_bit_identical_sketches() {
    let mut base = MapRegistry::new();
    let fd = base.create("topk", MapDef::topk_sketch(8, 16));
    let prog = sketch_probe(fd);
    Verifier::default()
        .verify(&prog, &base)
        .unwrap_or_else(|e| panic!("must verify: {e}"));

    // A skewed entity stream: key i appears ~64/(i+1) times.
    let mut stream = Vec::new();
    for i in 0..32u64 {
        for _ in 0..(64 / (i + 1)) {
            stream.push(i);
        }
    }

    let run = |vm_for: fn() -> Vm| -> MapRegistry {
        let mut maps = base.clone();
        let mut env = ExecEnv::default();
        for &entity in &stream {
            let ctx = entity.to_le_bytes();
            let out = vm_for()
                .execute(&prog, &ctx, &mut maps, &mut env)
                .unwrap_or_else(|e| panic!("execute: {e}"));
            assert_eq!(out.ret, 0, "sketch update returned an error");
        }
        maps
    };

    let interp = run(Vm::new);
    let jit = run(|| Vm::new().with_jit());

    let state = |m: &MapRegistry| -> SketchState {
        m.sketch_state(kscope_ebpf::maps::MapFd(0))
            .unwrap_or_else(|e| panic!("sketch state: {e}"))
            .clone()
    };
    assert_eq!(state(&interp), state(&jit), "interpreter vs jit diverged");

    // And a userspace replay of the same stream through the same type
    // produces the same sketch — probe and agent can never disagree.
    let mut replay = SketchState::new(8, 16);
    for &entity in &stream {
        replay.update(&entity.to_le_bytes(), 1);
    }
    assert_eq!(state(&jit), replay, "probe vs userspace replay diverged");

    // The heaviest key must be nameable and estimated at least truthfully.
    let heavy = 0u64.to_le_bytes();
    let final_state = state(&jit);
    assert!(final_state.candidate_keys().any(|k| k == heavy));
    assert!(final_state.estimate(&heavy) >= 64);
}

#[test]
fn sketch_probe_has_a_finite_certified_cost() {
    let mut maps = MapRegistry::new();
    let fd = maps.create("topk", MapDef::topk_sketch(8, 16));
    let prog = sketch_probe(fd);
    let cost = kscope_ebpf::cost_report(&prog).expect("finite bound");
    assert!(cost.max_insns >= prog.len() as u64 - 1);
    // The helper is priced between a map update (12) and ringbuf (15).
    assert!(cost.max_weighted_cost > cost.max_insns);
    // And the inline plan sends it through the trampoline.
    let plan = kscope_ebpf::helper_inline_plan(&prog);
    let treatments: Vec<_> = plan.sites().iter().map(|(_, _, t)| *t).collect();
    assert_eq!(treatments, vec![kscope_ebpf::HelperInline::Trampoline]);
}
