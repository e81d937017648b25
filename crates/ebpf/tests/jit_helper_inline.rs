//! Helper inlining in the template JIT is invisible except in speed.
//!
//! The JIT emits zero-arg env helpers (`ktime`, `pid_tgid`, `prandom`)
//! as direct loads/updates against the context's environment snapshot,
//! turns provably-shaped `map_lookup_elem` calls into guarded inline
//! probes, and touches proven map-value bytes through the value arena
//! without the trampoline round-trip (DESIGN §6f). These tests pin the
//! edges of that contract:
//!
//! * the inline prandom xorshift produces the *exact* draw sequence of
//!   the interpreter over thousands of draws;
//! * budget exhaustion mid-program leaves identical faults and map
//!   state, and inlined ktime reads stay monotonic across events;
//! * the array-lookup fast path agrees with the interpreter at the last
//!   valid index and one past it (inline miss, not a fault);
//! * the hash-lookup single-probe rule falls back (rather than
//!   mis-answering) when the home slot holds a colliding key;
//! * proven map-value loads/stores of every width hit the arena
//!   directly and leave bit-identical value bytes.

use kscope_ebpf::asm::Asm;
use kscope_ebpf::insn::{R0, R1, R2, R6, R10, SZ_B, SZ_DW, SZ_H, SZ_W};
use kscope_ebpf::interp::{ExecEnv, ExecOutcome, Vm};
use kscope_ebpf::mapindex::index_hash;
use kscope_ebpf::maps::{MapDef, MapRegistry};
use kscope_ebpf::verifier::Verifier;
use kscope_ebpf::{ExecError, Helper, Program};

/// Runs `prog` on the interpreter and the JIT from identical
/// states; asserts the result, helper environment, and full map state
/// agree bit-for-bit, then returns the interpreter's view.
fn run_both(
    label: &str,
    prog: &Program,
    ctx: &[u8],
    base: &MapRegistry,
    env: ExecEnv,
    budget: Option<u64>,
) -> (Result<ExecOutcome, ExecError>, MapRegistry, ExecEnv) {
    let make = |jit: bool| {
        let vm = match budget {
            Some(b) => Vm::with_insn_budget(b),
            None => Vm::new(),
        };
        if jit {
            vm.with_jit()
        } else {
            vm
        }
    };
    let mut maps_interp = base.clone();
    let mut env_interp = env;
    let interp = make(false).execute(prog, ctx, &mut maps_interp, &mut env_interp);
    let mut maps_jit = base.clone();
    let mut env_jit = env;
    let jit = make(true).execute(prog, ctx, &mut maps_jit, &mut env_jit);
    assert_eq!(interp, jit, "{label}: outcome diverged");
    assert_eq!(env_interp, env_jit, "{label}: helper env diverged");
    assert_eq!(
        format!("{maps_interp:?}"),
        format!("{maps_jit:?}"),
        "{label}: map state diverged"
    );
    (interp, maps_interp, env_interp)
}

fn verify(prog: &Program, maps: &MapRegistry) {
    Verifier::default()
        .verify(prog, maps)
        .unwrap_or_else(|e| panic!("must verify: {e}"));
}

/// The inline xorshift64* must replay the interpreter's draw sequence
/// exactly — same state evolution, same high-word truncation — over
/// enough draws to cover the whole state trajectory.
#[test]
fn prandom_sequence_identical_over_10k_draws() {
    let prog = Asm::new("draw")
        .call(Helper::GetPrandomU32)
        .exit()
        .assemble()
        .expect("assembles");
    let maps = MapRegistry::new();
    verify(&prog, &maps);
    let mut env_interp = ExecEnv::default();
    let mut env_jit = ExecEnv::default();
    let mut maps_interp = maps.clone();
    let mut maps_jit = maps.clone();
    let mut interp_vm = Vm::new();
    let mut jit_vm = Vm::new().with_jit();
    for draw in 0..10_000u32 {
        let a = interp_vm
            .execute(&prog, &[], &mut maps_interp, &mut env_interp)
            .unwrap_or_else(|e| panic!("interp draw {draw}: {e:?}"));
        let b = jit_vm
            .execute(&prog, &[], &mut maps_jit, &mut env_jit)
            .unwrap_or_else(|e| panic!("jit draw {draw}: {e:?}"));
        assert_eq!(a.ret, b.ret, "draw {draw} diverged");
        assert_eq!(
            env_interp.prandom_state, env_jit.prandom_state,
            "state diverged after draw {draw}"
        );
    }
}

/// Builds the ktime-recording program: look up the array cell, write
/// the current ktime into it, then burn ALU instructions so a small
/// budget exhausts after the write but before `exit`.
fn ktime_then_burn(maps: &mut MapRegistry) -> (Program, kscope_ebpf::MapFd) {
    let fd = maps.create("out", MapDef::array(8, 1));
    let mut asm = Asm::new("ktime_burn")
        .store_imm(SZ_W, R10, -4, 0)
        .ld_map_fd(R1, fd)
        .mov64_reg(R2, R10)
        .add64_imm(R2, -4)
        .call(Helper::MapLookupElem)
        .jeq_imm(R0, 0, "out")
        .mov64_reg(R6, R0)
        .call(Helper::KtimeGetNs)
        .store_reg(SZ_DW, R6, R0, 0);
    for _ in 0..32 {
        asm = asm.add64_imm(R0, 1);
    }
    let prog = asm
        .label("out")
        .mov64_imm(R0, 0)
        .exit()
        .assemble()
        .expect("assembles");
    (prog, fd)
}

/// Budget exhaustion mid-program (after the inlined ktime read and the
/// map-value store, before `exit`) must fault identically on both
/// dispatchers, and the value each event managed to record must still
/// be monotonically increasing across events.
#[test]
fn ktime_monotonic_under_budget_exhaustion_mid_program() {
    let mut maps = MapRegistry::new();
    let (prog, fd) = ktime_then_burn(&mut maps);
    verify(&prog, &maps);
    // Enough budget to reach the store, not enough to finish the burn.
    let budget = 20u64;
    let mut last = 0u64;
    for event in 1..=5u64 {
        let env = ExecEnv {
            ktime_ns: 1_000 * event,
            pid_tgid: 0x1111_2222,
            prandom_state: 3 * event,
        };
        let (res, maps_after, _) = run_both("ktime_burn", &prog, &[], &maps, env, Some(budget));
        match res {
            Err(ExecError::BudgetExhausted { .. }) => {}
            other => panic!("expected mid-program budget exhaustion, got {other:?}"),
        }
        let recorded = maps_after.array_u64(fd, 0).expect("cell exists");
        assert_eq!(recorded, 1_000 * event, "stored ktime snapshot");
        assert!(recorded > last, "ktime went backwards: {last} -> {recorded}");
        last = recorded;
    }
}

/// Builds a lookup-then-read probe over a 4-entry array map: looks up
/// `key`, returns 0 on miss, else the value's first word.
fn array_probe(fd: kscope_ebpf::MapFd, key: i32) -> Program {
    Asm::new("array_probe")
        .store_imm(SZ_W, R10, -4, key)
        .ld_map_fd(R1, fd)
        .mov64_reg(R2, R10)
        .add64_imm(R2, -4)
        .call(Helper::MapLookupElem)
        .jeq_imm(R0, 0, "miss")
        .load(SZ_DW, R0, R0, 0)
        .exit()
        .label("miss")
        .mov64_imm(R0, 0)
        .exit()
        .assemble()
        .expect("assembles")
}

/// The array fast path at the boundary: index `max_entries - 1` is an
/// inline hit, index `max_entries` is an inline miss (NULL, not a
/// fault) — both identical to the interpreter.
#[test]
fn array_lookup_inline_at_boundary_indices() {
    let mut maps = MapRegistry::new();
    let fd = maps.create("vals", MapDef::array(8, 4));
    maps.set_array_u64(fd, 3, 0xFEED_F00D).expect("seed last cell");

    let hit = array_probe(fd, 3);
    verify(&hit, &maps);
    let (res, _, _) = run_both("array@3", &hit, &[], &maps, ExecEnv::default(), None);
    assert_eq!(res.expect("runs").ret, 0xFEED_F00D);

    let miss = array_probe(fd, 4);
    verify(&miss, &maps);
    let (res, _, _) = run_both("array@4", &miss, &[], &maps, ExecEnv::default(), None);
    assert_eq!(res.expect("runs").ret, 0, "one past the end is NULL");
}

/// Builds a hash-lookup probe for an 8-byte immediate key split into
/// two word stores, returning the value's first word or 0 on miss.
fn hash_probe(fd: kscope_ebpf::MapFd, key: u64) -> Program {
    Asm::new("hash_probe")
        .store_imm(SZ_W, R10, -8, key as u32 as i32)
        .store_imm(SZ_W, R10, -4, (key >> 32) as u32 as i32)
        .ld_map_fd(R1, fd)
        .mov64_reg(R2, R10)
        .add64_imm(R2, -8)
        .call(Helper::MapLookupElem)
        .jeq_imm(R0, 0, "miss")
        .load(SZ_DW, R0, R0, 0)
        .exit()
        .label("miss")
        .mov64_imm(R0, 0)
        .exit()
        .assemble()
        .expect("assembles")
}

/// Home-slot index of `key` in a table with `mask`.
fn home(key: u64, mask: u64) -> u64 {
    index_hash(&key.to_le_bytes()) & mask
}

/// The single-probe rule under collision: when two live keys share a
/// home slot, the displaced key's inline probe sees a foreign key and
/// must fall back (answering correctly), while the resident key and a
/// clean miss stay on the fast path — all bit-identical to the
/// interpreter.
#[test]
fn hash_inline_compare_with_colliding_keys() {
    let mut maps = MapRegistry::new();
    let fd = maps.create("h", MapDef::hash(8, 8, 4));
    // Capacity for max_entries=4 is 8 (mask 7); find a displaced pair
    // and a key whose home slot stays empty.
    let mask = 7u64;
    let a = 5u64;
    let mut b = a + 1;
    while home(b, mask) != home(a, mask) {
        b += 1;
    }
    let mut absent = b + 1;
    while home(absent, mask) == home(a, mask) {
        absent += 1;
    }
    maps.update(fd, &a.to_le_bytes(), &0xAAAAu64.to_le_bytes())
        .expect("insert a");
    maps.update(fd, &b.to_le_bytes(), &0xBBBBu64.to_le_bytes())
        .expect("insert b");

    for (label, key, want) in [
        ("resident", a, 0xAAAA),
        ("displaced", b, 0xBBBB),
        ("absent", absent, 0),
    ] {
        let prog = hash_probe(fd, key);
        verify(&prog, &maps);
        let (res, _, _) = run_both(label, &prog, &[], &maps, ExecEnv::default(), None);
        assert_eq!(res.expect("runs").ret, want, "{label} lookup");
    }
}

/// Proven map-value stores and loads of every width, round-tripped
/// through the arena fast path: the program writes 1/2/4/8-byte values
/// into a looked-up cell, reads them back, and returns their sum; the
/// final value bytes and the return must match the interpreter's.
#[test]
fn map_value_access_every_width_matches_interp() {
    let mut maps = MapRegistry::new();
    let fd = maps.create("cell", MapDef::array(24, 2));
    let prog = Asm::new("widths")
        .store_imm(SZ_W, R10, -4, 1)
        .ld_map_fd(R1, fd)
        .mov64_reg(R2, R10)
        .add64_imm(R2, -4)
        .call(Helper::MapLookupElem)
        .jeq_imm(R0, 0, "miss")
        .mov64_reg(R6, R0)
        .store_imm(SZ_B, R6, 0, 0x5A)
        .store_imm(SZ_H, R6, 2, 0x1234)
        .store_imm(SZ_W, R6, 4, 0x00C0_FFEE)
        .store_imm(SZ_DW, R6, 8, 7)
        .load(SZ_B, R0, R6, 0)
        .load(SZ_H, R1, R6, 2)
        .add64_reg(R0, R1)
        .load(SZ_W, R1, R6, 4)
        .add64_reg(R0, R1)
        .load(SZ_DW, R1, R6, 8)
        .add64_reg(R0, R1)
        .store_reg(SZ_DW, R6, R0, 16)
        .exit()
        .label("miss")
        .mov64_imm(R0, 0)
        .exit()
        .assemble()
        .expect("assembles");
    verify(&prog, &maps);

    #[cfg(target_arch = "x86_64")]
    {
        let jit = prog.jit_for(true).expect("compilable on x86-64");
        assert!(
            jit.elided_accesses() >= 9,
            "map-value accesses should compile to the arena fast path, got {}",
            jit.elided_accesses()
        );
    }

    let (res, maps_after, _) = run_both("widths", &prog, &[], &maps, ExecEnv::default(), None);
    let want = 0x5A + 0x1234 + 0x00C0_FFEE + 7;
    assert_eq!(res.expect("runs").ret, want);
    assert_eq!(
        maps_after.array_u64(fd, 1).ok(),
        Some(0x5A | (0x1234 << 16) | (0x00C0_FFEE << 32)),
        "low quadword: byte at 0, half at 2, word at 4"
    );
}
