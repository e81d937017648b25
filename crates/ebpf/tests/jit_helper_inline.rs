//! Helper inlining in the template JIT is invisible except in speed.
//!
//! The JIT emits zero-arg env helpers (`ktime`, `pid_tgid`, `prandom`)
//! as direct loads/updates against the context's environment snapshot,
//! turns provably-shaped `map_lookup_elem`, `map_update_elem` and
//! `map_delete_elem` calls into guarded inline probes, and touches proven map-value bytes through the value arena
//! without the trampoline round-trip (DESIGN §6f). These tests pin the
//! edges of that contract:
//!
//! * the inline prandom xorshift produces the *exact* draw sequence of
//!   the interpreter over thousands of draws;
//! * budget exhaustion mid-program leaves identical faults and map
//!   state (the JIT VM runs it on the interpreter), and ktime reads stay
//!   monotonic across events;
//! * the array-lookup fast path agrees with the interpreter at the last
//!   valid index and one past it (inline miss, not a fault);
//! * a lookup inlines only when the verifier proved the same key address
//!   on every path into it, and never before verification;
//! * the hash-lookup single-probe rule falls back (rather than
//!   mis-answering) when the home slot holds a colliding key;
//! * proven map-value loads/stores of every width hit the arena
//!   directly and leave bit-identical value bytes;
//! * a hash table that grows and compacts in the middle of one run (its
//!   runtime descriptor republished from inside a helper call) answers
//!   every later inline lookup from its new layout, and a held value
//!   pointer still faults once its key is deleted;
//! * inline hash updates and deletes take exactly the branch the table's
//!   own oracles (`HashIndex::home_write` / `home_remove`) name, case by
//!   case, and leave the map as the interpreter does.

use kscope_ebpf::asm::Asm;
use kscope_ebpf::insn::{R0, R1, R10, R2, R3, R4, R6, R7, SZ_B, SZ_DW, SZ_H, SZ_W};
use kscope_ebpf::interp::{ExecEnv, ExecOutcome, Vm};
use kscope_ebpf::mapindex::{index_hash, HashIndex, HomeRemove, HomeWrite, MapRuntimeDesc};
use kscope_ebpf::maps::{MapDef, MapFd, MapRegistry};
use kscope_ebpf::verifier::Verifier;
use kscope_ebpf::{ExecError, Helper, HelperInline, Program};

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

/// Budget exhaustion mid-program (after the ktime read and the
/// map-value store, before `exit`) must fault identically on both
/// dispatchers (a budget below the certified bound runs the JIT VM on
/// the interpreter), and the value each event managed to record must
/// still be monotonically increasing across events.
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
        assert!(
            recorded > last,
            "ktime went backwards: {last} -> {recorded}"
        );
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
    maps.set_array_u64(fd, 3, 0xFEED_F00D)
        .expect("seed last cell");

    let hit = array_probe(fd, 3);
    verify(&hit, &maps);
    let (res, _, _) = run_both("array@3", &hit, &[], &maps, ExecEnv::default(), None);
    assert_eq!(res.expect("runs").ret, 0xFEED_F00D);

    let miss = array_probe(fd, 4);
    verify(&miss, &maps);
    let (res, _, _) = run_both("array@4", &miss, &[], &maps, ExecEnv::default(), None);
    assert_eq!(res.expect("runs").ret, 0, "one past the end is NULL");
}

/// Looks up one of two array slots picked by the first context byte:
/// `r2` reaches the call as `r10 - 4` (key 0) on one path and as
/// `r10 - 4 - extra` on the other. Returns the value's first word, or 0
/// on a miss.
fn two_path_probe(fd: MapFd, extra: i32) -> Program {
    Asm::new("two_path_probe")
        .store_imm(SZ_W, R10, -4, 0)
        .store_imm(SZ_W, R10, -8, 1)
        .load(SZ_B, R6, R1, 0)
        .mov64_reg(R2, R10)
        .add64_imm(R2, -4)
        .jeq_imm(R6, 0, "lookup")
        .add64_imm(R2, -extra)
        .label("lookup")
        .ld_map_fd(R1, fd)
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

/// The lookup facts come from the verifier's joined state: a key
/// address that is the same on every path keeps the inline fast path,
/// one that differs across paths keeps the trampoline, and both agree
/// with the interpreter on each path.
#[test]
fn lookup_inlines_only_when_every_path_agrees_on_the_key() {
    let mut maps = MapRegistry::new();
    let fd = maps.create("vals", MapDef::array(8, 2));
    maps.set_array_u64(fd, 0, 0xA0).expect("seed cell 0");
    maps.set_array_u64(fd, 1, 0xB1).expect("seed cell 1");
    for (extra, inline, took_other) in [(0, true, 0xA0), (4, false, 0xB1)] {
        let prog = two_path_probe(fd, extra);
        let unverified = kscope_ebpf::helper_inline_plan(&prog);
        assert_eq!(
            unverified.inlined(),
            0,
            "an unverified lookup is trampolined"
        );
        verify(&prog, &maps);
        let plan = kscope_ebpf::helper_inline_plan(&prog);
        let lookup = plan
            .sites()
            .iter()
            .find(|(_, h, _)| *h == Helper::MapLookupElem)
            .map(|(pc, _, treatment)| (*treatment, plan.map_site(*pc)))
            .expect("one lookup site");
        if inline {
            assert_eq!(lookup.0, kscope_ebpf::HelperInline::MapLookupFast);
            let site = lookup.1.expect("an inline lookup carries its facts");
            assert_eq!((site.fd, site.key_off), (fd.0, 508));
        } else {
            assert_eq!(lookup, (kscope_ebpf::HelperInline::Trampoline, None));
        }
        for (ctx, want) in [([0u8], 0xA0), ([1u8], took_other)] {
            let label = format!("extra {extra}, ctx {}", ctx[0]);
            let (res, _, _) = run_both(&label, &prog, &ctx, &maps, ExecEnv::default(), None);
            assert_eq!(res.expect("runs").ret, want, "{label}");
        }
    }
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

    if kscope_ebpf::jit::supported() {
        assert!(prog.jit().is_some(), "compilable on x86-64");
        let proven = prog.access_proofs().expect("verified").proven_count();
        assert!(
            proven >= 9,
            "map-value accesses should compile to the arena fast path, got {proven}"
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

/// One step of the relayout program.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// `update(key, key)`; the helper's return is summed.
    Insert(u64),
    /// `delete(key)`; the helper's return is summed.
    Delete(u64),
    /// Inline lookup; the value is summed when present.
    Lookup(u64),
    /// Looks `key` up into r6 (the program exits if it is absent).
    Hold(u64),
    /// Reads the held value through r6 and sums it.
    ReadHeld,
}

/// Assembles `ops` as one straight-line program over the 8-byte hash
/// map `fd`, summing into r7 what each step returns.
fn relayout_program(fd: MapFd, ops: &[Op]) -> Program {
    let key_at_fp8 = |asm: Asm, key: u64| {
        asm.store_imm(SZ_W, R10, -8, key as i32)
            .store_imm(SZ_W, R10, -4, 0)
            .ld_map_fd(R1, fd)
            .mov64_reg(R2, R10)
            .add64_imm(R2, -8)
    };
    let mut asm = Asm::new("relayout").mov64_imm(R7, 0);
    for (n, op) in ops.iter().enumerate() {
        asm = match *op {
            Op::Insert(key) => key_at_fp8(
                asm.store_imm(SZ_W, R10, -16, key as i32)
                    .store_imm(SZ_W, R10, -12, 0),
                key,
            )
            .mov64_reg(R3, R10)
            .add64_imm(R3, -16)
            .mov64_imm(R4, 0)
            .call(Helper::MapUpdateElem)
            .add64_reg(R7, R0),
            Op::Delete(key) => key_at_fp8(asm, key)
                .call(Helper::MapDeleteElem)
                .add64_reg(R7, R0),
            Op::Lookup(key) => key_at_fp8(asm, key)
                .call(Helper::MapLookupElem)
                .jeq_imm(R0, 0, format!("miss{n}"))
                .load(SZ_DW, R0, R0, 0)
                .add64_reg(R7, R0)
                .label(format!("miss{n}")),
            Op::Hold(key) => key_at_fp8(asm, key)
                .call(Helper::MapLookupElem)
                .jeq_imm(R0, 0, "out")
                .mov64_reg(R6, R0),
            Op::ReadHeld => asm.load(SZ_DW, R0, R6, 0).add64_reg(R7, R0),
        };
    }
    asm.label("out")
        .mov64_reg(R0, R7)
        .exit()
        .assemble()
        .expect("assembles")
}

/// Replays the map side of `ops` on a standalone table (the registry's
/// own storage type); returns it with the growths and compactions seen.
fn replay(ops: &[Op], max_entries: u32) -> (HashIndex, usize, usize) {
    let mut table = HashIndex::new(8, max_entries);
    let (mut growths, mut compactions) = (0, 0);
    for op in ops {
        let (slots, tombstones) = (table.capacity(), table.tombstones());
        match *op {
            Op::Insert(key) => {
                table
                    .insert(&key.to_le_bytes(), &key.to_le_bytes())
                    .expect("under max_entries");
                if table.capacity() > slots {
                    growths += 1;
                } else if tombstones >= 2 && table.tombstones() == 0 {
                    // Reusing a tombstone clears one, not all of them.
                    compactions += 1;
                }
            }
            Op::Delete(key) => {
                table.remove(&key.to_le_bytes());
            }
            _ => {}
        }
    }
    (table, growths, compactions)
}

/// What the relayout program returns for `ops`, from a set model of the
/// map (every value equals its key; the held key is 1 and stays live).
fn model_sum(ops: &[Op]) -> u64 {
    let mut live = std::collections::BTreeSet::new();
    ops.iter().fold(0u64, |sum, op| match *op {
        Op::Insert(key) => {
            live.insert(key);
            sum
        }
        Op::Delete(key) if live.remove(&key) => sum,
        Op::Delete(_) => sum.wrapping_sub(2), // -ENOENT
        Op::Lookup(key) if live.contains(&key) => sum.wrapping_add(key),
        Op::Lookup(_) | Op::Hold(_) => sum,
        Op::ReadHeld => sum.wrapping_add(1),
    })
}

/// `ops` extended until an insert compacts the table: keys sharing one
/// home slot fill a run of slots, all but the last are deleted (each
/// leaves a tombstone, since a live key follows it), and fresh keys then
/// take EMPTY slots until one passes the load bound.
fn with_compaction(mut ops: Vec<Op>, max_entries: u32) -> Vec<Op> {
    let (table, _, before) = replay(&ops, max_entries);
    let home = |k: u64| index_hash(&k.to_le_bytes()) & table.mask();
    let cluster: Vec<u64> = (5_000u64..)
        .filter(|&k| home(k) == home(5_000))
        .take(20)
        .collect();
    for &key in &cluster {
        ops.extend([Op::Insert(key), Op::Lookup(key)]);
    }
    for &key in cluster.iter().take(19) {
        ops.extend([Op::Delete(key), Op::Lookup(cluster[19])]);
    }
    for fresh in 9_000u64..9_100 {
        ops.extend([
            Op::Insert(fresh),
            Op::Lookup(fresh),
            Op::Lookup(1),
            Op::ReadHeld,
        ]);
        if replay(&ops, max_entries).2 > before {
            return ops;
        }
    }
    panic!("no compaction within 100 fresh keys");
}

/// The hash table moves while one program runs: inserts grow it twice
/// (each growth republishes its descriptor from inside the update
/// helper), deletes plus fresh keys force an in-place compaction, and
/// inline lookups of keys placed before and after every move keep
/// answering as a model of the map says. The interpreter and the JIT
/// agree on the return value, the instruction count, the fault of a
/// read through a pointer whose key was deleted, and the map's entries,
/// which also match a standalone replay of the same steps.
#[test]
#[allow(unsafe_code)] // reads the raw descriptor table like JIT code does
fn hash_table_moves_mid_run() {
    const MAX_ENTRIES: u32 = 4096;
    let mut ops = vec![Op::Insert(1), Op::Hold(1)];
    for key in 2..=24u64 {
        ops.extend([
            Op::Insert(key),
            Op::Lookup(1),
            Op::Lookup(key),
            Op::ReadHeld,
        ]);
    }
    for key in 2..=20u64 {
        ops.extend([Op::Delete(key), Op::Lookup(key)]);
    }
    let mut ops = with_compaction(ops, MAX_ENTRIES);
    // Every key the compaction may have moved, looked up from its new slot.
    let (compacted, _, _) = replay(&ops, MAX_ENTRIES);
    let keys: Vec<u64> = compacted
        .iter()
        .map(|(k, _)| u64::from_le_bytes(k.try_into().unwrap()))
        .collect();
    ops.extend(keys.into_iter().map(Op::Lookup));
    let (table, growths, compactions) = replay(&ops, MAX_ENTRIES);
    assert!(
        growths >= 2 && compactions >= 1,
        "{growths} growths, {compactions} compactions"
    );
    let lookups = ops
        .iter()
        .filter(|op| matches!(op, Op::Lookup(_) | Op::Hold(_)))
        .count();

    let mut base = MapRegistry::new();
    let fd = base.create("h", MapDef::hash(8, 8, MAX_ENTRIES));
    let ok = relayout_program(fd, &ops);
    let mut stale_ops = ops.clone();
    stale_ops.extend([Op::Delete(1), Op::ReadHeld]);
    let stale = relayout_program(fd, &stale_ops);
    for prog in [&ok, &stale] {
        verify(prog, &base);
        if kscope_ebpf::jit::supported() {
            let jit = prog.jit().expect("compilable on x86-64");
            assert!(jit.inlined_calls() >= lookups, "lookups compile inline");
        }
    }

    let arms = [("interp", Vm::new()), ("jit", Vm::new().with_jit())];
    let mut results = Vec::new();
    for (arm, vm) in arms {
        let run = |prog: &Program| {
            let mut maps = base.clone();
            let out = vm
                .clone()
                .execute(prog, &[], &mut maps, &mut ExecEnv::default());
            let entries: Vec<(Vec<u8>, Vec<u8>)> = maps
                .hash_entries(fd)
                .unwrap()
                .into_iter()
                .map(|(k, v)| (k.to_vec(), v.to_vec()))
                .collect();
            let (ptr, len) = maps.runtime_descs();
            assert_eq!(len, 1);
            let desc: MapRuntimeDesc = unsafe { *ptr };
            (out, entries, desc.aux)
        };
        let (out, entries, aux) = run(&ok);
        let (stale_out, _, _) = run(&stale);
        let want: Vec<(Vec<u8>, Vec<u8>)> = table
            .iter()
            .map(|(k, v)| (k.to_vec(), v.to_vec()))
            .collect();
        assert_eq!(
            entries, want,
            "{arm}: entries match the replay, in slot order"
        );
        assert_eq!(
            aux,
            table.mask(),
            "{arm}: the published mask is the live table's"
        );
        assert!(
            matches!(stale_out, Err(ExecError::BadMemAccess { size: 0, .. })),
            "{arm}: a deleted key's pointer faults: {stale_out:?}"
        );
        results.push((arm, out, stale_out, entries));
    }
    let (_, want_out, want_stale, want_entries) = &results[0];
    assert_eq!(
        want_out.as_ref().map(|o| o.ret),
        Ok(model_sum(&ops)),
        "the map's answers"
    );
    for (arm, out, stale_out, entries) in &results[1..] {
        assert_eq!(out, want_out, "{arm}: outcome diverged");
        assert_eq!(stale_out, want_stale, "{arm}: fault diverged");
        assert_eq!(entries, want_entries, "{arm}: entries diverged");
    }
}

/// Stores the 8-byte key `key` at `r10 - 8` and sets up `r1`/`r2` for a
/// map helper on `fd`.
fn key_args(asm: Asm, fd: MapFd, key: i32) -> Asm {
    asm.store_imm(SZ_DW, R10, -8, key)
        .ld_map_fd(R1, fd)
        .mov64_reg(R2, R10)
        .add64_imm(R2, -8)
}

/// Looks `key` up in `fd` and holds the value pointer in r6; the
/// program returns 0 when the key is absent.
fn hold(asm: Asm, fd: MapFd, key: i32) -> Asm {
    key_args(asm, fd, key)
        .call(Helper::MapLookupElem)
        .jeq_imm(R0, 0, "absent")
        .mov64_reg(R6, R0)
}

/// `update(fd, key, value)` with the value staged at `r10 - 16`; the
/// helper's return lands in r7.
fn update(asm: Asm, fd: MapFd, key: i32, value: i32) -> Asm {
    key_args(asm.store_imm(SZ_DW, R10, -16, value), fd, key)
        .mov64_reg(R3, R10)
        .add64_imm(R3, -16)
        .mov64_imm(R4, 0)
        .call(Helper::MapUpdateElem)
        .mov64_reg(R7, R0)
}

/// Ends a held-pointer program: `r0` already holds the result, and the
/// `absent` arm returns 0.
fn finish(asm: Asm) -> Program {
    asm.exit()
        .label("absent")
        .mov64_imm(R0, 0)
        .exit()
        .assemble()
        .expect("assembles")
}

/// Asserts the JIT compiled at least `n` proven map-value accesses
/// (those go through the resolved-pointer path).
fn assert_resolved_accesses(prog: &Program, n: usize) {
    if kscope_ebpf::jit::supported() {
        assert!(prog.jit().is_some(), "compilable on x86-64");
        let proven = prog.access_proofs().expect("verified").proven_count();
        assert!(
            proven >= n,
            "{}: {proven} accesses compiled without checks, want {n}",
            prog.name()
        );
    }
}

/// An array value written and read back through the pointer its lookup
/// resolved, at both ends of the value: the JIT touches the arena
/// through the slot's cached address and matches the interpreter on the
/// return, the instruction count and the value bytes.
#[test]
fn array_value_round_trips_through_a_held_pointer() {
    let mut maps = MapRegistry::new();
    let fd = maps.create("cells", MapDef::array(16, 4));
    let mut cell = [0u8; 16];
    cell[..8].copy_from_slice(&40u64.to_le_bytes());
    maps.update(fd, &2u32.to_le_bytes(), &cell)
        .expect("seed cell 2");
    let prog = Asm::new("array_held")
        .store_imm(SZ_W, R10, -4, 2)
        .ld_map_fd(R1, fd)
        .mov64_reg(R2, R10)
        .add64_imm(R2, -4)
        .call(Helper::MapLookupElem)
        .jeq_imm(R0, 0, "absent")
        .mov64_reg(R6, R0)
        .load(SZ_DW, R0, R6, 0)
        .add64_imm(R0, 2)
        .store_reg(SZ_DW, R6, R0, 0)
        .store_imm(SZ_B, R6, 15, 0x7F)
        .load(SZ_B, R1, R6, 15)
        .add64_reg(R0, R1);
    let prog = finish(prog);
    verify(&prog, &maps);
    assert_resolved_accesses(&prog, 4);
    let (res, after, _) = run_both("array_held", &prog, &[], &maps, ExecEnv::default(), None);
    assert_eq!(res.expect("runs").ret, 42 + 0x7F);
    let cell = after.lookup(fd, &2u32.to_le_bytes()).unwrap().unwrap();
    assert_eq!(cell[..8], 42u64.to_le_bytes());
    assert_eq!(cell[15], 0x7F);
}

/// A hash value written and read back through the pointer its inline
/// lookup resolved: no access re-resolves the key on the JIT, and both
/// tiers agree on the return and the stored value.
#[test]
fn hash_value_round_trips_through_a_held_pointer() {
    let mut maps = MapRegistry::new();
    let fd = maps.create("h", MapDef::hash(8, 16, 64));
    maps.update(fd, &9u64.to_le_bytes(), &[1u8; 16])
        .expect("seed key 9");
    let prog = hold(Asm::new("hash_held"), fd, 9)
        .store_imm(SZ_DW, R6, 8, 0x55)
        .load(SZ_DW, R0, R6, 8)
        .load(SZ_W, R1, R6, 0)
        .add64_reg(R0, R1)
        .store_reg(SZ_DW, R6, R0, 0);
    let prog = finish(prog);
    verify(&prog, &maps);
    assert_resolved_accesses(&prog, 4);
    let (res, after, _) = run_both("hash_held", &prog, &[], &maps, ExecEnv::default(), None);
    let want = 0x55 + 0x0101_0101;
    assert_eq!(res.expect("runs").ret, want);
    let value = after.lookup(fd, &9u64.to_le_bytes()).unwrap().unwrap();
    assert_eq!(value[..8], want.to_le_bytes());
    assert_eq!(value[8..], 0x55u64.to_le_bytes());
}

/// Looks key 1 up, inserts other keys until the table grows (and so
/// moves), then writes and reads through key 1's old pointer. The
/// inserts clear the pointer the lookup cached, so the JIT resolves the
/// key again in the moved table, as the interpreter does on every
/// access; both see the value key 1 holds after the move.
#[test]
fn held_hash_pointer_follows_its_key_when_the_table_grows() {
    let mut maps = MapRegistry::new();
    let fd = maps.create("h", MapDef::hash(8, 8, 4096));
    maps.update(fd, &1u64.to_le_bytes(), &100u64.to_le_bytes())
        .expect("seed key 1");
    let desc_mask = |maps: &MapRegistry| {
        let (ptr, _) = maps.runtime_descs();
        // SAFETY: the registry has one map, so its table has one entry.
        #[allow(unsafe_code)]
        let desc: MapRuntimeDesc = unsafe { *ptr };
        desc.aux
    };
    let before = desc_mask(&maps);
    let mut asm = hold(Asm::new("grow_held"), fd, 1);
    for key in 2..=12 {
        asm = update(asm, fd, key, key);
    }
    let prog = asm
        .load(SZ_DW, R0, R6, 0)
        .add64_imm(R0, 5)
        .store_reg(SZ_DW, R6, R0, 0)
        .load(SZ_DW, R0, R6, 0)
        .add64_reg(R0, R7);
    let prog = finish(prog);
    verify(&prog, &maps);
    assert_resolved_accesses(&prog, 3);
    let (res, after, _) = run_both("grow_held", &prog, &[], &maps, ExecEnv::default(), None);
    assert_eq!(
        res.expect("runs").ret,
        105,
        "key 1's value, update returned 0"
    );
    assert!(
        desc_mask(&after) > before,
        "the inserts grew the table: mask {before} -> {}",
        desc_mask(&after)
    );
    assert_eq!(
        after.lookup(fd, &1u64.to_le_bytes()).unwrap().unwrap(),
        105u64.to_le_bytes()
    );
}

/// Looks key 3 up, deletes it, then reads (or writes) through the held
/// pointer: the delete clears the cached address, and both tiers fault
/// with the interpreter's unresolved-slot shape — a read reports size
/// 0, a write its access size — after the same map effects.
#[test]
fn deleted_key_pointer_faults_on_both_tiers() {
    let mut maps = MapRegistry::new();
    let fd = maps.create("h", MapDef::hash(8, 8, 64));
    maps.update(fd, &3u64.to_le_bytes(), &33u64.to_le_bytes())
        .expect("seed key 3");
    let deleted = |name: &str| {
        key_args(hold(Asm::new(name), fd, 3), fd, 3)
            .call(Helper::MapDeleteElem)
            .mov64_reg(R7, R0)
    };
    let read = finish(deleted("read_deleted").load(SZ_DW, R0, R6, 0));
    let write = finish(
        deleted("write_deleted")
            .store_imm(SZ_W, R6, 4, 1)
            .mov64_imm(R0, 1),
    );
    for (prog, size) in [(&read, 0), (&write, 4)] {
        verify(prog, &maps);
        assert_resolved_accesses(prog, 1);
        let (res, after, _) = run_both(prog.name(), prog, &[], &maps, ExecEnv::default(), None);
        match res {
            Err(ExecError::BadMemAccess { size: got, .. }) => assert_eq!(got, size),
            other => panic!("{}: expected BadMemAccess, got {other:?}", prog.name()),
        }
        assert_eq!(after.len(fd), Ok(0), "the delete happened before the fault");
    }
}

/// Looks key 5 up, overwrites its value with `map_update_elem`, then
/// reads through the held pointer: both tiers see the new value.
#[test]
fn update_in_place_is_seen_through_a_held_pointer() {
    let mut maps = MapRegistry::new();
    let fd = maps.create("h", MapDef::hash(8, 8, 64));
    maps.update(fd, &5u64.to_le_bytes(), &50u64.to_le_bytes())
        .expect("seed key 5");
    let prog = update(hold(Asm::new("update_held"), fd, 5), fd, 5, 77)
        .load(SZ_DW, R0, R6, 0)
        .add64_reg(R0, R7);
    let prog = finish(prog);
    verify(&prog, &maps);
    assert_resolved_accesses(&prog, 1);
    let (res, after, _) = run_both("update_held", &prog, &[], &maps, ExecEnv::default(), None);
    assert_eq!(res.expect("runs").ret, 77);
    assert_eq!(
        after.lookup(fd, &5u64.to_le_bytes()).unwrap().unwrap(),
        77u64.to_le_bytes()
    );
}

/// One write of [`hash_writes_follow_the_home_slot_oracles`].
#[derive(Clone, Copy, Debug)]
enum Write {
    Update(u64, i32),
    Delete(u64),
}

/// A one-call program performing `write` on `fd`, returning the
/// helper's result.
fn write_program(fd: MapFd, write: Write) -> Program {
    let asm = match write {
        Write::Update(key, value) => update(Asm::new("write"), fd, key as i32, value),
        Write::Delete(key) => key_args(Asm::new("write"), fd, key as i32)
            .call(Helper::MapDeleteElem)
            .mov64_reg(R7, R0),
    };
    asm.mov64_reg(R0, R7).exit().assemble().expect("assembles")
}

/// Every case of the inline hash writes, one call per program over one
/// evolving 8-slot table: an insert into an EMPTY home, an overwrite at
/// home, inserts whose home another key or a tombstone holds, an insert
/// refused at `max_entries`, deletes that leave a tombstone or an EMPTY
/// slot, a miss, a delete of a displaced key, and a delete behind a
/// tombstone. Each site compiles to its fast path; the table's own
/// oracles (`HashIndex::home_write` / `home_remove`) name which calls the
/// JIT answers inline, and the JIT's trampoline count must match them
/// call by call, while both tiers agree on every result and map state.
#[test]
fn hash_writes_follow_the_home_slot_oracles() {
    let mut maps = MapRegistry::new();
    let fd = maps.create("h", MapDef::hash(8, 8, 4));
    let mut shadow = HashIndex::new(8, 4);
    let mask = shadow.mask();
    let at = |slot: u64, skip: &[u64]| {
        (1u64..)
            .find(|k| home(*k, mask) == slot & mask && !skip.contains(k))
            .unwrap()
    };
    let h = home(1, mask);
    let (a, b) = (1, at(h, &[1]));
    let (e, f) = (at(h + 1, &[]), at(h + 3, &[]));
    let (g, x) = (at(h + 5, &[]), at(h + 6, &[]));
    let writes = [
        Write::Update(a, 10), // EMPTY home: inline insert
        Write::Update(a, 11), // at home: inline overwrite
        Write::Update(b, 20), // a holds b's home: trampoline
        Write::Delete(x),     // EMPTY home: inline miss
        Write::Delete(b),     // b rests past its home: trampoline
        Write::Update(e, 30), // EMPTY home: inline insert
        Write::Delete(a),     // e follows a: inline tombstone
        Write::Update(a, 12), // tombstoned home: trampoline
        Write::Delete(a),     // tombstone again
        Write::Delete(e),     // a tombstone precedes e: trampoline
        Write::Update(f, 40), // inline insert
        Write::Delete(f),     // next slot EMPTY: inline EMPTY
        Write::Update(a, 13), // fills the map: a, f, g, b
        Write::Update(f, 41),
        Write::Update(g, 50),
        Write::Update(b, 21),
        Write::Update(x, 60), // EMPTY home, but the map is full
    ];
    let mut seen = std::collections::BTreeSet::new();
    for (n, &write) in writes.iter().enumerate() {
        let prog = write_program(fd, write);
        verify(&prog, &maps);
        let (helper, fast) = match write {
            Write::Update(..) => (Helper::MapUpdateElem, HelperInline::MapUpdateFast),
            Write::Delete(_) => (Helper::MapDeleteElem, HelperInline::MapDeleteFast),
        };
        let plan = kscope_ebpf::helper_inline_plan(&prog);
        assert!(
            plan.sites()
                .iter()
                .any(|&(_, h, t)| h == helper && t == fast),
            "write {n}: {write:?} compiles to its fast path"
        );
        let (class, fell_back) = match write {
            Write::Update(key, value) => {
                let class = shadow.home_write(&key.to_le_bytes());
                let _ = shadow.insert(&key.to_le_bytes(), &i64::from(value).to_le_bytes());
                (format!("{class:?}"), class == HomeWrite::Fallback)
            }
            Write::Delete(key) => {
                let class = shadow.home_remove(&key.to_le_bytes());
                shadow.remove(&key.to_le_bytes());
                (format!("{class:?}"), class == HomeRemove::Fallback)
            }
        };
        seen.insert(format!("{helper:?} {class}"));
        let mut jit = Vm::new().with_jit();
        let mut jit_maps = maps.clone();
        let jit_out = jit.execute(&prog, &[], &mut jit_maps, &mut ExecEnv::default());
        let label = format!("write {n}: {write:?} ({class})");
        let (res, after, _) = run_both(&label, &prog, &[], &maps, ExecEnv::default(), None);
        assert_eq!(jit_out, res, "{label}");
        if kscope_ebpf::jit::supported() {
            assert_eq!(
                jit.trampoline_entries(helper),
                u64::from(fell_back),
                "{label}: the JIT takes the branch the oracle names"
            );
        }
        maps = after;
        let entries: Vec<(Vec<u8>, Vec<u8>)> = shadow
            .iter()
            .map(|(k, v)| (k.to_vec(), v.to_vec()))
            .collect();
        let got: Vec<(Vec<u8>, Vec<u8>)> = maps
            .hash_entries(fd)
            .unwrap()
            .into_iter()
            .map(|(k, v)| (k.to_vec(), v.to_vec()))
            .collect();
        assert_eq!(got, entries, "{label}: the map matches the shadow table");
    }
    for case in [
        "MapUpdateElem Insert",
        "MapUpdateElem Overwrite",
        "MapUpdateElem Fallback",
        "MapDeleteElem Tombstone",
        "MapDeleteElem Empty",
        "MapDeleteElem Absent",
        "MapDeleteElem Fallback",
    ] {
        assert!(seen.contains(case), "{case} never happened: {seen:?}");
    }
    assert_eq!(
        maps.update(fd, &x.to_le_bytes(), &[0; 8]),
        Err(kscope_ebpf::MapError::Full)
    );
}
