//! Differential identity of every VM dispatcher: the interpreter and the
//! JIT.
//!
//! The VM executes programs by decoding raw instruction words on every
//! step (`Vm::new()`, the reference interpreter), or, for a program the
//! verifier accepted, as native x86-64 machine code compiled from the
//! pre-decoded representation (`Vm::new().with_jit()`), with proven
//! bounds checks elided and map lookups inlined. A JIT VM runs every
//! other program, and a verified one under a budget below its certified
//! bound, on the interpreter. The tests here hold both byte-for-byte
//! equal — same `ExecOutcome` (return value, instruction count, trace
//! output) or same `ExecError`, same final map state, same final helper
//! environment — and check that every accepted program did compile, so
//! no comparison quietly runs the interpreter twice. They cover:
//!
//! * ≥2000 generated programs: arbitrary fuzz bodies, straight-line ALU,
//!   structured verified programs, bounds-clamped register-offset
//!   programs with live map traffic, and fully wild instruction words
//!   (random opcode bytes, including undefined classes, truncated
//!   `ld_dw` pairs, jumps into `ld_dw` hi slots, and registers past r10);
//! * a seed-addressed `check!` fuzzer whose failures shrink to a minimal
//!   diverging instruction sequence and print a `KSCOPE_TESTKIT_SEED`
//!   repro command;
//! * a directed corpus of verified JIT edge cases: immediate
//!   sign-extension, 32-bit wraparound, fused `ld_dw` slots, div/mod by a
//!   zero register in both widths, shift-count masking, `JSET` and signed
//!   compares, and callee-saved register survival across helper calls,
//!   each under every budget from one instruction to past its bound;
//! * tiny instruction budgets, so `BudgetExhausted` fires at the same
//!   instruction on every path;
//! * a hand-written program exercising every helper the VM implements;
//! * every committed precision fixture, *verified first* so the elided
//!   JIT actually runs with bounds checks removed;
//! * every probe shape `probe_golden.rs` pins (the data-caching pair,
//!   web search over three processes, the pair plus netstack, the fleet
//!   probe and the histogram-only probe), each run as one stateful
//!   stream over persistent map registries that interleaves every
//!   attached slot: 16-byte syscall contexts for enter/exit and 24-byte
//!   `NetCtx` contexts for `net_rx`/`sock_drain`, including drains with
//!   no matching arrival.
//!
//! On targets without JIT support the JIT arm falls back to the
//! interpreter inside `Vm::execute`, so the identity holds trivially;
//! the compile assertions are gated on `jit::supported()`.

use kscope_core::{ProbeSet, DEFAULT_SHIFT};
use kscope_ebpf::asm::Asm;
use kscope_ebpf::helpers::Helper;
use kscope_ebpf::insn::{
    Insn, OP_ADD, OP_ARSH, OP_DIV, OP_JEQ, OP_JGT, OP_JSET, OP_JSGT, OP_JSLT, OP_LSH, OP_MOD,
    OP_MOV, OP_MUL, OP_NEG, OP_RSH, SZ_B, SZ_DW, SZ_H, SZ_W,
};
use kscope_ebpf::interp::{ExecEnv, Vm};
use kscope_ebpf::mapindex::{index_hash, HashIndex, HomeProbe, HomeRemove, HomeWrite};
use kscope_ebpf::maps::{MapDef, MapError, MapRegistry};
use kscope_ebpf::text::parse_program;
use kscope_ebpf::verifier::{Verifier, VerifyError};
use kscope_ebpf::{cost_report, helper_inline_plan, ExecError, HelperInline, Program};
use kscope_simcore::SimRng;
use kscope_syscalls::{pid_tgid, Pid, SyscallNo, SyscallProfile, SyscallRole};
use kscope_testkit::ebpf_gen::{
    bounded_offset_program, fuzz_program, hash_write_ops, hash_write_program, map_churn_program,
    straightline_program, valid_program, HashOp,
};
use kscope_testkit::{check, gen, Config};

/// Runs `prog` on the interpreter and on a JIT VM from identical
/// starting states and asserts the observable results are equal: the
/// `Result` itself (outcome or error), the mutated helper environment,
/// and the full map registry state. The interpreter is the base. Also
/// asserts the static cost certificate bounds every successful run.
///
/// The program is verified first. One the default verifier accepts
/// carries access proofs and lookup facts, and must compile where the
/// JIT is supported, so the JIT VM runs its elided accesses and inline
/// map lookups whenever the budget covers its certified bound. A
/// program verified earlier keeps the facts of that verification. A
/// rejected program runs on the interpreter in both arms.
fn assert_dispatch_identical(
    label: &str,
    prog: &Program,
    ctx: &[u8],
    base: &MapRegistry,
    env: ExecEnv,
    budget: Option<u64>,
) {
    let make_vm = || match budget {
        Some(b) => Vm::with_insn_budget(b),
        None => Vm::new(),
    };
    let accepted = Verifier::default()
        .verify_report(prog, base)
        .errors
        .is_empty();
    if accepted && kscope_ebpf::jit::supported() {
        assert!(
            prog.jit().is_some(),
            "{label}: a verified program must compile\n{}",
            prog.disassemble()
        );
    }
    let mut vm_interp = make_vm();
    assert!(!vm_interp.uses_jit());
    assert!(make_vm().with_jit().uses_jit());

    let mut maps_interp = base.clone();
    let mut env_interp = env;
    let interp = vm_interp.execute(prog, ctx, &mut maps_interp, &mut env_interp);

    // Soundness of the cost certificate: no successful run may exceed it.
    if let (Some(cost), Ok(out)) = (cost_report(prog), &interp) {
        assert!(
            out.insns_executed <= cost.max_insns,
            "{label}: executed {} insns > certified bound {}\n{}",
            out.insns_executed,
            cost.max_insns,
            prog.disassemble()
        );
    }

    let mut maps_jit = base.clone();
    let mut env_jit = env;
    let jit = make_vm()
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
        "{label}: interpreter vs jit helper env diverges"
    );
    assert_eq!(
        format!("{maps_interp:?}"),
        format!("{maps_jit:?}"),
        "{label}: interpreter vs jit map state diverges\n{}",
        prog.disassemble()
    );
}

/// A completely unconstrained instruction word. Random code bytes hit
/// undefined classes and opcodes, `ld_dw` with missing hi slots, and
/// every size/mode combination; register fields span the whole nibble,
/// so r11–r15 must fault alike on every VM.
fn wild_insn(rng: &mut SimRng) -> Insn {
    Insn {
        code: gen::u64_in(rng, 0, 255) as u8,
        dst: gen::u64_in(rng, 0, 15) as u8,
        src: gen::u64_in(rng, 0, 15) as u8,
        off: gen::i64_in(rng, -24, 24) as i16,
        imm: gen::i32_in(rng, -4096, 4096),
    }
}

fn wild_program(rng: &mut SimRng) -> Program {
    let body = gen::usize_in(rng, 1, 16);
    let insns: Vec<Insn> = (0..body).map(|_| wild_insn(rng)).collect();
    // No trailing exit on purpose: falling off the end must be identical
    // too. (Many of these programs error on their first instruction.)
    Program::new("wild", insns)
}

fn random_ctx(rng: &mut SimRng) -> [u8; 64] {
    let mut ctx = [0u8; 64];
    for b in ctx.iter_mut() {
        *b = rng.next_u64() as u8;
    }
    ctx
}

fn random_env(rng: &mut SimRng) -> ExecEnv {
    ExecEnv {
        ktime_ns: rng.next_u64() >> 20,
        pid_tgid: rng.next_u64(),
        prandom_state: rng.next_u64() | 1,
    }
}

/// 2000 generated programs (five families, 400 each) execute identically
/// on both dispatchers, map traffic and helper state included. Where the
/// JIT is supported, at least `MIN_NATIVE` of them must run natively
/// (the three families built to verify are 1200 programs), and the run
/// must reach the proof-carrying JIT paths: accesses compiled without
/// bounds checks and map lookups compiled inline.
#[test]
fn generated_programs_execute_identically() {
    const MIN_NATIVE: usize = 1_200;
    let mut rng = SimRng::seed_from_u64(Config::default().seed ^ 0xDEC0DE);
    let (mut native, mut proven, mut inlined, mut inline_lookups) = (0usize, 0, 0, 0);
    for i in 0..2000 {
        let mut base = MapRegistry::new();
        base.create("h", MapDef::hash(8, 8, 64));
        let vals = base.create("vals", MapDef::array(128, 1));
        let prog = match i % 5 {
            0 => fuzz_program(&mut rng, 24),
            1 => straightline_program(&mut rng),
            2 => valid_program(&mut rng, true),
            3 => bounded_offset_program(&mut rng, Some(vals)),
            _ => wild_program(&mut rng),
        };
        let ctx = random_ctx(&mut rng);
        let env = random_env(&mut rng);
        assert_dispatch_identical(&format!("generated[{i}]"), &prog, &ctx, &base, env, None);
        if let Some(jit) = prog.jit() {
            native += 1;
            proven += prog.access_proofs().map_or(0, |p| p.proven_count());
            inlined += jit.inlined_calls();
            inline_lookups += helper_inline_plan(&prog)
                .sites()
                .iter()
                .filter(|(_, _, t)| *t == HelperInline::MapLookupFast)
                .count();
        }
    }
    if kscope_ebpf::jit::supported() {
        assert!(
            native >= MIN_NATIVE,
            "only {native} of 2000 generated programs ran natively"
        );
        assert!(
            proven > 0,
            "no generated program ran with elided bounds checks"
        );
        assert!(
            inlined > 0,
            "no generated program ran an inlined helper call"
        );
        assert!(
            inline_lookups > 0,
            "no generated program ran an inline map lookup"
        );
    }
}

/// 600 generated programs that hold map-value pointers across hash
/// inserts and deletes execute identically on all dispatchers: accesses
/// through a pointer whose table grew since its lookup, through one whose
/// value was overwritten, and through one whose key was deleted, which
/// faults. The run must reach both clean exits and such faults.
#[test]
fn generated_map_churn_executes_identically() {
    let mut rng = SimRng::seed_from_u64(Config::default().seed ^ 0xC4A5E);
    let (mut clean, mut faulted) = (0usize, 0usize);
    for i in 0..600 {
        let mut base = MapRegistry::new();
        let hash = base.create("h", MapDef::hash(8, 8, 64));
        let vals = base.create("vals", MapDef::array(128, 1));
        let prog = map_churn_program(&mut rng, hash, vals);
        Verifier::default()
            .verify(&prog, &base)
            .unwrap_or_else(|e| panic!("churn[{i}] must verify: {e}\n{}", prog.disassemble()));
        let ctx = random_ctx(&mut rng);
        let env = random_env(&mut rng);
        assert_dispatch_identical(&format!("churn[{i}]"), &prog, &ctx, &base, env, None);
        let mut maps = base.clone();
        match Vm::new().execute(&prog, &ctx, &mut maps, &mut env.clone()) {
            Ok(_) => clean += 1,
            Err(ExecError::BadMemAccess { .. }) => faulted += 1,
            Err(e) => panic!("churn[{i}]: unexpected fault {e}\n{}", prog.disassemble()),
        }
    }
    assert!(
        clean > 0 && faulted > 0,
        "{clean} clean runs, {faulted} faults through deleted keys"
    );
}

/// What a standalone replay of [`HashOp`]s saw, classified by the
/// table's own home-slot oracles before each write.
#[derive(Debug, Default)]
struct WriteCases {
    /// Writes `home_write`/`home_remove` send to the trampoline, per
    /// helper: what the JIT's trampoline counts must equal.
    update_fallbacks: u64,
    delete_fallbacks: u64,
    /// Writes that fell back because another live key rests at home.
    collisions: u64,
    /// Writes that fell back because home holds a tombstone.
    tombstoned_homes: u64,
    /// Inserts that relaid the table out (growth or compaction).
    relayouts: u64,
    /// Inserts refused at `max_entries`.
    full: u64,
    /// Deletes of a key at home that fell back because the slot before
    /// it is a tombstone.
    tombstoned_predecessors: u64,
}

/// Replays the map side of `ops` on a standalone table, classifying
/// every write before applying it.
fn replay_writes(ops: &[HashOp], value_size: u32, max_entries: u32) -> WriteCases {
    let mut table = HashIndex::new(value_size, max_entries);
    let mut cases = WriteCases::default();
    let value = vec![0u8; value_size as usize];
    for op in ops {
        let (key, update) = match *op {
            HashOp::Update { key, .. } => (key.to_le_bytes(), true),
            HashOp::Delete { key } => (key.to_le_bytes(), false),
            HashOp::Hold { .. } | HashOp::ReadHeld => continue,
        };
        let at_home = table.home_probe(&key);
        let fell_back = if update {
            table.home_write(&key) == HomeWrite::Fallback
        } else {
            table.home_remove(&key) == HomeRemove::Fallback
        };
        if fell_back && at_home == HomeProbe::Fallback {
            let home = |k: &[u8]| index_hash(k) & table.mask();
            let taken = table.iter().any(|(other, _)| {
                home(other) == home(&key) && table.home_probe(other) == HomeProbe::Hit
            });
            if taken {
                cases.collisions += 1;
            } else {
                cases.tombstoned_homes += 1;
            }
        }
        if update {
            cases.update_fallbacks += u64::from(fell_back);
            match table.insert(&key, &value) {
                Err(MapError::Full) => cases.full += 1,
                Ok(()) if fell_back && at_home == HomeProbe::Miss => cases.relayouts += 1,
                _ => {}
            }
        } else {
            cases.delete_fallbacks += u64::from(fell_back);
            if fell_back && at_home == HomeProbe::Hit {
                cases.tombstoned_predecessors += 1;
            }
            table.remove(&key);
        }
    }
    cases
}

/// 600 generated programs update and delete colliding keys in small
/// hash tables and read through held pointers after every write; they
/// execute identically on all dispatchers. The table's own oracles
/// (`HashIndex::home_write` / `home_remove`) name, write by write,
/// which calls the JIT answers inline and which it sends to the
/// trampoline: the JIT's trampoline counts must equal their fallbacks.
/// Across the run the writes reach every case the inline paths leave to
/// the trampoline: home collisions, tombstoned homes, relayouts, `Full`
/// and deletes behind a tombstone.
#[test]
fn generated_hash_writes_execute_identically() {
    let mut rng = SimRng::seed_from_u64(Config::default().seed ^ 0x4A5_417E);
    let mut seen = WriteCases::default();
    let (mut inline_writes, mut faulted) = (0u64, 0usize);
    for i in 0..600 {
        // A capped 8-slot table, a 16-slot one, and one that grows.
        let (max_entries, value_size) = [(4, 8), (8, 12), (64, 16)][i % 3];
        let mut base = MapRegistry::new();
        let hash = base.create("h", MapDef::hash(8, value_size, max_entries));
        let ops = hash_write_ops(&mut rng, max_entries);
        let prog = hash_write_program(&ops, hash);
        Verifier::default()
            .verify(&prog, &base)
            .unwrap_or_else(|e| panic!("writes[{i}] must verify: {e}\n{}", prog.disassemble()));
        let plan = helper_inline_plan(&prog);
        for &(_, helper, treatment) in plan.sites() {
            let want = match helper {
                Helper::MapUpdateElem => HelperInline::MapUpdateFast,
                Helper::MapDeleteElem => HelperInline::MapDeleteFast,
                _ => continue,
            };
            assert_eq!(treatment, want, "writes[{i}]: {helper:?} is not inline");
        }
        let env = random_env(&mut rng);
        assert_dispatch_identical(&format!("writes[{i}]"), &prog, &[], &base, env, None);

        let cases = replay_writes(&ops, value_size, max_entries);
        let mut vm = Vm::new().with_jit();
        let mut maps = base.clone();
        if vm.execute(&prog, &[], &mut maps, &mut env.clone()).is_err() {
            faulted += 1;
        }
        if cfg!(target_arch = "x86_64") {
            assert_eq!(
                (
                    vm.trampoline_entries(Helper::MapUpdateElem),
                    vm.trampoline_entries(Helper::MapDeleteElem)
                ),
                (cases.update_fallbacks, cases.delete_fallbacks),
                "writes[{i}]: the JIT's fallbacks are not the oracle's\n{}",
                prog.disassemble()
            );
        }
        let writes = ops
            .iter()
            .filter(|op| matches!(op, HashOp::Update { .. } | HashOp::Delete { .. }))
            .count() as u64;
        inline_writes += writes - cases.update_fallbacks - cases.delete_fallbacks;
        seen.collisions += cases.collisions;
        seen.tombstoned_homes += cases.tombstoned_homes;
        seen.relayouts += cases.relayouts;
        seen.full += cases.full;
        seen.tombstoned_predecessors += cases.tombstoned_predecessors;
    }
    assert!(inline_writes > 0, "no write took an inline path");
    assert!(faulted > 0, "no read through a deleted key's pointer");
    assert!(
        seen.collisions > 0
            && seen.tombstoned_homes > 0
            && seen.relayouts > 0
            && seen.full > 0
            && seen.tombstoned_predecessors > 0,
        "every fallback case is reached: {seen:?}"
    );
}

/// Seed-addressed fuzzing with shrinking: any diverging wild instruction
/// sequence shrinks to a minimal counterexample and prints a
/// `KSCOPE_TESTKIT_SEED` repro command. The generated value is the raw
/// `Vec<Insn>` (not the wrapped `Program`), so the harness's vector
/// shrinker can drop and simplify individual instructions.
#[test]
fn shrinking_fuzzer_finds_no_divergence() {
    check!(
        Config::cases(600),
        |rng: &mut SimRng| {
            let body = gen::usize_in(rng, 1, 16);
            let insns: Vec<Insn> = (0..body).map(|_| wild_insn(rng)).collect();
            let ctx = random_ctx(rng);
            let env = random_env(rng);
            (insns, ctx.to_vec(), env.ktime_ns, env.pid_tgid)
        },
        |(insns, ctx, ktime_ns, pid_tgid)| {
            let mut base = MapRegistry::new();
            base.create("h", MapDef::hash(8, 8, 64));
            base.create("vals", MapDef::array(128, 1));
            let prog = Program::new("shrunk", insns.clone());
            let env = ExecEnv {
                ktime_ns: *ktime_ns,
                pid_tgid: *pid_tgid,
                prandom_state: 1,
            };
            assert_dispatch_identical("shrinking-fuzzer", &prog, ctx, &base, env, None);
        },
    );
}

/// Directed corpus of JIT edge cases, each verified and swept across
/// tiny budgets so exhaustion also lands mid-sequence. Every program is
/// a known sharp corner of the template JIT: immediate sign-extension
/// boundaries, 32-bit wraparound and zero-extension, fused `ld_dw`
/// slots, div/mod by a zero register in both widths, shift-count
/// masking, `JSET` and signed compares, and the callee-saved register
/// spill discipline around helper trampolines.
#[test]
fn directed_jit_edge_cases_execute_identically() {
    fn asm_or_panic(asm: Asm) -> Program {
        asm.assemble()
            .unwrap_or_else(|e| panic!("directed program must assemble: {e}"))
    }

    let corpus: Vec<(&str, Program)> = vec![
        (
            "imm-sign-extension",
            asm_or_panic(
                Asm::new("imm_sext")
                    .mov64_imm(0, -1)
                    .add64_imm(0, i32::MIN)
                    .insn(Insn::alu64_imm(OP_MUL, 0, -1))
                    .insn(Insn::alu32_imm(OP_MUL, 0, -1))
                    .and64_imm(0, i32::MIN)
                    .exit(),
            ),
        ),
        (
            "jmp-vs-jmp32-negative-imm",
            // r6 = 0xFFFF_FFFF: equals -1 under JMP32 (32-bit compare of
            // the truncated imm) but not under JMP (full 64-bit compare
            // of the sign-extended imm).
            asm_or_panic(
                Asm::new("jmp_widths")
                    .mov64_imm(0, 0)
                    .ld_dw(6, 0xFFFF_FFFF)
                    .insn(Insn::jmp32_imm(OP_JEQ, 6, -1, 1))
                    .exit()
                    .mov64_imm(0, 1)
                    .insn(Insn::jmp_imm(OP_JEQ, 6, -1, 1))
                    .exit()
                    .mov64_imm(0, 2)
                    .exit(),
            ),
        ),
        (
            "jmp32-ignores-high-bits",
            asm_or_panic(
                Asm::new("jmp32_high")
                    .mov64_imm(0, 0)
                    .ld_dw(6, 0xFFFF_FFFF_0000_0001)
                    .insn(Insn::jmp32_imm(OP_JEQ, 6, 1, 1))
                    .exit()
                    .mov64_imm(7, 1)
                    .insn(Insn::jmp32_reg(OP_JGT, 6, 7, 1))
                    .mov64_imm(0, 40)
                    .add64_imm(0, 2)
                    .exit(),
            ),
        ),
        (
            "alu32-wraparound",
            asm_or_panic(
                Asm::new("wrap32")
                    .insn(Insn::alu32_imm(OP_MOV, 6, -1)) // r6 = 0xFFFF_FFFF
                    .insn(Insn::alu32_imm(OP_ADD, 6, 1)) // wraps to 0
                    .mov64_imm(7, 0x7FFF_FFFF)
                    .insn(Insn::alu32_imm(OP_ADD, 7, 1)) // 0x8000_0000, zero-extended
                    .ld_dw(8, 0x1_0000_0001)
                    .insn(Insn::alu32_reg(OP_MUL, 8, 8)) // 32-bit square of 1
                    .mov64_reg(0, 6)
                    .add64_reg(0, 7)
                    .add64_reg(0, 8)
                    .exit(),
            ),
        ),
        (
            "neg-both-widths",
            asm_or_panic(
                Asm::new("negs")
                    .mov64_imm(6, 5)
                    .insn(Insn::alu64_imm(OP_NEG, 6, 0))
                    .mov64_imm(7, 5)
                    .insn(Insn::alu32_imm(OP_NEG, 7, 0))
                    .ld_dw(8, i64::MIN as u64)
                    .insn(Insn::alu64_imm(OP_NEG, 8, 0))
                    .mov64_reg(0, 6)
                    .add64_reg(0, 7)
                    .add64_reg(0, 8)
                    .exit(),
            ),
        ),
        (
            "div-mod-by-zero-register",
            asm_or_panic(
                Asm::new("divzero")
                    .ld_dw(6, 0x1_2345_6789) // dividend with live high bits
                    .mov64_imm(7, 0) // zero divisor register
                    .mov64_reg(8, 6)
                    .insn(Insn::alu64_reg(OP_DIV, 8, 7)) // 0
                    .mov64_reg(0, 6)
                    .insn(Insn::alu64_reg(OP_MOD, 0, 7)) // dividend
                    .add64_reg(0, 8)
                    .mov64_reg(8, 6)
                    .insn(Insn::alu32_reg(OP_DIV, 8, 7)) // 0
                    .add64_reg(0, 8)
                    .mov64_reg(8, 6)
                    .insn(Insn::alu32_reg(OP_MOD, 8, 7)) // dividend, truncated to 32 bits
                    .add64_reg(0, 8)
                    .exit(),
            ),
        ),
        (
            "div-mod-by-negative-imm",
            // A 64-bit immediate divisor is sign-extended (-1 is
            // u64::MAX); a 32-bit one is the truncated word.
            asm_or_panic(
                Asm::new("divneg")
                    .mov64_imm(6, -1)
                    .mov64_reg(0, 6)
                    .insn(Insn::alu64_imm(OP_DIV, 0, -1)) // 1
                    .mov64_reg(8, 6)
                    .insn(Insn::alu64_imm(OP_MOD, 8, -3)) // u64::MAX % (u64::MAX - 2) = 2
                    .add64_reg(0, 8)
                    .mov64_reg(8, 6)
                    .insn(Insn::alu32_imm(OP_DIV, 8, -1)) // 0xFFFF_FFFF / 0xFFFF_FFFF = 1
                    .add64_reg(0, 8)
                    .exit(),
            ),
        ),
        (
            "nonzero-div-mod-signedness",
            // DIV/MOD are unsigned in eBPF; a dividend with the sign bit
            // set distinguishes `div` from `idiv` codegen.
            asm_or_panic(
                Asm::new("divsign")
                    .ld_dw(6, 0x8000_0000_0000_0007)
                    .mov64_imm(7, 3)
                    .mov64_reg(8, 6)
                    .insn(Insn::alu64_reg(OP_DIV, 8, 7))
                    .mov64_reg(0, 6)
                    .insn(Insn::alu64_reg(OP_MOD, 0, 7))
                    .add64_reg(0, 8)
                    .mov64_reg(8, 6)
                    .insn(Insn::alu32_reg(OP_DIV, 8, 7))
                    .add64_reg(0, 8)
                    .mov64_reg(8, 6)
                    .insn(Insn::alu32_imm(OP_MOD, 8, 3))
                    .add64_reg(0, 8)
                    .exit(),
            ),
        ),
        (
            "shift-count-masking",
            // Register shift counts mask to the operand width (&63 /
            // &31): 70 shifts a 64-bit value by 6, 33 shifts a 32-bit
            // value by 1, and a 32-bit shift by 0 still truncates.
            asm_or_panic(
                Asm::new("shiftmask")
                    .mov64_imm(6, 70)
                    .mov64_imm(7, 33)
                    .mov64_imm(8, 1)
                    .insn(Insn::alu64_reg(OP_LSH, 8, 6))
                    .ld_dw(0, 0x8000_0000_DEAD_BEEF)
                    .insn(Insn::alu32_reg(OP_RSH, 0, 7))
                    .add64_reg(0, 8)
                    .ld_dw(8, 0x8000_0000_0000_0000)
                    .insn(Insn::alu64_reg(OP_ARSH, 8, 7)) // arithmetic, by 33
                    .add64_reg(0, 8)
                    .insn(Insn::alu32_imm(OP_LSH, 0, 0)) // 32-bit shift by 0 still truncates
                    .exit(),
            ),
        ),
        (
            "jset-and-signed-compares",
            asm_or_panic(
                Asm::new("jset_signed")
                    .mov64_imm(0, 0)
                    .ld_dw(6, 0xF000_0000_0000_0001)
                    .insn(Insn::jmp_imm(OP_JSET, 6, 1, 1))
                    .exit()
                    .add64_imm(0, 1)
                    .insn(Insn::jmp_imm(OP_JSGT, 6, -1, 1)) // r6 is negative signed
                    .add64_imm(0, 2)
                    .mov64_imm(7, -3)
                    .insn(Insn::jmp_reg(OP_JSLT, 6, 7, 1))
                    .exit()
                    .add64_imm(0, 4)
                    .exit(),
            ),
        ),
        (
            "stack-store-load-all-sizes",
            asm_or_panic(
                Asm::new("stack_sizes")
                    .ld_dw(6, 0x1122_3344_5566_7788)
                    .store_reg(SZ_DW, 10, 6, -8)
                    .store_reg(SZ_W, 10, 6, -16)
                    .store_reg(SZ_H, 10, 6, -24)
                    .store_reg(SZ_B, 10, 6, -32)
                    .store_imm(SZ_DW, 10, -40, -1) // sign-extended imm store
                    .store_imm(SZ_B, 10, -48, 0x7F)
                    .load(SZ_DW, 0, 10, -8)
                    .load(SZ_W, 7, 10, -16) // zero-extends
                    .add64_reg(0, 7)
                    .load(SZ_H, 7, 10, -24)
                    .add64_reg(0, 7)
                    .load(SZ_B, 7, 10, -32)
                    .add64_reg(0, 7)
                    .load(SZ_DW, 7, 10, -40)
                    .add64_reg(0, 7)
                    .load(SZ_B, 7, 10, -48)
                    .add64_reg(0, 7)
                    .exit(),
            ),
        ),
        (
            "callee-saved-survive-helpers",
            // r6–r9 live in callee-saved x86 registers in the JIT; the
            // helper trampoline must spill and reload them (and r0 must
            // carry the helper's return, clobbering its previous value).
            asm_or_panic(
                Asm::new("helper_saves")
                    .mov64_imm(6, 11)
                    .mov64_imm(7, 22)
                    .mov64_imm(8, 33)
                    .mov64_imm(9, 44)
                    .call(Helper::KtimeGetNs)
                    .mov64_reg(1, 0)
                    .call(Helper::GetPrandomU32)
                    .mov64_reg(0, 6)
                    .add64_reg(0, 7)
                    .add64_reg(0, 8)
                    .add64_reg(0, 9)
                    .exit(),
            ),
        ),
        (
            "budget-exhaustion-mid-block",
            // A fused ld_dw (one executed instruction, two slots) between
            // plain ALU ops and a helper call: the budget sweep below
            // must exhaust before, on, and after each identically.
            asm_or_panic(
                Asm::new("budget_mid")
                    .mov64_imm(0, 1)
                    .add64_imm(0, 1)
                    .ld_dw(6, 0xFFFF_FFFF_FFFF_FFFF)
                    .add64_reg(0, 6)
                    .add64_imm(0, 1)
                    .call(Helper::GetCurrentPidTgid)
                    .mov64_imm(0, 9)
                    .exit(),
            ),
        ),
    ];

    let mut rng = SimRng::seed_from_u64(Config::default().seed ^ 0xD1EC7);
    for (name, prog) in &corpus {
        let ctx = random_ctx(&mut rng);
        let env = random_env(&mut rng);
        let base = MapRegistry::new();
        Verifier::default().verify(prog, &base).unwrap_or_else(|e| {
            panic!("directed `{name}` must verify: {e}\n{}", prog.disassemble())
        });
        assert_dispatch_identical(&format!("directed[{name}]"), prog, &ctx, &base, env, None);
        // Sweep budgets 1..=len+1 so exhaustion lands on every slot
        // boundary, including mid-`ld_dw` and right at `exit`; budgets
        // from the certified bound up run natively.
        for budget in 1..=(prog.len() as u64 + 1) {
            assert_dispatch_identical(
                &format!("directed[{name}@{budget}]"),
                prog,
                &ctx,
                &base,
                env,
                Some(budget),
            );
        }
    }
}

/// An ALU word whose op bits the instruction set leaves undefined
/// (0xd0, 0xe0, 0xf0; 0xd0 is eBPF's byte-swap `le`/`be`) is a trap in
/// both widths: the verifier rejects it, so the program never compiles,
/// and both VMs report the interpreter's `BadOpcode` at it.
#[test]
fn undefined_alu_ops_are_rejected_and_run_identically() {
    let base = MapRegistry::new();
    for class in [0x04u8, 0x07] {
        for op in [0xd0u8, 0xe0, 0xf0] {
            for src_bit in [0x00u8, 0x08] {
                let code = class | op | src_bit;
                let bad = Insn {
                    code,
                    dst: 0,
                    src: 1,
                    off: 0,
                    imm: 16,
                };
                let prog = Program::new(
                    "undefined-alu-op",
                    vec![
                        Insn::mov64_imm(0, 7),
                        Insn::mov64_imm(1, 3),
                        bad,
                        Insn::exit(),
                    ],
                );
                assert_eq!(
                    Verifier::default().verify(&prog, &base),
                    Err(VerifyError::BadOpcode { pc: 2, code }),
                    "code {code:#04x}"
                );
                assert!(prog.jit().is_none(), "code {code:#04x} compiled");
                for mut vm in [Vm::new(), Vm::new().with_jit()] {
                    let mut maps = base.clone();
                    assert_eq!(
                        vm.execute(&prog, &[], &mut maps, &mut ExecEnv::default()),
                        Err(ExecError::BadOpcode { pc: 2, code }),
                        "code {code:#04x}"
                    );
                }
                assert_dispatch_identical(
                    &format!("undefined-alu[{code:#04x}]"),
                    &prog,
                    &[],
                    &base,
                    ExecEnv::default(),
                    None,
                );
            }
        }
    }
}

/// Budget exhaustion fires on the same instruction for all paths:
/// sweeping tiny budgets over the same programs, every `Ok`/`Err`
/// boundary lands identically (including `ld_dw` counting as one
/// executed instruction on every side).
#[test]
fn budget_exhaustion_is_identical() {
    let mut rng = SimRng::seed_from_u64(Config::default().seed ^ 0xB0D6E7);
    for i in 0..120 {
        let base = MapRegistry::new();
        let prog = match i % 3 {
            0 => fuzz_program(&mut rng, 16),
            1 => straightline_program(&mut rng),
            _ => wild_program(&mut rng),
        };
        let ctx = random_ctx(&mut rng);
        // Zero is rejected at construction; 1 is the smallest legal budget.
        for budget in [1u64, 2, 3, 5, 8, 13, 1_000] {
            assert_dispatch_identical(
                &format!("budget[{i}@{budget}]"),
                &prog,
                &ctx,
                &base,
                ExecEnv::default(),
                Some(budget),
            );
        }
    }
}

/// One program through every helper the VM implements: lookup miss,
/// update, lookup hit with a read through the returned slot, delete,
/// ktime, prandom, pid_tgid, printk (trace output), and ringbuf output.
#[test]
fn helper_surface_is_identical() {
    let mut base = MapRegistry::new();
    let hash = base.create("h", MapDef::hash(8, 8, 16));
    let ring = base.create("rb", MapDef::ring_buf(64, 8));

    let prog = Asm::new("helpers")
        // Key 0x1122334455667788 at stack[-8]; value at stack[-16].
        .ld_dw(6, 0x1122_3344_5566_7788)
        .store_reg(SZ_DW, 10, 6, -8)
        .ld_dw(6, 0xAABB_CCDD_EEFF_0011)
        .store_reg(SZ_DW, 10, 6, -16)
        // Miss: r0 = 0.
        .ld_map_fd(1, hash)
        .mov64_reg(2, 10)
        .add64_imm(2, -8)
        .call(Helper::MapLookupElem)
        // Insert, then hit and read back through the value slot.
        .ld_map_fd(1, hash)
        .mov64_reg(2, 10)
        .add64_imm(2, -8)
        .mov64_reg(3, 10)
        .add64_imm(3, -16)
        .mov64_imm(4, 0)
        .call(Helper::MapUpdateElem)
        .ld_map_fd(1, hash)
        .mov64_reg(2, 10)
        .add64_imm(2, -8)
        .call(Helper::MapLookupElem)
        .jeq_imm(0, 0, "missed")
        .load(SZ_DW, 6, 0, 0)
        .label("missed")
        // Delete it again (returns 0), then the no-argument helpers.
        .ld_map_fd(1, hash)
        .mov64_reg(2, 10)
        .add64_imm(2, -8)
        .call(Helper::MapDeleteElem)
        .call(Helper::KtimeGetNs)
        .call(Helper::GetPrandomU32)
        .call(Helper::GetCurrentPidTgid)
        // printk of the 8 value bytes still on the stack.
        .mov64_reg(1, 10)
        .add64_imm(1, -16)
        .mov64_imm(2, 8)
        .call(Helper::TracePrintk)
        // ringbuf_output of the same bytes.
        .ld_map_fd(1, ring)
        .mov64_reg(2, 10)
        .add64_imm(2, -16)
        .mov64_imm(3, 8)
        .mov64_imm(4, 0)
        .call(Helper::RingbufOutput)
        .mov64_reg(0, 6)
        .exit()
        .assemble()
        .unwrap_or_else(|e| panic!("helper program must assemble: {e}"));

    Verifier::default()
        .verify(&prog, &base)
        .unwrap_or_else(|e| panic!("the helper-surface program must verify: {e}"));

    for seed in 0..32u64 {
        let mut rng = SimRng::seed_from_u64(seed);
        let env = random_env(&mut rng);
        assert_dispatch_identical(&format!("helpers[{seed}]"), &prog, &[], &base, env, None);
    }
}

/// Every committed precision fixture runs identically on both tiers, on
/// randomized context bytes. The fixtures are verified first, so the
/// value-tracking proofs attach and the JIT executes with bounds checks
/// actually elided.
#[test]
fn fixture_probes_execute_identically() {
    const FIXTURES: &[(&str, &str)] = &[
        (
            "and_mask_stack",
            include_str!("fixtures/precision/and_mask_stack.bpf"),
        ),
        (
            "log2_bucket_map",
            include_str!("fixtures/precision/log2_bucket_map.bpf"),
        ),
        (
            "range_guard_byte",
            include_str!("fixtures/precision/range_guard_byte.bpf"),
        ),
        (
            "jset_aligned",
            include_str!("fixtures/precision/jset_aligned.bpf"),
        ),
        (
            "signed_window",
            include_str!("fixtures/precision/signed_window.bpf"),
        ),
        (
            "div_range_proof",
            include_str!("fixtures/precision/div_range_proof.bpf"),
        ),
    ];
    let mut rng = SimRng::seed_from_u64(Config::default().seed);
    for (name, text) in FIXTURES {
        let prog = parse_program(name, text)
            .unwrap_or_else(|e| panic!("fixture `{name}` failed to parse: {e}"));
        let mut base = MapRegistry::new();
        base.create("vals", MapDef::array(512, 1));
        Verifier::default()
            .verify(&prog, &base)
            .unwrap_or_else(|e| panic!("fixture `{name}` must verify: {e}"));
        assert!(
            prog.access_proofs().is_some(),
            "fixture `{name}`: verification must attach access proofs"
        );
        assert!(
            prog.jit().is_some() || !kscope_ebpf::jit::supported(),
            "fixture `{name}` must compile where the JIT is supported"
        );
        for round in 0..8 {
            let ctx = random_ctx(&mut rng);
            let env = random_env(&mut rng);
            assert_dispatch_identical(&format!("{name}[{round}]"), &prog, &ctx, &base, env, None);
        }
    }
}

/// One probe shape `probe_golden.rs` pins, with the processes it
/// observes.
struct Shape {
    name: &'static str,
    tgids: Vec<Pid>,
    profile: SyscallProfile,
    set: ProbeSet,
}

impl Shape {
    fn new(name: &'static str, tgids: Vec<Pid>, profile: SyscallProfile) -> Shape {
        let set = ProbeSet::new(tgids.clone(), profile.clone(), DEFAULT_SHIFT);
        Shape {
            name,
            tgids,
            profile,
            set,
        }
    }

    fn with(mut self, step: impl FnOnce(ProbeSet) -> ProbeSet) -> Shape {
        self.set = step(self.set);
        self
    }
}

/// The syscall-pair-only shapes: the single-process sweep probe, the
/// multi-process web-search probe, and the histogram-only probe.
fn syscall_shapes() -> Vec<Shape> {
    vec![
        Shape::new("data_caching", vec![1000], SyscallProfile::data_caching()),
        Shape::new(
            "web_search_multi",
            vec![1000, 1001, 1002],
            SyscallProfile::web_search(),
        ),
        Shape::new(
            "data_caching_hist",
            vec![1200],
            SyscallProfile::data_caching(),
        )
        .with(ProbeSet::with_poll_histogram),
    ]
}

/// The shapes with the netstack pair attached: the `fig_netstack` probe
/// and the fleet probe (poll histogram, entity sketch, netstack).
fn netstack_shapes() -> Vec<Shape> {
    vec![
        Shape::new(
            "data_caching_netstack",
            vec![1000],
            SyscallProfile::data_caching(),
        )
        .with(ProbeSet::with_netstack),
        Shape::new("fleet", vec![1200], SyscallProfile::data_caching()).with(|set| {
            set.with_poll_histogram()
                .with_entity_sketch(64)
                .with_netstack()
        }),
    ]
}

/// One tracepoint firing of a shape's stream: the slot it fires and the
/// context bytes and helper environment the program sees there.
struct Firing {
    slot: &'static str,
    ctx: Vec<u8>,
    env: ExecEnv,
}

/// Runs `shape`'s built programs as one stateful stream of `events`
/// firings that interleaves every attached slot: 16-byte syscall
/// contexts for `sys_enter`/`sys_exit` (poll, send, receive and an
/// unmatched syscall, from every observed process and a foreign one,
/// over more threads than the entity sketch holds) and 24-byte `NetCtx`
/// contexts for `net_rx`/`sock_drain` (matched pairs, duplicate
/// arrivals and drains with no recorded arrival). The interpreter and
/// the JIT each run the stream over their own clone of the probe's
/// registry; every outcome, every helper environment and the final map
/// state must match, and no verified program may fault.
fn assert_shape_streams_identical(shape: &Shape, events: u64) {
    let backend = shape
        .set
        .clone()
        .build()
        .unwrap_or_else(|e| panic!("{}: probe programs must verify: {e}", shape.name));
    let (enter, exit) = backend.programs();
    let net = backend.net_programs();
    let mut slots = vec![("enter", enter), ("exit", exit)];
    if let Some((rx, drain)) = net {
        slots.extend([("net_rx", rx), ("sock_drain", drain)]);
    }
    for (slot, prog) in &slots {
        assert!(
            prog.jit().is_some() || !kscope_ebpf::jit::supported(),
            "{}: the {slot} program must compile where the JIT is supported",
            shape.name
        );
    }

    let role = |r| shape.profile.primary(r).raw() as u64;
    let poll_no = role(SyscallRole::Poll);
    let send_no = role(SyscallRole::Send);
    let recv_no = role(SyscallRole::Receive);
    let wrong_no = SyscallNo::FUTEX.raw() as u64;

    let mut rng = SimRng::seed_from_u64(Config::default().seed ^ 0x9205E);
    let mut ktime = 1_000u64;
    let mut net_seq = 0u64;
    let mut stream = Vec::new();
    for _ in 0..events {
        ktime += gen::u64_in(&mut rng, 500, 2_000_000);
        let firing = if net.is_some() && gen::u64_in(&mut rng, 0, 2) == 0 {
            // Matched pairs, a duplicate arrival overwriting the inflight
            // slot, and an orphan drain (an inflight miss).
            let i = net_seq;
            net_seq += 1;
            let (slot, request) = match i % 8 {
                0 | 2 | 6 => ("net_rx", i),
                3 => ("net_rx", i - 1),
                5 => ("sock_drain", i + 10_000),
                _ => ("sock_drain", i - 1),
            };
            let mut ctx = vec![0u8; 24];
            ctx[..8].copy_from_slice(&request.to_le_bytes());
            ctx[8..16].copy_from_slice(&gen::u64_in(&mut rng, 0, 2_000_000).to_le_bytes());
            ctx[16..24].copy_from_slice(&gen::u64_in(&mut rng, 0, 9_000).to_le_bytes());
            // Softirq context: the current task is whatever it preempted.
            let pid_tgid = pid_tgid(gen::pick(&mut rng, &[1200, 1000, 4242]), 7);
            Firing {
                slot,
                ctx,
                env: ExecEnv {
                    ktime_ns: ktime,
                    pid_tgid,
                    ..ExecEnv::default()
                },
            }
        } else {
            let slot = if gen::u64_in(&mut rng, 0, 2) == 0 {
                "enter"
            } else {
                "exit"
            };
            let no = gen::pick(
                &mut rng,
                &[
                    poll_no, poll_no, send_no, send_no, send_no, recv_no, recv_no, wrong_no,
                ],
            );
            let tgid = if gen::u64_in(&mut rng, 0, 7) == 0 {
                4242 // not observed
            } else {
                gen::pick(&mut rng, &shape.tgids)
            };
            // Half the firings come from a few busy threads, so poll
            // enters and exits pair up; the rest spread over more threads
            // than the entity sketch has slots.
            let tid = if gen::bool_any(&mut rng) {
                gen::u64_in(&mut rng, 1, 4)
            } else {
                gen::u64_in(&mut rng, 1, 96)
            };
            let mut ctx = vec![0u8; 16];
            ctx[..8].copy_from_slice(&no.to_le_bytes());
            ctx[8..16].copy_from_slice(&gen::u64_in(&mut rng, 1, 4096).to_le_bytes());
            Firing {
                slot,
                ctx,
                env: ExecEnv {
                    ktime_ns: ktime,
                    pid_tgid: pid_tgid(tgid, tgid + tid as u32),
                    ..ExecEnv::default()
                },
            }
        };
        stream.push(firing);
    }

    let mut maps_interp = backend.map_registry().clone();
    let mut maps_jit = backend.map_registry().clone();
    let mut vm_interp = Vm::new();
    let mut vm_jit = Vm::new().with_jit();
    let mut fired = std::collections::BTreeMap::new();
    for (i, firing) in stream.iter().enumerate() {
        let Some(&(_, prog)) = slots.iter().find(|(slot, _)| *slot == firing.slot) else {
            unreachable!("the stream fires only attached slots");
        };
        *fired.entry(firing.slot).or_insert(0u32) += 1;
        let mut env_interp = firing.env;
        let mut env_jit = firing.env;
        let interp = vm_interp.execute(prog, &firing.ctx, &mut maps_interp, &mut env_interp);
        let jit = vm_jit.execute(prog, &firing.ctx, &mut maps_jit, &mut env_jit);
        let label = format!("{} event {i} ({})", shape.name, firing.slot);
        assert!(
            interp.is_ok(),
            "{label}: a verified program faulted: {interp:?}"
        );
        assert_eq!(interp, jit, "{label}: interpreter vs jit outcomes diverge");
        assert_eq!(
            env_interp, env_jit,
            "{label}: interpreter vs jit env diverges"
        );
    }
    assert_eq!(
        fired.len(),
        slots.len(),
        "{}: the stream fired every slot",
        shape.name
    );
    assert_ne!(
        format!("{maps_interp:?}"),
        format!("{:?}", backend.map_registry()),
        "{}: the stream left the maps as built",
        shape.name
    );
    assert_eq!(
        format!("{maps_interp:?}"),
        format!("{maps_jit:?}"),
        "{}: jit probe map state diverges after the stream",
        shape.name
    );
}

/// The syscall-pair probe shapes, each run as a stateful enter/exit
/// stream on the interpreter and the JIT (the `start` hash map carries
/// state from enter to exit, the poll histogram from exit to exit).
#[test]
fn backend_probe_programs_execute_identically() {
    for shape in syscall_shapes() {
        assert_shape_streams_identical(&shape, 800);
    }
}

/// The shapes with the netstack ingress pair, the fleet probe among
/// them: one stream interleaves the syscall pair with `net_rx` /
/// `sock_drain`, so the in-flight map, the time-in-stack histogram,
/// the poll histogram and the entity sketch all evolve together on
/// both tiers.
#[test]
fn netstack_probe_programs_execute_identically() {
    for shape in netstack_shapes() {
        assert_shape_streams_identical(&shape, 1_200);
    }
}
