//! Integration tests: assembler → verifier → interpreter, end to end.

use kscope_ebpf::asm::Asm;
use kscope_ebpf::insn::{
    Insn, OP_ADD, OP_ARSH, OP_DIV, OP_JGE, OP_JSET, OP_JSGT, OP_JSLT, OP_LSH, OP_MOD, OP_MUL,
    OP_RSH, OP_SUB, OP_XOR, R0, R1, R10, R2, R3, R4, R6, R7, R9, SZ_B, SZ_DW, SZ_H, SZ_W,
};
use kscope_ebpf::interp::ExecEnv;
use kscope_ebpf::maps::{MapDef, MapRegistry};
use kscope_ebpf::verifier::{Verifier, VerifyError};
use kscope_ebpf::{ExecError, Helper, Program, Vm};

fn run(prog: &Program, ctx: &[u8], maps: &mut MapRegistry) -> u64 {
    Verifier::default()
        .verify(prog, maps)
        .unwrap_or_else(|e| panic!("verification failed: {e}"));
    Vm::new()
        .execute(prog, ctx, maps, &mut ExecEnv::default())
        .unwrap_or_else(|e| panic!("execution failed: {e}"))
        .ret
}

fn run_env(prog: &Program, ctx: &[u8], maps: &mut MapRegistry, env: &mut ExecEnv) -> u64 {
    Verifier::default().verify(prog, maps).expect("verify");
    Vm::new()
        .execute(prog, ctx, maps, env)
        .expect("execute")
        .ret
}

// --- ALU semantics ---

#[test]
fn alu64_arithmetic_matrix() {
    let cases: Vec<(u8, u64, i32, u64)> = vec![
        (OP_ADD, 7, 3, 10),
        (OP_SUB, 7, 3, 4),
        (OP_MUL, 7, 3, 21),
        (OP_DIV, 7, 3, 2),
        (OP_MOD, 7, 3, 1),
        (OP_LSH, 1, 12, 4096),
        (OP_RSH, 4096, 12, 1),
        (OP_XOR, 0b1100, 0b1010, 0b0110),
    ];
    for (op, a, b, expected) in cases {
        let prog = Asm::new("alu")
            .ld_dw(R0, a)
            .insn(Insn::alu64_imm(op, R0, b))
            .exit()
            .assemble()
            .unwrap();
        let got = run(&prog, &[], &mut MapRegistry::new());
        assert_eq!(got, expected, "op {op:#x} on {a}, {b}");
    }
}

#[test]
fn div_and_mod_by_zero_register_follow_kernel_semantics() {
    // DIV by zero register yields 0; MOD by zero leaves dst unchanged.
    let prog = Asm::new("divzero")
        .mov64_imm(R0, 42)
        .mov64_imm(R2, 0)
        .insn(Insn::alu64_reg(OP_DIV, R0, R2))
        .exit()
        .assemble()
        .unwrap();
    assert_eq!(run(&prog, &[], &mut MapRegistry::new()), 0);

    let prog = Asm::new("modzero")
        .mov64_imm(R0, 42)
        .mov64_imm(R2, 0)
        .insn(Insn::alu64_reg(OP_MOD, R0, R2))
        .exit()
        .assemble()
        .unwrap();
    assert_eq!(run(&prog, &[], &mut MapRegistry::new()), 42);
}

#[test]
fn div_and_mod_by_zero_register_32bit_follow_kernel_semantics() {
    // 32-bit DIV by a zero register yields 0.
    let prog = Asm::new("divzero32")
        .mov64_imm(R0, 42)
        .mov64_imm(R2, 0)
        .insn(Insn::alu32_reg(OP_DIV, R0, R2))
        .exit()
        .assemble()
        .unwrap();
    assert_eq!(run(&prog, &[], &mut MapRegistry::new()), 0);

    // 32-bit MOD by zero keeps the destination, but truncated and
    // zero-extended like every ALU32 result.
    let prog = Asm::new("modzero32")
        .ld_dw(R0, 0xFFFF_FFFF_0000_002A)
        .mov64_imm(R2, 0)
        .insn(Insn::alu32_reg(OP_MOD, R0, R2))
        .exit()
        .assemble()
        .unwrap();
    assert_eq!(run(&prog, &[], &mut MapRegistry::new()), 0x2A);
}

#[test]
fn runtime_zero_divisor_from_context_is_safe() {
    // The verifier cannot prove this ctx-loaded divisor nonzero, and must
    // not need to: scalar/scalar division is always safe at runtime.
    let prog = Asm::new("ctxdiv")
        .mov64_imm(R0, 100)
        .load(SZ_DW, R2, R1, 0)
        .insn(Insn::alu64_reg(OP_DIV, R0, R2))
        .exit()
        .assemble()
        .unwrap();
    // ctx word 0 == 0: BPF defines the quotient as 0.
    assert_eq!(run(&prog, &[0u8; 16], &mut MapRegistry::new()), 0);
    // ctx word 0 == 5: ordinary division.
    let mut ctx = [0u8; 16];
    ctx[0] = 5;
    assert_eq!(run(&prog, &ctx, &mut MapRegistry::new()), 20);
}

#[test]
fn arsh_is_sign_preserving() {
    let prog = Asm::new("arsh")
        .mov64_imm(R0, -16)
        .insn(Insn::alu64_imm(OP_ARSH, R0, 2))
        .exit()
        .assemble()
        .unwrap();
    assert_eq!(run(&prog, &[], &mut MapRegistry::new()) as i64, -4);
}

#[test]
fn alu32_truncates_to_32_bits() {
    let prog = Asm::new("alu32")
        .ld_dw(R0, 0xFFFF_FFFF_0000_0001)
        .mov64_reg(R2, R0)
        .mov64_imm(R0, 0)
        .insn(Insn::alu32_reg(kscope_ebpf::insn::OP_MOV, R0, R2))
        .insn(Insn::alu32_imm(OP_ADD, R0, 1))
        .exit()
        .assemble()
        .unwrap();
    assert_eq!(run(&prog, &[], &mut MapRegistry::new()), 2);
}

// --- memory semantics ---

#[test]
fn stack_store_load_all_sizes() {
    for (sz, imm, mask) in [
        (SZ_B, 0x5A, 0xFFu64),
        (SZ_H, 0x1234, 0xFFFF),
        (SZ_W, 0x1234_5678, 0xFFFF_FFFF),
    ] {
        let prog = Asm::new("stack")
            .mov64_imm(R2, imm)
            .store_reg(sz, R10, R2, -8)
            // Initialize the rest of the 8-byte slot so the full load below
            // is reading defined bytes.
            .store_imm(SZ_W, R10, -4, 0)
            .load(sz, R0, R10, -8)
            .exit()
            .assemble()
            .unwrap();
        let got = run(&prog, &[], &mut MapRegistry::new());
        assert_eq!(got, imm as u64 & mask, "size {sz:#x}");
    }
}

#[test]
fn ctx_reads_work_and_writes_are_rejected() {
    let mut ctx = [0u8; 16];
    ctx[8..16].copy_from_slice(&777u64.to_le_bytes());
    let prog = Asm::new("ctxread")
        .load(SZ_DW, R0, R1, 8)
        .exit()
        .assemble()
        .unwrap();
    assert_eq!(run(&prog, &ctx, &mut MapRegistry::new()), 777);

    let bad = Asm::new("ctxwrite")
        .mov64_imm(R0, 0)
        .store_imm(SZ_DW, R1, 0, 1)
        .exit()
        .assemble()
        .unwrap();
    let err = Verifier::default()
        .verify(&bad, &MapRegistry::new())
        .unwrap_err();
    assert!(matches!(err, VerifyError::WriteToCtx { .. }), "{err}");
}

#[test]
fn spilled_pointer_round_trips_through_stack() {
    // Spill the ctx pointer, fill it back, and load through it.
    let ctx = 99u64.to_le_bytes();
    let prog = Asm::new("spill")
        .store_reg(SZ_DW, R10, R1, -8)
        .load(SZ_DW, R6, R10, -8)
        .load(SZ_DW, R0, R6, 0)
        .exit()
        .assemble()
        .unwrap();
    assert_eq!(run(&prog, &ctx, &mut MapRegistry::new()), 99);
}

// --- verifier rejection table ---

fn verify_err(prog: Program, maps: &MapRegistry) -> VerifyError {
    Verifier::default().verify(&prog, maps).unwrap_err()
}

#[test]
fn rejects_empty_program() {
    let maps = MapRegistry::new();
    assert_eq!(
        verify_err(Program::new("empty", vec![]), &maps),
        VerifyError::Empty
    );
}

#[test]
fn rejects_uninitialized_register_read() {
    let maps = MapRegistry::new();
    let prog = Asm::new("uninit")
        .mov64_reg(R0, R7)
        .exit()
        .assemble()
        .unwrap();
    assert!(matches!(
        verify_err(prog, &maps),
        VerifyError::UninitRead { reg: 7, .. }
    ));
}

#[test]
fn rejects_back_edges() {
    let maps = MapRegistry::new();
    let prog = Asm::new("loop")
        .label("top")
        .mov64_imm(R0, 0)
        .ja("top")
        .assemble()
        .unwrap();
    assert!(matches!(
        verify_err(prog, &maps),
        VerifyError::BackEdge { .. }
    ));
}

/// An unverified slot naming r11–r15 faults on every VM, and the
/// verifier rejects it by the same rule; a torn `ld_dw` is malformed
/// first.
#[test]
fn unverified_bad_registers_fault_instead_of_panicking() {
    let maps = MapRegistry::new();
    let with_src = |src, insn| Insn { src, ..insn };
    let cases = [
        (
            vec![Insn::mov64_imm(12, 1), Insn::mov64_imm(R0, 0), Insn::exit()],
            ExecError::BadRegister { pc: 0, reg: 12 },
        ),
        (
            vec![Insn::mov64_imm(R0, 0), with_src(15, Insn::exit())],
            ExecError::BadRegister { pc: 1, reg: 15 },
        ),
        (
            vec![Insn::ld_dw_lo(11, 1), Insn::exit()],
            ExecError::MalformedLdDw { pc: 0 },
        ),
    ];
    for (insns, fault) in cases {
        let prog = Program::new("bad-reg", insns);
        for mut vm in [Vm::new(), Vm::new().with_jit()] {
            let mut maps = maps.clone();
            let got = vm.execute(&prog, &[], &mut maps, &mut ExecEnv::default());
            assert_eq!(got, Err(fault.clone()), "{}", prog.disassemble());
        }
        let rejected = verify_err(prog, &maps);
        match fault {
            ExecError::BadRegister { pc, reg } => {
                assert_eq!(rejected, VerifyError::BadRegister { pc, reg })
            }
            _ => assert_eq!(rejected, VerifyError::MalformedLdDw { pc: 0 }),
        }
    }
}

#[test]
fn rejects_fall_off_end() {
    let maps = MapRegistry::new();
    let prog = Program::new("fall", vec![Insn::mov64_imm(R0, 1)]);
    assert!(matches!(
        verify_err(prog, &maps),
        VerifyError::FallOffEnd { .. }
    ));
}

#[test]
fn rejects_stack_out_of_bounds() {
    let maps = MapRegistry::new();
    for off in [-520i16, 0, 8] {
        let prog = Asm::new("oob")
            .mov64_imm(R0, 0)
            .store_imm(SZ_DW, R10, off, 1)
            .exit()
            .assemble()
            .unwrap();
        assert!(
            matches!(verify_err(prog, &maps), VerifyError::OutOfBounds { .. }),
            "offset {off}"
        );
    }
}

#[test]
fn rejects_uninitialized_stack_read() {
    let maps = MapRegistry::new();
    let prog = Asm::new("uninit-stack")
        .load(SZ_DW, R0, R10, -8)
        .exit()
        .assemble()
        .unwrap();
    assert!(matches!(
        verify_err(prog, &maps),
        VerifyError::UninitStackRead { .. }
    ));
}

#[test]
fn rejects_write_to_frame_pointer() {
    let maps = MapRegistry::new();
    let prog = Asm::new("fp")
        .mov64_imm(R0, 0)
        .insn(Insn::alu64_imm(OP_ADD, R10, 8))
        .exit()
        .assemble()
        .unwrap();
    assert!(matches!(
        verify_err(prog, &maps),
        VerifyError::WriteToFp { .. }
    ));
}

#[test]
fn rejects_ctx_out_of_bounds_read() {
    let maps = MapRegistry::new();
    let prog = Asm::new("ctxoob")
        .load(SZ_DW, R0, R1, 60) // default ctx_size = 64; 60+8 > 64
        .exit()
        .assemble()
        .unwrap();
    assert!(matches!(
        verify_err(prog, &maps),
        VerifyError::OutOfBounds {
            region: "context",
            ..
        }
    ));
}

#[test]
fn rejects_unchecked_map_value_deref() {
    let mut maps = MapRegistry::new();
    let fd = maps.create("m", MapDef::hash(8, 8, 16));
    let prog = Asm::new("nullderef")
        .store_imm(SZ_DW, R10, -8, 1)
        .ld_map_fd(R1, fd)
        .mov64_reg(R2, R10)
        .insn(Insn::alu64_imm(OP_ADD, R2, -8))
        .call(Helper::MapLookupElem)
        .load(SZ_DW, R0, R0, 0) // no null check!
        .exit()
        .assemble()
        .unwrap();
    assert!(matches!(
        verify_err(prog, &maps),
        VerifyError::MaybeNullDeref { .. }
    ));
}

#[test]
fn rejects_division_by_zero_immediate() {
    let maps = MapRegistry::new();
    let prog = Asm::new("div0")
        .mov64_imm(R0, 5)
        .div64_imm(R0, 0)
        .exit()
        .assemble()
        .unwrap();
    assert!(matches!(
        verify_err(prog, &maps),
        VerifyError::DivByZeroImm { .. }
    ));
}

#[test]
fn rejects_unknown_helper() {
    let maps = MapRegistry::new();
    let prog = Asm::new("badcall")
        .insn(Insn::call(9999))
        .exit()
        .assemble()
        .unwrap();
    assert!(matches!(
        verify_err(prog, &maps),
        VerifyError::UnknownHelper { id: 9999, .. }
    ));
}

#[test]
fn rejects_exit_without_r0() {
    let maps = MapRegistry::new();
    let prog = Asm::new("nor0").exit().assemble().unwrap();
    assert!(matches!(
        verify_err(prog, &maps),
        VerifyError::ExitWithoutR0 { .. }
    ));
}

#[test]
fn rejects_helper_arg_without_map_handle() {
    let mut maps = MapRegistry::new();
    let _fd = maps.create("m", MapDef::hash(8, 8, 16));
    let prog = Asm::new("badarg")
        .mov64_imm(R1, 0) // not a map handle
        .mov64_reg(R2, R10)
        .call(Helper::MapLookupElem)
        .exit()
        .assemble()
        .unwrap();
    assert!(matches!(
        verify_err(prog, &maps),
        VerifyError::BadHelperArg { arg: 1, .. }
    ));
}

#[test]
fn rejects_unknown_map_fd() {
    let maps = MapRegistry::new();
    let prog = Asm::new("badfd")
        .ld_map_fd(R1, kscope_ebpf::MapFd(42))
        .mov64_imm(R0, 0)
        .exit()
        .assemble()
        .unwrap();
    assert!(matches!(
        verify_err(prog, &maps),
        VerifyError::BadMapFd { fd: 42, .. }
    ));
}

#[test]
fn rejects_pointer_multiplication() {
    let maps = MapRegistry::new();
    let prog = Asm::new("ptrmul")
        .mov64_reg(R2, R10)
        .insn(Insn::alu64_imm(OP_MUL, R2, 4))
        .mov64_imm(R0, 0)
        .exit()
        .assemble()
        .unwrap();
    assert!(matches!(
        verify_err(prog, &maps),
        VerifyError::PointerArith { .. }
    ));
}

#[test]
fn rejects_oversized_program() {
    let maps = MapRegistry::new();
    let mut insns = vec![Insn::mov64_imm(R0, 0); 5000];
    insns.push(Insn::exit());
    let prog = Program::new("huge", insns);
    assert!(matches!(
        verify_err(prog, &maps),
        VerifyError::TooLarge { .. }
    ));
}

// --- branch refinement and joins ---

#[test]
fn null_check_with_jne_also_verifies() {
    let mut maps = MapRegistry::new();
    let fd = maps.create("m", MapDef::hash(8, 8, 16));
    maps.update(fd, &1u64.to_le_bytes(), &123u64.to_le_bytes())
        .unwrap();
    let prog = Asm::new("jne-null")
        .ld_dw(R2, 1)
        .store_reg(SZ_DW, R10, R2, -8)
        .ld_map_fd(R1, fd)
        .mov64_reg(R2, R10)
        .insn(Insn::alu64_imm(OP_ADD, R2, -8))
        .call(Helper::MapLookupElem)
        .jne_imm(R0, 0, "found")
        .mov64_imm(R0, 0)
        .exit()
        .label("found")
        .load(SZ_DW, R0, R0, 0)
        .exit()
        .assemble()
        .unwrap();
    assert_eq!(run(&prog, &[], &mut maps), 123);
}

#[test]
fn signed_and_set_jumps_execute_correctly() {
    // JSLT taken for -1 < 0; JSET on bit mask.
    let prog = Asm::new("signed")
        .mov64_imm(R2, -1)
        .insn(Insn::jmp_imm(OP_JSLT, R2, 0, 1))
        .ja("no")
        .mov64_imm(R0, 1)
        .exit()
        .label("no")
        .mov64_imm(R0, 0)
        .exit()
        .assemble()
        .unwrap();
    assert_eq!(run(&prog, &[], &mut MapRegistry::new()), 1);

    let prog = Asm::new("jset")
        .mov64_imm(R2, 0b1010)
        .insn(Insn::jmp_imm(OP_JSET, R2, 0b0010, 1))
        .ja("no")
        .mov64_imm(R0, 1)
        .exit()
        .label("no")
        .mov64_imm(R0, 0)
        .exit()
        .assemble()
        .unwrap();
    assert_eq!(run(&prog, &[], &mut MapRegistry::new()), 1);
}

#[test]
fn jge_jsgt_semantics() {
    for (op, a, b, expect) in [
        (OP_JGE, 5i64, 5i32, 1u64),
        (OP_JGE, 4, 5, 0),
        (OP_JSGT, -1, -2, 1),
        (OP_JSGT, -2, -1, 0),
    ] {
        let prog = Asm::new("cmp")
            .mov64_imm(R2, a as i32)
            .insn(Insn::jmp_imm(op, R2, b, 1))
            .ja("no")
            .mov64_imm(R0, 1)
            .exit()
            .label("no")
            .mov64_imm(R0, 0)
            .exit()
            .assemble()
            .unwrap();
        assert_eq!(
            run(&prog, &[], &mut MapRegistry::new()),
            expect,
            "op {op:#x} {a} vs {b}"
        );
    }
}

// --- maps end to end ---

#[test]
fn hash_map_update_and_lookup_via_bytecode() {
    let mut maps = MapRegistry::new();
    let fd = maps.create("counts", MapDef::hash(8, 8, 64));
    // Program: counts[pid_tgid] = ktime; returns 0.
    let prog = Asm::new("store_ts")
        .call(Helper::GetCurrentPidTgid)
        .store_reg(SZ_DW, R10, R0, -8) // key
        .call(Helper::KtimeGetNs)
        .store_reg(SZ_DW, R10, R0, -16) // value
        .ld_map_fd(R1, fd)
        .mov64_reg(R2, R10)
        .insn(Insn::alu64_imm(OP_ADD, R2, -8))
        .mov64_reg(R3, R10)
        .insn(Insn::alu64_imm(OP_ADD, R3, -16))
        .mov64_imm(R4, 0)
        .call(Helper::MapUpdateElem)
        .mov64_imm(R0, 0)
        .exit()
        .assemble()
        .unwrap();
    let mut env = ExecEnv {
        ktime_ns: 5_000,
        pid_tgid: 0xAB_0000_0042,
        ..ExecEnv::default()
    };
    assert_eq!(run_env(&prog, &[], &mut maps, &mut env), 0);
    let stored = maps
        .lookup(fd, &0xAB_0000_0042u64.to_le_bytes())
        .unwrap()
        .unwrap();
    assert_eq!(u64::from_le_bytes(stored.try_into().unwrap()), 5_000);
}

#[test]
fn listing1_style_duration_program() {
    // The paper's Listing 1: at sys_enter store the timestamp; at sys_exit
    // compute the duration. Context layout: [syscall_id: u64][0: u64].
    let mut maps = MapRegistry::new();
    let start = maps.create("start", MapDef::hash(8, 8, 1024));
    let out = maps.create("durations", MapDef::array(8, 1));
    const TARGET_PID_TGID: u64 = 1200 << 32 | 1201;

    let enter = Asm::new("sys_enter")
        .mov64_reg(R9, R1) // save ctx before calls clobber r1-r5
        .call(Helper::GetCurrentPidTgid)
        .mov64_reg(R6, R0)
        .ld_dw(R2, TARGET_PID_TGID)
        .jeq_reg(R6, R2, "matched")
        .mov64_imm(R0, 0)
        .exit()
        .label("matched")
        .load(SZ_DW, R7, R9, 0) // args->id
        .jeq_imm(R7, 232, "is_epoll")
        .mov64_imm(R0, 0)
        .exit()
        .label("is_epoll")
        .store_reg(SZ_DW, R10, R6, -8) // key = pid_tgid
        .call(Helper::KtimeGetNs)
        .store_reg(SZ_DW, R10, R0, -16) // value = now
        .ld_map_fd(R1, start)
        .mov64_reg(R2, R10)
        .insn(Insn::alu64_imm(OP_ADD, R2, -8))
        .mov64_reg(R3, R10)
        .insn(Insn::alu64_imm(OP_ADD, R3, -16))
        .mov64_imm(R4, 0)
        .call(Helper::MapUpdateElem)
        .mov64_imm(R0, 0)
        .exit()
        .assemble()
        .unwrap();

    let exit = Asm::new("sys_exit")
        .mov64_reg(R9, R1) // save ctx before calls clobber r1-r5
        .call(Helper::GetCurrentPidTgid)
        .mov64_reg(R6, R0)
        .ld_dw(R2, TARGET_PID_TGID)
        .jeq_reg(R6, R2, "matched")
        .mov64_imm(R0, 0)
        .exit()
        .label("matched")
        .load(SZ_DW, R7, R9, 0)
        .jeq_imm(R7, 232, "is_epoll")
        .mov64_imm(R0, 0)
        .exit()
        .label("is_epoll")
        .store_reg(SZ_DW, R10, R6, -8)
        .ld_map_fd(R1, start)
        .mov64_reg(R2, R10)
        .insn(Insn::alu64_imm(OP_ADD, R2, -8))
        .call(Helper::MapLookupElem)
        .jne_imm(R0, 0, "have_start")
        .mov64_imm(R0, 0)
        .exit()
        .label("have_start")
        .load(SZ_DW, R7, R0, 0) // start_ns
        .call(Helper::KtimeGetNs)
        .sub64_reg(R0, R7) // duration
        .store_reg(SZ_DW, R10, R0, -16)
        .store_imm(SZ_W, R10, -24, 0) // out slot key = 0
        .store_imm(SZ_W, R10, -20, 0)
        .ld_map_fd(R1, out)
        .mov64_reg(R2, R10)
        .insn(Insn::alu64_imm(OP_ADD, R2, -24))
        .mov64_reg(R3, R10)
        .insn(Insn::alu64_imm(OP_ADD, R3, -16))
        .mov64_imm(R4, 0)
        .call(Helper::MapUpdateElem)
        .mov64_imm(R0, 0)
        .exit()
        .assemble()
        .unwrap();

    let verifier = Verifier::default();
    verifier.verify(&enter, &maps).expect("enter verifies");
    verifier.verify(&exit, &maps).expect("exit verifies");

    let mut vm = Vm::new();
    let ctx_epoll = {
        let mut buf = [0u8; 16];
        buf[..8].copy_from_slice(&232u64.to_le_bytes());
        buf
    };
    let ctx_other = {
        let mut buf = [0u8; 16];
        buf[..8].copy_from_slice(&1u64.to_le_bytes());
        buf
    };

    // Wrong pid: ignored.
    let mut env = ExecEnv {
        ktime_ns: 100,
        pid_tgid: 999,
        ..ExecEnv::default()
    };
    vm.execute(&enter, &ctx_epoll, &mut maps, &mut env).unwrap();
    assert_eq!(maps.len(start).unwrap(), 0);

    // Right pid, wrong syscall: ignored.
    let mut env = ExecEnv {
        ktime_ns: 100,
        pid_tgid: TARGET_PID_TGID,
        ..ExecEnv::default()
    };
    vm.execute(&enter, &ctx_other, &mut maps, &mut env).unwrap();
    assert_eq!(maps.len(start).unwrap(), 0);

    // Enter at t=1000, exit at t=1250: duration 250.
    env.ktime_ns = 1_000;
    vm.execute(&enter, &ctx_epoll, &mut maps, &mut env).unwrap();
    assert_eq!(maps.len(start).unwrap(), 1);
    env.ktime_ns = 1_250;
    vm.execute(&exit, &ctx_epoll, &mut maps, &mut env).unwrap();
    assert_eq!(maps.array_u64(out, 0).unwrap(), 250);
}

#[test]
fn ringbuf_output_from_bytecode() {
    let mut maps = MapRegistry::new();
    let rb = maps.create("events", MapDef::ring_buf(16, 8));
    let prog = Asm::new("emit")
        .call(Helper::KtimeGetNs)
        .store_reg(SZ_DW, R10, R0, -8)
        .ld_map_fd(R1, rb)
        .mov64_reg(R2, R10)
        .insn(Insn::alu64_imm(OP_ADD, R2, -8))
        .mov64_imm(R3, 8)
        .mov64_imm(R4, 0)
        .call(Helper::RingbufOutput)
        .exit()
        .assemble()
        .unwrap();
    let mut env = ExecEnv {
        ktime_ns: 4242,
        ..ExecEnv::default()
    };
    assert_eq!(run_env(&prog, &[], &mut maps, &mut env), 0);
    let mut records = Vec::new();
    maps.ring_consume(rb, |r| records.push(r.to_vec())).unwrap();
    assert_eq!(records.len(), 1);
    assert_eq!(
        u64::from_le_bytes(records[0][..8].try_into().unwrap()),
        4242
    );
}

#[test]
fn trace_printk_collects_output() {
    let prog = Asm::new("printk")
        .store_imm(SZ_B, R10, -4, b'k' as i32)
        .store_imm(SZ_B, R10, -3, b's' as i32)
        .store_imm(SZ_B, R10, -2, b'c' as i32)
        .store_imm(SZ_B, R10, -1, 0)
        .mov64_reg(R1, R10)
        .insn(Insn::alu64_imm(OP_ADD, R1, -4))
        .mov64_imm(R2, 4)
        .call(Helper::TracePrintk)
        .exit()
        .assemble()
        .unwrap();
    let mut maps = MapRegistry::new();
    Verifier::default().verify(&prog, &maps).unwrap();
    let out = Vm::new()
        .execute(&prog, &[], &mut maps, &mut ExecEnv::default())
        .unwrap();
    assert_eq!(out.trace_output.len(), 1);
    assert_eq!(&out.trace_output[0], b"ksc\0");
}

#[test]
fn prandom_advances_state() {
    let prog = Asm::new("rand")
        .call(Helper::GetPrandomU32)
        .exit()
        .assemble()
        .unwrap();
    let mut maps = MapRegistry::new();
    let mut env = ExecEnv::default();
    let a = run_env(&prog, &[], &mut maps, &mut env);
    let b = run_env(&prog, &[], &mut maps, &mut env);
    assert_ne!(a, b);
    assert!(a <= u32::MAX as u64);
}

#[test]
fn insn_budget_stops_runaway_unverified_program() {
    // An infinite loop cannot pass the verifier, but the interpreter must
    // still defend against unverified programs.
    let prog = Program::new("spin", vec![Insn::mov64_imm(R0, 0), Insn::ja(-2)]);
    let err = Vm::with_insn_budget(1_000)
        .execute(&prog, &[], &mut MapRegistry::new(), &mut ExecEnv::default())
        .unwrap_err();
    assert!(matches!(
        err,
        kscope_ebpf::ExecError::BudgetExhausted { budget: 1_000 }
    ));
}

#[test]
fn caller_saved_registers_are_clobbered_by_calls() {
    // Reading r3 after a call must be flagged by the verifier.
    let maps = MapRegistry::new();
    let prog = Asm::new("clobber")
        .mov64_imm(R3, 7)
        .call(Helper::KtimeGetNs)
        .mov64_reg(R0, R3)
        .exit()
        .assemble()
        .unwrap();
    assert!(matches!(
        Verifier::default().verify(&prog, &maps).unwrap_err(),
        VerifyError::UninitRead { reg: 3, .. }
    ));
}

#[test]
fn callee_saved_registers_survive_calls() {
    let prog = Asm::new("callee")
        .mov64_imm(R6, 7)
        .call(Helper::KtimeGetNs)
        .mov64_reg(R0, R6)
        .exit()
        .assemble()
        .unwrap();
    assert_eq!(run(&prog, &[], &mut MapRegistry::new()), 7);
}

#[test]
fn disassembly_of_a_real_program_mentions_all_parts() {
    let mut maps = MapRegistry::new();
    let fd = maps.create("m", MapDef::hash(8, 8, 4));
    let prog = Asm::new("demo")
        .ld_map_fd(R1, fd)
        .mov64_imm(R0, 0)
        .exit()
        .assemble()
        .unwrap();
    let dis = prog.disassemble();
    assert!(dis.contains("ld_map_fd"));
    assert!(dis.contains("exit"));
    assert!(dis.contains("demo"));
}

#[test]
fn join_of_divergent_paths_is_conservative() {
    // r6 is a pointer on one path and a scalar on the other; using it as a
    // pointer after the join must be rejected. The branch condition comes
    // from the context so the value-tracking verifier can't decide it and
    // both paths stay live.
    let maps = MapRegistry::new();
    let prog = Asm::new("join")
        .load(SZ_DW, R0, R1, 0)
        .jeq_imm(R0, 0, "path_a")
        .mov64_imm(R6, 5)
        .ja("merge")
        .label("path_a")
        .mov64_reg(R6, R10)
        .label("merge")
        .load(SZ_DW, R0, R6, -8)
        .exit()
        .assemble()
        .unwrap();
    let err = Verifier::default().verify(&prog, &maps).unwrap_err();
    assert!(
        matches!(
            err,
            VerifyError::UninitRead { reg: 6, .. } | VerifyError::PointerArith { .. }
        ),
        "{err}"
    );
}

#[test]
fn both_branches_initializing_a_register_is_accepted() {
    let prog = Asm::new("join-ok")
        .mov64_imm(R0, 1)
        .jeq_imm(R0, 1, "one")
        .mov64_imm(R6, 10)
        .ja("merge")
        .label("one")
        .mov64_imm(R6, 20)
        .label("merge")
        .mov64_reg(R0, R6)
        .exit()
        .assemble()
        .unwrap();
    assert_eq!(run(&prog, &[], &mut MapRegistry::new()), 20);
}

#[test]
fn load_h_and_b_from_ctx() {
    let mut ctx = [0u8; 8];
    ctx[0] = 0xAA;
    ctx[1] = 0xBB;
    let prog = Asm::new("small-loads")
        .load(SZ_H, R0, R1, 0)
        .exit()
        .assemble()
        .unwrap();
    assert_eq!(run(&prog, &ctx, &mut MapRegistry::new()), 0xBBAA);
    let prog = Asm::new("byte-load")
        .load(SZ_B, R0, R1, 1)
        .exit()
        .assemble()
        .unwrap();
    assert_eq!(run(&prog, &ctx, &mut MapRegistry::new()), 0xBB);
}

#[test]
fn jmp32_compares_lower_halves_only() {
    // r2 = 0xFFFF_FFFF_0000_0005; jeq32 against 5 must take the branch.
    let prog = Asm::new("jmp32")
        .ld_dw(R2, 0xFFFF_FFFF_0000_0005)
        .insn(Insn::jmp32_imm(kscope_ebpf::insn::OP_JEQ, R2, 5, 1))
        .ja("no")
        .mov64_imm(R0, 1)
        .exit()
        .label("no")
        .mov64_imm(R0, 0)
        .exit()
        .assemble()
        .unwrap();
    assert_eq!(run(&prog, &[], &mut MapRegistry::new()), 1);

    // 64-bit jeq on the same value must NOT take the branch.
    let prog = Asm::new("jmp64")
        .ld_dw(R2, 0xFFFF_FFFF_0000_0005)
        .jeq_imm(R2, 5, "yes")
        .mov64_imm(R0, 0)
        .exit()
        .label("yes")
        .mov64_imm(R0, 1)
        .exit()
        .assemble()
        .unwrap();
    assert_eq!(run(&prog, &[], &mut MapRegistry::new()), 0);
}

#[test]
fn jmp32_signed_comparison_sign_extends_from_32_bits() {
    // Lower half 0xFFFF_FFFF is -1 in 32-bit terms: jslt32 vs 0 taken.
    let prog = Asm::new("jslt32")
        .ld_dw(R2, 0x0000_0001_FFFF_FFFF)
        .insn(Insn::jmp32_imm(kscope_ebpf::insn::OP_JSLT, R2, 0, 1))
        .ja("no")
        .mov64_imm(R0, 1)
        .exit()
        .label("no")
        .mov64_imm(R0, 0)
        .exit()
        .assemble()
        .unwrap();
    assert_eq!(run(&prog, &[], &mut MapRegistry::new()), 1);
}

#[test]
fn text_assembler_supports_jmp32_mnemonics() {
    let prog = kscope_ebpf::text::parse_program(
        "t",
        r"
        ld_dw r2, 0xFFFFFFFF00000007
        jeq32 r2, 7, hit
        mov   r0, 0
        exit
    hit:
        mov   r0, 1
        exit
    ",
    )
    .unwrap();
    assert_eq!(run(&prog, &[], &mut MapRegistry::new()), 1);
}

#[test]
fn verifier_rejects_jmp32_on_pointers() {
    let maps = MapRegistry::new();
    let prog = Asm::new("ptr32")
        .mov64_reg(R2, R10)
        .insn(Insn::jmp32_imm(kscope_ebpf::insn::OP_JEQ, R2, 0, 1))
        .mov64_imm(R0, 0)
        .exit()
        .assemble()
        .unwrap();
    assert!(matches!(
        Verifier::default().verify(&prog, &maps).unwrap_err(),
        VerifyError::PointerArith { .. }
    ));
}

#[test]
fn verifier_survives_extreme_pointer_arithmetic() {
    // `sub r3, r2` with r2 = i64::MIN as u64 used to panic the verifier in
    // debug builds (negation overflow); it must reject or accept cleanly.
    let maps = MapRegistry::new();
    let prog = Asm::new("extreme")
        .ld_dw(R2, 0x8000_0000_0000_0000)
        .mov64_reg(R3, R10)
        .sub64_reg(R3, R2)
        .mov64_imm(R0, 0)
        .exit()
        .assemble()
        .unwrap();
    let _ = Verifier::default().verify(&prog, &maps); // must not panic

    // Repeated huge adds must saturate, not overflow-panic.
    let prog = Asm::new("saturate")
        .ld_dw(R2, 1 << 62)
        .mov64_reg(R3, R10)
        .add64_reg(R3, R2)
        .add64_reg(R3, R2)
        .add64_reg(R3, R2)
        .mov64_imm(R0, 0)
        .exit()
        .assemble()
        .unwrap();
    let _ = Verifier::default().verify(&prog, &maps); // must not panic
}

#[test]
#[should_panic(expected = "limited to 1 MiB")]
fn oversized_map_values_are_rejected_at_creation() {
    let mut maps = MapRegistry::new();
    maps.create("huge", MapDef::array((1 << 20) + 1, 1));
}
