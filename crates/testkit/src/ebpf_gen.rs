//! Program generators and a reference evaluator for differential
//! fuzzing of the eBPF stack.
//!
//! Three generator tiers, in increasing order of validity:
//!
//! * [`arb_insn`] — arbitrary (usually malformed) instruction words. The
//!   verifier must never panic on them, and anything it accepts must run
//!   clean in the interpreter.
//! * [`fuzz_program`] — an `arb_insn` body wrapped so `exit` is
//!   reachable-legal (`r0` seeded, trailing `exit`).
//! * [`valid_program`] / [`straightline_program`] — programs authored
//!   through [`kscope_ebpf::asm::Asm`] that the verifier accepts with
//!   high probability, used for interpreter/text-format differentials;
//!   [`bounded_offset_program`] and [`map_churn_program`] add register
//!   offsets and map-value pointers held across map updates and deletes,
//!   and [`hash_write_ops`] / [`hash_write_program`] drive colliding
//!   hash writes through every case of the JIT's inline write paths.
//!
//! [`reference_eval`] is an independent straight-line evaluator written
//! directly from the eBPF instruction-set semantics (wrapping arithmetic,
//! division by zero yields zero, modulo by zero leaves the destination,
//! shift counts masked to the operand width). It deliberately shares no
//! code with `kscope_ebpf::interp`, so agreement between the two is
//! evidence rather than tautology.

use kscope_ebpf::asm::Asm;
use kscope_ebpf::insn::{
    Insn, Reg, CLS_ALU, CLS_ALU64, CLS_JMP, CLS_JMP32, CLS_LD, CLS_LDX, CLS_ST, CLS_STX, MODE_IMM,
    MODE_MEM, OP_ADD, OP_AND, OP_ARSH, OP_DIV, OP_EXIT, OP_JA, OP_JEQ, OP_JGE, OP_JGT, OP_JLE,
    OP_JLT, OP_JNE, OP_JSET, OP_JSGE, OP_JSGT, OP_JSLE, OP_JSLT, OP_LSH, OP_MOD, OP_MOV, OP_MUL,
    OP_NEG, OP_OR, OP_RSH, OP_SUB, OP_XOR, SRC_K, SRC_X, SZ_B, SZ_DW, SZ_H, SZ_W,
};
use kscope_ebpf::maps::MapFd;
use kscope_ebpf::Helper;
use kscope_ebpf::Program;
use kscope_simcore::SimRng;

use crate::gen;
use crate::shrink::Shrink;

/// All ALU operation codes.
pub const ALU_OPS: [u8; 13] = [
    OP_ADD, OP_SUB, OP_MUL, OP_DIV, OP_OR, OP_AND, OP_LSH, OP_RSH, OP_NEG, OP_MOD, OP_XOR, OP_MOV,
    OP_ARSH,
];

/// All conditional jump operation codes.
pub const JMP_OPS: [u8; 11] = [
    OP_JEQ, OP_JGT, OP_JGE, OP_JSET, OP_JNE, OP_JSGT, OP_JSGE, OP_JLT, OP_JLE, OP_JSLT, OP_JSLE,
];

/// All load/store size codes.
pub const SIZES: [u8; 4] = [SZ_B, SZ_H, SZ_W, SZ_DW];

/// A random ALU operation code.
pub fn arb_alu_op(rng: &mut SimRng) -> u8 {
    gen::pick(rng, &ALU_OPS)
}

/// A random conditional jump operation code.
pub fn arb_jmp_op(rng: &mut SimRng) -> u8 {
    gen::pick(rng, &JMP_OPS)
}

/// A random load/store size code.
pub fn arb_size(rng: &mut SimRng) -> u8 {
    gen::pick(rng, &SIZES)
}

/// A random (usually invalid) instruction.
///
/// Port of the workspace's original proptest strategy: a class selector
/// steers toward ALU, jump, and memory encodings with plausible register
/// numbers and small offsets/immediates, which exercises the verifier's
/// rejection paths far more densely than uniform 64-bit words would.
pub fn arb_insn(rng: &mut SimRng) -> Insn {
    let class = gen::u64_in(rng, 0, 7) as u8;
    let dst = gen::u64_in(rng, 0, 10) as u8;
    let src = gen::u64_in(rng, 0, 10) as u8;
    let off = gen::i64_in(rng, -16, 15) as i16;
    let imm = gen::i32_in(rng, -1000, 999);
    let alu = arb_alu_op(rng);
    let jmp = arb_jmp_op(rng);
    let size = arb_size(rng);
    let use_reg = gen::bool_any(rng);
    let srcbit = if use_reg { SRC_X } else { SRC_K };
    let code = match class {
        0 | 1 => CLS_ALU64 | alu | srcbit,
        2 => CLS_ALU | alu | srcbit,
        3 => {
            if use_reg {
                CLS_JMP32 | jmp | srcbit
            } else {
                CLS_JMP | jmp | srcbit
            }
        }
        4 => CLS_JMP | OP_JA,
        5 => CLS_LDX | size | MODE_MEM,
        6 => CLS_STX | size | MODE_MEM,
        _ => CLS_ST | size | MODE_MEM,
    };
    Insn {
        code,
        dst,
        src,
        off,
        imm,
    }
}

/// A random program with a legal prologue/epilogue: `r0` is seeded so
/// `exit` is reachable-legal, the body is `0..=max_body` [`arb_insn`]
/// words, and a final `exit` closes every fall-through path.
pub fn fuzz_program(rng: &mut SimRng, max_body: usize) -> Program {
    let mut insns = vec![Insn::mov64_imm(0, 7)];
    insns.extend(gen::vec_of(rng, 0, max_body, arb_insn));
    insns.push(Insn::exit());
    Program::new("fuzz", insns)
}

/// Registers the structured generators mutate: `r0` plus callee-saved.
const WORK_REGS: [Reg; 4] = [0, 6, 7, 8];

/// ALU ops safe for structured generation (no div/mod, whose by-zero
/// immediates the verifier rejects; shifts handled separately).
const SAFE_ALU: [u8; 7] = [OP_ADD, OP_SUB, OP_MUL, OP_OR, OP_AND, OP_XOR, OP_MOV];

fn arb_work_reg(rng: &mut SimRng) -> Reg {
    gen::pick(rng, &WORK_REGS)
}

/// A random branch-free program the verifier accepts by construction:
/// every work register is initialized with `mov`, the body is ALU
/// immediate/register traffic plus 64-bit immediate loads, and the
/// program ends with `exit`. Exactly the fragment [`reference_eval`]
/// understands.
pub fn straightline_program(rng: &mut SimRng) -> Program {
    let mut insns = Vec::new();
    for &reg in &WORK_REGS {
        insns.push(Insn::mov64_imm(reg, gen::i32_in(rng, -1000, 1000)));
    }
    let body_len = gen::usize_in(rng, 0, 12);
    for _ in 0..body_len {
        let dst = arb_work_reg(rng);
        let insn = match gen::u64_in(rng, 0, 5) {
            0 => Insn::alu64_imm(arb_safe_alu(rng), dst, gen::i32_in(rng, -1000, 1000)),
            1 => Insn::alu64_reg(arb_safe_alu(rng), dst, arb_work_reg(rng)),
            2 => Insn::alu32_imm(arb_safe_alu(rng), dst, gen::i32_in(rng, -1000, 1000)),
            3 => Insn::alu32_reg(arb_safe_alu(rng), dst, arb_work_reg(rng)),
            4 => {
                // Shifts with in-range immediates; arsh/neg ride along.
                match gen::u64_in(rng, 0, 3) {
                    0 => Insn::alu64_imm(OP_LSH, dst, gen::i32_in(rng, 0, 63)),
                    1 => Insn::alu64_imm(OP_RSH, dst, gen::i32_in(rng, 0, 63)),
                    2 => Insn::alu64_imm(OP_ARSH, dst, gen::i32_in(rng, 0, 63)),
                    _ => Insn::alu64_imm(OP_NEG, dst, 0),
                }
            }
            _ => {
                let value = rng.next_u64();
                insns.push(Insn::ld_dw_lo(dst, value));
                Insn::ld_dw_hi(value)
            }
        };
        insns.push(insn);
    }
    insns.push(Insn::mov64_reg(0, arb_work_reg(rng)));
    insns.push(Insn::exit());
    Program::new("straightline", insns)
}

fn arb_safe_alu(rng: &mut SimRng) -> u8 {
    gen::pick(rng, &SAFE_ALU)
}

/// A random structured program authored through [`Asm`], optionally with
/// forward branches and stack traffic, that the verifier accepts by
/// construction. Used to drive the interpreter through its verified
/// paths (memory, branching, text round-trip) rather than only its
/// rejection paths.
pub fn valid_program(rng: &mut SimRng, allow_branches: bool) -> Program {
    let mut asm = Asm::new("valid");
    for &reg in &WORK_REGS {
        asm = asm.mov64_imm(reg, gen::i32_in(rng, -100, 100));
    }
    let body_len = gen::usize_in(rng, 0, 10);
    let mut branched = false;
    for _ in 0..body_len {
        let dst = arb_work_reg(rng);
        match gen::u64_in(rng, 0, 6) {
            0 => {
                asm = asm.insn(Insn::alu64_imm(
                    arb_safe_alu(rng),
                    dst,
                    gen::i32_in(rng, -100, 100),
                ))
            }
            1 => asm = asm.insn(Insn::alu64_reg(arb_safe_alu(rng), dst, arb_work_reg(rng))),
            2 => {
                // Non-zero immediate division is verifier-legal.
                asm = asm.insn(Insn::alu64_imm(
                    gen::pick(rng, &[OP_DIV, OP_MOD]),
                    dst,
                    gen::i32_in(rng, 1, 100),
                ));
            }
            3 => {
                // Store a known register to an aligned stack slot, then
                // load it back so the read is always of initialized bytes.
                let slot = gen::i64_in(rng, 1, 8) as i16 * -8;
                asm = asm
                    .store_reg(SZ_DW, 10, arb_work_reg(rng), slot)
                    .load(SZ_DW, dst, 10, slot);
            }
            4 => asm = asm.ld_dw(dst, rng.next_u64()),
            5 if allow_branches && !branched => {
                // One forward branch to the shared epilogue; r0 is
                // already initialized, so the short path is legal.
                branched = true;
                asm = asm.jmp_imm(
                    arb_jmp_op(rng),
                    arb_work_reg(rng),
                    gen::i32_in(rng, -100, 100),
                    "end",
                );
            }
            _ => {
                asm = asm.insn(Insn::alu32_imm(
                    arb_safe_alu(rng),
                    dst,
                    gen::i32_in(rng, -100, 100),
                ))
            }
        }
    }
    let asm = asm.label("end").exit();
    match asm.assemble() {
        Ok(prog) => prog,
        Err(e) => unreachable!("structured generator emitted an unassemblable program: {e}"),
    }
}

/// A random program whose memory accesses go through *register* offsets
/// that are clamped into bounds before use — the access pattern the
/// value-tracking verifier admits and the old type-only rules rejected
/// as `PointerArith`.
///
/// Each program draws unknown scalars from the 64-byte context, clamps
/// them with one of four idioms (AND mask, unsigned `jgt` guard, `jset`
/// bit guard, signed compare pair), and uses the result as a
/// register offset into the stack or — when `map_fd` is given — a
/// 128-byte map value behind a null-checked `map_lookup_elem`.
/// Accepted programs must run clean in the interpreter on any context;
/// the clamp is genuine, not cosmetic.
pub fn bounded_offset_program(rng: &mut SimRng, map_fd: Option<MapFd>) -> Program {
    let mut asm = Asm::new("bounded").mov64_reg(9, 1); // ctx survives helper calls in r9
    for &reg in &WORK_REGS {
        asm = asm.mov64_imm(reg, gen::i32_in(rng, -100, 100));
    }
    let sections = gen::usize_in(rng, 1, 3);
    for i in 0..sections {
        // An unknown scalar the verifier cannot constant-fold.
        let ctx_off = gen::i64_in(rng, 0, 6) as i16 * 8;
        asm = asm.load(SZ_DW, 6, 9, ctx_off);
        let kind_max = if map_fd.is_some() { 4 } else { 3 };
        match gen::u64_in(rng, 0, kind_max) {
            0 => {
                // AND-mask clamp: r6 in [0, mask], shifted to an aligned
                // byte offset, then a doubleword store through r10.
                let slots = gen::pick(rng, &[2u64, 4, 8, 16]);
                let mask = slots as i32 - 1;
                let base = -8 * slots as i32;
                asm = asm
                    .and64_imm(6, mask)
                    .lsh64_imm(6, 3)
                    .mov64_reg(7, 10)
                    .add64_imm(7, base)
                    .add64_reg(7, 6)
                    .store_reg(SZ_DW, 7, 8, 0);
            }
            1 => {
                // Unsigned-guard clamp: skip the access unless r6 <= 56,
                // then a byte-sized store at a pure range-bounded offset
                // (no tnum alignment information involved).
                let skip = format!("skip{i}");
                asm = asm
                    .jgt_imm(6, 56, skip.clone())
                    .mov64_reg(7, 10)
                    .add64_imm(7, -64)
                    .add64_reg(7, 6)
                    .store_reg(SZ_B, 7, 8, 0)
                    .label(skip);
            }
            2 => {
                // JSET bit guard: taken edge bails; the fall-through
                // proves the offset is an 8-aligned value in [0, 56].
                let skip = format!("skip{i}");
                asm = asm
                    .jmp_imm(OP_JSET, 6, !0x38, skip.clone())
                    .mov64_reg(7, 10)
                    .add64_imm(7, -64)
                    .add64_reg(7, 6)
                    .store_reg(SZ_DW, 7, 8, 0)
                    .label(skip);
            }
            3 => {
                // Signed-compare pair: [0, 63] via jsgt/jslt, which the
                // scalar domain must cross-derive into unsigned bounds.
                let skip = format!("skip{i}");
                asm = asm
                    .jmp_imm(OP_JSGT, 6, 63, skip.clone())
                    .jmp_imm(OP_JSLT, 6, 0, skip.clone())
                    .lsh64_imm(6, 3)
                    .mov64_reg(7, 10)
                    .add64_imm(7, -512)
                    .add64_reg(7, 6)
                    .store_reg(SZ_DW, 7, 8, 0)
                    .label(skip);
            }
            _ => {
                // Register-offset access into a null-checked map value:
                // the in-probe histogram shape.
                let fd = match map_fd {
                    Some(fd) => fd,
                    None => unreachable!("the map variant is only drawn when a map fd exists"),
                };
                let skip = format!("skip{i}");
                asm = asm
                    .and64_imm(6, 15)
                    .lsh64_imm(6, 3)
                    .store_imm(SZ_W, 10, -4, 0)
                    .ld_map_fd(1, fd)
                    .mov64_reg(2, 10)
                    .add64_imm(2, -4)
                    .call(Helper::MapLookupElem)
                    .jeq_imm(0, 0, skip.clone())
                    .add64_reg(0, 6)
                    .load(SZ_DW, 7, 0, 0)
                    .add64_imm(7, 1)
                    .store_reg(SZ_DW, 0, 7, 0)
                    .label(skip);
            }
        }
    }
    let asm = asm.label("end").mov64_imm(0, 0).exit();
    match asm.assemble() {
        Ok(prog) => prog,
        Err(e) => unreachable!("bounded-offset generator emitted an unassemblable program: {e}"),
    }
}

/// A random program that holds map-value pointers across the helpers
/// that change a map: it looks keys up (into `r6`/`r7`), inserts and
/// deletes keys of the hash map between a lookup and later reads and
/// writes through the held pointers, and sums what it reads and what the
/// helpers return into `r8`, which it returns.
///
/// `hash` must have 8-byte keys and 8-byte values, `array` values of at
/// least 8 bytes. Inserting up to twelve keys grows a small hash table,
/// so a held hash pointer may outlive its table's move; deleting a held
/// key makes a later access through it fault. The verifier accepts
/// every such program (a held pointer keeps its type across calls), so
/// the faults are runtime facts each tier must reproduce exactly.
pub fn map_churn_program(rng: &mut SimRng, hash: MapFd, array: MapFd) -> Program {
    let key_at_fp8 = |asm: Asm, fd: MapFd, key: i32| {
        asm.store_imm(SZ_DW, 10, -8, key)
            .ld_map_fd(1, fd)
            .mov64_reg(2, 10)
            .add64_imm(2, -8)
    };
    let insert = |asm: Asm, key: i32, value: i32| {
        key_at_fp8(asm.store_imm(SZ_DW, 10, -16, value), hash, key)
            .mov64_reg(3, 10)
            .add64_imm(3, -16)
            .mov64_imm(4, 0)
            .call(Helper::MapUpdateElem)
            .add64_reg(8, 0)
    };
    // A lookup into `reg`; a miss ends the program.
    let hold = |asm: Asm, reg: u8, fd: MapFd, key: i32| {
        key_at_fp8(asm, fd, key)
            .call(Helper::MapLookupElem)
            .jeq_imm(0, 0, "end")
            .mov64_reg(reg, 0)
    };
    // r6 holds a hash value, r7 the array value, then the body churns.
    let key = gen::i32_in(rng, 1, 4);
    let mut asm = insert(Asm::new("map_churn").mov64_imm(8, 0), key, 1);
    asm = hold(hold(asm, 6, hash, key), 7, array, 0);
    for _ in 0..gen::usize_in(rng, 1, 8) {
        let reg = gen::pick(rng, &[6u8, 7]);
        asm = match gen::u64_in(rng, 0, 5) {
            0 | 1 => {
                // Mostly the keys lookups and deletes draw; otherwise a
                // fresh key, which may grow the table.
                let key = match gen::bool_any(rng) {
                    true => gen::i32_in(rng, 1, 4),
                    false => gen::i32_in(rng, 5, 12),
                };
                insert(asm, key, gen::i32_in(rng, -100, 100))
            }
            2 => key_at_fp8(asm, hash, gen::i32_in(rng, 1, 4))
                .call(Helper::MapDeleteElem)
                .add64_reg(8, 0),
            3 => asm.load(SZ_DW, 9, reg, 0).add64_reg(8, 9),
            4 => match gen::bool_any(rng) {
                true => asm.store_reg(SZ_DW, reg, 8, 0),
                false => asm.store_imm(SZ_W, reg, 4, gen::i32_in(rng, -100, 100)),
            },
            _ => hold(asm, 6, hash, gen::i32_in(rng, 1, 4)),
        };
    }
    let asm = asm.label("end").mov64_reg(0, 8).exit();
    match asm.assemble() {
        Ok(prog) => prog,
        Err(e) => unreachable!("map-churn generator emitted an unassemblable program: {e}"),
    }
}

/// One step of a [`hash_write_program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HashOp {
    /// `map_update_elem(key, value)`; the helper's return is summed.
    Update {
        /// The 8-byte key.
        key: u64,
        /// Seeds the value bytes (see [`hash_write_program`]).
        value: i32,
    },
    /// `map_delete_elem(key)`; the helper's return is summed.
    Delete {
        /// The 8-byte key.
        key: u64,
    },
    /// Looks a live key up and holds its value pointer in `r6`.
    Hold {
        /// The 8-byte key.
        key: u64,
    },
    /// Reads the held value through `r6` and sums it.
    ReadHeld,
}

/// A random sequence of colliding hash writes for a map of
/// `max_entries` 8-byte keys: updates and deletes over a key pool three
/// times `max_entries` wide, so a small table sees home-slot collisions,
/// tombstoned homes, deletes behind a tombstone, relayouts and inserts
/// refused at `max_entries`. Every write is followed by a read through
/// the held pointer while its key is live (a set model of the map
/// decides), else by a hold of a live key; half the sequences end by
/// deleting the held key and reading through its pointer, which faults
/// on every tier.
pub fn hash_write_ops(rng: &mut SimRng, max_entries: u32) -> Vec<HashOp> {
    let pool = 3 * u64::from(max_entries.max(1));
    let mut live = std::collections::BTreeSet::new();
    let first = gen::u64_in(rng, 1, pool);
    live.insert(first);
    let mut ops = vec![
        HashOp::Update {
            key: first,
            value: 1,
        },
        HashOp::Hold { key: first },
    ];
    let mut held = first;
    for _ in 0..gen::usize_in(rng, 8, 40) {
        let key = gen::u64_in(rng, 1, pool);
        if gen::u64_in(rng, 0, 2) == 0 {
            ops.push(HashOp::Delete { key });
            live.remove(&key);
        } else {
            let value = gen::i32_in(rng, -1_000, 1_000);
            ops.push(HashOp::Update { key, value });
            if live.len() < max_entries as usize {
                live.insert(key);
            }
        }
        if live.contains(&held) {
            ops.push(HashOp::ReadHeld);
        } else if !live.is_empty() {
            let pick = gen::usize_in(rng, 0, live.len() - 1);
            if let Some(&key) = live.iter().nth(pick) {
                ops.push(HashOp::Hold { key });
                held = key;
            }
        }
    }
    if gen::bool_any(rng) {
        ops.extend([HashOp::Delete { key: held }, HashOp::ReadHeld]);
    }
    ops
}

/// Assembles [`hash_write_ops`] over the hash map `hash` (8-byte keys,
/// `value_size` of at most 16 bytes), summing what each step returns
/// into `r8`, which the program returns. The key is staged at `r10 - 8`
/// and the value at `r10 - 32`: the step's `value` in its first word and
/// `value ^ key` in its second, so a value reads back distinct per key.
pub fn hash_write_program(ops: &[HashOp], hash: MapFd) -> Program {
    let key_args = |asm: Asm, key: u64| {
        asm.store_imm(SZ_DW, 10, -8, key as i32)
            .ld_map_fd(1, hash)
            .mov64_reg(2, 10)
            .add64_imm(2, -8)
    };
    let mut asm = Asm::new("hash_writes").mov64_imm(8, 0);
    for op in ops {
        asm = match *op {
            HashOp::Update { key, value } => key_args(
                asm.store_imm(SZ_DW, 10, -32, value)
                    .store_imm(SZ_DW, 10, -24, value ^ key as i32),
                key,
            )
            .mov64_reg(3, 10)
            .add64_imm(3, -32)
            .mov64_imm(4, 0)
            .call(Helper::MapUpdateElem)
            .add64_reg(8, 0),
            HashOp::Delete { key } => key_args(asm, key)
                .call(Helper::MapDeleteElem)
                .add64_reg(8, 0),
            HashOp::Hold { key } => key_args(asm, key)
                .call(Helper::MapLookupElem)
                .jeq_imm(0, 0, "end")
                .mov64_reg(6, 0),
            HashOp::ReadHeld => asm.load(SZ_DW, 9, 6, 0).add64_reg(8, 9),
        };
    }
    let asm = asm.label("end").mov64_reg(0, 8).exit();
    match asm.assemble() {
        Ok(prog) => prog,
        Err(e) => unreachable!("hash-write generator emitted an unassemblable program: {e}"),
    }
}

impl Shrink for Insn {
    /// Shrinks toward the "do nothing interesting" instruction: zero
    /// immediate, zero offset, low registers.
    fn shrink(&self) -> Vec<Self> {
        let mut out = Vec::new();
        for imm in self.imm.shrink().into_iter().take(3) {
            out.push(Insn { imm, ..*self });
        }
        for off in self.off.shrink().into_iter().take(3) {
            out.push(Insn { off, ..*self });
        }
        if self.src != 0 {
            out.push(Insn { src: 0, ..*self });
        }
        if self.dst != 0 {
            out.push(Insn { dst: 0, ..*self });
        }
        out
    }
}

/// Evaluates a branch-free program against the eBPF instruction-set
/// semantics, independently of the interpreter.
///
/// Supports ALU64/ALU32 (immediate and register forms), two-slot `ld_dw`
/// immediate loads, and `exit`. Returns `None` when the program strays
/// outside that fragment (jumps, memory, calls, map loads) or when any
/// register — including `r0` at `exit` — is read before it is written,
/// so the result never depends on the interpreter's private register
/// initialization.
pub fn reference_eval(prog: &Program) -> Option<u64> {
    let insns = prog.insns();
    let mut regs = [0u64; 11];
    let mut written = [false; 11];
    let mut pc = 0usize;
    while pc < insns.len() {
        let insn = insns[pc];
        let class = insn.class();
        match class {
            CLS_ALU64 | CLS_ALU => {
                let op = insn.op();
                let dst = insn.dst as usize;
                if dst >= 10 {
                    return None; // writes to r10 are outside the fragment
                }
                // MOV writes dst without reading it; everything else
                // reads it first.
                if op != OP_MOV && !written[dst] {
                    return None;
                }
                let operand = if insn.is_src_reg() {
                    let src = insn.src as usize;
                    if src > 10 || !written[src] {
                        return None;
                    }
                    regs[src]
                } else {
                    insn.imm as i64 as u64 // immediates sign-extend
                };
                let a = regs[dst];
                regs[dst] = if class == CLS_ALU64 {
                    alu64_semantics(op, a, operand)?
                } else {
                    u64::from(alu32_semantics(op, a as u32, operand as u32)?)
                };
                written[dst] = true;
            }
            CLS_LD if insn.size() == SZ_DW && insn.code & 0xe0 == MODE_IMM && insn.src == 0 => {
                let hi = insns.get(pc + 1)?;
                let dst = insn.dst as usize;
                if dst >= 10 {
                    return None;
                }
                regs[dst] = (insn.imm as u32 as u64) | ((hi.imm as u32 as u64) << 32);
                written[dst] = true;
                pc += 1;
            }
            CLS_JMP if insn.op() == OP_EXIT => {
                return if written[0] { Some(regs[0]) } else { None };
            }
            _ => return None, // jumps, memory, calls: not straight-line
        }
        pc += 1;
    }
    None // fell off the end
}

/// 64-bit ALU semantics, transcribed from the eBPF specification.
fn alu64_semantics(op: u8, a: u64, b: u64) -> Option<u64> {
    Some(match op {
        OP_ADD => a.wrapping_add(b),
        OP_SUB => a.wrapping_sub(b),
        OP_MUL => a.wrapping_mul(b),
        // eBPF defines div-by-zero as 0 and mod-by-zero as the dividend.
        OP_DIV => a.checked_div(b).unwrap_or(0),
        OP_MOD => a.checked_rem(b).unwrap_or(a),
        OP_OR => a | b,
        OP_AND => a & b,
        OP_XOR => a ^ b,
        OP_LSH => a.wrapping_shl(b as u32 & 63),
        OP_RSH => a.wrapping_shr(b as u32 & 63),
        OP_ARSH => ((a as i64).wrapping_shr(b as u32 & 63)) as u64,
        OP_MOV => b,
        OP_NEG => (a as i64).wrapping_neg() as u64,
        _ => return None,
    })
}

/// 32-bit ALU semantics; results zero-extend to 64 bits at the caller.
fn alu32_semantics(op: u8, a: u32, b: u32) -> Option<u32> {
    Some(match op {
        OP_ADD => a.wrapping_add(b),
        OP_SUB => a.wrapping_sub(b),
        OP_MUL => a.wrapping_mul(b),
        // eBPF defines div-by-zero as 0 and mod-by-zero as the dividend.
        OP_DIV => a.checked_div(b).unwrap_or(0),
        OP_MOD => a.checked_rem(b).unwrap_or(a),
        OP_OR => a | b,
        OP_AND => a & b,
        OP_XOR => a ^ b,
        OP_LSH => a.wrapping_shl(b & 31),
        OP_RSH => a.wrapping_shr(b & 31),
        OP_ARSH => ((a as i32).wrapping_shr(b & 31)) as u32,
        OP_MOV => b,
        OP_NEG => (a as i32).wrapping_neg() as u32,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kscope_ebpf::maps::MapRegistry;
    use kscope_ebpf::verifier::Verifier;

    #[test]
    fn straightline_programs_verify() {
        let mut rng = SimRng::seed_from_u64(11);
        let maps = MapRegistry::new();
        for _ in 0..50 {
            let prog = straightline_program(&mut rng);
            Verifier::default()
                .verify(&prog, &maps)
                .unwrap_or_else(|e| panic!("rejected: {e}\n{}", prog.disassemble()));
        }
    }

    #[test]
    fn reference_eval_handles_the_basics() {
        // mov r0, 6; mul r0, 7; exit
        let prog = Program::new(
            "t",
            vec![
                Insn::mov64_imm(0, 6),
                Insn::alu64_imm(OP_MUL, 0, 7),
                Insn::exit(),
            ],
        );
        assert_eq!(reference_eval(&prog), Some(42));
    }

    #[test]
    fn reference_eval_sign_extends_immediates() {
        let prog = Program::new("t", vec![Insn::mov64_imm(0, -1), Insn::exit()]);
        assert_eq!(reference_eval(&prog), Some(u64::MAX));
    }

    #[test]
    fn reference_eval_rejects_uninitialized_reads() {
        // add r0, 1 reads r0 before any write.
        let prog = Program::new("t", vec![Insn::alu64_imm(OP_ADD, 0, 1), Insn::exit()]);
        assert_eq!(reference_eval(&prog), None);
    }

    #[test]
    fn reference_eval_bails_on_branches() {
        let prog = Program::new(
            "t",
            vec![
                Insn::mov64_imm(0, 1),
                Insn::jmp_imm(OP_JEQ, 0, 1, 0),
                Insn::exit(),
            ],
        );
        assert_eq!(reference_eval(&prog), None);
    }

    #[test]
    fn generators_are_deterministic() {
        let mut a = SimRng::seed_from_u64(3);
        let mut b = SimRng::seed_from_u64(3);
        for _ in 0..20 {
            assert_eq!(
                fuzz_program(&mut a, 8).insns(),
                fuzz_program(&mut b, 8).insns()
            );
        }
    }
}
