//! Static analysis over probe bytecode: dataflow and a worst-case cost
//! certifier.
//!
//! Three consumers share the machinery in this module:
//!
//! * **The verifier** ([`crate::verifier`]) sources its advisory warnings
//!   (unreachable instructions, dead stack stores) from the byte-granular
//!   liveness pass here, so there is exactly one implementation of each
//!   analysis.
//! * **The JIT** ([`crate::jit`]) emits helper calls according to the
//!   inline plan ([`helper_inline_plan`]): a forward must-dataflow over
//!   register values on the [`Decoded`] stream decides which env helpers
//!   and map lookups compile inline and which keep the trampoline.
//! * **The cost certifier** ([`cost_report`]) bounds the worst-case work
//!   of one invocation. Verified programs are loop-free forward DAGs, so
//!   path maximization is exact: the reported bound is attained by some
//!   input unless branch conditions are correlated, and is never
//!   exceeded. It prices plan-covered call sites at their inlined weight
//!   for the JIT fast-path bound.

use crate::decode::{AluOp, Decoded};
use crate::helpers::Helper;
use crate::insn::{
    Insn, CLS_JMP, CLS_JMP32, MAX_INSNS, OP_CALL, OP_EXIT, OP_JA, REG_COUNT, STACK_SIZE,
};
use crate::interp::{exec_alu32, exec_alu64, CTX_BASE, MAP_HANDLE_BASE};
use crate::program::Program;
use crate::verifier::VerifyWarning;

/// Value the interpreter writes into caller-saved registers (`r1`–`r5`)
/// after every helper call; the constant analysis models it exactly.
const CLOBBER: u64 = 0xDEAD_BEEF_DEAD_BEEF;

// ---------------------------------------------------------------------------
// Cost certification
// ---------------------------------------------------------------------------

/// Certified worst-case cost of one program invocation.
///
/// Computed by exact longest-path maximization over the loop-free CFG
/// (three independent reverse dynamic programs, one per metric). Each
/// bound holds for *every* execution — including trapping ones — because
/// trap instructions are modeled as path terminators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostReport {
    /// Maximum instruction slots executed on any path (a `ld_dw` pair
    /// counts once, matching the interpreter's accounting).
    pub max_insns: u64,
    /// Maximum helper invocations on any path.
    pub max_helper_calls: u64,
    /// Maximum weighted cost on any path: one unit per executed
    /// instruction plus [`helper_weight`] units per helper call. This is
    /// the universal (interpreter/trampoline) bound; it also covers JIT
    /// runs whose inline fast paths fall back at run time.
    pub max_weighted_cost: u64,
    /// Maximum helper invocations on any path that the JIT inline plan
    /// ([`helper_inline_plan`]) covers — env helpers plus provably
    /// inlineable map lookups. Maximized independently of
    /// `max_trampolined_calls`, so the two need not sum to
    /// `max_helper_calls`.
    pub max_inlined_calls: u64,
    /// Maximum helper invocations on any path that still round-trip
    /// through the sysv64 trampoline under the inline plan.
    pub max_trampolined_calls: u64,
    /// Maximum weighted cost on any path with
    /// [`inlined_helper_weight`] applied at plan-covered call sites —
    /// the JIT fast-path bound. Runtime guard failures fall back to the
    /// trampoline, for which `max_weighted_cost` remains the bound.
    pub max_weighted_cost_jit: u64,
}

impl std::fmt::Display for CostReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worst case: {} insns, {} helper calls ({} inlined / {} trampolined), \
             weighted cost {} (jit fast path {})",
            self.max_insns,
            self.max_helper_calls,
            self.max_inlined_calls,
            self.max_trampolined_calls,
            self.max_weighted_cost,
            self.max_weighted_cost_jit
        )
    }
}

/// Relative cost weight of one helper invocation, on top of the one unit
/// every executed instruction costs.
///
/// The weights order helpers by the work their simulated implementations
/// do (map operations hash and copy, `trace_printk` formats, the clock
/// and pid helpers just read a counter); they are dimensionless units for
/// *comparing* probes, not nanoseconds.
pub fn helper_weight(helper: Helper) -> u64 {
    match helper {
        Helper::KtimeGetNs => 2,
        Helper::GetCurrentPidTgid => 2,
        Helper::GetPrandomU32 => 3,
        Helper::MapLookupElem => 10,
        Helper::MapDeleteElem => 10,
        Helper::MapUpdateElem => 12,
        // A sketch update hashes the key SKETCH_ROWS + SKETCH_STAGES
        // times and touches a bounded set of cells/slots: a bit more
        // than one hash-map update, less than a ringbuf copy.
        Helper::SketchUpdate => 14,
        Helper::RingbufOutput => 15,
        Helper::TracePrintk => 25,
    }
}

/// Relative cost of one helper invocation when the JIT inlines it
/// (DESIGN §6f), replacing [`helper_weight`] at call sites the inline
/// plan covers.
///
/// Env helpers collapse to a context-field load (weight 1); prandom
/// additionally runs its xorshift update inline (weight 2); an inlined
/// map lookup is a short guard chain plus an index probe — far from
/// free, but nowhere near the spill + trampoline + hash round-trip the
/// trampolined weight (10) prices in.
pub fn inlined_helper_weight(helper: Helper) -> u64 {
    match helper {
        Helper::KtimeGetNs | Helper::GetCurrentPidTgid => 1,
        Helper::GetPrandomU32 => 2,
        Helper::MapLookupElem => 5,
        other => helper_weight(other),
    }
}

/// Certifies the worst-case per-invocation cost of `program`, or `None`
/// when the program is not a structurally sound forward DAG (in which
/// case no finite bound can be promised).
///
/// The bound is sound for every input: `max_insns` is an upper bound on
/// [`ExecOutcome::insns_executed`](crate::interp::ExecOutcome) for any
/// successful run, and on instructions retired before any trap.
pub fn cost_report(program: &Program) -> Option<CostReport> {
    let insns = program.insns();
    let is_hi = structure(insns)?;
    let decoded = program.decoded();
    let len = insns.len();
    // Reverse dynamic programs over the forward DAG; index `len` is the
    // virtual fall-off-the-end terminator with zero residual cost.
    let plan = inline_plan(decoded);
    let mut dp_insns = vec![0u64; len + 1];
    let mut dp_helpers = vec![0u64; len + 1];
    let mut dp_weighted = vec![0u64; len + 1];
    let mut dp_inlined = vec![0u64; len + 1];
    let mut dp_tramp = vec![0u64; len + 1];
    let mut dp_weighted_jit = vec![0u64; len + 1];
    let mut succ = Vec::new();
    for pc in (0..len).rev() {
        if is_hi.get(pc).copied().unwrap_or(true) {
            continue; // hi slots are never entered; lo slots carry the pair
        }
        let Some(d) = decoded.get(pc) else { continue };
        decoded_succs(pc, d, len, &mut succ);
        let best = |dp: &[u64]| {
            succ.iter()
                .filter_map(|&s| dp.get(s))
                .copied()
                .max()
                .unwrap_or(0)
        };
        let (helper_inc, weight, inl_inc, tramp_inc, weight_jit) = match d {
            Decoded::Call { helper } => {
                let inlined = plan.site(pc).is_some_and(|c| c != HelperInline::Trampoline);
                let wj = if inlined {
                    1 + inlined_helper_weight(*helper)
                } else {
                    1 + helper_weight(*helper)
                };
                let (i, t) = if inlined { (1, 0) } else { (0, 1) };
                (1, 1 + helper_weight(*helper), i, t, wj)
            }
            _ => (0, 1, 0, 0, 1),
        };
        let i = 1 + best(&dp_insns);
        let h = helper_inc + best(&dp_helpers);
        let w = weight + best(&dp_weighted);
        let il = inl_inc + best(&dp_inlined);
        let tr = tramp_inc + best(&dp_tramp);
        let wj = weight_jit + best(&dp_weighted_jit);
        if let Some(slot) = dp_insns.get_mut(pc) {
            *slot = i;
        }
        if let Some(slot) = dp_helpers.get_mut(pc) {
            *slot = h;
        }
        if let Some(slot) = dp_weighted.get_mut(pc) {
            *slot = w;
        }
        if let Some(slot) = dp_inlined.get_mut(pc) {
            *slot = il;
        }
        if let Some(slot) = dp_tramp.get_mut(pc) {
            *slot = tr;
        }
        if let Some(slot) = dp_weighted_jit.get_mut(pc) {
            *slot = wj;
        }
    }
    Some(CostReport {
        max_insns: dp_insns.first().copied().unwrap_or(0),
        max_helper_calls: dp_helpers.first().copied().unwrap_or(0),
        max_weighted_cost: dp_weighted.first().copied().unwrap_or(0),
        max_inlined_calls: dp_inlined.first().copied().unwrap_or(0),
        max_trampolined_calls: dp_tramp.first().copied().unwrap_or(0),
        max_weighted_cost_jit: dp_weighted_jit.first().copied().unwrap_or(0),
    })
}

// ---------------------------------------------------------------------------
// JIT helper-inline plan
// ---------------------------------------------------------------------------

/// How the x86-64 template JIT treats one helper-call site (DESIGN §6f).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HelperInline {
    /// Inlined unconditionally: the helper only reads/updates the
    /// environment snapshot in the JIT context (`ktime`, `pid_tgid`,
    /// prandom state).
    Env,
    /// Inlined guarded fast path: the lookup's fd and key address are
    /// compile-time facts, so the JIT probes the map's runtime
    /// descriptor directly and falls back to the trampoline only when a
    /// runtime guard fails.
    MapLookupFast,
    /// Full sysv64 trampoline round-trip.
    Trampoline,
}

/// A `MapLookupElem` site the dataflow proved inlineable: the fd is a
/// compile-time constant and the key pointer is a fixed stack offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LookupSite {
    /// The constant map fd (`ld_map_fd` handle, low 32 bits).
    pub fd: u32,
    /// Key offset from the bottom of the stack frame
    /// (`0..STACK_SIZE - key_size`).
    pub key_off: u32,
    /// Key bytes readable as a 4-byte array index (`key_off + 4` fits).
    pub array_ok: bool,
    /// Key bytes readable as an 8-byte hash key (`key_off + 8` fits).
    pub hash8_ok: bool,
}

/// The per-program inline plan: one entry per helper-call site. Shared
/// by the JIT emitter (which implements exactly this plan on x86-64),
/// the cost certifier, and `probe_audit` — so the accounting stays
/// platform-independent and in lockstep with what the emitter does.
#[derive(Debug, Clone, Default)]
pub struct InlinePlan {
    sites: Vec<(usize, Helper, HelperInline)>,
    lookups: Vec<Option<LookupSite>>,
}

impl InlinePlan {
    /// Every helper-call site as `(pc, helper, treatment)`.
    pub fn sites(&self) -> &[(usize, Helper, HelperInline)] {
        &self.sites
    }

    /// The treatment of the call site at `pc`, if `pc` is one.
    pub fn site(&self, pc: usize) -> Option<HelperInline> {
        self.sites
            .iter()
            .find(|(p, _, _)| *p == pc)
            .map(|(_, _, c)| *c)
    }

    /// Number of call sites the JIT inlines.
    pub fn inlined(&self) -> usize {
        self.sites
            .iter()
            .filter(|(_, _, c)| *c != HelperInline::Trampoline)
            .count()
    }

    /// Number of call sites that keep the trampoline round-trip.
    pub fn trampolined(&self) -> usize {
        self.sites.len() - self.inlined()
    }

    /// The proven lookup facts for a [`HelperInline::MapLookupFast`]
    /// site (the JIT emitter's input).
    pub(crate) fn lookup_site(&self, pc: usize) -> Option<LookupSite> {
        self.lookups.get(pc).copied().flatten()
    }
}

/// Computes the JIT inline plan of a program: which helper-call sites
/// the x86-64 emitter inlines and which keep the trampoline. The plan is
/// derived purely from the decoded instruction stream (a must-dataflow
/// over register values), so it is identical on every platform — on
/// non-x86-64 hosts it still describes what the JIT *would* emit.
pub fn helper_inline_plan(program: &Program) -> InlinePlan {
    inline_plan(program.decoded())
}

/// Largest constant fd the lookup fast path will specialize on; keeps
/// `fd * 32` comfortably inside a signed displacement and the fd inside
/// a guard's 32-bit immediate. Real registries hold a handful of maps.
const MAX_INLINE_FD: u64 = 0xFFFF;

pub(crate) fn inline_plan(decoded: &[Decoded]) -> InlinePlan {
    let states = abs_states(decoded);
    let mut plan = InlinePlan {
        sites: Vec::new(),
        lookups: vec![None; decoded.len()],
    };
    for (pc, d) in decoded.iter().enumerate() {
        let Decoded::Call { helper } = d else { continue };
        let class = match helper {
            h if h.is_env() => HelperInline::Env,
            Helper::MapLookupElem => {
                let site = states
                    .get(pc)
                    .and_then(|s| s.as_ref())
                    .and_then(lookup_site_from_state);
                match site {
                    Some(site) => {
                        if let Some(slot) = plan.lookups.get_mut(pc) {
                            *slot = Some(site);
                        }
                        HelperInline::MapLookupFast
                    }
                    None => HelperInline::Trampoline,
                }
            }
            _ => HelperInline::Trampoline,
        };
        plan.sites.push((pc, *helper, class));
    }
    plan
}

/// Derives an inlineable-lookup fact from the must-state at a
/// `MapLookupElem` site: `r1` must be a constant map handle and `r2` a
/// fixed in-bounds stack address. Either the 4-byte (array index) or the
/// 8-byte (hash key) read window must fit the frame; the emitter guards
/// the actual map shape at run time.
fn lookup_site_from_state(regs: &[AbsVal; REG_COUNT]) -> Option<LookupSite> {
    let AbsVal::Const(handle) = regs.get(1).copied()? else {
        return None;
    };
    if handle & MAP_HANDLE_BASE != MAP_HANDLE_BASE {
        return None;
    }
    let fd = handle & 0xFFFF_FFFF;
    if fd > MAX_INLINE_FD {
        return None;
    }
    let AbsVal::Stack(delta) = regs.get(2).copied()? else {
        return None;
    };
    let key_off = (STACK_SIZE as i64).checked_add(delta)?;
    if key_off < 0 {
        return None;
    }
    let array_ok = key_off + 4 <= STACK_SIZE as i64;
    let hash8_ok = key_off + 8 <= STACK_SIZE as i64;
    if !array_ok && !hash8_ok {
        return None;
    }
    Some(LookupSite {
        fd: fd as u32,
        key_off: key_off as u32,
        array_ok,
        hash8_ok,
    })
}

/// Abstract register value for the inline-plan must-dataflow. `Stack(d)`
/// means the register provably holds `STACK_BASE + STACK_SIZE + d` (the
/// interpreter's `r10` entry value plus a known delta) on every path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AbsVal {
    /// No single value holds on all paths.
    Unknown,
    /// The exact runtime value on every path.
    Const(u64),
    /// Stack-top-relative address with a known delta.
    Stack(i64),
}

impl AbsVal {
    fn merge(self, other: AbsVal) -> AbsVal {
        if self == other {
            self
        } else {
            AbsVal::Unknown
        }
    }
}

/// Forward must-dataflow over [`AbsVal`]; `None` marks unreachable
/// slots. Sound on arbitrary (even loopy, hostile) instruction streams:
/// the lattice has height 2 and merges only move values toward
/// `Unknown`, so the worklist terminates, and transfer functions reuse
/// the interpreter's own ALU evaluators so `Const` facts are exact.
fn abs_states(decoded: &[Decoded]) -> Vec<Option<[AbsVal; REG_COUNT]>> {
    let len = decoded.len();
    let mut states: Vec<Option<[AbsVal; REG_COUNT]>> = vec![None; len];
    if len == 0 {
        return states;
    }
    let mut entry = [AbsVal::Const(0); REG_COUNT];
    if let Some(r1) = entry.get_mut(1) {
        *r1 = AbsVal::Const(CTX_BASE);
    }
    if let Some(r10) = entry.get_mut(10) {
        *r10 = AbsVal::Stack(0);
    }
    if let Some(slot) = states.get_mut(0) {
        *slot = Some(entry);
    }
    let mut work = vec![0usize];
    let mut succ = Vec::new();
    while let Some(pc) = work.pop() {
        let Some(Some(state)) = states.get(pc).copied() else {
            continue;
        };
        let Some(d) = decoded.get(pc) else { continue };
        let mut out = state;
        abs_step(d, &mut out);
        decoded_succs(pc, d, len, &mut succ);
        for &s in &succ {
            let Some(slot) = states.get_mut(s) else { continue };
            let merged = match *slot {
                None => out,
                Some(prev) => {
                    let mut m = prev;
                    for (mv, ov) in m.iter_mut().zip(out.iter()) {
                        *mv = mv.merge(*ov);
                    }
                    m
                }
            };
            if slot.as_ref() != Some(&merged) {
                *slot = Some(merged);
                work.push(s);
            }
        }
    }
    states
}

/// Transfer function of one decoded slot, mirroring the interpreter
/// exactly on the facts it tracks.
fn abs_step(d: &Decoded, regs: &mut [AbsVal; REG_COUNT]) {
    let get = |regs: &[AbsVal; REG_COUNT], r: u8| {
        regs.get(r as usize).copied().unwrap_or(AbsVal::Unknown)
    };
    let set = |regs: &mut [AbsVal; REG_COUNT], r: u8, v: AbsVal| {
        if let Some(slot) = regs.get_mut(r as usize) {
            *slot = v;
        }
    };
    match d {
        Decoded::LdImm64 { dst, value } => set(regs, *dst, AbsVal::Const(*value)),
        Decoded::Load { dst, .. } => set(regs, *dst, AbsVal::Unknown),
        Decoded::StoreReg { .. } | Decoded::StoreImm { .. } => {}
        Decoded::Alu64Imm { op, dst, imm } => {
            let v = if *op == AluOp::Mov {
                AbsVal::Const(*imm)
            } else {
                match get(regs, *dst) {
                    AbsVal::Const(a) => AbsVal::Const(exec_alu64(*op, a, *imm)),
                    AbsVal::Stack(delta) => match op {
                        AluOp::Add => AbsVal::Stack(delta.wrapping_add(*imm as i64)),
                        AluOp::Sub => AbsVal::Stack(delta.wrapping_sub(*imm as i64)),
                        _ => AbsVal::Unknown,
                    },
                    AbsVal::Unknown => AbsVal::Unknown,
                }
            };
            set(regs, *dst, v);
        }
        Decoded::Alu64Reg { op, dst, src } => {
            let s = get(regs, *src);
            let v = if *op == AluOp::Mov {
                s
            } else {
                match (get(regs, *dst), s) {
                    (AbsVal::Const(a), AbsVal::Const(b)) => {
                        AbsVal::Const(exec_alu64(*op, a, b))
                    }
                    (AbsVal::Stack(delta), AbsVal::Const(c)) if *op == AluOp::Add => {
                        AbsVal::Stack(delta.wrapping_add(c as i64))
                    }
                    (AbsVal::Stack(delta), AbsVal::Const(c)) if *op == AluOp::Sub => {
                        AbsVal::Stack(delta.wrapping_sub(c as i64))
                    }
                    (AbsVal::Const(c), AbsVal::Stack(delta)) if *op == AluOp::Add => {
                        AbsVal::Stack(delta.wrapping_add(c as i64))
                    }
                    (AbsVal::Stack(a), AbsVal::Stack(b)) if *op == AluOp::Sub => {
                        AbsVal::Const(a.wrapping_sub(b) as u64)
                    }
                    _ => AbsVal::Unknown,
                }
            };
            set(regs, *dst, v);
        }
        Decoded::Alu32Imm { op, dst, imm } => {
            let v = if *op == AluOp::Mov {
                AbsVal::Const(*imm as u64)
            } else {
                match get(regs, *dst) {
                    AbsVal::Const(a) => {
                        AbsVal::Const(exec_alu32(*op, a as u32, *imm) as u64)
                    }
                    _ => AbsVal::Unknown,
                }
            };
            set(regs, *dst, v);
        }
        Decoded::Alu32Reg { op, dst, src } => {
            let v = match (get(regs, *dst), get(regs, *src)) {
                (AbsVal::Const(a), AbsVal::Const(b)) => {
                    AbsVal::Const(exec_alu32(*op, a as u32, b as u32) as u64)
                }
                (_, AbsVal::Const(b)) if *op == AluOp::Mov => {
                    AbsVal::Const(b as u32 as u64)
                }
                _ => AbsVal::Unknown,
            };
            set(regs, *dst, v);
        }
        Decoded::Call { .. } => {
            set(regs, 0, AbsVal::Unknown);
            for r in 1..=5u8 {
                set(regs, r, AbsVal::Const(CLOBBER));
            }
        }
        Decoded::Ja { .. }
        | Decoded::JmpImm { .. }
        | Decoded::JmpReg { .. }
        | Decoded::Exit
        | Decoded::MalformedLdDw
        | Decoded::UnknownHelper { .. }
        | Decoded::BadOpcode { .. } => {}
    }
}

/// Exact successors of a decoded slot (trap variants terminate the path;
/// a successor equal to `len` — falling off the end — is omitted).
fn decoded_succs(pc: usize, d: &Decoded, len: usize, out: &mut Vec<usize>) {
    out.clear();
    let mut push = |s: usize| {
        if s < len {
            out.push(s);
        }
    };
    match d {
        Decoded::LdImm64 { .. } => push(pc + 2),
        Decoded::Ja { target } => push(*target as usize),
        Decoded::JmpImm { target, .. } | Decoded::JmpReg { target, .. } => {
            push(*target as usize);
            push(pc + 1);
        }
        Decoded::Exit
        | Decoded::BadOpcode { .. }
        | Decoded::UnknownHelper { .. }
        | Decoded::MalformedLdDw => {}
        _ => push(pc + 1),
    }
}

/// Jump instructions whose `off` field is a pc-relative branch target.
fn is_resolvable_jump(insn: Insn) -> bool {
    let cls = insn.class();
    if cls != CLS_JMP && cls != CLS_JMP32 {
        return false;
    }
    let op = insn.op();
    op != OP_CALL && op != OP_EXIT
}

/// Structural precondition of the cost certifier:
/// non-empty, within [`MAX_INSNS`], every `ld_dw` lo slot paired with a
/// zero-coded hi slot, and every jump target strictly forward, in
/// bounds, and not into a hi slot. Returns the hi-slot map on success.
fn structure(insns: &[Insn]) -> Option<Vec<bool>> {
    let len = insns.len();
    if len == 0 || len > MAX_INSNS {
        return None;
    }
    let mut is_hi = vec![false; len];
    let mut pc = 0usize;
    while pc < len {
        let insn = insns.get(pc).copied()?;
        if insn.is_ld_dw() {
            let hi = insns.get(pc + 1)?;
            if hi.code != 0 {
                return None;
            }
            if let Some(slot) = is_hi.get_mut(pc + 1) {
                *slot = true;
            }
            pc += 2;
        } else {
            pc += 1;
        }
    }
    for (pc, insn) in insns.iter().enumerate() {
        if is_hi.get(pc).copied().unwrap_or(true) {
            continue;
        }
        if !is_resolvable_jump(*insn) {
            continue;
        }
        let target = pc as i64 + 1 + insn.off as i64;
        if target <= pc as i64 || target >= len as i64 {
            return None;
        }
        if is_hi.get(target as usize).copied().unwrap_or(true) {
            return None;
        }
    }
    Some(is_hi)
}

// ---------------------------------------------------------------------------
// Warning machinery shared with the verifier
// ---------------------------------------------------------------------------

/// A 512-bit set of live stack bytes.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ByteSet([u64; 8]);

/// Bit mask covering bits `[from, to)` of one 64-bit word.
fn word_mask(from: usize, to: usize) -> u64 {
    if to <= from {
        return 0;
    }
    let width = to - from;
    let ones = if width >= 64 { u64::MAX } else { (1u64 << width) - 1 };
    ones << from
}

impl ByteSet {
    pub(crate) fn or(&mut self, other: &ByteSet) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a |= b;
        }
    }

    fn for_words(start: usize, len: usize, mut f: impl FnMut(usize, u64)) {
        let end = (start + len).min(STACK_SIZE);
        for w in 0..8usize {
            let lo = w * 64;
            let hi = lo + 64;
            if end <= lo || start >= hi {
                continue;
            }
            f(w, word_mask(start.max(lo) - lo, end.min(hi) - lo));
        }
    }

    pub(crate) fn set_range(&mut self, start: usize, len: usize) {
        let words = &mut self.0;
        ByteSet::for_words(start, len, |w, m| {
            if let Some(word) = words.get_mut(w) {
                *word |= m;
            }
        });
    }

    pub(crate) fn clear_range(&mut self, start: usize, len: usize) {
        let words = &mut self.0;
        ByteSet::for_words(start, len, |w, m| {
            if let Some(word) = words.get_mut(w) {
                *word &= !m;
            }
        });
    }

    pub(crate) fn intersects_range(&self, start: usize, len: usize) -> bool {
        let mut hit = false;
        let words = &self.0;
        ByteSet::for_words(start, len, |w, m| {
            hit |= words.get(w).copied().unwrap_or(0) & m != 0;
        });
        hit
    }
}

/// Forward successors of a reachable instruction (the CFG is a DAG, so a
/// single reverse sweep computes liveness).
pub(crate) fn successors(pc: usize, insn: Insn, len: usize, out: &mut Vec<usize>) {
    out.clear();
    let cls = insn.class();
    if cls == CLS_JMP || cls == CLS_JMP32 {
        let op = insn.op();
        if cls == CLS_JMP && op == OP_EXIT {
            return;
        }
        if cls == CLS_JMP && op == OP_CALL {
            if pc + 1 < len {
                out.push(pc + 1);
            }
            return;
        }
        let target = (pc as i64 + 1 + insn.off as i64) as usize;
        if cls == CLS_JMP && op == OP_JA {
            out.push(target);
            return;
        }
        out.push(target);
        if pc + 1 < len {
            out.push(pc + 1);
        }
        return;
    }
    let next = if insn.is_ld_dw() { pc + 2 } else { pc + 1 };
    if next < len {
        out.push(next);
    }
}

/// Unreachable-instruction warnings in pc order (hi slots excluded: they
/// are continuations, not instructions).
pub(crate) fn unreachable_warnings(is_ld_dw_hi: &[bool], reachable: &[bool]) -> Vec<VerifyWarning> {
    is_ld_dw_hi
        .iter()
        .zip(reachable)
        .enumerate()
        .filter(|(_, (&hi, &r))| !hi && !r)
        .map(|(pc, _)| VerifyWarning::UnreachableInsn { pc })
        .collect()
}

/// Reverse byte-granular liveness over the stack: exact stores whose
/// bytes are never read on any path to `exit`, as `(pc, abs_start,
/// size)` triples in pc order. `access(pc)` supplies that slot's stack
/// reads and its exact-store candidate (absolute offsets into the
/// 512-byte window).
pub(crate) fn dead_stack_stores<'a>(
    insns: &[Insn],
    is_ld_dw_hi: &[bool],
    reachable: &[bool],
    access: impl Fn(usize) -> (&'a [(usize, usize)], Option<(usize, usize)>),
) -> Vec<(usize, usize, usize)> {
    let len = insns.len();
    let mut live: Vec<ByteSet> = vec![ByteSet::default(); len];
    let mut dead = Vec::new();
    let mut succ = Vec::new();
    for pc in (0..len).rev() {
        let skip = is_ld_dw_hi.get(pc).copied().unwrap_or(true)
            || !reachable.get(pc).copied().unwrap_or(false);
        if skip {
            continue;
        }
        let Some(insn) = insns.get(pc).copied() else { continue };
        successors(pc, insn, len, &mut succ);
        let mut cur = ByteSet::default();
        for &s in &succ {
            if let Some(other) = live.get(s) {
                let other = *other;
                cur.or(&other);
            }
        }
        let (reads, store) = access(pc);
        if let Some((start, size)) = store {
            if !cur.intersects_range(start, size) {
                dead.push((pc, start, size));
            }
            cur.clear_range(start, size);
        }
        for &(start, size) in reads {
            cur.set_range(start, size);
        }
        if let Some(slot) = live.get_mut(pc) {
            *slot = cur;
        }
    }
    dead.reverse(); // pc order
    dead
}

/// Dead-store warnings in pc order (the verifier supplies accesses from
/// its abstract interpretation log; offsets are reported relative to
/// `r10`).
pub(crate) fn dead_store_warnings<'a>(
    insns: &[Insn],
    is_ld_dw_hi: &[bool],
    reachable: &[bool],
    access: impl Fn(usize) -> (&'a [(usize, usize)], Option<(usize, usize)>),
) -> Vec<VerifyWarning> {
    dead_stack_stores(insns, is_ld_dw_hi, reachable, access)
        .into_iter()
        .map(|(pc, start, size)| VerifyWarning::DeadStore {
            pc,
            off: start as i64 - STACK_SIZE as i64,
            size,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::{Insn, OP_JEQ, R0, R1, R2, SZ_DW};

    #[test]
    fn cost_report_declines_malformed_structure() {
        // Backward jump.
        let back = Program::new("b", vec![Insn::mov64_imm(R0, 0), Insn::ja(-2), Insn::exit()]);
        assert!(cost_report(&back).is_none());
        // Lone trailing ld_dw lo slot.
        let lone = Program::new("l", vec![Insn::ld_dw_lo(R0, 1)]);
        assert!(cost_report(&lone).is_none());
    }

    #[test]
    fn cost_report_takes_the_longer_arm_and_counts_helpers() {
        let prog = Program::new(
            "c",
            vec![
                Insn::load(SZ_DW, R2, R1, 0),
                Insn::jmp_imm(OP_JEQ, R2, 0, 2), // -> 4 (short arm)
                Insn::call(5),                   // ktime_get_ns
                Insn::call(5),
                Insn::mov64_imm(R0, 0),
                Insn::exit(),
            ],
        );
        let cost = match cost_report(&prog) {
            Some(c) => c,
            None => panic!("no bound"),
        };
        assert_eq!(cost.max_insns, 6);
        assert_eq!(cost.max_helper_calls, 2);
        // 6 insns + 2 ktime calls at weight 2 each.
        assert_eq!(cost.max_weighted_cost, 6 + 2 * helper_weight(Helper::KtimeGetNs));
    }

    #[test]
    fn cost_bound_counts_ld_dw_once() {
        let prog = Program::new(
            "d",
            vec![
                Insn::ld_dw_lo(R0, u64::MAX),
                Insn::ld_dw_hi(u64::MAX),
                Insn::exit(),
            ],
        );
        let cost = match cost_report(&prog) {
            Some(c) => c,
            None => panic!("no bound"),
        };
        assert_eq!(cost.max_insns, 2);
    }

    #[test]
    fn byteset_ranges_round_trip() {
        let mut s = ByteSet::default();
        s.set_range(60, 10); // crosses a word boundary
        assert!(s.intersects_range(0, 61));
        assert!(s.intersects_range(69, 1));
        assert!(!s.intersects_range(0, 60));
        assert!(!s.intersects_range(70, 100));
        s.clear_range(60, 10);
        assert!(!s.intersects_range(0, STACK_SIZE));
        s.set_range(508, 16); // clipped at the stack end
        assert!(s.intersects_range(511, 1));
    }
}
