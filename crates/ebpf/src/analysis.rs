//! Static analysis over probe bytecode: the structural pass, the
//! verifier's warnings, the JIT's helper-inline plan and a worst-case
//! cost certifier.
//!
//! The verifier's abstract interpretation ([`crate::verifier`]) is the
//! only register dataflow; everything here reads what it recorded:
//!
//! * **The verifier** starts from `structure` (`ld_dw` pairing, register
//!   numbers and jump targets, the one structural check, read off the
//!   decoded slots like everything here) and sources its advisory
//!   warnings (unreachable instructions, dead stack stores) from the
//!   byte-granular liveness pass here.
//! * **The JIT** ([`crate::jit`]) emits helper calls according to the
//!   inline plan ([`helper_inline_plan`]): env helpers always inline, and
//!   a map lookup, update or delete inlines where the verifier proved
//!   its map and stack addresses (the map-call facts it attaches with
//!   the access proofs).
//! * **The cost certifier** ([`cost_report`]) bounds the worst-case work
//!   of one invocation. Verified programs are loop-free forward DAGs, so
//!   path maximization is exact: the reported bound is attained by some
//!   input unless branch conditions are correlated, and is never
//!   exceeded. It prices plan-covered call sites at their inlined weight
//!   for the JIT fast-path bound.

use crate::decode::Decoded;
use crate::helpers::Helper;
use crate::insn::{MAX_INSNS, STACK_SIZE};
use crate::maps::MapFd;
use crate::program::Program;
use crate::verifier::{VerifyError, VerifyWarning};

// ---------------------------------------------------------------------------
// Cost certification
// ---------------------------------------------------------------------------

/// Certified worst-case cost of one program invocation.
///
/// Computed by exact longest-path maximization over the loop-free CFG
/// (independent reverse dynamic programs, one per metric). Each
/// bound holds for *every* execution — including trapping ones — because
/// trap instructions are modeled as path terminators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostReport {
    /// Maximum instruction slots executed on any path (a `ld_dw` pair
    /// counts once, matching the interpreter's accounting).
    pub max_insns: u64,
    /// Maximum helper invocations on any path.
    pub max_helper_calls: u64,
    /// Maximum helper invocations on any path that the JIT inline plan
    /// ([`helper_inline_plan`]) covers — env helpers plus provably
    /// inlineable map lookups, updates and deletes. Maximized
    /// independently of `max_trampolined_calls`, so the two need not sum
    /// to `max_helper_calls`.
    pub max_inlined_calls: u64,
    /// Maximum helper invocations on any path that still round-trip
    /// through the sysv64 trampoline under the inline plan.
    pub max_trampolined_calls: u64,
}

impl std::fmt::Display for CostReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worst case: {} insns, {} helper calls ({} inlined / {} trampolined)",
            self.max_insns,
            self.max_helper_calls,
            self.max_inlined_calls,
            self.max_trampolined_calls
        )
    }
}

/// Certifies the worst-case per-invocation cost of `program`, or `None`
/// when the program is not a structurally sound forward DAG (in which
/// case no finite bound can be promised).
///
/// The bound is sound for every input: `max_insns` is an upper bound on
/// [`ExecOutcome::insns_executed`](crate::interp::ExecOutcome) for any
/// successful run, and on instructions retired before any trap. The JIT
/// columns price [`helper_inline_plan`], so a program the verifier has
/// not accepted prices every map call as a trampoline call.
pub fn cost_report(program: &Program) -> Option<CostReport> {
    let decoded = program.decoded();
    let len = decoded.len();
    if len == 0 || len > MAX_INSNS {
        return None;
    }
    let is_hi = structure(decoded).ok()?;
    // Reverse dynamic programs over the forward DAG; index `len` is the
    // virtual fall-off-the-end terminator with zero residual cost.
    let plan = helper_inline_plan(program);
    let mut dp_insns = vec![0u64; len + 1];
    let mut dp_helpers = vec![0u64; len + 1];
    let mut dp_inlined = vec![0u64; len + 1];
    let mut dp_tramp = vec![0u64; len + 1];
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
        let (helper_inc, inl_inc, tramp_inc) = match d {
            Decoded::Call { .. }
                if plan.site(pc).is_some_and(|c| c != HelperInline::Trampoline) =>
            {
                (1, 1, 0)
            }
            Decoded::Call { .. } => (1, 0, 1),
            _ => (0, 0, 0),
        };
        let i = 1 + best(&dp_insns);
        let h = helper_inc + best(&dp_helpers);
        let il = inl_inc + best(&dp_inlined);
        let tr = tramp_inc + best(&dp_tramp);
        if let Some(slot) = dp_insns.get_mut(pc) {
            *slot = i;
        }
        if let Some(slot) = dp_helpers.get_mut(pc) {
            *slot = h;
        }
        if let Some(slot) = dp_inlined.get_mut(pc) {
            *slot = il;
        }
        if let Some(slot) = dp_tramp.get_mut(pc) {
            *slot = tr;
        }
    }
    Some(CostReport {
        max_insns: dp_insns.first().copied().unwrap_or(0),
        max_helper_calls: dp_helpers.first().copied().unwrap_or(0),
        max_inlined_calls: dp_inlined.first().copied().unwrap_or(0),
        max_trampolined_calls: dp_tramp.first().copied().unwrap_or(0),
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
    /// Inlined guarded hash-map update: with the fd, key and value
    /// addresses as compile-time facts, the JIT overwrites a key at its
    /// home slot or inserts one into an EMPTY home slot under the load
    /// bound; every other case takes the trampoline.
    MapUpdateFast,
    /// Inlined guarded hash-map delete: the JIT removes a key that rests
    /// at its home slot, or answers a miss at an EMPTY one; every other
    /// case takes the trampoline.
    MapDeleteFast,
    /// Full sysv64 trampoline round-trip.
    Trampoline,
}

/// A map lookup, update or delete site the verifier proved inlineable:
/// on every path the map is the same `ld_map_fd` constant, the key
/// pointer the same stack offset and, at an update, the value pointer
/// too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapSite {
    /// The constant map fd.
    pub fd: u32,
    /// Key offset from the bottom of the stack frame
    /// (`0..STACK_SIZE - key_size`).
    pub key_off: u32,
    /// Key bytes readable as a 4-byte array index (`key_off + 4` fits).
    pub array_ok: bool,
    /// Key bytes readable as an 8-byte hash key (`key_off + 8` fits).
    pub hash8_ok: bool,
    /// At an update: the value's offset from the bottom of the stack
    /// frame. 0 elsewhere.
    pub value_off: u32,
    /// At an update: how many value bytes the verifier proved in-bounds
    /// and initialised at `value_off` (the verified map's value size).
    /// The emitter copies exactly these and guards the runtime map's
    /// value size against them. 0 elsewhere.
    pub value_len: u32,
}

/// Largest constant fd the map fast paths will specialize on; keeps
/// `fd * DESC_SIZE` comfortably inside a signed displacement and the fd inside
/// a guard's 32-bit immediate. Real registries hold a handful of maps.
const MAX_INLINE_FD: u32 = 0xFFFF;

/// Largest value an inline update copies; larger values keep the
/// trampoline rather than a long unrolled copy.
const MAX_INLINE_VALUE: u32 = 64;

impl MapSite {
    /// The facts for a lookup of map `fd` keyed at `r10 + key`, or `None`
    /// when the fd is too large to specialize on or neither the 4-byte
    /// (array index) nor the 8-byte (hash key) read window fits the
    /// frame. The emitter guards the actual map shape at run time.
    pub(crate) fn new(fd: MapFd, key: i64) -> Option<MapSite> {
        if fd.0 > MAX_INLINE_FD {
            return None;
        }
        let key_off = (STACK_SIZE as i64).checked_add(key)?;
        if key_off < 0 {
            return None;
        }
        let array_ok = key_off + 4 <= STACK_SIZE as i64;
        let hash8_ok = key_off + 8 <= STACK_SIZE as i64;
        if !array_ok && !hash8_ok {
            return None;
        }
        Some(MapSite {
            fd: fd.0,
            key_off: key_off as u32,
            array_ok,
            hash8_ok,
            value_off: 0,
            value_len: 0,
        })
    }

    /// These facts at an update whose `value_len`-byte value sits at
    /// `r10 + value`, or `None` when the key is no hash key or the value
    /// window does not fit the frame or the inline copy.
    pub(crate) fn for_update(self, value: i64, value_len: u32) -> Option<MapSite> {
        let value_off = (STACK_SIZE as i64).checked_add(value)?;
        let fits = value_off >= 0 && value_off + value_len as i64 <= STACK_SIZE as i64;
        (self.hash8_ok && fits && (1..=MAX_INLINE_VALUE).contains(&value_len)).then_some(MapSite {
            value_off: value_off as u32,
            value_len,
            ..self
        })
    }
}

/// The per-program inline plan: one entry per helper-call site. Shared
/// by the JIT emitter (which implements exactly this plan on x86-64),
/// the cost certifier, and `plans.golden` — so the accounting stays
/// platform-independent and in lockstep with what the emitter does.
#[derive(Debug, Clone, Default)]
pub struct InlinePlan {
    sites: Vec<(usize, Helper, HelperInline)>,
    map_sites: Vec<(usize, MapSite)>,
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

    /// The proven facts for a map-call site the plan inlines
    /// ([`HelperInline::MapLookupFast`], [`HelperInline::MapUpdateFast`]
    /// or [`HelperInline::MapDeleteFast`]): the JIT emitter's input.
    pub fn map_site(&self, pc: usize) -> Option<MapSite> {
        self.map_sites
            .iter()
            .find(|(p, _)| *p == pc)
            .map(|(_, site)| *site)
    }
}

/// Computes the JIT inline plan of a program: which helper-call sites
/// the x86-64 emitter inlines and which keep the trampoline. Env helpers
/// always inline; a map lookup, update or delete inlines where the
/// verifier attached map-call facts ([`Program::access_proofs`]), so an
/// unverified program keeps every map call on the trampoline. The plan
/// depends on no platform — on non-x86-64 hosts it still describes what
/// the JIT *would* emit.
pub fn helper_inline_plan(program: &Program) -> InlinePlan {
    let proofs = program.access_proofs();
    let mut plan = InlinePlan::default();
    for (pc, d) in program.decoded().iter().enumerate() {
        let Decoded::Call { helper } = d else {
            continue;
        };
        // The verifier records facts only at the three map calls.
        let site = proofs.and_then(|p| p.map_site(pc));
        let class = match (helper, site) {
            (h, _) if h.is_env() => HelperInline::Env,
            (Helper::MapLookupElem, Some(_)) => HelperInline::MapLookupFast,
            (Helper::MapUpdateElem, Some(_)) => HelperInline::MapUpdateFast,
            (Helper::MapDeleteElem, Some(_)) => HelperInline::MapDeleteFast,
            _ => HelperInline::Trampoline,
        };
        if let Some(site) = site {
            plan.map_sites.push((pc, site));
        }
        plan.sites.push((pc, *helper, class));
    }
    plan
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
        Decoded::Ja { target } => push(*target as usize),
        Decoded::JmpImm { target, .. } | Decoded::JmpReg { target, .. } => {
            push(*target as usize);
            push(pc + 1);
        }
        Decoded::Exit => {}
        _ if d.is_trap() => {}
        _ => push(pc + d.width()),
    }
}

/// The structural pass every analysis starts from, over the decoded
/// slots: the slot after each two-slot `ld_dw` is its hi slot; every
/// other slot must name registers r0–r10 only, and every jump target
/// (an undefined jump-class word's included) must be in bounds, not a
/// hi slot, and strictly forward. Returns the hi-slot map, or the first
/// `MalformedLdDw` alone, or every `BadRegister`/`BadJumpTarget`/
/// `BackEdge` in pc order.
pub(crate) fn structure(decoded: &[Decoded]) -> Result<Vec<bool>, Vec<VerifyError>> {
    if let Some(pc) = decoded.iter().position(|d| *d == Decoded::MalformedLdDw) {
        return Err(vec![VerifyError::MalformedLdDw { pc }]);
    }
    // A hi slot has opcode 0, so it is never itself a two-slot lo.
    let is_hi: Vec<bool> = std::iter::once(false)
        .chain(decoded.iter().map(|d| d.width() == 2))
        .take(decoded.len())
        .collect();
    let mut errors = Vec::new();
    for (pc, (d, &hi)) in decoded.iter().zip(&is_hi).enumerate() {
        if hi {
            continue;
        }
        let target = match *d {
            Decoded::BadRegister { reg, .. } => {
                errors.push(VerifyError::BadRegister { pc, reg });
                continue;
            }
            Decoded::Ja { target }
            | Decoded::JmpImm { target, .. }
            | Decoded::JmpReg { target, .. }
            | Decoded::BadOpcode {
                target: Some(target),
                ..
            } => target,
            _ => continue,
        };
        let into_hi = usize::try_from(target)
            .ok()
            .and_then(|t| is_hi.get(t).copied())
            .unwrap_or(true);
        if into_hi {
            errors.push(VerifyError::BadJumpTarget {
                from: pc,
                to: target,
            });
        } else if target as usize <= pc {
            errors.push(VerifyError::BackEdge {
                from: pc,
                to: target as usize,
            });
        }
    }
    if errors.is_empty() {
        Ok(is_hi)
    } else {
        Err(errors)
    }
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
    let ones = if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
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

/// Dead-store warnings in pc order, from a reverse byte-granular
/// liveness over the stack: exact stores whose bytes are never read on
/// any path to `exit`. `access(pc)` supplies that slot's stack reads and
/// its exact-store candidate as absolute offsets into the 512-byte
/// window (the verifier's abstract interpretation log); warnings report
/// offsets relative to `r10`. The CFG is a forward DAG, so one reverse
/// sweep suffices.
pub(crate) fn dead_store_warnings<'a>(
    decoded: &[Decoded],
    is_ld_dw_hi: &[bool],
    reachable: &[bool],
    access: impl Fn(usize) -> (&'a [(usize, usize)], Option<(usize, usize)>),
) -> Vec<VerifyWarning> {
    let len = decoded.len();
    let mut live: Vec<ByteSet> = vec![ByteSet::default(); len];
    let mut dead = Vec::new();
    let mut succ = Vec::new();
    for pc in (0..len).rev() {
        let skip = is_ld_dw_hi.get(pc).copied().unwrap_or(true)
            || !reachable.get(pc).copied().unwrap_or(false);
        if skip {
            continue;
        }
        let Some(d) = decoded.get(pc) else { continue };
        decoded_succs(pc, d, len, &mut succ);
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
                dead.push(VerifyWarning::DeadStore {
                    pc,
                    off: start as i64 - STACK_SIZE as i64,
                    size,
                });
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::{Insn, OP_JEQ, R0, R1, R2, SZ_DW};

    #[test]
    fn cost_report_declines_malformed_structure() {
        // Backward jump.
        let back = Program::new(
            "b",
            vec![Insn::mov64_imm(R0, 0), Insn::ja(-2), Insn::exit()],
        );
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
