//! Template JIT: compiles the pre-decoded instruction stream to native
//! x86-64 machine code.
//!
//! Each [`Decoded`](crate::decode::Decoded) slot expands to a fixed
//! template of x86-64 instructions that replicates the interpreter's
//! semantics exactly: wrapping arithmetic, div/mod-by-zero
//! results, 32-bit zero extension, shift-count masking, per-instruction
//! budget accounting, and the tagged-region memory model. Memory accesses
//! and helper calls that the verifier could not prove safe trampoline back
//! into the interpreter's `Memory` implementation (the same
//! zero-allocation map hot path); accesses the value-tracking verifier
//! *did* prove in-bounds ([`AccessProofs`](crate::verifier::AccessProofs))
//! are compiled to direct native
//! loads/stores against the real stack/context buffers, eliding the region
//! dispatch and bounds checks entirely.
//!
//! # Semantics contract
//!
//! The JIT is held to the differential suite (interpreter vs JIT, on the
//! verified program and on an unverified, fully checked copy) in
//! `crates/testkit/tests/interp_decode_differential.rs`: identical
//! return values, instruction budgets, fault shapes, map contents, and
//! `ExecEnv` state over generated, fixture, and backend-probe programs.
//!
//! # Register mapping
//!
//! | eBPF | x86-64 | | eBPF | x86-64 |
//! |------|--------|-|------|--------|
//! | r0   | rax    | | r6   | rbx    |
//! | r1   | rdi    | | r7   | r13    |
//! | r2   | rsi    | | r8   | r14    |
//! | r3   | rdx    | | r9   | r15    |
//! | r4   | rcx    | | r10  | rbp    |
//! | r5   | r8     | |      |        |
//!
//! eBPF's caller-saved registers (r0–r5) land on x86-64 caller-saved
//! registers, so helper-call spills line up with the ABI. `r12` holds the
//! `JitCtx` pointer, `r11` counts the remaining instruction budget down
//! to zero, and `r9`/`r10` are scratch.
//!
//! # Fallback rules
//!
//! `compile` returns `None` (and the VM falls back to the interpreter)
//! when: the target is not x86-64 Linux, the program exceeds
//! `MAX_INSNS` slots, any slot names a register above r10 (raw encodings
//! allow r11–r15; the interpreter panics on them, so they never execute),
//! or the executable buffer cannot be mapped.

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub use imp::*;

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
pub use stub::*;

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod imp {
    use crate::analysis::{HelperInline, InlinePlan, LookupSite};
    use crate::decode::{AluOp, CmpOp, Decoded};
    use crate::helpers::Helper;
    use crate::insn::{MAX_INSNS, REG_COUNT, STACK_SIZE};
    use crate::interp::{
        call_helper, ExecEnv, ExecError, ExecOutcome, Memory, CALLER_SAVED_POISON, CTX_BASE,
        MAP_SLOT_BASE, MAP_SLOT_STRIDE, STACK_BASE,
    };
    use crate::mapindex::{
        DESC_KIND_ARRAY, DESC_KIND_HASH, INDEX_OCCUPIED, INDEX_SEED, MIX64_MUL1, MIX64_MUL2,
    };
    use crate::program::Program;
    use crate::verifier::{AccessProofs, ProvenRegion};

    // ---------------------------------------------------------------
    // x86-64 register numbers.
    // ---------------------------------------------------------------
    const RAX: u8 = 0;
    const RCX: u8 = 1;
    const RDX: u8 = 2;
    const RBX: u8 = 3;
    const RBP: u8 = 5;
    const RSI: u8 = 6;
    const RDI: u8 = 7;
    const R8: u8 = 8;
    const R9: u8 = 9;
    const R10: u8 = 10;
    const R11: u8 = 11;
    const R12: u8 = 12;
    const R13: u8 = 13;
    const R14: u8 = 14;
    const R15: u8 = 15;

    /// eBPF register r0..r10 → x86-64 register.
    const X86: [u8; REG_COUNT] = [RAX, RDI, RSI, RDX, RCX, R8, RBX, R13, R14, R15, RBP];

    // ---------------------------------------------------------------
    // JitCtx layout (must match the hard-coded offsets below).
    // ---------------------------------------------------------------
    const OFF_REGS: i32 = 0x00; // [u64; 11]
    const OFF_REMAINING: i32 = 0x58;
    const OFF_STATUS: i32 = 0x60;
    const OFF_ERR_PC: i32 = 0x68;
    const OFF_ERR_AUX: i32 = 0x70;
    const OFF_STACK_BIAS: i32 = 0x78;
    const OFF_CTX_BIAS: i32 = 0x80;
    const OFF_TRAMP_LOAD: i32 = 0x88;
    const OFF_TRAMP_STORE: i32 = 0x90;
    const OFF_TRAMP_HELPER: i32 = 0x98;
    // Never referenced by emitted code (trampolines reach the state via
    // the ctx in Rust); kept so the layout test pins every field.
    #[allow(dead_code)]
    const OFF_STATE: i32 = 0xA0;
    const OFF_BUDGET: i32 = 0xA8;
    // Environment snapshot for inlined helpers (DESIGN §6f).
    const OFF_ENV_KTIME: i32 = 0xB0;
    const OFF_ENV_PID_TGID: i32 = 0xB8;
    const OFF_ENV_PRANDOM: i32 = 0xC0;
    // Map-value slot vector (base/len/cap of `Vm::slots`' spare-capacity
    // buffer) and the registry's runtime map descriptors, for the inline
    // map-lookup fast path.
    const OFF_SLOTS_BASE: i32 = 0xC8;
    const OFF_SLOTS_LEN: i32 = 0xD0;
    const OFF_SLOTS_CAP: i32 = 0xD8;
    const OFF_DESCS_BASE: i32 = 0xE0;
    const OFF_DESCS_LEN: i32 = 0xE8;

    const STATUS_OK: i32 = 0;
    const STATUS_TRAMP_FAULT: i32 = 1;
    const STATUS_BUDGET: i32 = 2;
    const STATUS_FELL_OFF_END: i32 = 3;
    const STATUS_BAD_JUMP: i32 = 4;
    const STATUS_BAD_OPCODE: i32 = 5;
    const STATUS_UNKNOWN_HELPER: i32 = 6;
    const STATUS_MALFORMED_LD_DW: i32 = 7;

    /// In/out block shared between the JIT-compiled code and the Rust
    /// wrapper: eBPF register file, budget countdown, exit status, and the
    /// trampoline plumbing.
    #[repr(C)]
    struct JitCtx {
        regs: [u64; REG_COUNT],
        remaining: u64,
        status: u64,
        err_pc: u64,
        err_aux: u64,
        stack_bias: u64,
        ctx_bias: u64,
        tramp_load: u64,
        tramp_store: u64,
        tramp_helper: u64,
        state: u64,
        budget: u64,
        /// `ExecEnv::ktime_ns`, loaded directly by inlined `ktime_get_ns`.
        env_ktime: u64,
        /// `ExecEnv::pid_tgid`, loaded directly by inlined
        /// `get_current_pid_tgid`.
        env_pid_tgid: u64,
        /// `ExecEnv::prandom_state`; inlined `get_prandom_u32` advances it
        /// in place and [`run`] writes it back on every exit path.
        env_prandom: u64,
        /// `Vm::slots` buffer: inlined lookups append `SlotEntry` records
        /// at `slots_base + slots_len * 24` while `slots_len < slots_cap`
        /// (never allocating); trampolines re-sync all three around any
        /// Rust-side `Vec` use.
        slots_base: u64,
        slots_len: u64,
        slots_cap: u64,
        /// `MapRegistry::runtime_descs` table: one 32-byte
        /// `MapRuntimeDesc` per fd, rechecked at run time by every
        /// inlined lookup (nothing about map shape is baked at compile
        /// time).
        descs_base: u64,
        descs_len: u64,
    }

    /// Lifetime-erased pointers to the interpreter-side execution state,
    /// reachable from trampolines via `JitCtx::state`.
    struct TrampState {
        mem: *mut Memory<'static>,
        scratch: *mut Vec<u8>,
        env: *mut ExecEnv,
        trace_output: *mut Vec<Vec<u8>>,
        fault: Option<ExecError>,
    }

    // ---------------------------------------------------------------
    // Trampolines: native code -> interpreter memory model.
    // ---------------------------------------------------------------
    // meta32 packing (load/store): dst(bits 0-4) | size(bits 8-11) |
    // proven-map flag(bit 14) | pc(bits 16-31).
    // meta32 packing (helper): helper id(bits 0-15) | pc(bits 16-31).

    /// # Safety
    ///
    /// Called only from JIT-compiled code with the `JitCtx` built by
    /// [`run`]; all pointers are live for the duration of the call.
    /// Publishes JIT-side slot pushes to the Rust `Vec` before any
    /// interpreter code resolves slot handles.
    ///
    /// # Safety
    ///
    /// `ctx.slots_len` only grows past the `Vec`'s own length via inline
    /// pushes that wrote complete `SlotEntry` records into spare
    /// capacity, and never exceeds `slots_cap` (== the `Vec` capacity).
    unsafe fn slots_sync_in(ctx: &JitCtx, mem: &mut Memory<'_>) {
        mem.slots.set_len(ctx.slots_len as usize);
    }

    /// Re-captures the slot vector after Rust-side pushes (which may
    /// have reallocated the buffer).
    fn slots_sync_out(ctx: &mut JitCtx, mem: &mut Memory<'_>) {
        ctx.slots_base = mem.slots.as_mut_ptr() as u64;
        ctx.slots_len = mem.slots.len() as u64;
        ctx.slots_cap = mem.slots.capacity() as u64;
    }

    unsafe extern "sysv64" fn tramp_load(ctx: *mut JitCtx, addr: u64, meta: u32) -> u32 {
        let ctx = &mut *ctx;
        let st = &mut *(ctx.state as *mut TrampState);
        let mem = &mut *st.mem;
        slots_sync_in(ctx, mem);
        let dst = (meta & 0x1f) as usize;
        let size = ((meta >> 8) & 0xf) as usize;
        let pc = (meta >> 16) as usize;
        let result = if meta & (1 << 14) != 0 {
            mem.read_map_value(pc, addr, size)
        } else {
            mem.read(pc, addr, size)
        };
        match result {
            Ok(v) => {
                ctx.regs[dst] = v;
                0
            }
            Err(e) => {
                st.fault = Some(e);
                1
            }
        }
    }

    /// # Safety
    ///
    /// Same contract as [`tramp_load`].
    unsafe extern "sysv64" fn tramp_store(
        ctx: *mut JitCtx,
        addr: u64,
        value: u64,
        meta: u32,
    ) -> u32 {
        let ctx = &mut *ctx;
        let st = &mut *(ctx.state as *mut TrampState);
        let mem = &mut *st.mem;
        slots_sync_in(ctx, mem);
        let size = ((meta >> 8) & 0xf) as usize;
        let pc = (meta >> 16) as usize;
        let result = if meta & (1 << 14) != 0 {
            mem.write_map_value(pc, addr, size, value)
        } else {
            mem.write(pc, addr, size, value)
        };
        match result {
            Ok(()) => 0,
            Err(e) => {
                st.fault = Some(e);
                1
            }
        }
    }

    /// # Safety
    ///
    /// Same contract as [`tramp_load`].
    unsafe extern "sysv64" fn tramp_helper(ctx: *mut JitCtx, meta: u32) -> u32 {
        let ctx = &mut *ctx;
        let st = &mut *(ctx.state as *mut TrampState);
        let mem = &mut *st.mem;
        let scratch = &mut *st.scratch;
        let env = &mut *st.env;
        let trace_output = &mut *st.trace_output;
        let id = (meta & 0xffff) as i32;
        let pc = (meta >> 16) as usize;
        let helper = match crate::helpers::Helper::from_id(id) {
            Some(h) => h,
            // compile() only emits helper-call templates for ids that
            // resolved at decode time.
            None => unreachable!("JIT emitted a call to an unknown helper id"),
        };
        slots_sync_in(ctx, mem);
        let result = call_helper(pc, helper, &mut ctx.regs, mem, scratch, env, trace_output);
        // `map_lookup_elem` may have pushed (and reallocated) the slot
        // vector; republish it for subsequent inline pushes.
        slots_sync_out(ctx, mem);
        match result {
            Ok(()) => 0,
            Err(e) => {
                st.fault = Some(e);
                1
            }
        }
    }

    // ---------------------------------------------------------------
    // Executable buffer: raw mmap/mprotect/munmap syscalls (no libc).
    // ---------------------------------------------------------------

    struct ExecBuf {
        ptr: *mut u8,
        len: usize,
    }

    // The buffer is immutable after mprotect(RX); sharing the raw pointer
    // across threads is safe.
    unsafe impl Send for ExecBuf {}
    unsafe impl Sync for ExecBuf {}

    impl ExecBuf {
        /// Maps an anonymous RW page range, copies `code` in, and seals it
        /// read+execute. Returns `None` if the kernel refuses.
        fn new(code: &[u8]) -> Option<ExecBuf> {
            let len = code.len().div_ceil(4096) * 4096;
            if len == 0 {
                return None;
            }
            // SAFETY: plain mmap/mprotect syscalls on an anonymous private
            // mapping; no Rust memory is touched. rcx/r11 are declared
            // clobbered (the syscall instruction overwrites them).
            unsafe {
                let addr: i64;
                std::arch::asm!(
                    "syscall",
                    inlateout("rax") 9i64 => addr, // mmap
                    in("rdi") 0u64,
                    in("rsi") len,
                    in("rdx") 3u64,    // PROT_READ | PROT_WRITE
                    in("r10") 0x22u64, // MAP_PRIVATE | MAP_ANONYMOUS
                    in("r8") -1i64,    // fd
                    in("r9") 0u64,     // offset
                    out("rcx") _,
                    out("r11") _,
                    options(nostack),
                );
                if addr < 0 {
                    return None;
                }
                let ptr = addr as *mut u8;
                std::ptr::copy_nonoverlapping(code.as_ptr(), ptr, code.len());
                let rc: i64;
                std::arch::asm!(
                    "syscall",
                    inlateout("rax") 10i64 => rc, // mprotect
                    in("rdi") ptr,
                    in("rsi") len,
                    in("rdx") 5u64, // PROT_READ | PROT_EXEC
                    out("rcx") _,
                    out("r11") _,
                    options(nostack),
                );
                if rc != 0 {
                    // Seal failed; unmap and decline rather than run from
                    // a writable page.
                    Self::unmap(ptr, len);
                    return None;
                }
                Some(ExecBuf { ptr, len })
            }
        }

        /// # Safety
        ///
        /// `ptr`/`len` must be a live anonymous mapping owned by us.
        unsafe fn unmap(ptr: *mut u8, len: usize) {
            let _rc: i64;
            std::arch::asm!(
                "syscall",
                inlateout("rax") 11i64 => _rc, // munmap
                in("rdi") ptr,
                in("rsi") len,
                out("rcx") _,
                out("r11") _,
                options(nostack),
            );
        }
    }

    impl Drop for ExecBuf {
        fn drop(&mut self) {
            // SAFETY: ptr/len came from our own successful mmap.
            unsafe { Self::unmap(self.ptr, self.len) }
        }
    }

    /// A compiled program: executable native code plus the metadata the
    /// VM needs to decide whether it may run it.
    pub struct JitProgram {
        buf: ExecBuf,
        /// Minimum runtime context length required by elided context
        /// loads (0 when no context access was elided).
        min_ctx_len: usize,
        /// Number of memory accesses compiled without bounds checks.
        elided: usize,
        /// Helper-call sites compiled to inline code (env helpers plus
        /// guarded map-lookup fast paths).
        inlined_calls: usize,
        /// Helper-call sites that kept the full trampoline round-trip.
        trampolined_calls: usize,
    }

    impl std::fmt::Debug for JitProgram {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("JitProgram")
                .field("code_bytes", &self.buf.len)
                .field("min_ctx_len", &self.min_ctx_len)
                .field("elided", &self.elided)
                .field("inlined_calls", &self.inlined_calls)
                .field("trampolined_calls", &self.trampolined_calls)
                .finish()
        }
    }

    impl JitProgram {
        /// Minimum context length for which this code is sound.
        pub fn min_ctx_len(&self) -> usize {
            self.min_ctx_len
        }

        /// Number of memory accesses compiled without bounds checks.
        pub fn elided_accesses(&self) -> usize {
            self.elided
        }

        /// Helper-call sites compiled to inline code.
        pub fn inlined_calls(&self) -> usize {
            self.inlined_calls
        }

        /// Helper-call sites that kept the trampoline round-trip.
        pub fn trampolined_calls(&self) -> usize {
            self.trampolined_calls
        }
    }

    /// True when this build can JIT at all.
    pub fn supported() -> bool {
        true
    }

    /// True when `program` would compile (register numbers in range,
    /// program within [`MAX_INSNS`]); the actual `mmap` can still fail.
    pub fn is_compilable(program: &Program) -> bool {
        regs_in_range(program.decoded()) && program.len() <= MAX_INSNS && !program.is_empty()
    }

    /// Raw instruction words admit registers r11–r15 (4-bit fields); the
    /// interpreter would panic indexing its register file, so such
    /// programs are left to the interpreter rather than compiled.
    fn regs_in_range(decoded: &[Decoded]) -> bool {
        decoded.iter().all(|d| match *d {
            Decoded::LdImm64 { dst, .. } => dst < 11,
            Decoded::Load { dst, src, .. }
            | Decoded::StoreReg { dst, src, .. }
            | Decoded::Alu64Reg { dst, src, .. }
            | Decoded::Alu32Reg { dst, src, .. }
            | Decoded::JmpReg { dst, src, .. } => dst < 11 && src < 11,
            Decoded::StoreImm { dst, .. }
            | Decoded::Alu64Imm { dst, .. }
            | Decoded::Alu32Imm { dst, .. }
            | Decoded::JmpImm { dst, .. } => dst < 11,
            Decoded::MalformedLdDw
            | Decoded::Ja { .. }
            | Decoded::Call { .. }
            | Decoded::UnknownHelper { .. }
            | Decoded::Exit
            | Decoded::BadOpcode { .. } => true,
        })
    }

    // ---------------------------------------------------------------
    // Emitter.
    // ---------------------------------------------------------------

    #[derive(Clone, Copy)]
    enum Label {
        Slot(usize),
        Budget,
        TrampFault,
        Epilogue,
    }

    struct Emitter {
        code: Vec<u8>,
        /// (position of a rel32 field, jump target).
        fixups: Vec<(usize, Label)>,
        /// Code offset of each slot's budget check; `len + 1` entries —
        /// the last is the fell-off-the-end pseudo-slot.
        slot_offsets: Vec<usize>,
        budget_off: usize,
        tramp_fault_off: usize,
        epilogue_off: usize,
    }

    // Condition codes (for Jcc).
    const CC_B: u8 = 0x2;
    const CC_AE: u8 = 0x3;
    const CC_Z: u8 = 0x4;
    const CC_NZ: u8 = 0x5;
    const CC_BE: u8 = 0x6;
    const CC_A: u8 = 0x7;
    const CC_L: u8 = 0xC;
    const CC_GE: u8 = 0xD;
    const CC_LE: u8 = 0xE;
    const CC_G: u8 = 0xF;

    fn cmp_cc(op: CmpOp) -> u8 {
        match op {
            CmpOp::Eq => CC_Z,
            CmpOp::Ne => CC_NZ,
            CmpOp::Gt => CC_A,
            CmpOp::Ge => CC_AE,
            CmpOp::Lt => CC_B,
            CmpOp::Le => CC_BE,
            CmpOp::Set => CC_NZ, // after TEST
            CmpOp::Sgt => CC_G,
            CmpOp::Sge => CC_GE,
            CmpOp::Slt => CC_L,
            CmpOp::Sle => CC_LE,
        }
    }

    impl Emitter {
        fn new(slots: usize) -> Emitter {
            Emitter {
                code: Vec::with_capacity(slots * 48 + 128),
                fixups: Vec::new(),
                slot_offsets: vec![0; slots + 1],
                budget_off: 0,
                tramp_fault_off: 0,
                epilogue_off: 0,
            }
        }

        fn b(&mut self, byte: u8) {
            self.code.push(byte);
        }

        fn imm32(&mut self, v: u32) {
            self.code.extend_from_slice(&v.to_le_bytes());
        }

        fn imm64(&mut self, v: u64) {
            self.code.extend_from_slice(&v.to_le_bytes());
        }

        /// REX prefix; emitted only when a bit is set.
        fn rex(&mut self, w: bool, reg: u8, rm: u8) {
            let mut b = 0x40u8;
            if w {
                b |= 8;
            }
            if reg >= 8 {
                b |= 4;
            }
            if rm >= 8 {
                b |= 1;
            }
            if b != 0x40 {
                self.b(b);
            }
        }

        fn modrm_reg(&mut self, reg: u8, rm: u8) {
            self.b(0xC0 | ((reg & 7) << 3) | (rm & 7));
        }

        /// ModRM (+SIB) for `[base + disp]`. Always uses disp8/disp32
        /// (never mod 00), sidestepping the rbp/r13 special case.
        fn modrm_mem(&mut self, reg: u8, base: u8, disp: i32) {
            let small = (-128..=127).contains(&disp);
            let modbits = if small { 0x40 } else { 0x80 };
            self.b(modbits | ((reg & 7) << 3) | (base & 7));
            if base & 7 == 4 {
                self.b(0x24); // SIB: no index, base = rsp/r12
            }
            if small {
                self.b(disp as i8 as u8);
            } else {
                self.imm32(disp as u32);
            }
        }

        /// `mov reg, [base + disp]` (64-bit).
        fn mov_rm(&mut self, reg: u8, base: u8, disp: i32) {
            self.rex(true, reg, base);
            self.b(0x8B);
            self.modrm_mem(reg, base, disp);
        }

        /// `mov [base + disp], reg` (64-bit).
        fn mov_mr(&mut self, base: u8, disp: i32, reg: u8) {
            self.rex(true, reg, base);
            self.b(0x89);
            self.modrm_mem(reg, base, disp);
        }

        /// `mov qword [r12 + disp], imm32` (sign-extended).
        fn mov_ctxmem_imm(&mut self, disp: i32, imm: i32) {
            self.mov_mi(R12, disp, imm);
        }

        /// `mov qword [base + disp], imm32` (sign-extended).
        fn mov_mi(&mut self, base: u8, disp: i32, imm: i32) {
            self.rex(true, 0, base);
            self.b(0xC7);
            self.modrm_mem(0, base, disp);
            self.imm32(imm as u32);
        }

        /// `mov reg32, [base + disp]` (zero-extends).
        fn mov32_rm(&mut self, reg: u8, base: u8, disp: i32) {
            self.rex(false, reg, base);
            self.b(0x8B);
            self.modrm_mem(reg, base, disp);
        }

        /// `cmp reg, [base + disp]` (64- or 32-bit by `w`).
        fn cmp_rm(&mut self, w: bool, reg: u8, base: u8, disp: i32) {
            self.rex(w, reg, base);
            self.b(0x3B);
            self.modrm_mem(reg, base, disp);
        }

        /// `cmp dword [base + disp], imm32`.
        fn cmp32_mi(&mut self, base: u8, disp: i32, imm: i32) {
            self.rex(false, 0, base);
            self.b(0x81);
            self.modrm_mem(7, base, disp);
            self.imm32(imm as u32);
        }

        /// `and reg, [base + disp]` (64-bit).
        fn and_rm(&mut self, reg: u8, base: u8, disp: i32) {
            self.rex(true, reg, base);
            self.b(0x23);
            self.modrm_mem(reg, base, disp);
        }

        /// Shift by a constant: `ext` 4 = shl, 5 = shr, 7 = sar.
        fn shift_ri(&mut self, w: bool, ext: u8, reg: u8, count: u8) {
            self.rex(w, 0, reg);
            self.b(0xC1);
            self.modrm_reg(ext, reg);
            self.b(count);
        }

        /// `imul dst, src` (64-bit; low bits match unsigned wrap).
        fn imul_rr(&mut self, dst: u8, src: u8) {
            self.rex(true, dst, src);
            self.b(0x0F);
            self.b(0xAF);
            self.modrm_reg(dst, src);
        }

        /// `imul dst, src, imm32` (64-bit).
        fn imul_rri(&mut self, dst: u8, src: u8, imm: i32) {
            self.rex(true, dst, src);
            self.b(0x69);
            self.modrm_reg(dst, src);
            self.imm32(imm as u32);
        }

        /// `mov dst, imm` choosing the shortest encoding that preserves
        /// the full 64-bit value.
        fn mov_ri(&mut self, dst: u8, imm: u64) {
            if imm <= u32::MAX as u64 {
                // 32-bit mov zero-extends.
                self.rex(false, 0, dst);
                self.b(0xB8 + (dst & 7));
                self.imm32(imm as u32);
            } else if imm as i64 >= i32::MIN as i64 && (imm as i64) < 0 {
                // Negative but fits sign-extended imm32 (the first branch
                // already took every positive value that fits).
                self.rex(true, 0, dst);
                self.b(0xC7);
                self.modrm_reg(0, dst);
                self.imm32(imm as u32);
            } else {
                self.rex(true, 0, dst);
                self.b(0xB8 + (dst & 7));
                self.imm64(imm);
            }
        }

        /// `mov dst32, imm32` (zero-extends).
        fn mov_ri32(&mut self, dst: u8, imm: u32) {
            self.rex(false, 0, dst);
            self.b(0xB8 + (dst & 7));
            self.imm32(imm);
        }

        /// Two-operand ALU, register-register: `op dst, src`.
        fn alu_rr(&mut self, w: bool, opcode: u8, src: u8, dst: u8) {
            self.rex(w, src, dst);
            self.b(opcode);
            self.modrm_reg(src, dst);
        }

        /// Group-1 ALU with imm32: `op dst, imm32` (81 /ext).
        fn alu_ri(&mut self, w: bool, ext: u8, dst: u8, imm: u32) {
            self.rex(w, 0, dst);
            self.b(0x81);
            self.modrm_reg(ext, dst);
            self.imm32(imm);
        }

        /// `lea reg, [base + disp]` (64-bit).
        fn lea(&mut self, reg: u8, base: u8, disp: i32) {
            self.rex(true, reg, base);
            self.b(0x8D);
            self.modrm_mem(reg, base, disp);
        }

        /// `add reg, [base + disp]` (64-bit).
        fn add_rm(&mut self, reg: u8, base: u8, disp: i32) {
            self.rex(true, reg, base);
            self.b(0x03);
            self.modrm_mem(reg, base, disp);
        }

        fn push_reg(&mut self, reg: u8) {
            if reg >= 8 {
                self.b(0x41);
            }
            self.b(0x50 + (reg & 7));
        }

        fn pop_reg(&mut self, reg: u8) {
            if reg >= 8 {
                self.b(0x41);
            }
            self.b(0x58 + (reg & 7));
        }

        fn jcc(&mut self, cc: u8, label: Label) {
            self.b(0x0F);
            self.b(0x80 | cc);
            self.fixups.push((self.code.len(), label));
            self.imm32(0);
        }

        fn jmp(&mut self, label: Label) {
            self.b(0xE9);
            self.fixups.push((self.code.len(), label));
            self.imm32(0);
        }

        /// Short forward jump with a patch site; returns the rel8 position.
        fn jcc8_fwd(&mut self, cc: u8) -> usize {
            self.b(0x70 | cc);
            self.b(0);
            self.code.len() - 1
        }

        fn jmp8_fwd(&mut self) -> usize {
            self.b(0xEB);
            self.b(0);
            self.code.len() - 1
        }

        fn patch8(&mut self, pos: usize) {
            let rel = self.code.len() as i64 - (pos as i64 + 1);
            debug_assert!((0..=127).contains(&rel), "rel8 jump out of range");
            self.code[pos] = rel as u8;
        }

        /// Forward near jump with a rel32 patch site (for the long
        /// inline-lookup sequences where rel8 cannot reach); returns the
        /// rel32 position for [`Emitter::patch32`].
        fn jcc32_fwd(&mut self, cc: u8) -> usize {
            self.b(0x0F);
            self.b(0x80 | cc);
            self.imm32(0);
            self.code.len() - 4
        }

        fn jmp32_fwd(&mut self) -> usize {
            self.b(0xE9);
            self.imm32(0);
            self.code.len() - 4
        }

        fn patch32(&mut self, pos: usize) {
            let rel = self.code.len() as i64 - (pos as i64 + 4);
            let bytes = (rel as i32).to_le_bytes();
            self.code[pos..pos + 4].copy_from_slice(&bytes);
        }

        /// `call [r12 + disp]`.
        fn call_ctxmem(&mut self, disp: i32) {
            self.b(0x41); // REX.B for r12
            self.b(0xFF);
            self.modrm_mem(2, R12, disp);
        }

        /// Per-slot budget countdown: `sub r11, 1; jb Budget`.
        fn budget_check(&mut self) {
            self.b(0x49);
            self.b(0x83);
            self.b(0xEB);
            self.b(0x01);
            self.jcc(CC_B, Label::Budget);
        }

        /// Stores pc/aux/status into the ctx and bails to the epilogue.
        fn error_stub(&mut self, status: i32, pc: usize, aux: i32) {
            self.mov_ctxmem_imm(OFF_ERR_PC, pc as i32);
            self.mov_ctxmem_imm(OFF_ERR_AUX, aux);
            self.mov_ctxmem_imm(OFF_STATUS, status);
            self.jmp(Label::Epilogue);
        }

        // -----------------------------------------------------------
        // Trampoline call sequences.
        // -----------------------------------------------------------

        /// Spills eBPF r0–r5 (all on caller-saved x86 registers) plus the
        /// budget counter so a trampoline may clobber them.
        fn spill_caller_saved(&mut self) {
            for r in 0..6 {
                self.mov_mr(R12, OFF_REGS + 8 * r, X86[r as usize]);
            }
            self.mov_mr(R12, OFF_REMAINING, R11);
        }

        fn reload_caller_saved(&mut self) {
            for r in 0..6 {
                self.mov_rm(X86[r as usize], R12, OFF_REGS + 8 * r);
            }
            self.mov_rm(R11, R12, OFF_REMAINING);
        }

        fn spill_all(&mut self) {
            for r in 0..REG_COUNT as i32 {
                self.mov_mr(R12, OFF_REGS + 8 * r, X86[r as usize]);
            }
            self.mov_mr(R12, OFF_REMAINING, R11);
        }

        fn reload_all(&mut self) {
            for r in 0..REG_COUNT as i32 {
                self.mov_rm(X86[r as usize], R12, OFF_REGS + 8 * r);
            }
            self.mov_rm(R11, R12, OFF_REMAINING);
        }

        /// `test eax, eax; jnz TrampFault` after a trampoline call.
        fn check_tramp_result(&mut self) {
            self.b(0x85);
            self.b(0xC0);
            self.jcc(CC_NZ, Label::TrampFault);
        }

        /// Writes the interpreter's clobber poison into r1–r5 (rax/r0
        /// holds the helper result and is preserved).
        fn poison_caller_saved(&mut self) {
            self.mov_ri(RDI, CALLER_SAVED_POISON);
            for &reg in &X86[2..6] {
                self.alu_rr(true, 0x89, RDI, reg);
            }
        }
    }

    // ---------------------------------------------------------------
    // Compilation.
    // ---------------------------------------------------------------

    fn load_store_meta(dst: u8, size: u8, proven_map: bool, pc: usize) -> u32 {
        (dst as u32) | ((size as u32) << 8) | ((proven_map as u32) << 14) | ((pc as u32) << 16)
    }

    /// Compiles a decoded program to native code. `plan` says which
    /// helper-call sites inline (the platform-independent plan the cost
    /// certifier and `plans.golden` report against). `proofs` enables
    /// bounds-check elision for accesses the verifier proved safe;
    /// `None` compiles every access through the checked trampoline.
    pub(crate) fn compile(
        decoded: &[Decoded],
        plan: &InlinePlan,
        proofs: Option<&AccessProofs>,
    ) -> Option<JitProgram> {
        if decoded.is_empty() || decoded.len() > MAX_INSNS || !regs_in_range(decoded) {
            return None;
        }
        let len = decoded.len();
        let mut e = Emitter::new(len);
        let mut elided = 0usize;
        let mut needs_ctx_len = false;

        // Prologue: save callee-saved registers, align the stack, stash
        // the JitCtx pointer in r12, load the register file and budget.
        for r in [RBX, RBP, R12, R13, R14, R15] {
            e.push_reg(r);
        }
        e.b(0x48); // sub rsp, 8 (16-byte alignment at call sites)
        e.b(0x83);
        e.b(0xEC);
        e.b(0x08);
        // mov r12, rdi
        e.b(0x49);
        e.b(0x89);
        e.b(0xFC);
        for r in 0..REG_COUNT as i32 {
            e.mov_rm(X86[r as usize], R12, OFF_REGS + 8 * r);
        }
        e.mov_rm(R11, R12, OFF_BUDGET);

        for (pc, d) in decoded.iter().enumerate() {
            e.slot_offsets[pc] = e.code.len();
            e.budget_check();
            let proven = proofs.and_then(|p| p.proven(pc));
            emit_slot(
                &mut e,
                pc,
                *d,
                len,
                proven,
                plan,
                &mut elided,
                &mut needs_ctx_len,
            );
        }

        // Fell-off-the-end pseudo-slot: the interpreter checks the budget
        // *before* discovering there is no instruction to fetch.
        e.slot_offsets[len] = e.code.len();
        e.budget_check();
        e.error_stub(STATUS_FELL_OFF_END, 0, 0);

        // Shared stubs.
        e.budget_off = e.code.len();
        e.mov_ctxmem_imm(OFF_STATUS, STATUS_BUDGET);
        e.jmp(Label::Epilogue);
        e.tramp_fault_off = e.code.len();
        e.mov_ctxmem_imm(OFF_STATUS, STATUS_TRAMP_FAULT);
        e.jmp(Label::Epilogue);

        // Epilogue: write back r0 and the budget counter, restore the
        // callee-saved registers, return.
        e.epilogue_off = e.code.len();
        e.mov_mr(R12, OFF_REGS, RAX);
        e.mov_mr(R12, OFF_REMAINING, R11);
        e.b(0x48); // add rsp, 8
        e.b(0x83);
        e.b(0xC4);
        e.b(0x08);
        for r in [R15, R14, R13, R12, RBP, RBX] {
            e.pop_reg(r);
        }
        e.b(0xC3); // ret

        // Resolve rel32 fixups.
        for (pos, label) in std::mem::take(&mut e.fixups) {
            let target = match label {
                Label::Slot(i) => e.slot_offsets[i],
                Label::Budget => e.budget_off,
                Label::TrampFault => e.tramp_fault_off,
                Label::Epilogue => e.epilogue_off,
            };
            let rel = target as i64 - (pos as i64 + 4);
            let bytes = (rel as i32).to_le_bytes();
            e.code[pos..pos + 4].copy_from_slice(&bytes);
        }

        let min_ctx_len = if needs_ctx_len {
            proofs.map_or(0, |p| p.min_ctx_len())
        } else {
            0
        };
        Some(JitProgram {
            buf: ExecBuf::new(&e.code)?,
            min_ctx_len,
            elided,
            inlined_calls: plan.inlined(),
            trampolined_calls: plan.trampolined(),
        })
    }

    /// Emits one decoded slot. Fallthrough continues into the next slot's
    /// budget check, exactly mirroring `pc += 1` in the interpreter.
    #[allow(clippy::too_many_arguments)]
    fn emit_slot(
        e: &mut Emitter,
        pc: usize,
        d: Decoded,
        len: usize,
        proven: Option<ProvenRegion>,
        plan: &InlinePlan,
        elided: &mut usize,
        needs_ctx_len: &mut bool,
    ) {
        match d {
            Decoded::LdImm64 { dst, value } => {
                e.mov_ri(X86[dst as usize], value);
                // ld_dw consumes two slots; its hi slot is still emitted
                // (as whatever it decodes to alone) for jumps into it.
                e.jmp(Label::Slot(pc + 2));
            }
            Decoded::MalformedLdDw => e.error_stub(STATUS_MALFORMED_LD_DW, pc, 0),
            Decoded::BadOpcode { code } => e.error_stub(STATUS_BAD_OPCODE, pc, code as i32),
            Decoded::UnknownHelper { id } => e.error_stub(STATUS_UNKNOWN_HELPER, pc, id),
            Decoded::Exit => {
                e.mov_ctxmem_imm(OFF_STATUS, STATUS_OK);
                e.jmp(Label::Epilogue);
            }
            Decoded::Load {
                size,
                dst,
                src,
                off,
            } => match proven {
                Some(ProvenRegion::Stack) => {
                    emit_direct_load(e, size, dst, src, off, OFF_STACK_BIAS);
                    *elided += 1;
                }
                Some(ProvenRegion::Ctx) => {
                    emit_direct_load(e, size, dst, src, off, OFF_CTX_BIAS);
                    *elided += 1;
                    *needs_ctx_len = true;
                }
                Some(ProvenRegion::MapValue) => {
                    emit_map_value_fast(e, pc, size, src, off, MapAccess::Load { dst });
                    *elided += 1;
                }
                None => emit_tramp_load(e, pc, size, dst, src, off, false),
            },
            Decoded::StoreReg {
                size,
                dst,
                src,
                off,
            } => match proven {
                Some(ProvenRegion::Stack) => {
                    emit_direct_store(e, size, dst, off, StoreVal::Reg(src));
                    *elided += 1;
                }
                Some(ProvenRegion::MapValue) => {
                    emit_map_value_fast(
                        e,
                        pc,
                        size,
                        dst,
                        off,
                        MapAccess::Store(StoreVal::Reg(src)),
                    );
                    *elided += 1;
                }
                _ => emit_tramp_store(e, pc, size, dst, off, StoreVal::Reg(src), false),
            },
            Decoded::StoreImm {
                size,
                dst,
                off,
                imm,
            } => match proven {
                Some(ProvenRegion::Stack) => {
                    emit_direct_store(e, size, dst, off, StoreVal::Imm(imm));
                    *elided += 1;
                }
                Some(ProvenRegion::MapValue) => {
                    emit_map_value_fast(
                        e,
                        pc,
                        size,
                        dst,
                        off,
                        MapAccess::Store(StoreVal::Imm(imm)),
                    );
                    *elided += 1;
                }
                _ => emit_tramp_store(e, pc, size, dst, off, StoreVal::Imm(imm), false),
            },
            Decoded::Alu64Imm { op, dst, imm } => emit_alu_imm(e, true, op, dst, imm),
            Decoded::Alu32Imm { op, dst, imm } => emit_alu_imm(e, false, op, dst, imm as u64),
            Decoded::Alu64Reg { op, dst, src } => emit_alu_reg(e, true, op, dst, src),
            Decoded::Alu32Reg { op, dst, src } => emit_alu_reg(e, false, op, dst, src),
            Decoded::Ja { target } => {
                if (0..=len as i64).contains(&target) {
                    e.jmp(Label::Slot(target as usize));
                } else {
                    e.error_stub(STATUS_BAD_JUMP, pc, target as i32);
                }
            }
            Decoded::JmpImm {
                op,
                w32,
                dst,
                rhs,
                target,
            } => {
                let xd = X86[dst as usize];
                // The decoded rhs always fits the instruction's imm32
                // (sign-extended for 64-bit compares, exact for 32-bit).
                if matches!(op, CmpOp::Set) {
                    e.rex(!w32, 0, xd);
                    e.b(0xF7);
                    e.modrm_reg(0, xd);
                    e.imm32(rhs as u32);
                } else {
                    e.alu_ri(!w32, 7, xd, rhs as u32); // cmp
                }
                emit_branch(e, pc, cmp_cc(op), target, len);
            }
            Decoded::JmpReg {
                op,
                w32,
                dst,
                src,
                target,
            } => {
                let (xd, xs) = (X86[dst as usize], X86[src as usize]);
                let opcode = if matches!(op, CmpOp::Set) { 0x85 } else { 0x39 };
                e.alu_rr(!w32, opcode, xs, xd);
                emit_branch(e, pc, cmp_cc(op), target, len);
            }
            Decoded::Call { helper } => match plan.site(pc) {
                Some(HelperInline::Env) => emit_env_helper(e, helper),
                Some(HelperInline::MapLookupFast) => match plan.lookup_site(pc) {
                    Some(site) => emit_lookup_fast(e, pc, helper, site),
                    // The plan only classifies MapLookupFast when it has
                    // a site; keep the safe fallback anyway.
                    None => {
                        e.spill_all();
                        emit_helper_tramp_body(e, pc, helper);
                    }
                },
                _ => {
                    e.spill_all();
                    emit_helper_tramp_body(e, pc, helper);
                }
            },
        }
    }

    /// The sysv64 round-trip into [`tramp_helper`]. Expects the register
    /// file already spilled (`spill_all`); reloads everything on return.
    fn emit_helper_tramp_body(e: &mut Emitter, pc: usize, helper: Helper) {
        // mov rdi, r12
        e.b(0x4C);
        e.b(0x89);
        e.b(0xE7);
        let meta = (helper.id() as u32 & 0xffff) | ((pc as u32) << 16);
        e.mov_ri32(RSI, meta);
        e.call_ctxmem(OFF_TRAMP_HELPER);
        e.check_tramp_result();
        e.reload_all();
    }

    /// Inlined environment helper: reads (and for prandom, advances) the
    /// `ExecEnv` snapshot in the `JitCtx` without leaving native code.
    /// Register effects match `call_helper` exactly: result in r0,
    /// clobber poison in r1–r5, r6–r10 untouched.
    fn emit_env_helper(e: &mut Emitter, helper: Helper) {
        match helper {
            Helper::KtimeGetNs => e.mov_rm(RAX, R12, OFF_ENV_KTIME),
            Helper::GetCurrentPidTgid => e.mov_rm(RAX, R12, OFF_ENV_PID_TGID),
            Helper::GetPrandomU32 => {
                // xorshift64*, bit-for-bit the interpreter's sequence.
                e.mov_rm(RAX, R12, OFF_ENV_PRANDOM);
                for (shift, left) in [(12u8, false), (25, true), (27, false)] {
                    e.alu_rr(true, 0x89, RAX, R9); // mov r9, rax
                    e.shift_ri(true, if left { 4 } else { 5 }, R9, shift);
                    e.alu_rr(true, 0x31, R9, RAX); // xor rax, r9
                }
                e.mov_mr(R12, OFF_ENV_PRANDOM, RAX);
                e.mov_ri(R9, 0x2545_F491_4F6C_DD1D);
                e.imul_rr(RAX, R9);
                e.shift_ri(true, 5, RAX, 32); // shr rax, 32
            }
            // helper_inline_plan only classifies the three env helpers as Env.
            _ => unreachable!("helper {helper:?} is not an env helper"),
        }
        e.poison_caller_saved();
    }

    /// Host address of the (statically in-bounds) stack key into r9,
    /// then the key word into rax: 32-bit for array indices, 64-bit for
    /// hash keys.
    fn emit_stack_key_load(e: &mut Emitter, key_off: u32, wide: bool) {
        e.mov_rm(R9, R12, OFF_STACK_BIAS);
        e.mov_ri(RDI, STACK_BASE + key_off as u64);
        e.alu_rr(true, 0x01, RDI, R9); // add r9, rdi
        if wide {
            e.mov_rm(RAX, R9, 0);
        } else {
            e.mov32_rm(RAX, R9, 0);
        }
    }

    /// The splitmix64 finalizer over `reg` (must not be rax or r9),
    /// mirroring `mapindex::mix64`.
    fn emit_mix64(e: &mut Emitter, reg: u8) {
        for (shift, mul) in [(30u8, Some(MIX64_MUL1)), (27, Some(MIX64_MUL2)), (31, None)] {
            e.alu_rr(true, 0x89, reg, R9); // mov r9, reg
            e.shift_ri(true, 5, R9, shift); // shr r9, shift
            e.alu_rr(true, 0x31, R9, reg); // xor reg, r9
            if let Some(mul) = mul {
                e.mov_ri(R9, mul);
                e.imul_rr(reg, R9);
            }
        }
    }

    /// Appends a `SlotEntry { fd, key_len, key: rax (zero-padded) }` at
    /// `slots_base + slots_len * 24`, bumps the length, and leaves the
    /// slot handle (`MAP_SLOT_BASE + old_len << 20`) in rax. Falls back
    /// when the reserved capacity is exhausted (the trampoline's `Vec`
    /// push reallocates and re-syncs). Clobbers rsi/rdx/rcx.
    fn emit_slot_push(e: &mut Emitter, fd: u32, key_len: u32, to_fb: &mut Vec<usize>) {
        e.mov_rm(RSI, R12, OFF_SLOTS_LEN);
        e.cmp_rm(true, RSI, R12, OFF_SLOTS_CAP);
        to_fb.push(e.jcc32_fwd(CC_AE));
        e.imul_rri(RDX, RSI, 24);
        e.add_rm(RDX, R12, OFF_SLOTS_BASE);
        e.mov_ri(RCX, fd as u64 | ((key_len as u64) << 32));
        e.mov_mr(RDX, 0, RCX); // fd + key_len
        e.mov_mr(RDX, 8, RAX); // key bytes 0..8 (zero-padded past key_len)
        e.mov_mi(RDX, 16, 0); // key bytes 8..16
        e.lea(RCX, RSI, 1);
        e.mov_mr(R12, OFF_SLOTS_LEN, RCX);
        e.shift_ri(true, 4, RSI, 20); // shl rsi, 20 (slot -> address stride)
        e.mov_ri(RAX, MAP_SLOT_BASE);
        e.alu_rr(true, 0x01, RSI, RAX); // add rax, rsi
    }

    /// Inlined `map_lookup_elem` fast path (DESIGN §6f).
    ///
    /// The compile-time facts are only the constant fd and the key's
    /// stack offset; everything about the map's *shape* (kind, key size,
    /// bounds, index placement) is guarded against the runtime
    /// descriptor table, so compiled code stays correct against any
    /// registry. Guard failures take the unmodified trampoline path;
    /// definitive hits push a slot record and return its handle;
    /// definitive misses return 0. Either way the register effects match
    /// `call_helper` (result in r0, poison in r1–r5).
    fn emit_lookup_fast(e: &mut Emitter, pc: usize, helper: Helper, site: LookupSite) {
        let doff = site.fd as i32 * 32;
        // Spill first: the fallback trampoline reads argument registers
        // from the spilled file, and the fast path may clobber them.
        e.spill_all();
        let mut to_fb: Vec<usize> = Vec::new();
        let mut to_miss: Vec<usize> = Vec::new();
        let mut to_done: Vec<usize> = Vec::new();

        // Guard: fd < descs_len (a descriptor exists for this fd).
        e.mov_rm(R10, R12, OFF_DESCS_LEN);
        e.alu_ri(true, 7, R10, site.fd); // cmp r10, fd
        to_fb.push(e.jcc32_fwd(CC_BE));
        e.mov_rm(R10, R12, OFF_DESCS_BASE);

        let mut hash_entry: Option<usize> = None;
        if site.array_ok {
            e.cmp32_mi(R10, doff, DESC_KIND_ARRAY as i32);
            if site.hash8_ok {
                hash_entry = Some(e.jcc32_fwd(CC_NZ));
            } else {
                to_fb.push(e.jcc32_fwd(CC_NZ));
            }
            e.cmp32_mi(R10, doff + 4, 4); // key_size == 4
            to_fb.push(e.jcc32_fwd(CC_NZ));
            emit_stack_key_load(e, site.key_off, false); // eax = index
            e.cmp_rm(false, RAX, R10, doff + 12); // index vs max_entries
            to_miss.push(e.jcc32_fwd(CC_AE)); // out of bounds -> NULL
            emit_slot_push(e, site.fd, 4, &mut to_fb);
            to_done.push(e.jmp32_fwd());
        }
        if site.hash8_ok {
            if let Some(p) = hash_entry {
                e.patch32(p);
            }
            e.cmp32_mi(R10, doff, DESC_KIND_HASH as i32);
            to_fb.push(e.jcc32_fwd(CC_NZ));
            e.cmp32_mi(R10, doff + 4, 8); // key_size == 8
            to_fb.push(e.jcc32_fwd(CC_NZ));
            emit_stack_key_load(e, site.key_off, true); // rax = key word
                                                        // rdi = mix64((INDEX_SEED ^ 8) ^ w0): the home slot hash.
            e.mov_ri(RDI, INDEX_SEED ^ 8);
            e.alu_rr(true, 0x31, RAX, RDI); // xor rdi, rax
            emit_mix64(e, RDI);
            e.and_rm(RDI, R10, doff + 24); // & index mask (desc.aux)
            e.imul_rri(RDX, RDI, 24);
            e.add_rm(RDX, R10, doff + 16); // entry = base + slot * 24
                                           // Single-probe soundness (DESIGN §6f): an EMPTY home slot is
                                           // a definitive miss, an OCCUPIED home slot with the exact
                                           // key is a definitive hit, anything else falls back.
            e.cmp32_mi(RDX, 20, 0); // state == INDEX_EMPTY
            to_miss.push(e.jcc32_fwd(CC_Z));
            e.cmp32_mi(RDX, 20, INDEX_OCCUPIED as i32);
            to_fb.push(e.jcc32_fwd(CC_NZ));
            e.cmp32_mi(RDX, 16, 8); // key_len == 8
            to_fb.push(e.jcc32_fwd(CC_NZ));
            e.cmp_rm(true, RAX, RDX, 0); // key word match
            to_fb.push(e.jcc32_fwd(CC_NZ));
            emit_slot_push(e, site.fd, 8, &mut to_fb);
            to_done.push(e.jmp32_fwd());
        }
        // Miss: the interpreter returns 0 (NULL) without pushing a slot.
        for p in to_miss {
            e.patch32(p);
        }
        e.alu_rr(false, 0x31, RAX, RAX); // xor eax, eax
                                         // Done: clobber r1-r5 exactly like a real helper call.
        for p in to_done {
            e.patch32(p);
        }
        e.poison_caller_saved();
        let end = e.jmp32_fwd();
        // Fallback: full trampoline (registers were spilled above).
        for p in to_fb {
            e.patch32(p);
        }
        emit_helper_tramp_body(e, pc, helper);
        e.patch32(end);
    }

    /// Conditional-branch tail: jump to `target` when the condition
    /// holds, or raise BadJumpTarget if `target` is out of range (the
    /// interpreter only faults when the branch is *taken*).
    fn emit_branch(e: &mut Emitter, pc: usize, cc: u8, target: i64, len: usize) {
        if (0..=len as i64).contains(&target) {
            e.jcc(cc, Label::Slot(target as usize));
        } else {
            let skip = e.jcc8_fwd(cc ^ 1); // inverse: hop over the stub
            e.error_stub(STATUS_BAD_JUMP, pc, target as i32);
            e.patch8(skip);
        }
    }

    /// Proven in-bounds load: translate the tagged address with the
    /// region bias and read straight from host memory.
    fn emit_direct_load(e: &mut Emitter, size: u8, dst: u8, src: u8, off: i16, bias_off: i32) {
        e.lea(R9, X86[src as usize], off as i32);
        e.add_rm(R9, R12, bias_off);
        let xd = X86[dst as usize];
        match size {
            1 => {
                e.rex(false, xd, R9);
                e.b(0x0F);
                e.b(0xB6); // movzx r32, m8
                e.modrm_mem(xd, R9, 0);
            }
            2 => {
                e.rex(false, xd, R9);
                e.b(0x0F);
                e.b(0xB7); // movzx r32, m16
                e.modrm_mem(xd, R9, 0);
            }
            4 => {
                e.rex(false, xd, R9);
                e.b(0x8B); // mov r32, m32 zero-extends
                e.modrm_mem(xd, R9, 0);
            }
            _ => e.mov_rm(xd, R9, 0),
        }
    }

    enum StoreVal {
        Reg(u8),
        Imm(u64),
    }

    /// Proven in-bounds store (stack only; the context is read-only and
    /// map values keep their trampoline).
    fn emit_direct_store(e: &mut Emitter, size: u8, dst: u8, off: i16, val: StoreVal) {
        e.lea(R9, X86[dst as usize], off as i32);
        e.add_rm(R9, R12, OFF_STACK_BIAS);
        match val {
            StoreVal::Reg(src) => e.alu_rr(true, 0x89, X86[src as usize], R10),
            StoreVal::Imm(imm) => e.mov_ri(R10, imm),
        }
        match size {
            1 => {
                e.rex(false, R10, R9);
                e.b(0x88); // mov m8, r10b
                e.modrm_mem(R10, R9, 0);
            }
            2 => {
                e.b(0x66); // operand-size prefix
                e.rex(false, R10, R9);
                e.b(0x89);
                e.modrm_mem(R10, R9, 0);
            }
            4 => {
                e.rex(false, R10, R9);
                e.b(0x89);
                e.modrm_mem(R10, R9, 0);
            }
            _ => e.mov_mr(R9, 0, R10),
        }
    }

    /// Checked load through the interpreter's memory model.
    fn emit_tramp_load(
        e: &mut Emitter,
        pc: usize,
        size: u8,
        dst: u8,
        src: u8,
        off: i16,
        proven_map: bool,
    ) {
        e.spill_caller_saved();
        e.lea(R9, X86[src as usize], off as i32); // before arg regs clobber
                                                  // mov rdi, r12
        e.b(0x4C);
        e.b(0x89);
        e.b(0xE7);
        // mov rsi, r9
        e.b(0x4C);
        e.b(0x89);
        e.b(0xCE);
        e.mov_ri32(RDX, load_store_meta(dst, size, proven_map, pc));
        e.call_ctxmem(OFF_TRAMP_LOAD);
        e.check_tramp_result();
        e.reload_caller_saved();
        // The trampoline wrote the result into regs[dst]; dst may live in
        // a callee-saved register the generic reload didn't touch.
        e.mov_rm(X86[dst as usize], R12, OFF_REGS + 8 * dst as i32);
    }

    /// Checked store through the interpreter's memory model.
    fn emit_tramp_store(
        e: &mut Emitter,
        pc: usize,
        size: u8,
        dst: u8,
        off: i16,
        val: StoreVal,
        proven_map: bool,
    ) {
        e.spill_caller_saved();
        e.lea(R9, X86[dst as usize], off as i32);
        if let StoreVal::Reg(src) = val {
            // Grab the value before the argument registers are set up.
            e.alu_rr(true, 0x89, X86[src as usize], R10);
        }
        // mov rdi, r12
        e.b(0x4C);
        e.b(0x89);
        e.b(0xE7);
        // mov rsi, r9
        e.b(0x4C);
        e.b(0x89);
        e.b(0xCE);
        match val {
            StoreVal::Reg(_) => {
                // mov rdx, r10
                e.b(0x4C);
                e.b(0x89);
                e.b(0xD2);
            }
            StoreVal::Imm(imm) => e.mov_ri(RDX, imm),
        }
        e.mov_ri32(RCX, load_store_meta(0, size, proven_map, pc));
        e.call_ctxmem(OFF_TRAMP_STORE);
        e.check_tramp_result();
        e.reload_caller_saved();
    }

    /// What a proven map-value access does once the host pointer is in
    /// hand.
    enum MapAccess {
        Load { dst: u8 },
        Store(StoreVal),
    }

    /// Reads BPF register `reg` into native register `dst` after
    /// `spill_caller_saved`: r0–r5 live in the spill file, r6–r10 still
    /// live in callee-saved native registers.
    fn emit_bpf_reg_read(e: &mut Emitter, dst: u8, reg: u8) {
        if (reg as usize) < 6 {
            e.mov_rm(dst, R12, OFF_REGS + 8 * reg as i32);
        } else {
            e.alu_rr(true, 0x89, X86[reg as usize], dst);
        }
    }

    /// Proven map-value access: inline array-map fast path with the
    /// trampoline as the fallback for every guard failure (DESIGN §6f).
    ///
    /// The verifier proved the *offset* stays inside the value, but the
    /// slot, map shape, and index are runtime facts, so the emitted code
    /// re-derives them from the JIT context exactly as
    /// `Memory::read_map_value` would: resolve the slot entry, require a
    /// live array-map desc with a 4-byte key, bounds-check the index and
    /// the access end against the desc, then touch the value arena
    /// directly. Any mismatch (hash map, stale slot, OOB) jumps to the
    /// trampoline whose fault shapes are the interpreter's own — the
    /// fast path can only skip work, never change an outcome.
    fn emit_map_value_fast(
        e: &mut Emitter,
        pc: usize,
        size: u8,
        base: u8,
        off: i16,
        action: MapAccess,
    ) {
        let mut to_fb: Vec<usize> = Vec::new();
        e.spill_caller_saved();
        // rdi = tagged addr - MAP_SLOT_BASE (wrapping, as in release interp).
        emit_bpf_reg_read(e, RDI, base);
        if off != 0 {
            e.lea(RDI, RDI, off as i32);
        }
        e.mov_ri(R9, MAP_SLOT_BASE);
        e.alu_rr(true, 0x29, R9, RDI); // sub rdi, r9
        e.alu_rr(true, 0x89, RDI, RDX); // mov rdx, rdi
        e.shift_ri(true, 5, RDX, 20); // rdx = slot index
        e.alu_ri(true, 4, RDI, (MAP_SLOT_STRIDE - 1) as u32); // rdi = value offset
        e.cmp_rm(true, RDX, R12, OFF_SLOTS_LEN);
        to_fb.push(e.jcc32_fwd(CC_AE)); // slot not live -> fallback
        e.imul_rri(RDX, RDX, 24);
        e.add_rm(RDX, R12, OFF_SLOTS_BASE); // rdx = &slots[slot]
        e.mov32_rm(RAX, RDX, 0); // rax = entry.fd (zero-extended)
        e.cmp_rm(true, RAX, R12, OFF_DESCS_LEN);
        to_fb.push(e.jcc32_fwd(CC_AE)); // fd outside desc table
        e.cmp32_mi(RDX, 4, 4); // entry.key_len == 4
        to_fb.push(e.jcc32_fwd(CC_NZ));
        e.mov32_rm(R8, RDX, 8); // r8 = array index (key word)
        e.imul_rri(RAX, RAX, 32);
        e.add_rm(RAX, R12, OFF_DESCS_BASE); // rax = &descs[fd]
        e.cmp32_mi(RAX, 0, DESC_KIND_ARRAY as i32);
        to_fb.push(e.jcc32_fwd(CC_NZ));
        e.cmp32_mi(RAX, 4, 4); // desc.key_size == 4
        to_fb.push(e.jcc32_fwd(CC_NZ));
        e.cmp_rm(false, R8, RAX, 12); // index vs max_entries
        to_fb.push(e.jcc32_fwd(CC_AE));
        e.mov32_rm(RCX, RAX, 8); // rcx = value_size
        e.lea(RSI, RDI, size as i32); // rsi = access end
        e.alu_rr(true, 0x39, RCX, RSI); // cmp rsi, rcx
        to_fb.push(e.jcc32_fwd(CC_A)); // end past the value -> fallback
        e.imul_rr(R8, RCX);
        e.add_rm(R8, RAX, 16); // + desc.base (arena rows are value_size apart)
        e.alu_rr(true, 0x01, RDI, R8); // + value offset -> host pointer
        match action {
            MapAccess::Load { dst } => {
                match size {
                    1 => {
                        e.rex(false, R9, R8);
                        e.b(0x0F);
                        e.b(0xB6); // movzx r32, m8
                        e.modrm_mem(R9, R8, 0);
                    }
                    2 => {
                        e.rex(false, R9, R8);
                        e.b(0x0F);
                        e.b(0xB7); // movzx r32, m16
                        e.modrm_mem(R9, R8, 0);
                    }
                    4 => {
                        e.rex(false, R9, R8);
                        e.b(0x8B); // mov r32, m32 zero-extends
                        e.modrm_mem(R9, R8, 0);
                    }
                    _ => e.mov_rm(R9, R8, 0),
                }
                // Land the result in the spill file; the common tail
                // below moves it into dst's native register.
                e.mov_mr(R12, OFF_REGS + 8 * dst as i32, R9);
            }
            MapAccess::Store(ref val) => {
                match *val {
                    StoreVal::Reg(src) => emit_bpf_reg_read(e, R10, src),
                    StoreVal::Imm(imm) => e.mov_ri(R10, imm),
                }
                match size {
                    1 => {
                        e.rex(false, R10, R8);
                        e.b(0x88);
                        e.modrm_mem(R10, R8, 0);
                    }
                    2 => {
                        e.b(0x66);
                        e.rex(false, R10, R8);
                        e.b(0x89);
                        e.modrm_mem(R10, R8, 0);
                    }
                    4 => {
                        e.rex(false, R10, R8);
                        e.b(0x89);
                        e.modrm_mem(R10, R8, 0);
                    }
                    _ => e.mov_mr(R8, 0, R10),
                }
            }
        }
        let done = e.jmp32_fwd();
        // Fallback: the checked trampoline. Caller-saved registers were
        // spilled (and then clobbered) above, so every operand is re-read
        // spill-aware rather than from native registers.
        for p in to_fb {
            e.patch32(p);
        }
        emit_bpf_reg_read(e, R9, base);
        if off != 0 {
            e.lea(R9, R9, off as i32);
        }
        // mov rdi, r12
        e.b(0x4C);
        e.b(0x89);
        e.b(0xE7);
        // mov rsi, r9
        e.b(0x4C);
        e.b(0x89);
        e.b(0xCE);
        match action {
            MapAccess::Load { dst } => {
                e.mov_ri32(RDX, load_store_meta(dst, size, true, pc));
                e.call_ctxmem(OFF_TRAMP_LOAD);
            }
            MapAccess::Store(ref val) => {
                match *val {
                    StoreVal::Reg(src) => emit_bpf_reg_read(e, RDX, src),
                    StoreVal::Imm(imm) => e.mov_ri(RDX, imm),
                }
                e.mov_ri32(RCX, load_store_meta(0, size, true, pc));
                e.call_ctxmem(OFF_TRAMP_STORE);
            }
        }
        e.check_tramp_result();
        e.patch32(done);
        e.reload_caller_saved();
        if let MapAccess::Load { dst } = action {
            // Both paths parked the result in regs[dst]; dst may live in
            // a callee-saved register the generic reload didn't touch.
            e.mov_rm(X86[dst as usize], R12, OFF_REGS + 8 * dst as i32);
        }
    }

    /// ALU with an immediate operand. For the 64-bit form `imm` is the
    /// sign-extended decode result (always representable as imm32); for
    /// the 32-bit form it is the truncated 32-bit immediate.
    fn emit_alu_imm(e: &mut Emitter, w: bool, op: AluOp, dst: u8, imm: u64) {
        let xd = X86[dst as usize];
        let imm32 = imm as u32;
        match op {
            AluOp::Add => e.alu_ri(w, 0, xd, imm32),
            AluOp::Or => e.alu_ri(w, 1, xd, imm32),
            AluOp::And => e.alu_ri(w, 4, xd, imm32),
            AluOp::Sub => e.alu_ri(w, 5, xd, imm32),
            AluOp::Xor => e.alu_ri(w, 6, xd, imm32),
            AluOp::Mov => {
                if w {
                    e.mov_ri(xd, imm);
                } else {
                    e.mov_ri32(xd, imm32);
                }
            }
            AluOp::Mul => {
                // imul dst, dst, imm32 (low bits match unsigned wrap).
                e.rex(w, xd, xd);
                e.b(0x69);
                e.modrm_reg(xd, xd);
                e.imm32(imm32);
            }
            AluOp::Neg => {
                // NEG ignores the operand.
                e.rex(w, 0, xd);
                e.b(0xF7);
                e.modrm_reg(3, xd);
            }
            AluOp::Lsh | AluOp::Rsh | AluOp::Arsh => {
                let mask = if w { 63 } else { 31 };
                let count = (imm32 & mask) as u8;
                if count == 0 {
                    if !w {
                        // 32-bit no-op shifts still truncate the register.
                        e.alu_rr(false, 0x89, xd, xd);
                    }
                } else {
                    let ext = match op {
                        AluOp::Lsh => 4,
                        AluOp::Rsh => 5,
                        _ => 7,
                    };
                    e.rex(w, 0, xd);
                    e.b(0xC1);
                    e.modrm_reg(ext, xd);
                    e.b(count);
                }
            }
            AluOp::Div | AluOp::Mod => {
                emit_divmod(e, w, matches!(op, AluOp::Mod), xd, DivSrc::Imm(imm32));
            }
        }
    }

    /// ALU with a register operand.
    fn emit_alu_reg(e: &mut Emitter, w: bool, op: AluOp, dst: u8, src: u8) {
        let (xd, xs) = (X86[dst as usize], X86[src as usize]);
        match op {
            AluOp::Add => e.alu_rr(w, 0x01, xs, xd),
            AluOp::Sub => e.alu_rr(w, 0x29, xs, xd),
            AluOp::Or => e.alu_rr(w, 0x09, xs, xd),
            AluOp::And => e.alu_rr(w, 0x21, xs, xd),
            AluOp::Xor => e.alu_rr(w, 0x31, xs, xd),
            AluOp::Mov => e.alu_rr(w, 0x89, xs, xd),
            AluOp::Mul => {
                // imul dst, src (operands reversed vs the 01-family).
                e.rex(w, xd, xs);
                e.b(0x0F);
                e.b(0xAF);
                e.modrm_reg(xd, xs);
            }
            AluOp::Neg => {
                e.rex(w, 0, xd);
                e.b(0xF7);
                e.modrm_reg(3, xd);
            }
            AluOp::Lsh | AluOp::Rsh | AluOp::Arsh => {
                let ext = match op {
                    AluOp::Lsh => 4,
                    AluOp::Rsh => 5,
                    _ => 7,
                };
                // r10 = count, r9 = value, shift via cl (the hardware
                // masks the count to the operand width, matching eBPF).
                e.alu_rr(true, 0x89, xs, R10);
                if w {
                    e.alu_rr(true, 0x89, xd, R9);
                } else {
                    e.alu_rr(false, 0x89, xd, R9);
                }
                e.push_reg(RCX);
                e.alu_rr(true, 0x89, R10, RCX);
                e.rex(w, 0, R9);
                e.b(0xD3);
                e.modrm_reg(ext, R9);
                e.pop_reg(RCX);
                e.alu_rr(w, 0x89, R9, xd);
            }
            AluOp::Div | AluOp::Mod => {
                emit_divmod(e, w, matches!(op, AluOp::Mod), xd, DivSrc::Reg(xs));
            }
        }
    }

    enum DivSrc {
        /// x86 register holding the divisor.
        Reg(u8),
        Imm(u32),
    }

    /// Unsigned div/mod with eBPF's by-zero semantics: `x / 0 == 0`,
    /// `x % 0 == x` (the 32-bit forms still truncate/zero-extend `dst`).
    fn emit_divmod(e: &mut Emitter, w: bool, is_mod: bool, xd: u8, src: DivSrc) {
        // Divisor into r9 (32-bit moves zero-extend, giving the
        // truncated divisor the 32-bit ops compare against).
        match src {
            DivSrc::Reg(xs) => e.alu_rr(w, 0x89, xs, R9),
            DivSrc::Imm(imm) => {
                if imm == 0 {
                    // Constant zero divisor: emit only the by-zero result.
                    if !is_mod {
                        e.mov_ri32(xd, 0);
                    } else if !w {
                        e.alu_rr(false, 0x89, xd, xd); // truncate
                    }
                    return;
                }
                e.mov_ri32(R9, imm);
            }
        }
        // test r9, r9 / jnz .nonzero
        e.alu_rr(true, 0x85, R9, R9);
        let nonzero = e.jcc8_fwd(CC_NZ);
        // Zero path.
        if !is_mod {
            e.mov_ri32(xd, 0);
        } else if !w {
            e.alu_rr(false, 0x89, xd, xd);
        }
        let done = e.jmp8_fwd();
        e.patch8(nonzero);
        // Non-zero path: rdx:rax / r9. rax/rdx may hold live eBPF
        // registers (r0/r3) — preserve them around the division.
        e.push_reg(RAX);
        e.push_reg(RDX);
        e.alu_rr(w, 0x89, xd, RAX);
        e.b(0x31); // xor edx, edx
        e.b(0xD2);
        e.rex(w, 0, R9);
        e.b(0xF7);
        e.modrm_reg(6, R9); // div r9
        e.alu_rr(true, 0x89, if is_mod { RDX } else { RAX }, R10);
        e.pop_reg(RDX);
        e.pop_reg(RAX);
        e.alu_rr(w, 0x89, R10, xd);
        e.patch8(done);
    }

    // ---------------------------------------------------------------
    // Execution.
    // ---------------------------------------------------------------

    /// Runs compiled code against the interpreter's execution state.
    /// Semantics (outcome, budget accounting, fault shapes) match the
    /// interpreter's `run_raw` exactly.
    pub(crate) fn run(
        jit: &JitProgram,
        budget: u64,
        mem: &mut Memory<'_>,
        scratch: &mut Vec<u8>,
        env: &mut ExecEnv,
    ) -> Result<ExecOutcome, ExecError> {
        // Hand over the runtime map descriptors (built at map creation
        // and stable for the registry's lifetime: helpers mutate map
        // *contents*, never the arena or index allocations the
        // descriptors point at) and snapshot the env + slot-vector state
        // the inlined helpers operate on.
        let (descs_base, descs_len) = mem.maps.runtime_descs();
        let slots_base = mem.slots.as_mut_ptr() as u64;
        let slots_len = mem.slots.len() as u64;
        let slots_cap = mem.slots.capacity() as u64;
        let env_ktime = env.ktime_ns;
        let env_pid_tgid = env.pid_tgid;
        let env_prandom = env.prandom_state;
        let mut trace_output: Vec<Vec<u8>> = Vec::new();
        let mem_ptr = mem as *mut Memory<'_>;
        let mut state = TrampState {
            // Lifetime erasure: the pointer is only dereferenced inside
            // trampolines invoked while `mem` is borrowed by this call.
            mem: mem_ptr.cast::<Memory<'static>>(),
            scratch,
            env,
            trace_output: &mut trace_output,
            fault: None,
        };
        // Region biases translate tagged eBPF addresses into host
        // pointers for proof-elided accesses (wrapping: host pointers may
        // be below the tag bases numerically).
        // SAFETY: raw-pointer field projections on a live Memory.
        let (stack_bias, ctx_bias) = unsafe {
            (
                (std::ptr::addr_of_mut!((*mem_ptr).stack) as u64).wrapping_sub(STACK_BASE),
                ((*mem_ptr).ctx.as_ptr() as u64).wrapping_sub(CTX_BASE),
            )
        };
        let mut ctx = JitCtx {
            regs: [0; REG_COUNT],
            remaining: budget,
            status: 0,
            err_pc: 0,
            err_aux: 0,
            stack_bias,
            ctx_bias,
            tramp_load: tramp_load as *const () as u64,
            tramp_store: tramp_store as *const () as u64,
            tramp_helper: tramp_helper as *const () as u64,
            state: &mut state as *mut TrampState as u64,
            budget,
            env_ktime,
            env_pid_tgid,
            env_prandom,
            slots_base,
            slots_len,
            slots_cap,
            descs_base: descs_base as u64,
            descs_len: descs_len as u64,
        };
        ctx.regs[1] = CTX_BASE;
        ctx.regs[10] = STACK_BASE + STACK_SIZE as u64;

        // SAFETY: the buffer holds code compiled by `compile` for this
        // calling convention; every pointer in `ctx` is live across the
        // call, and the code only touches memory through the ctx, the
        // trampolines, and proof-checked region biases.
        unsafe {
            let entry: unsafe extern "sysv64" fn(*mut JitCtx) = std::mem::transmute(jit.buf.ptr);
            entry(&mut ctx);
        }

        // Publish inline-pushed slots and the advanced prandom state on
        // every exit path (success and fault alike, matching the
        // interpreter's in-place mutation).
        // SAFETY: slots_len only grew via complete in-capacity inline
        // pushes or trampoline-side Vec pushes that re-synced it; both
        // keep it <= the Vec's capacity. The raw pointers are the same
        // live borrows this function started with.
        unsafe {
            (*mem_ptr).slots.set_len(ctx.slots_len as usize);
            (*state.env).prandom_state = ctx.env_prandom;
        }

        match ctx.status {
            0 => {
                let fault = state.fault.take();
                debug_assert!(fault.is_none(), "clean exit with a recorded fault");
                Ok(ExecOutcome {
                    ret: ctx.regs[0],
                    insns_executed: ctx.budget - ctx.remaining,
                    trace_output,
                })
            }
            1 => match state.fault.take() {
                Some(e) => Err(e),
                // Trampolines return nonzero only after recording a fault.
                None => unreachable!("trampoline fault status without a fault"),
            },
            2 => Err(ExecError::BudgetExhausted { budget }),
            3 => Err(ExecError::FellOffEnd),
            4 => Err(ExecError::BadJumpTarget {
                pc: ctx.err_pc as usize,
                target: ctx.err_aux as i64,
            }),
            5 => Err(ExecError::BadOpcode {
                pc: ctx.err_pc as usize,
                code: ctx.err_aux as u8,
            }),
            6 => Err(ExecError::UnknownHelper {
                pc: ctx.err_pc as usize,
                id: ctx.err_aux as u32 as i32,
            }),
            7 => Err(ExecError::MalformedLdDw {
                pc: ctx.err_pc as usize,
            }),
            s => unreachable!("JIT exit status {s} is not produced by any stub"),
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::mem::offset_of;

        #[test]
        fn jitctx_layout_matches_emitter_offsets() {
            assert_eq!(offset_of!(JitCtx, regs), OFF_REGS as usize);
            assert_eq!(offset_of!(JitCtx, remaining), OFF_REMAINING as usize);
            assert_eq!(offset_of!(JitCtx, status), OFF_STATUS as usize);
            assert_eq!(offset_of!(JitCtx, err_pc), OFF_ERR_PC as usize);
            assert_eq!(offset_of!(JitCtx, err_aux), OFF_ERR_AUX as usize);
            assert_eq!(offset_of!(JitCtx, stack_bias), OFF_STACK_BIAS as usize);
            assert_eq!(offset_of!(JitCtx, ctx_bias), OFF_CTX_BIAS as usize);
            assert_eq!(offset_of!(JitCtx, tramp_load), OFF_TRAMP_LOAD as usize);
            assert_eq!(offset_of!(JitCtx, tramp_store), OFF_TRAMP_STORE as usize);
            assert_eq!(offset_of!(JitCtx, tramp_helper), OFF_TRAMP_HELPER as usize);
            assert_eq!(offset_of!(JitCtx, state), OFF_STATE as usize);
            assert_eq!(offset_of!(JitCtx, budget), OFF_BUDGET as usize);
            assert_eq!(offset_of!(JitCtx, env_ktime), OFF_ENV_KTIME as usize);
            assert_eq!(offset_of!(JitCtx, env_pid_tgid), OFF_ENV_PID_TGID as usize);
            assert_eq!(offset_of!(JitCtx, env_prandom), OFF_ENV_PRANDOM as usize);
            assert_eq!(offset_of!(JitCtx, slots_base), OFF_SLOTS_BASE as usize);
            assert_eq!(offset_of!(JitCtx, slots_len), OFF_SLOTS_LEN as usize);
            assert_eq!(offset_of!(JitCtx, slots_cap), OFF_SLOTS_CAP as usize);
            assert_eq!(offset_of!(JitCtx, descs_base), OFF_DESCS_BASE as usize);
            assert_eq!(offset_of!(JitCtx, descs_len), OFF_DESCS_LEN as usize);
        }

        #[test]
        fn rejects_out_of_range_registers() {
            let decoded = vec![Decoded::Load {
                size: 8,
                dst: 12,
                src: 1,
                off: 0,
            }];
            assert!(!regs_in_range(&decoded));
            assert!(compile(&decoded, &InlinePlan::default(), None).is_none());
        }

        #[test]
        fn empty_programs_do_not_compile() {
            assert!(compile(&[], &InlinePlan::default(), None).is_none());
        }

        #[test]
        fn exec_buf_round_trips_code() {
            // mov eax, 0x2A; ret — a minimal function we can call.
            let buf = match ExecBuf::new(&[0xB8, 0x2A, 0, 0, 0, 0xC3]) {
                Some(b) => b,
                None => return, // mmap denied (sandbox); nothing to test
            };
            // SAFETY: the buffer holds exactly the code above.
            let ret = unsafe {
                let f: unsafe extern "sysv64" fn() -> u32 = std::mem::transmute(buf.ptr);
                f()
            };
            assert_eq!(ret, 42);
        }
    }
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
mod stub {
    use crate::analysis::InlinePlan;
    use crate::decode::Decoded;
    use crate::interp::{ExecEnv, ExecError, ExecOutcome, Memory};
    use crate::program::Program;
    use crate::verifier::AccessProofs;

    /// Placeholder on targets without a JIT backend; never constructed.
    #[derive(Debug)]
    pub struct JitProgram {
        _never: std::convert::Infallible,
    }

    impl JitProgram {
        /// Minimum context length for which this code is sound.
        pub fn min_ctx_len(&self) -> usize {
            match self._never {}
        }

        /// Number of memory accesses compiled without bounds checks.
        pub fn elided_accesses(&self) -> usize {
            match self._never {}
        }

        /// Helper-call sites compiled to inline code.
        pub fn inlined_calls(&self) -> usize {
            match self._never {}
        }

        /// Helper-call sites that kept the trampoline round-trip.
        pub fn trampolined_calls(&self) -> usize {
            match self._never {}
        }
    }

    /// True when this build can JIT at all.
    pub fn supported() -> bool {
        false
    }

    /// Always false off x86-64 Linux.
    pub fn is_compilable(_program: &Program) -> bool {
        false
    }

    pub(crate) fn compile(
        _decoded: &[Decoded],
        _plan: &InlinePlan,
        _proofs: Option<&AccessProofs>,
    ) -> Option<JitProgram> {
        None
    }

    pub(crate) fn run(
        jit: &JitProgram,
        _budget: u64,
        _mem: &mut Memory<'_>,
        _scratch: &mut Vec<u8>,
        _env: &mut ExecEnv,
    ) -> Result<ExecOutcome, ExecError> {
        match jit._never {}
    }
}
