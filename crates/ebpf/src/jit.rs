//! Template JIT: compiles the pre-decoded instruction stream of a
//! verified program to native x86-64 machine code.
//!
//! Only a program the value-tracking verifier accepted reaches the JIT
//! ([`Program::jit`](crate::program::Program::jit)): its
//! [`AccessProofs`](crate::verifier::AccessProofs) prove every memory
//! access it can execute in-bounds, and its certified cost bound
//! ([`cost_report`](crate::analysis::cost_report)) caps the instructions
//! any run executes. Each [`Decoded`](crate::decode::Decoded) slot
//! expands to a fixed template of x86-64 instructions that replicates
//! the interpreter's semantics exactly: wrapping arithmetic, div/mod-by-
//! zero results, 32-bit zero extension, shift-count masking and the
//! per-instruction count. Stack and context accesses compile to direct
//! native loads/stores against the real buffers, with no region dispatch
//! or bounds check. A map-value access goes through the value address
//! its lookup recorded in the slot
//! ([`SlotEntry`](crate::mapindex::SlotEntry)) after checking the slot is
//! live, the access ends inside the value and the address is still
//! cached; any failed check jumps to a cold stub, emitted after the last
//! instruction, that calls the interpreter's map-value accessor and
//! resolves the key again exactly as the interpreter does.
//!
//! Map lookups, and hash-map updates and deletes, whose map and stack
//! addresses the verifier fixed on every path compile to guarded fast
//! paths against the map's runtime descriptor (DESIGN §6f): a lookup
//! answers at the key's home slot; an update overwrites the key there
//! or inserts it into an EMPTY home slot under the table's load bound;
//! a delete removes the key there or answers a miss. Each decides every
//! guard before it writes anything, and any other case takes a cold
//! stub to the unchanged helper trampoline. Every other helper call
//! trampolines into the interpreter's `call_helper`.
//!
//! What the verifier rules out has no code: a trap encoding (a bad
//! opcode, an unknown helper, the hi half of an `ld_dw`) emits nothing,
//! a load or store without a proof is one the verifier never reached,
//! every jump target lies inside the program, and no path falls off its
//! end or outruns the budget it runs under.
//!
//! # Semantics contract
//!
//! The JIT is held to the interpreter, the reference tier, by the
//! differential suite in
//! `crates/testkit/tests/interp_decode_differential.rs`: for every
//! program the verifier accepts, identical return values, instruction
//! counts, fault shapes, map contents, and `ExecEnv` state over
//! generated, fixture, and backend-probe programs.
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
//! registers, so helper-call spills line up with the ABI: a call into
//! Rust spills only the registers it reads or clobbers, and r6–r10
//! survive it in callee-saved registers. `r12` holds the `JitCtx`
//! pointer, `r11` counts the instructions executed, and `r9`/`r10` are
//! scratch, which is all a map-value access uses (the map-helper fast
//! paths spill their arguments first and may then use every
//! caller-saved register but `r11`).
//!
//! # Fallback rules
//!
//! `Program::jit` is `None`, and the VM runs the interpreter, for a
//! program without access proofs from a successful value-tracking
//! verification, for one without a certified cost bound, off x86-64
//! Linux, and when the executable buffer cannot be mapped.
//! [`Vm::execute`](crate::interp::Vm::execute) also runs the interpreter
//! when the program's certified bound exceeds the VM's instruction
//! budget ([`JitProgram::max_insns`]) or the context is shorter than
//! the one it was verified against ([`JitProgram::min_ctx_len`]).

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub use imp::*;

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
pub use stub::*;

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod imp {
    use crate::analysis::{HelperInline, InlinePlan, MapSite};
    use crate::decode::{AluOp, CmpOp, Decoded};
    use crate::helpers::Helper;
    use crate::insn::{REG_COUNT, STACK_SIZE};
    use crate::interp::{
        call_helper, ExecEnv, ExecError, ExecOutcome, Memory, CALLER_SAVED_POISON, CTX_BASE,
        MAP_HANDLE_BASE, MAP_SLOT_BASE, MAP_SLOT_STRIDE, STACK_BASE,
    };
    use crate::mapindex::{
        COUNTS_LIMIT_OFF, COUNTS_LIVE_OFF, COUNTS_TOMBSTONES_OFF, DESC_AUX_OFF, DESC_BASE_OFF,
        DESC_COUNTS_OFF, DESC_KEY_SIZE_OFF, DESC_KIND_ARRAY, DESC_KIND_HASH, DESC_KIND_OFF,
        DESC_MAX_ENTRIES_OFF, DESC_SIZE, DESC_VALUES_OFF, DESC_VALUE_SIZE_OFF, ENTRY_KEY_LEN_OFF,
        ENTRY_SIZE, ENTRY_STATE_OFF, INDEX_EMPTY, INDEX_OCCUPIED, INDEX_SEED, INDEX_TOMBSTONE,
        MIX64_MUL1, MIX64_MUL2, SLOT_ENTRY_SIZE, SLOT_FD_OFF, SLOT_KEY_OFF, SLOT_VALUE_OFF,
        SLOT_VALUE_SIZE_OFF,
    };
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
    const OFF_EXECUTED: i32 = 0x58;
    const OFF_STACK_BIAS: i32 = 0x60;
    const OFF_CTX_BIAS: i32 = 0x68;
    const OFF_TRAMP_LOAD: i32 = 0x70;
    const OFF_TRAMP_STORE: i32 = 0x78;
    const OFF_TRAMP_HELPER: i32 = 0x80;
    // Never referenced by emitted code (trampolines reach the state via
    // the ctx in Rust); kept so the layout test pins every field.
    #[allow(dead_code)]
    const OFF_STATE: i32 = 0x88;
    // Environment snapshot for inlined helpers (DESIGN §6f).
    const OFF_ENV_KTIME: i32 = 0x90;
    const OFF_ENV_PID_TGID: i32 = 0x98;
    const OFF_ENV_PRANDOM: i32 = 0xA0;
    // Map-value slot vector (base/len/cap of `Vm::slots`' spare-capacity
    // buffer) and the registry's runtime map descriptors, for the inline
    // map-lookup fast path.
    const OFF_SLOTS_BASE: i32 = 0xA8;
    const OFF_SLOTS_LEN: i32 = 0xB0;
    const OFF_SLOTS_CAP: i32 = 0xB8;
    const OFF_DESCS_BASE: i32 = 0xC0;
    const OFF_DESCS_LEN: i32 = 0xC8;

    /// In/out block shared between the JIT-compiled code and the Rust
    /// wrapper: eBPF register file, instruction count, and the
    /// trampoline plumbing.
    #[repr(C)]
    struct JitCtx {
        regs: [u64; REG_COUNT],
        /// Instructions executed, the count `r11` keeps between spills.
        executed: u64,
        stack_bias: u64,
        ctx_bias: u64,
        tramp_load: u64,
        tramp_store: u64,
        tramp_helper: u64,
        state: u64,
        /// `ExecEnv::ktime_ns`, loaded directly by inlined `ktime_get_ns`.
        env_ktime: u64,
        /// `ExecEnv::pid_tgid`, loaded directly by inlined
        /// `get_current_pid_tgid`.
        env_pid_tgid: u64,
        /// `ExecEnv::prandom_state`; inlined `get_prandom_u32` advances it
        /// in place and [`run`] writes it back on every exit path.
        env_prandom: u64,
        /// `Vm::slots` buffer: inlined lookups append `SlotEntry` records
        /// at `slots_base + slots_len * SLOT_ENTRY_SIZE` while
        /// `slots_len < slots_cap` (never allocating), and map-value
        /// accesses read their cached value addresses; trampolines
        /// re-sync all three around any Rust-side `Vec` use.
        slots_base: u64,
        slots_len: u64,
        slots_cap: u64,
        /// `MapRegistry::runtime_descs` table: one `DESC_SIZE`-byte
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
        /// `Vm::tramp_entries`: [`tramp_helper`] counts its calls here.
        tramp_entries: *mut [u64; Helper::ALL.len()],
        fault: Option<ExecError>,
    }

    // ---------------------------------------------------------------
    // Trampolines: native code -> interpreter memory model.
    // ---------------------------------------------------------------
    // meta32 packing (load/store): dst(bits 0-4) | size(bits 8-11) |
    // pc(bits 16-31).
    // meta32 packing (helper): helper id(bits 0-15) | pc(bits 16-31).

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

    /// The map-value load of a cold stub: resolves the slot's key again
    /// through the interpreter's memory model.
    ///
    /// # Safety
    ///
    /// Called only from JIT-compiled code with the `JitCtx` built by
    /// [`run`]; all pointers are live for the duration of the call.
    unsafe extern "sysv64" fn tramp_load(ctx: *mut JitCtx, addr: u64, meta: u32) -> u32 {
        let ctx = &mut *ctx;
        let st = &mut *(ctx.state as *mut TrampState);
        let mem = &mut *st.mem;
        slots_sync_in(ctx, mem);
        let dst = (meta & 0x1f) as usize;
        let size = ((meta >> 8) & 0xf) as usize;
        let pc = (meta >> 16) as usize;
        match mem.read(pc, addr, size) {
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

    /// The map-value store counterpart of [`tramp_load`].
    ///
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
        match mem.write(pc, addr, size, value) {
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
        if let Some(n) = (*st.tramp_entries).get_mut(helper.index()) {
            *n += 1;
        }
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
        /// The certified bound on instructions one run executes.
        max_insns: u64,
        /// Minimum runtime context length required by the unchecked
        /// context loads (0 when the program reads no context).
        min_ctx_len: usize,
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
                .field("max_insns", &self.max_insns)
                .field("min_ctx_len", &self.min_ctx_len)
                .field("inlined_calls", &self.inlined_calls)
                .field("trampolined_calls", &self.trampolined_calls)
                .finish()
        }
    }

    impl JitProgram {
        /// The certified bound on instructions one run executes: the
        /// code keeps no budget, so it runs only under a budget at least
        /// this large.
        pub fn max_insns(&self) -> u64 {
            self.max_insns
        }

        /// Minimum context length for which this code is sound.
        pub fn min_ctx_len(&self) -> usize {
            self.min_ctx_len
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

    // ---------------------------------------------------------------
    // Emitter.
    // ---------------------------------------------------------------

    #[derive(Clone, Copy)]
    enum Label {
        Slot(usize),
        Epilogue,
    }

    /// Out-of-line code a hot path jumps to when a check fails, emitted
    /// after the last slot so the hot path runs straight through.
    enum ColdPath {
        /// The checked trampoline of a proven map-value access.
        MapValue {
            pc: usize,
            size: u8,
            base: u8,
            off: i16,
            action: MapAccess,
        },
        /// The helper trampoline of an inline lookup (its arguments are
        /// already spilled).
        Helper { pc: usize, helper: Helper },
    }

    struct ColdStub {
        /// rel32 positions of the hot path's jumps into the stub.
        from: Vec<usize>,
        /// Code offset the stub jumps back to.
        resume: usize,
        path: ColdPath,
    }

    struct Emitter {
        code: Vec<u8>,
        /// (position of a rel32 field, jump target).
        fixups: Vec<(usize, Label)>,
        cold: Vec<ColdStub>,
        /// Code offset of each slot.
        slot_offsets: Vec<usize>,
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
                cold: Vec::new(),
                slot_offsets: vec![0; slots],
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

        /// `mov qword [base + disp], imm32` (sign-extended).
        fn mov_mi(&mut self, base: u8, disp: i32, imm: i32) {
            self.rex(true, 0, base);
            self.b(0xC7);
            self.modrm_mem(0, base, disp);
            self.imm32(imm as u32);
        }

        /// `mov dword [base + disp], imm32`.
        fn mov32_mi(&mut self, base: u8, disp: i32, imm: i32) {
            self.rex(false, 0, base);
            self.b(0xC7);
            self.modrm_mem(0, base, disp);
            self.imm32(imm as u32);
        }

        /// Group-1 ALU on memory with a sign-extended imm8:
        /// `op [base + disp], imm8` (83 /ext; 64- or 32-bit by `w`).
        fn alu_mi8(&mut self, w: bool, ext: u8, base: u8, disp: i32, imm: i8) {
            self.rex(w, 0, base);
            self.b(0x83);
            self.modrm_mem(ext, base, disp);
            self.b(imm as u8);
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

        /// Near jump back to an already emitted code offset.
        fn jmp_to(&mut self, target: usize) {
            self.b(0xE9);
            let rel = target as i64 - (self.code.len() as i64 + 4);
            self.imm32(rel as i32 as u32);
        }

        /// Sized load `dst = [base + disp]`, zero-extending narrow widths.
        fn load_sized(&mut self, size: u8, dst: u8, base: u8, disp: i32) {
            match size {
                1 | 2 => {
                    self.rex(false, dst, base);
                    self.b(0x0F);
                    self.b(if size == 1 { 0xB6 } else { 0xB7 }); // movzx r32, m8/m16
                    self.modrm_mem(dst, base, disp);
                }
                4 => {
                    self.rex(false, dst, base);
                    self.b(0x8B); // mov r32, m32 zero-extends
                    self.modrm_mem(dst, base, disp);
                }
                _ => self.mov_rm(dst, base, disp),
            }
        }

        /// Sized store of `src`'s low `size` bytes to `[base + disp]`.
        fn store_sized(&mut self, size: u8, base: u8, disp: i32, src: u8) {
            match size {
                1 => {
                    // Always a REX prefix: it selects sil/dil/bpl rather
                    // than dh/bh/ch for registers 5-7.
                    self.b(0x40 | (((src >= 8) as u8) << 2) | (base >= 8) as u8);
                    self.b(0x88);
                    self.modrm_mem(src, base, disp);
                }
                2 | 4 => {
                    if size == 2 {
                        self.b(0x66); // operand-size prefix
                    }
                    self.rex(false, src, base);
                    self.b(0x89);
                    self.modrm_mem(src, base, disp);
                }
                _ => self.mov_mr(base, disp, src),
            }
        }

        /// `call [r12 + disp]`.
        fn call_ctxmem(&mut self, disp: i32) {
            self.b(0x41); // REX.B for r12
            self.b(0xFF);
            self.modrm_mem(2, R12, disp);
        }

        /// Per-slot instruction count: `inc r11`.
        fn count_insn(&mut self) {
            self.b(0x49);
            self.b(0xFF);
            self.b(0xC3);
        }

        // -----------------------------------------------------------
        // Trampoline call sequences.
        // -----------------------------------------------------------

        /// Spills eBPF r0–r5 (all on caller-saved x86 registers) plus the
        /// instruction count so a trampoline may clobber them.
        fn spill_caller_saved(&mut self) {
            for r in 0..6 {
                self.mov_mr(R12, OFF_REGS + 8 * r, X86[r as usize]);
            }
            self.mov_mr(R12, OFF_EXECUTED, R11);
        }

        fn reload_caller_saved(&mut self) {
            for r in 0..6 {
                self.mov_rm(X86[r as usize], R12, OFF_REGS + 8 * r);
            }
            self.mov_rm(R11, R12, OFF_EXECUTED);
        }

        /// Spills what a helper trampoline reads: the helper's argument
        /// registers (`call_helper` reads no others and writes r0-r5),
        /// plus the instruction count. r6-r10 live on callee-saved x86
        /// registers the call preserves.
        fn spill_args(&mut self, helper: Helper) {
            for r in 1..=helper.arg_count() as i32 {
                self.mov_mr(R12, OFF_REGS + 8 * r, X86[r as usize]);
            }
            self.mov_mr(R12, OFF_EXECUTED, R11);
        }

        /// `test eax, eax; jnz Epilogue` after a trampoline call: the
        /// trampoline recorded its fault, which ends the run.
        fn check_tramp_result(&mut self) {
            self.b(0x85);
            self.b(0xC0);
            self.jcc(CC_NZ, Label::Epilogue);
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

    fn load_store_meta(dst: u8, size: u8, pc: usize) -> u32 {
        (dst as u32) | ((size as u32) << 8) | ((pc as u32) << 16)
    }

    /// Compiles a verified program's decoded slots to native code.
    /// `plan` says which helper-call sites inline (the
    /// platform-independent plan the cost certifier and `plans.golden`
    /// report against); `proofs` are the verifier's access proofs, and
    /// `max_insns` its certified bound on the instructions one run
    /// executes, which the VM checks against its budget before running
    /// the code. The program must have passed verification, which
    /// [`Program::jit`](crate::program::Program::jit) ensures: the code
    /// checks no register number, jump target, budget or unproven
    /// access.
    pub(crate) fn compile(
        decoded: &[Decoded],
        plan: &InlinePlan,
        proofs: &AccessProofs,
        max_insns: u64,
    ) -> Option<JitProgram> {
        let mut e = Emitter::new(decoded.len());
        let mut needs_ctx_len = false;

        // Prologue: save callee-saved registers, align the stack, stash
        // the JitCtx pointer in r12, load the register file and zero
        // the instruction count.
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
        e.alu_rr(false, 0x31, R11, R11); // xor r11d, r11d

        for (pc, d) in decoded.iter().enumerate() {
            e.slot_offsets[pc] = e.code.len();
            emit_slot(&mut e, pc, *d, proofs.proven(pc), plan, &mut needs_ctx_len);
        }

        // Cold stubs, each jumping back to where its hot path resumes.
        for stub in std::mem::take(&mut e.cold) {
            for p in stub.from {
                e.patch32(p);
            }
            match stub.path {
                ColdPath::MapValue {
                    pc,
                    size,
                    base,
                    off,
                    action: MapAccess::Load { dst },
                } => emit_tramp_load(&mut e, pc, size, dst, base, off),
                ColdPath::MapValue {
                    pc,
                    size,
                    base,
                    off,
                    action: MapAccess::Store(val),
                } => emit_tramp_store(&mut e, pc, size, base, off, val),
                ColdPath::Helper { pc, helper } => emit_helper_tramp_body(&mut e, pc, helper),
            }
            e.jmp_to(stub.resume);
        }

        // Epilogue: write back r0 and the instruction count, restore the
        // callee-saved registers, return.
        e.epilogue_off = e.code.len();
        e.mov_mr(R12, OFF_REGS, RAX);
        e.mov_mr(R12, OFF_EXECUTED, R11);
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
                Label::Epilogue => e.epilogue_off,
            };
            let rel = target as i64 - (pos as i64 + 4);
            let bytes = (rel as i32).to_le_bytes();
            e.code[pos..pos + 4].copy_from_slice(&bytes);
        }

        Some(JitProgram {
            buf: ExecBuf::new(&e.code)?,
            max_insns,
            min_ctx_len: if needs_ctx_len {
                proofs.min_ctx_len()
            } else {
                0
            },
            inlined_calls: plan.inlined(),
            trampolined_calls: plan.trampolined(),
        })
    }

    /// Emits one decoded slot: its instruction count, then its template.
    /// Fallthrough continues into the next slot, exactly mirroring
    /// `pc += 1` in the interpreter.
    fn emit_slot(
        e: &mut Emitter,
        pc: usize,
        d: Decoded,
        proven: Option<ProvenRegion>,
        plan: &InlinePlan,
        needs_ctx_len: &mut bool,
    ) {
        // A verified program never executes a trap encoding: the hi half
        // of an `ld_dw` is skipped by its lo half, and the verifier
        // rejects any other it reaches. It emits nothing, not even its
        // count.
        if !d.is_trap() {
            e.count_insn();
        }
        match d {
            Decoded::MalformedLdDw
            | Decoded::BadOpcode { .. }
            | Decoded::UnknownHelper { .. }
            | Decoded::BadRegister { .. } => {}
            // Both fall through the (empty) hi slot into the next
            // instruction.
            Decoded::LdImm64 { dst, value } => e.mov_ri(X86[dst as usize], value),
            Decoded::LdMapFd { dst, fd } => {
                e.mov_ri(X86[dst as usize], MAP_HANDLE_BASE | fd as u64)
            }
            Decoded::Exit => e.jmp(Label::Epilogue),
            Decoded::Load {
                size,
                dst,
                src,
                off,
            } => match proven {
                Some(ProvenRegion::Stack) => {
                    emit_direct_load(e, size, dst, src, off, OFF_STACK_BIAS)
                }
                Some(ProvenRegion::Ctx) => {
                    emit_direct_load(e, size, dst, src, off, OFF_CTX_BIAS);
                    *needs_ctx_len = true;
                }
                Some(ProvenRegion::MapValue) => {
                    emit_map_value(e, pc, size, src, off, MapAccess::Load { dst })
                }
                // An access without a proof is one the verifier never
                // reached.
                None => {}
            },
            Decoded::StoreReg {
                size,
                dst,
                src,
                off,
            } => match proven {
                Some(ProvenRegion::Stack) => {
                    emit_direct_store(e, size, dst, off, StoreVal::Reg(src))
                }
                Some(ProvenRegion::MapValue) => {
                    emit_map_value(e, pc, size, dst, off, MapAccess::Store(StoreVal::Reg(src)))
                }
                // Unreached, as above (the verifier rejects context stores).
                Some(ProvenRegion::Ctx) | None => {}
            },
            Decoded::StoreImm {
                size,
                dst,
                off,
                imm,
            } => match proven {
                Some(ProvenRegion::Stack) => {
                    emit_direct_store(e, size, dst, off, StoreVal::Imm(imm))
                }
                Some(ProvenRegion::MapValue) => {
                    emit_map_value(e, pc, size, dst, off, MapAccess::Store(StoreVal::Imm(imm)))
                }
                Some(ProvenRegion::Ctx) | None => {}
            },
            Decoded::Alu64Imm { op, dst, imm } => emit_alu_imm(e, true, op, dst, imm),
            Decoded::Alu32Imm { op, dst, imm } => emit_alu_imm(e, false, op, dst, imm as u64),
            Decoded::Alu64Reg { op, dst, src } => emit_alu_reg(e, true, op, dst, src),
            Decoded::Alu32Reg { op, dst, src } => emit_alu_reg(e, false, op, dst, src),
            // The verifier keeps every jump target inside the program.
            Decoded::Ja { target } => e.jmp(Label::Slot(target as usize)),
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
                e.jcc(cmp_cc(op), Label::Slot(target as usize));
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
                e.jcc(cmp_cc(op), Label::Slot(target as usize));
            }
            Decoded::Call { helper } => match (plan.site(pc), plan.map_site(pc)) {
                (Some(HelperInline::Env), _) => emit_env_helper(e, helper),
                // The plan only classifies a map call as fast when it has
                // a site; without one the call keeps its trampoline.
                (Some(HelperInline::MapLookupFast), Some(site)) => {
                    emit_lookup_fast(e, pc, helper, site)
                }
                (Some(HelperInline::MapUpdateFast), Some(site)) => {
                    emit_update_fast(e, pc, helper, site)
                }
                (Some(HelperInline::MapDeleteFast), Some(site)) => {
                    emit_delete_fast(e, pc, helper, site)
                }
                _ => {
                    e.spill_args(helper);
                    emit_helper_tramp_body(e, pc, helper);
                }
            },
        }
    }

    /// The sysv64 round-trip into [`tramp_helper`]. Expects the helper's
    /// arguments already spilled (`spill_args`); reloads r0-r5 and the
    /// instruction count, all `call_helper` writes or the call clobbers.
    fn emit_helper_tramp_body(e: &mut Emitter, pc: usize, helper: Helper) {
        // mov rdi, r12
        e.b(0x4C);
        e.b(0x89);
        e.b(0xE7);
        let meta = (helper.id() as u32 & 0xffff) | ((pc as u32) << 16);
        e.mov_ri32(RSI, meta);
        e.call_ctxmem(OFF_TRAMP_HELPER);
        e.check_tramp_result();
        e.reload_caller_saved();
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

    /// Appends a `SlotEntry` at `slots_base + slots_len * SLOT_ENTRY_SIZE`
    /// — `fd`, `key_len`, the key from rax (zero-padded), the value
    /// address from r9 and the value size from the descriptor at
    /// `r10 + doff` — bumps the length, and leaves the slot handle
    /// (`MAP_SLOT_BASE + old_len << 20`) in rax. Falls back when the
    /// reserved capacity is exhausted (the trampoline's `Vec` push
    /// reallocates and re-syncs). Clobbers rsi/rdx/rcx.
    fn emit_slot_push(e: &mut Emitter, fd: u32, key_len: u32, doff: i32, to_fb: &mut Vec<usize>) {
        e.mov_rm(RSI, R12, OFF_SLOTS_LEN);
        e.cmp_rm(true, RSI, R12, OFF_SLOTS_CAP);
        to_fb.push(e.jcc32_fwd(CC_AE));
        e.imul_rri(RDX, RSI, SLOT_ENTRY_SIZE as i32);
        e.add_rm(RDX, R12, OFF_SLOTS_BASE);
        e.mov_ri(RCX, fd as u64 | ((key_len as u64) << 32));
        e.mov_mr(RDX, SLOT_FD_OFF as i32, RCX); // fd + key_len
        let key = SLOT_KEY_OFF as i32;
        e.mov_mr(RDX, key, RAX); // key bytes 0..8 (zero-padded past key_len)
        e.mov_mi(RDX, key + 8, 0); // key bytes 8..16
        e.mov_mr(RDX, SLOT_VALUE_OFF as i32, R9);
        e.mov32_rm(RCX, R10, doff + DESC_VALUE_SIZE_OFF as i32);
        e.mov_mr(RDX, SLOT_VALUE_SIZE_OFF as i32, RCX); // value_size + padding
        e.lea(RCX, RSI, 1);
        e.mov_mr(R12, OFF_SLOTS_LEN, RCX);
        e.shift_ri(true, 4, RSI, 20); // shl rsi, 20 (slot -> address stride)
        e.mov_ri(RAX, MAP_SLOT_BASE);
        e.alu_rr(true, 0x01, RSI, RAX); // add rax, rsi
    }

    /// r9 = the value address of row `row` (a register holding an array
    /// index or a hash slot) of the map whose descriptor is at `r10 + doff`.
    fn emit_value_address(e: &mut Emitter, row: u8, doff: i32) {
        e.mov32_rm(R9, R10, doff + DESC_VALUE_SIZE_OFF as i32);
        e.imul_rr(R9, row);
        e.add_rm(R9, R10, doff + DESC_VALUES_OFF as i32);
    }

    /// Guard shared by the map fast paths: `fd < descs_len` (a
    /// descriptor exists for this fd), then r10 = the descriptor table.
    fn emit_desc_guard(e: &mut Emitter, fd: u32, to_fb: &mut Vec<usize>) {
        e.mov_rm(R10, R12, OFF_DESCS_LEN);
        e.alu_ri(true, 7, R10, fd); // cmp r10, fd
        to_fb.push(e.jcc32_fwd(CC_BE));
        e.mov_rm(R10, R12, OFF_DESCS_BASE);
    }

    /// The hash half shared by the map fast paths: guards that the map
    /// at `r10 + doff` is a hash map with 8-byte keys, then leaves the
    /// key word in rax, its home slot index in rdi and the home
    /// `IndexEntry`'s address in rdx. Clobbers r9.
    fn emit_hash_home(e: &mut Emitter, site: MapSite, doff: i32, to_fb: &mut Vec<usize>) {
        e.cmp32_mi(R10, doff + DESC_KIND_OFF as i32, DESC_KIND_HASH as i32);
        to_fb.push(e.jcc32_fwd(CC_NZ));
        e.cmp32_mi(R10, doff + DESC_KEY_SIZE_OFF as i32, 8);
        to_fb.push(e.jcc32_fwd(CC_NZ));
        // rax = the key word; rdi = mix64((INDEX_SEED ^ 8) ^ w0) & mask,
        // the home slot.
        emit_stack_key_load(e, site.key_off, true);
        e.mov_ri(RDI, INDEX_SEED ^ 8);
        e.alu_rr(true, 0x31, RAX, RDI); // xor rdi, rax
        emit_mix64(e, RDI);
        e.and_rm(RDI, R10, doff + DESC_AUX_OFF as i32); // & index mask
        emit_entry_address(e, RDX, RDI, doff);
    }

    /// `dst` = the address of the `IndexEntry` at slot `row` of the hash
    /// table whose descriptor is at `r10 + doff`.
    fn emit_entry_address(e: &mut Emitter, dst: u8, row: u8, doff: i32) {
        e.imul_rri(dst, row, ENTRY_SIZE as i32);
        e.add_rm(dst, R10, doff + DESC_BASE_OFF as i32);
    }

    /// Branches on the home `IndexEntry` at rdx for the key word in rax,
    /// as the single-probe rule reads it (DESIGN §6f): an EMPTY slot
    /// jumps to the returned rel32 site, an OCCUPIED slot with exactly
    /// this key falls through, anything else falls back.
    fn emit_home_match(e: &mut Emitter, to_fb: &mut Vec<usize>) -> usize {
        e.cmp32_mi(RDX, ENTRY_STATE_OFF as i32, INDEX_EMPTY as i32);
        let empty = e.jcc32_fwd(CC_Z);
        e.cmp32_mi(RDX, ENTRY_STATE_OFF as i32, INDEX_OCCUPIED as i32);
        to_fb.push(e.jcc32_fwd(CC_NZ));
        e.cmp32_mi(RDX, ENTRY_KEY_LEN_OFF as i32, 8);
        to_fb.push(e.jcc32_fwd(CC_NZ));
        e.cmp_rm(true, RAX, RDX, 0); // key word match
        to_fb.push(e.jcc32_fwd(CC_NZ));
        empty
    }

    /// Ends a map fast path: writes the clobber poison `call_helper`
    /// leaves in r1–r5, and queues the cold stub that runs the unchanged
    /// trampoline for every `to_fb` jump (the arguments were spilled
    /// before the fast path began).
    fn finish_fast_path(e: &mut Emitter, pc: usize, helper: Helper, to_fb: Vec<usize>) {
        e.poison_caller_saved();
        e.cold.push(ColdStub {
            from: to_fb,
            resume: e.code.len(),
            path: ColdPath::Helper { pc, helper },
        });
    }

    /// Inlined `map_lookup_elem` fast path (DESIGN §6f).
    ///
    /// The compile-time facts are only the constant fd and the key's
    /// stack offset; everything about the map's *shape* (kind, key size,
    /// bounds, index placement) is guarded against the runtime
    /// descriptor table, so compiled code stays correct against any
    /// registry. Guard failures take the unmodified trampoline path (a
    /// cold stub); definitive hits push a slot record carrying the
    /// value's address and return its handle; definitive misses return 0.
    /// Either way the register effects match `call_helper` (result in
    /// r0, poison in r1–r5).
    fn emit_lookup_fast(e: &mut Emitter, pc: usize, helper: Helper, site: MapSite) {
        let doff = site.fd as i32 * DESC_SIZE as i32;
        // Spill first: the fallback trampoline reads the arguments from
        // the spilled file, and the fast path clobbers them.
        e.spill_args(helper);
        let mut to_fb: Vec<usize> = Vec::new();
        let mut to_miss: Vec<usize> = Vec::new();
        let mut to_done: Vec<usize> = Vec::new();
        emit_desc_guard(e, site.fd, &mut to_fb);

        let mut hash_entry: Option<usize> = None;
        if site.array_ok {
            e.cmp32_mi(R10, doff + DESC_KIND_OFF as i32, DESC_KIND_ARRAY as i32);
            if site.hash8_ok {
                hash_entry = Some(e.jcc32_fwd(CC_NZ));
            } else {
                to_fb.push(e.jcc32_fwd(CC_NZ));
            }
            e.cmp32_mi(R10, doff + DESC_KEY_SIZE_OFF as i32, 4);
            to_fb.push(e.jcc32_fwd(CC_NZ));
            emit_stack_key_load(e, site.key_off, false); // eax = index
            e.cmp_rm(false, RAX, R10, doff + DESC_MAX_ENTRIES_OFF as i32);
            to_miss.push(e.jcc32_fwd(CC_AE)); // out of bounds -> NULL
            emit_value_address(e, RAX, doff);
            emit_slot_push(e, site.fd, 4, doff, &mut to_fb);
            to_done.push(e.jmp32_fwd());
        }
        if site.hash8_ok {
            if let Some(p) = hash_entry {
                e.patch32(p);
            }
            emit_hash_home(e, site, doff, &mut to_fb);
            to_miss.push(emit_home_match(e, &mut to_fb));
            emit_value_address(e, RDI, doff);
            emit_slot_push(e, site.fd, 8, doff, &mut to_fb);
            to_done.push(e.jmp32_fwd());
        }
        // Miss: the interpreter returns 0 (NULL) without pushing a slot.
        for p in to_miss {
            e.patch32(p);
        }
        e.alu_rr(false, 0x31, RAX, RAX); // xor eax, eax
        for p in to_done {
            e.patch32(p);
        }
        finish_fast_path(e, pc, helper, to_fb);
    }

    /// Inlined hash-map `map_update_elem` fast path (DESIGN §6f): the
    /// cases [`HashIndex::home_write`](crate::mapindex::HashIndex::home_write)
    /// names. A key at its home slot has its value overwritten in place;
    /// a new key whose home slot is EMPTY takes it when the table's
    /// counts (read through the descriptor) leave room under
    /// `max_entries` and the load bound, exactly as `HashIndex::insert`
    /// would, bumping `live`. Every guard runs before the first write,
    /// and anything else (a tombstone or another key at home, a full
    /// map, a relayout) jumps to the unchanged trampoline. Neither case
    /// moves a value, so the cached value addresses of held slots stay
    /// valid and are left alone. Returns 0 in r0, poison in r1–r5.
    fn emit_update_fast(e: &mut Emitter, pc: usize, helper: Helper, site: MapSite) {
        let doff = site.fd as i32 * DESC_SIZE as i32;
        e.spill_args(helper);
        let mut to_fb: Vec<usize> = Vec::new();
        emit_desc_guard(e, site.fd, &mut to_fb);
        e.cmp32_mi(
            R10,
            doff + DESC_VALUE_SIZE_OFF as i32,
            site.value_len as i32,
        );
        to_fb.push(e.jcc32_fwd(CC_NZ)); // copy exactly the proven bytes
        emit_hash_home(e, site, doff, &mut to_fb);
        let insert = emit_home_match(e, &mut to_fb);
        let overwrite = e.jmp32_fwd();

        // Insert into the EMPTY home slot, unless the key would make the
        // map full or pass the load bound (the trampoline relays out).
        e.patch32(insert);
        e.mov_rm(RSI, R10, doff + DESC_COUNTS_OFF as i32); // rsi = &counts
        e.mov_rm(RCX, RSI, COUNTS_LIVE_OFF as i32);
        e.mov32_rm(R8, R10, doff + DESC_MAX_ENTRIES_OFF as i32);
        e.alu_rr(true, 0x39, R8, RCX); // cmp rcx, r8
        to_fb.push(e.jcc32_fwd(CC_AE)); // live >= max_entries: Full
        e.add_rm(RCX, RSI, COUNTS_TOMBSTONES_OFF as i32);
        e.cmp_rm(true, RCX, RSI, COUNTS_LIMIT_OFF as i32);
        to_fb.push(e.jcc32_fwd(CC_AE)); // would pass the load bound

        // The slot becomes `IndexEntry::live(key)`: the key zero-padded
        // to 16 bytes, key_len 8, OCCUPIED.
        e.mov_mr(RDX, 0, RAX);
        e.mov_mi(RDX, 8, 0);
        e.mov_ri(RCX, 8 | (u64::from(INDEX_OCCUPIED) << 32));
        e.mov_mr(RDX, ENTRY_KEY_LEN_OFF as i32, RCX); // key_len + state
        e.alu_mi8(true, 0, RSI, COUNTS_LIVE_OFF as i32, 1); // live += 1

        // Both cases: copy the value from the stack into the slot's cell.
        e.patch32(overwrite);
        emit_value_address(e, RDI, doff); // r9 = the slot's value cell
        e.mov_rm(R8, R12, OFF_STACK_BIAS);
        e.mov_ri(RCX, STACK_BASE + u64::from(site.value_off));
        e.alu_rr(true, 0x01, RCX, R8); // r8 = host address of the value
        emit_copy(e, R9, R8, site.value_len, RCX);
        e.alu_rr(false, 0x31, RAX, RAX); // xor eax, eax: return 0
        finish_fast_path(e, pc, helper, to_fb);
    }

    /// Inlined hash-map `map_delete_elem` fast path (DESIGN §6f): the
    /// cases [`HashIndex::home_remove`](crate::mapindex::HashIndex::home_remove)
    /// names. A key at its home slot leaves a tombstone, or an EMPTY slot
    /// when the next slot is EMPTY — unless the slot before it is a
    /// tombstone, whose clearing `HashIndex::remove` would go on to do;
    /// that case, like a tombstone or another key at home, bails to the
    /// unchanged trampoline before any write. A removal frees the key's
    /// value, so it clears the cached value address of every held slot of
    /// this fd, as `forget_values` does. An EMPTY home slot is a miss:
    /// nothing changes and r0 is -ENOENT. Poison in r1–r5.
    fn emit_delete_fast(e: &mut Emitter, pc: usize, helper: Helper, site: MapSite) {
        let doff = site.fd as i32 * DESC_SIZE as i32;
        e.spill_args(helper);
        let mut to_fb: Vec<usize> = Vec::new();
        emit_desc_guard(e, site.fd, &mut to_fb);
        emit_hash_home(e, site, doff, &mut to_fb);
        let absent = emit_home_match(e, &mut to_fb);

        // rsi = the next slot's entry; r8 = &counts.
        e.lea(RSI, RDI, 1);
        e.and_rm(RSI, R10, doff + DESC_AUX_OFF as i32);
        emit_entry_address(e, RSI, RSI, doff);
        e.mov_rm(R8, R10, doff + DESC_COUNTS_OFF as i32);
        e.cmp32_mi(RSI, ENTRY_STATE_OFF as i32, INDEX_EMPTY as i32);
        let tombstone = e.jcc32_fwd(CC_NZ);
        // The next slot is EMPTY: this one empties too, and the walk
        // stops here unless the previous slot is a tombstone.
        e.lea(RSI, RDI, -1);
        e.and_rm(RSI, R10, doff + DESC_AUX_OFF as i32);
        emit_entry_address(e, RSI, RSI, doff);
        e.cmp32_mi(RSI, ENTRY_STATE_OFF as i32, INDEX_TOMBSTONE as i32);
        to_fb.push(e.jcc32_fwd(CC_Z));
        e.mov32_mi(RDX, ENTRY_STATE_OFF as i32, INDEX_EMPTY as i32);
        let removed = e.jmp32_fwd();
        e.patch32(tombstone);
        e.mov32_mi(RDX, ENTRY_STATE_OFF as i32, INDEX_TOMBSTONE as i32);
        e.alu_mi8(true, 0, R8, COUNTS_TOMBSTONES_OFF as i32, 1); // tombstones += 1
        e.patch32(removed);
        e.alu_mi8(true, 5, R8, COUNTS_LIVE_OFF as i32, 1); // live -= 1

        // Clear the cached value address of every held slot of this fd.
        e.mov_rm(RSI, R12, OFF_SLOTS_BASE);
        e.mov_rm(RCX, R12, OFF_SLOTS_LEN);
        let top = e.code.len();
        e.alu_rr(true, 0x85, RCX, RCX); // test rcx, rcx
        let end = e.jcc8_fwd(CC_Z);
        e.cmp32_mi(RSI, SLOT_FD_OFF as i32, site.fd as i32);
        let other = e.jcc8_fwd(CC_NZ);
        e.mov_mi(RSI, SLOT_VALUE_OFF as i32, 0);
        e.patch8(other);
        e.alu_ri(true, 0, RSI, SLOT_ENTRY_SIZE as u32); // add rsi, stride
        e.alu_ri(true, 5, RCX, 1); // sub rcx, 1
        e.jmp_to(top);
        e.patch8(end);
        e.alu_rr(false, 0x31, RAX, RAX); // xor eax, eax: return 0
        let done = e.jmp32_fwd();
        // Miss: the interpreter returns -ENOENT and changes nothing.
        e.patch32(absent);
        e.mov_ri(RAX, (-2i64) as u64);
        e.patch32(done);
        finish_fast_path(e, pc, helper, to_fb);
    }

    /// Copies `len` bytes from `[src]` to `[dst]` through `tmp`, widest
    /// moves first.
    fn emit_copy(e: &mut Emitter, dst: u8, src: u8, len: u32, tmp: u8) {
        let mut off = 0i32;
        for size in [8u8, 4, 2, 1] {
            while len as i32 - off >= size as i32 {
                e.load_sized(size, tmp, src, off);
                e.store_sized(size, dst, off, tmp);
                off += size as i32;
            }
        }
    }

    /// Proven in-bounds load: translate the tagged address with the
    /// region bias and read straight from host memory.
    fn emit_direct_load(e: &mut Emitter, size: u8, dst: u8, src: u8, off: i16, bias_off: i32) {
        e.lea(R9, X86[src as usize], off as i32);
        e.add_rm(R9, R12, bias_off);
        e.load_sized(size, X86[dst as usize], R9, 0);
    }

    #[derive(Clone, Copy)]
    enum StoreVal {
        Reg(u8),
        Imm(u64),
    }

    /// Proven in-bounds stack store (the context is read-only; map values
    /// go through [`emit_map_value`]).
    fn emit_direct_store(e: &mut Emitter, size: u8, dst: u8, off: i16, val: StoreVal) {
        e.lea(R9, X86[dst as usize], off as i32);
        e.add_rm(R9, R12, OFF_STACK_BIAS);
        emit_store_val(e, size, R9, 0, val);
    }

    /// Stores `val`'s low `size` bytes to `[base + disp]`; `base` must
    /// not be r10, which an immediate passes through.
    fn emit_store_val(e: &mut Emitter, size: u8, base: u8, disp: i32, val: StoreVal) {
        match val {
            StoreVal::Reg(src) => e.store_sized(size, base, disp, X86[src as usize]),
            StoreVal::Imm(imm) => {
                e.mov_ri(R10, imm);
                e.store_sized(size, base, disp, R10);
            }
        }
    }

    /// A map-value load's cold path: the checked load through the
    /// interpreter's map-value accessor.
    fn emit_tramp_load(e: &mut Emitter, pc: usize, size: u8, dst: u8, src: u8, off: i16) {
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
        e.mov_ri32(RDX, load_store_meta(dst, size, pc));
        e.call_ctxmem(OFF_TRAMP_LOAD);
        e.check_tramp_result();
        e.reload_caller_saved();
        // The trampoline wrote the result into regs[dst]; dst may live in
        // a callee-saved register the generic reload didn't touch.
        e.mov_rm(X86[dst as usize], R12, OFF_REGS + 8 * dst as i32);
    }

    /// A map-value store's cold path: the checked store through the
    /// interpreter's map-value accessor.
    fn emit_tramp_store(e: &mut Emitter, pc: usize, size: u8, dst: u8, off: i16, val: StoreVal) {
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
        e.mov_ri32(RCX, load_store_meta(0, size, pc));
        e.call_ctxmem(OFF_TRAMP_STORE);
        e.check_tramp_result();
        e.reload_caller_saved();
    }

    /// What a proven map-value access does once the host pointer is in
    /// hand.
    #[derive(Clone, Copy)]
    enum MapAccess {
        Load { dst: u8 },
        Store(StoreVal),
    }

    /// Proven map-value access (DESIGN §6f). The verifier proved the
    /// offset stays inside the value; the slot and its value are runtime
    /// facts, and the lookup that made the slot recorded the value's host
    /// address and size in it. The hit path checks that the slot is
    /// live, that the access ends inside the recorded size and that the
    /// address is still cached (an insert into or delete from a hash map
    /// clears it), then touches the value directly. It uses only the
    /// scratch registers r9/r10, so nothing is spilled. A failed check
    /// jumps to a cold stub running the checked trampoline, which
    /// resolves the key again with the interpreter's own fault shapes —
    /// the fast path can only skip work, never change an outcome.
    fn emit_map_value(e: &mut Emitter, pc: usize, size: u8, base: u8, off: i16, action: MapAccess) {
        let mut to_cold = Vec::with_capacity(3);
        // r9 = tagged address - MAP_SLOT_BASE (wrapping, as in the
        // release interpreter); r10 = its slot index.
        e.lea(R9, X86[base as usize], off as i32);
        e.mov_ri(R10, MAP_SLOT_BASE);
        e.alu_rr(true, 0x29, R10, R9); // sub r9, r10
        e.alu_rr(true, 0x89, R9, R10); // mov r10, r9
        e.shift_ri(true, 5, R10, 20); // shr r10, 20
        e.cmp_rm(true, R10, R12, OFF_SLOTS_LEN);
        to_cold.push(e.jcc32_fwd(CC_AE)); // slot not live
        e.imul_rri(R10, R10, SLOT_ENTRY_SIZE as i32);
        e.add_rm(R10, R12, OFF_SLOTS_BASE); // r10 = &slots[slot]
        e.alu_ri(true, 4, R9, (MAP_SLOT_STRIDE - 1) as u32); // r9 = value offset
        e.alu_ri(true, 0, R9, size as u32); // r9 = access end
        e.cmp_rm(false, R9, R10, SLOT_VALUE_SIZE_OFF as i32);
        to_cold.push(e.jcc32_fwd(CC_A)); // ends past the value
        e.mov_rm(R10, R10, SLOT_VALUE_OFF as i32); // r10 = value address
        e.alu_rr(true, 0x85, R10, R10); // test r10, r10
        to_cold.push(e.jcc32_fwd(CC_Z)); // cleared: resolve the key again
        e.alu_rr(true, 0x01, R10, R9); // r9 = host address of the access end
        let disp = -(size as i32);
        match action {
            MapAccess::Load { dst } => e.load_sized(size, X86[dst as usize], R9, disp),
            MapAccess::Store(val) => emit_store_val(e, size, R9, disp, val),
        }
        e.cold.push(ColdStub {
            from: to_cold,
            resume: e.code.len(),
            path: ColdPath::MapValue {
                pc,
                size,
                base,
                off,
                action,
            },
        });
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
                emit_divmod(e, w, matches!(op, AluOp::Mod), xd, DivSrc::Imm(imm));
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
        /// The divisor as the interpreter sees it: sign-extended for the
        /// 64-bit form, the 32-bit word for the 32-bit form.
        Imm(u64),
    }

    /// Unsigned div/mod with eBPF's by-zero semantics: `x / 0 == 0`,
    /// `x % 0 == x` (the 32-bit forms still truncate/zero-extend `dst`).
    /// Only a register divisor can be zero: the verifier rejects a
    /// constant zero divisor.
    fn emit_divmod(e: &mut Emitter, w: bool, is_mod: bool, xd: u8, src: DivSrc) {
        // Divisor into r9 (32-bit moves zero-extend, giving the
        // truncated divisor the 32-bit ops compare against).
        let done = match src {
            DivSrc::Reg(xs) => {
                e.alu_rr(w, 0x89, xs, R9);
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
                Some(done)
            }
            DivSrc::Imm(imm) => {
                e.mov_ri(R9, imm);
                None
            }
        };
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
        if let Some(done) = done {
            e.patch8(done);
        }
    }

    // ---------------------------------------------------------------
    // Execution.
    // ---------------------------------------------------------------

    /// Runs compiled code against the interpreter's execution state.
    /// Semantics (outcome, instruction count, fault shapes) match the
    /// interpreter's `run_raw` exactly under any budget of at least
    /// [`JitProgram::max_insns`], which the caller checks.
    pub(crate) fn run(
        jit: &JitProgram,
        mem: &mut Memory<'_>,
        scratch: &mut Vec<u8>,
        env: &mut ExecEnv,
        tramp_entries: &mut [u64; Helper::ALL.len()],
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
            tramp_entries,
            fault: None,
        };
        // Region biases translate tagged eBPF addresses into host
        // pointers for proof-elided accesses (wrapping: host pointers may
        // be below the tag bases numerically).
        // SAFETY: raw-pointer field projections on a live Memory.
        let (stack_bias, ctx_bias) = unsafe {
            (
                ((*mem_ptr).stack.as_mut_ptr() as u64).wrapping_sub(STACK_BASE),
                ((*mem_ptr).ctx.as_ptr() as u64).wrapping_sub(CTX_BASE),
            )
        };
        let mut ctx = JitCtx {
            regs: [0; REG_COUNT],
            executed: 0,
            stack_bias,
            ctx_bias,
            tramp_load: tramp_load as *const () as u64,
            tramp_store: tramp_store as *const () as u64,
            tramp_helper: tramp_helper as *const () as u64,
            state: &mut state as *mut TrampState as u64,
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

        // A trampoline that faults records the fault and ends the run.
        match state.fault.take() {
            Some(e) => Err(e),
            None => Ok(ExecOutcome {
                ret: ctx.regs[0],
                insns_executed: ctx.executed,
                trace_output,
            }),
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::insn::Insn;
        use crate::maps::MapRegistry;
        use crate::program::Program;
        use crate::verifier::Verifier;
        use std::mem::offset_of;

        #[test]
        fn jitctx_layout_matches_emitter_offsets() {
            assert_eq!(offset_of!(JitCtx, regs), OFF_REGS as usize);
            assert_eq!(offset_of!(JitCtx, executed), OFF_EXECUTED as usize);
            assert_eq!(offset_of!(JitCtx, stack_bias), OFF_STACK_BIAS as usize);
            assert_eq!(offset_of!(JitCtx, ctx_bias), OFF_CTX_BIAS as usize);
            assert_eq!(offset_of!(JitCtx, tramp_load), OFF_TRAMP_LOAD as usize);
            assert_eq!(offset_of!(JitCtx, tramp_store), OFF_TRAMP_STORE as usize);
            assert_eq!(offset_of!(JitCtx, tramp_helper), OFF_TRAMP_HELPER as usize);
            assert_eq!(offset_of!(JitCtx, state), OFF_STATE as usize);
            assert_eq!(offset_of!(JitCtx, env_ktime), OFF_ENV_KTIME as usize);
            assert_eq!(offset_of!(JitCtx, env_pid_tgid), OFF_ENV_PID_TGID as usize);
            assert_eq!(offset_of!(JitCtx, env_prandom), OFF_ENV_PRANDOM as usize);
            assert_eq!(offset_of!(JitCtx, slots_base), OFF_SLOTS_BASE as usize);
            assert_eq!(offset_of!(JitCtx, slots_len), OFF_SLOTS_LEN as usize);
            assert_eq!(offset_of!(JitCtx, slots_cap), OFF_SLOTS_CAP as usize);
            assert_eq!(offset_of!(JitCtx, descs_base), OFF_DESCS_BASE as usize);
            assert_eq!(offset_of!(JitCtx, descs_len), OFF_DESCS_LEN as usize);
        }

        /// Verifies `program` with the default verifier and returns
        /// whether it compiled.
        fn verify_and_compile(program: &Program) -> bool {
            let _ = Verifier::default().verify(program, &MapRegistry::new());
            program.jit().is_some()
        }

        #[test]
        fn rejects_out_of_range_registers() {
            // r12 names no register: the verifier rejects it, so it
            // never reaches `compile`.
            let program = Program::new("r12", vec![Insn::mov64_imm(12, 1), Insn::exit()]);
            assert!(!verify_and_compile(&program));
            assert!(program.access_proofs().is_none());
        }

        #[test]
        fn empty_programs_do_not_compile() {
            assert!(!verify_and_compile(&Program::new("empty", Vec::new())));
            // The smallest verified program compiles: its code is the
            // prologue, two counted slots and the epilogue.
            let program = Program::new("ret0", vec![Insn::mov64_imm(0, 0), Insn::exit()]);
            assert!(verify_and_compile(&program));
            let plan = crate::analysis::helper_inline_plan(&program);
            let proofs = match program.access_proofs() {
                Some(p) => p,
                None => panic!("verification attaches proofs"),
            };
            let jit = match compile(program.decoded(), &plan, proofs, 2) {
                Some(j) => j,
                None => return, // mmap denied (sandbox); nothing to test
            };
            assert_eq!(jit.max_insns(), 2);
            assert_eq!(jit.min_ctx_len(), 0, "reads no context");
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
    use crate::helpers::Helper;
    use crate::interp::{ExecEnv, ExecError, ExecOutcome, Memory};
    use crate::verifier::AccessProofs;

    /// Placeholder on targets without a JIT backend; never constructed.
    #[derive(Debug)]
    pub struct JitProgram {
        _never: std::convert::Infallible,
    }

    impl JitProgram {
        /// The certified bound on instructions one run executes.
        pub fn max_insns(&self) -> u64 {
            match self._never {}
        }

        /// Minimum context length for which this code is sound.
        pub fn min_ctx_len(&self) -> usize {
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

    pub(crate) fn compile(
        _decoded: &[Decoded],
        _plan: &InlinePlan,
        _proofs: &AccessProofs,
        _max_insns: u64,
    ) -> Option<JitProgram> {
        None
    }

    pub(crate) fn run(
        jit: &JitProgram,
        _mem: &mut Memory<'_>,
        _scratch: &mut Vec<u8>,
        _env: &mut ExecEnv,
        _tramp_entries: &mut [u64; Helper::ALL.len()],
    ) -> Result<ExecOutcome, ExecError> {
        match jit._never {}
    }
}
