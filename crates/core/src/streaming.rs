//! The streaming collector: raw events over a BPF ring buffer.
//!
//! §III of the paper: "Initially, we streamed all available eBPF trace data
//! to user space to explore potential correlations... Subsequently, we
//! leveraged eBPF capabilities to compute these metrics directly within the
//! eBPF space." This module is that first mode: a `sys_enter` /
//! `sys_exit` program pair that pushes one fixed-size record per matched
//! tracepoint firing into a ring buffer, and a userspace side that drains
//! the buffer and reconstructs [`SyscallEvent`]s by pairing enters with
//! exits. The pair registers and runs through the probe runtime
//! ([`ProgramProbe`]), so it is cost-gated and runs on the JIT like every
//! other probe program.
//!
//! It exists for two reasons: it validates the aggregating probes against
//! an independent path (the streamed trace must equal the kernel's own
//! trace for the filtered subset), and it demonstrates *why* the paper
//! moved to in-kernel aggregation — under load the ring buffer overflows
//! and [`StreamingProbe::dropped`] starts counting.

use kscope_ebpf::asm::Asm;
use kscope_ebpf::insn::{R0, R1, R2, R3, R4, R6, R8, R9, R10, SZ_DW};
use kscope_ebpf::maps::{MapDef, MapFd, MapRegistry};
use kscope_ebpf::{Helper, Program};
use kscope_kernel::TracepointProbe;
use kscope_simcore::Nanos;
use kscope_syscalls::{
    Pid, SyscallEvent, SyscallNo, SyscallProfile, SyscallRole, Trace, TracePhase, TracepointCtx,
};

use crate::runtime::{BuildError, ProgramProbe};

/// Size of one streamed record: `[phase][syscall id][pid_tgid][ktime]`.
pub const RECORD_SIZE: usize = 32;

/// One drained ring-buffer record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamedEvent {
    /// Which tracepoint edge fired.
    pub phase: TracePhase,
    /// The syscall.
    pub no: SyscallNo,
    /// Packed `pid_tgid`.
    pub pid_tgid: u64,
    /// The helper-read timestamp.
    pub ktime: Nanos,
}

/// A tracepoint probe that streams matched events through a ring buffer.
///
/// # Examples
///
/// ```
/// use kscope_core::streaming::StreamingProbe;
/// use kscope_kernel::TracepointProbe;
/// use kscope_simcore::Nanos;
/// use kscope_syscalls::{pid_tgid, NetCtx, SyscallNo, SyscallProfile, TracePhase, TracepointCtx};
///
/// let mut probe = StreamingProbe::new(7, SyscallProfile::data_caching(), 4096).unwrap();
/// probe.fire(&TracepointCtx {
///     phase: TracePhase::Exit,
///     no: SyscallNo::SENDMSG,
///     pid_tgid: pid_tgid(7, 8),
///     ktime: Nanos::from_micros(5),
///     ret: 64,
///     net: NetCtx::NONE,
/// });
/// let events = probe.drain();
/// assert_eq!(events.len(), 1);
/// assert_eq!(events[0].no, SyscallNo::SENDMSG);
/// ```
#[derive(Debug)]
pub struct StreamingProbe {
    probe: ProgramProbe,
    ring_fd: MapFd,
    tgid: Pid,
}

impl StreamingProbe {
    /// Builds the streaming probe for one process; the ring buffer holds
    /// up to `capacity` records before dropping.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if a generated program fails assembly,
    /// verification or the cost gate (a generator bug).
    pub fn new(
        tgid: Pid,
        profile: SyscallProfile,
        capacity: u32,
    ) -> Result<StreamingProbe, BuildError> {
        let mut maps = MapRegistry::new();
        let ring_fd = maps.create("events", MapDef::ring_buf(RECORD_SIZE as u32, capacity));
        let streamer = |name, phase_word| build_streamer(name, phase_word, tgid, &profile, ring_fd);
        let enter = streamer("kscope_stream_enter", 0)?;
        let exit = streamer("kscope_stream_exit", 1)?;
        Ok(StreamingProbe {
            probe: ProgramProbe::new(Some(enter), Some(exit), maps)?,
            ring_fd,
            tgid,
        })
    }

    /// The runtime running the program pair: its programs, tier,
    /// instruction count and faults.
    pub fn runtime(&self) -> &ProgramProbe {
        &self.probe
    }

    /// The observed process.
    pub fn tgid(&self) -> Pid {
        self.tgid
    }

    /// Records dropped because the ring buffer was full — the reason the
    /// paper computes metrics in kernel space instead.
    pub fn dropped(&self) -> u64 {
        match self.probe.maps().ring_dropped(self.ring_fd) {
            Ok(dropped) => dropped,
            // `ring_fd` was created in `new` and fds are never closed.
            Err(e) => unreachable!("backend-owned ring buffer vanished: {e}"),
        }
    }

    /// Drains all pending records (the userspace consumer).
    ///
    /// Decoding happens in place through [`MapRegistry::ring_consume`],
    /// so the ring's record buffers are recycled rather than handed out:
    /// the only allocation here is the returned event vector itself.
    pub fn drain(&mut self) -> Vec<StreamedEvent> {
        let mut events = Vec::new();
        let consumed = self.probe.maps_mut().ring_consume(self.ring_fd, |record| {
            let cell = |i: usize| -> u64 {
                match record[i * 8..(i + 1) * 8].try_into() {
                    Ok(bytes) => u64::from_le_bytes(bytes),
                    Err(_) => unreachable!("an 8-byte slice converts to [u8; 8]"),
                }
            };
            events.push(StreamedEvent {
                phase: if cell(0) == 0 {
                    TracePhase::Enter
                } else {
                    TracePhase::Exit
                },
                no: SyscallNo::from_raw(cell(1) as u32),
                pid_tgid: cell(2),
                ktime: Nanos::from_nanos(cell(3)),
            });
        });
        match consumed {
            Ok(_) => events,
            // `ring_fd` was created in `new` and fds are never closed.
            Err(e) => unreachable!("backend-owned ring buffer vanished: {e}"),
        }
    }

    /// Pairs drained enter/exit records into completed [`SyscallEvent`]s
    /// (per thread, like the kernel's own pairing). Unpaired records are
    /// dropped.
    pub fn reconstruct(events: &[StreamedEvent]) -> Trace {
        use std::collections::HashMap;
        let mut open: HashMap<(u64, u32), Nanos> = HashMap::new();
        let mut trace = Trace::new();
        for ev in events {
            let key = (ev.pid_tgid, ev.no.raw());
            match ev.phase {
                TracePhase::Enter => {
                    open.insert(key, ev.ktime);
                }
                TracePhase::Exit => {
                    if let Some(enter) = open.remove(&key) {
                        let (tgid, tid) = kscope_syscalls::split_pid_tgid(ev.pid_tgid);
                        trace.push(SyscallEvent {
                            tid,
                            pid: tgid,
                            no: ev.no,
                            enter,
                            exit: ev.ktime,
                            ret: 0,
                        });
                    }
                }
                // The streamer only attaches to the raw_syscalls
                // tracepoints; net-phase records cannot appear.
                TracePhase::NetRxSoftirq | TracePhase::SockQueueDrain => {}
            }
        }
        trace
    }
}

impl TracepointProbe for StreamingProbe {
    fn name(&self) -> &str {
        "ebpf-streaming"
    }

    fn fire(&mut self, ctx: &TracepointCtx) -> Nanos {
        self.probe.run(ctx)
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Builds one program of the streaming pair: filter tgid and profile
/// syscalls, then `bpf_ringbuf_output` a 32-byte record whose phase word
/// is the immediate `phase_word` (0 on `sys_enter`, 1 on `sys_exit`).
fn build_streamer(
    name: &str,
    phase_word: i32,
    tgid: Pid,
    profile: &SyscallProfile,
    ring_fd: MapFd,
) -> Result<Program, kscope_ebpf::asm::AsmError> {
    let syscall = |role| profile.primary(role).raw() as i32;
    Asm::new(name)
        .mov64_reg(R9, R1) // save ctx
        .call(Helper::GetCurrentPidTgid)
        .mov64_reg(R6, R0)
        .mov64_reg(R2, R6)
        .rsh64_imm(R2, 32)
        .jne_imm(R2, tgid as i32, "out")
        .load(SZ_DW, R8, R9, 0) // args->id
        .jeq_imm(R8, syscall(SyscallRole::Send), "emit")
        .jeq_imm(R8, syscall(SyscallRole::Receive), "emit")
        .jeq_imm(R8, syscall(SyscallRole::Poll), "emit")
        .label("out")
        .mov64_imm(R0, 0)
        .exit()
        .label("emit")
        // Assemble the record on the stack: [phase][id][pid_tgid][ktime].
        .store_imm(SZ_DW, R10, -32, phase_word)
        .store_reg(SZ_DW, R10, R8, -24)
        .store_reg(SZ_DW, R10, R6, -16)
        .call(Helper::KtimeGetNs)
        .store_reg(SZ_DW, R10, R0, -8)
        .ld_map_fd(R1, ring_fd)
        .mov64_reg(R2, R10)
        .add64_imm(R2, -32)
        .mov64_imm(R3, RECORD_SIZE as i32)
        .mov64_imm(R4, 0)
        .call(Helper::RingbufOutput)
        .mov64_imm(R0, 0)
        .exit()
        .assemble()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kscope_syscalls::{pid_tgid, NetCtx};

    fn ctx(phase: TracePhase, no: SyscallNo, tid: u32, t_us: u64) -> TracepointCtx {
        TracepointCtx {
            phase,
            no,
            pid_tgid: pid_tgid(7, tid),
            ktime: Nanos::from_micros(t_us),
            ret: 1,
            net: NetCtx::NONE,
        }
    }

    #[test]
    fn streams_matched_events_in_order() {
        let mut probe = StreamingProbe::new(7, SyscallProfile::data_caching(), 64).unwrap();
        probe.fire(&ctx(TracePhase::Enter, SyscallNo::EPOLL_WAIT, 1, 10));
        probe.fire(&ctx(TracePhase::Exit, SyscallNo::EPOLL_WAIT, 1, 40));
        probe.fire(&ctx(TracePhase::Exit, SyscallNo::FUTEX, 1, 50)); // filtered
        probe.fire(&ctx(TracePhase::Exit, SyscallNo::READ, 1, 60));
        let events = probe.drain();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].phase, TracePhase::Enter);
        assert_eq!(events[1].ktime, Nanos::from_micros(40));
        assert_eq!(events[2].no, SyscallNo::READ);
        assert_eq!(probe.dropped(), 0);
        // Drained: the buffer is empty now.
        assert!(probe.drain().is_empty());
    }

    #[test]
    fn the_pair_is_cost_gated_and_runs_on_the_jit() {
        let probe = StreamingProbe::new(7, SyscallProfile::data_caching(), 16).unwrap();
        let runtime = probe.runtime();
        let names: Vec<&str> = runtime.programs().map(Program::name).collect();
        assert_eq!(names, ["kscope_stream_enter", "kscope_stream_exit"]);
        assert!(runtime.uses_jit());
        for program in runtime.programs() {
            let bound = kscope_ebpf::cost_report(program).map(|c| c.max_insns);
            assert!(
                bound.is_some_and(|b| b <= crate::PROBE_COST_BUDGET),
                "{bound:?}"
            );
        }
    }

    #[test]
    fn overflow_counts_drops() {
        let mut probe = StreamingProbe::new(7, SyscallProfile::data_caching(), 4).unwrap();
        for i in 0..10 {
            probe.fire(&ctx(TracePhase::Exit, SyscallNo::READ, 1, 10 + i));
        }
        assert_eq!(probe.drain().len(), 4);
        assert_eq!(probe.dropped(), 6);
    }

    #[test]
    fn foreign_processes_are_filtered() {
        let mut probe = StreamingProbe::new(7, SyscallProfile::data_caching(), 16).unwrap();
        let mut foreign = ctx(TracePhase::Exit, SyscallNo::READ, 1, 5);
        foreign.pid_tgid = pid_tgid(99, 1);
        probe.fire(&foreign);
        assert!(probe.drain().is_empty());
    }

    #[test]
    fn reconstruct_pairs_per_thread() {
        let events = vec![
            StreamedEvent {
                phase: TracePhase::Enter,
                no: SyscallNo::EPOLL_WAIT,
                pid_tgid: pid_tgid(7, 1),
                ktime: Nanos::from_micros(10),
            },
            StreamedEvent {
                phase: TracePhase::Enter,
                no: SyscallNo::EPOLL_WAIT,
                pid_tgid: pid_tgid(7, 2),
                ktime: Nanos::from_micros(12),
            },
            StreamedEvent {
                phase: TracePhase::Exit,
                no: SyscallNo::EPOLL_WAIT,
                pid_tgid: pid_tgid(7, 2),
                ktime: Nanos::from_micros(20),
            },
            StreamedEvent {
                phase: TracePhase::Exit,
                no: SyscallNo::EPOLL_WAIT,
                pid_tgid: pid_tgid(7, 1),
                ktime: Nanos::from_micros(50),
            },
        ];
        let trace = StreamingProbe::reconstruct(&events);
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.events()[0].tid, 2);
        assert_eq!(trace.events()[0].duration(), Nanos::from_micros(8));
        assert_eq!(trace.events()[1].duration(), Nanos::from_micros(40));
    }
}
