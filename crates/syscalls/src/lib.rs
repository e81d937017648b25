//! # kscope-syscalls
//!
//! The syscall vocabulary shared by the kscope kernel simulator, eBPF
//! runtime, workload models, and observability pipeline.
//!
//! The paper's whole methodology rests on what a `raw_syscalls` tracepoint
//! can see: a syscall number, a packed `pid_tgid`, and a `ktime` timestamp at
//! each of `sys_enter`/`sys_exit`. This crate defines those records
//! ([`SyscallEvent`], [`TracepointCtx`]), the x86-64 numbering
//! ([`SyscallNo`]), per-application role assignments of the
//! request-oriented syscalls of §III ([`SyscallProfile`], §IV-A), trace
//! containers with the delta/duration statistics of the paper
//! ([`Trace`]), and the lifecycle-phase extraction of Fig. 1
//! ([`PhaseReport`]).
//!
//! # Examples
//!
//! Computing the paper's Eq. 1 over the send stream of a trace:
//!
//! ```
//! use kscope_simcore::Nanos;
//! use kscope_syscalls::{SyscallEvent, SyscallNo, SyscallProfile, SyscallRole, Trace};
//!
//! let mut trace = Trace::new();
//! for i in 0..2_049u64 {
//!     trace.push(SyscallEvent {
//!         tid: 7,
//!         pid: 7,
//!         no: SyscallNo::SENDTO,
//!         enter: Nanos::from_micros(500 * i),
//!         exit: Nanos::from_micros(500 * i + 2),
//!         ret: 128,
//!     });
//! }
//! let sends = trace.filter_role(&SyscallProfile::tailbench(), SyscallRole::Send);
//! let rps = sends.completion_rate().unwrap();
//! assert!((rps - 2_000.0).abs() < 1.0); // one send every 500us
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod event;
mod no;
mod phase;
mod profile;
mod trace;

pub use event::{
    pid_tgid, split_pid_tgid, NetCtx, Pid, SyscallEvent, Tid, TracePhase, TracepointCtx,
};
pub use no::SyscallNo;
pub use phase::PhaseReport;
pub use profile::{SyscallProfile, SyscallRole};
pub use trace::Trace;
