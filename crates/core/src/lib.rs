//! # kscope-core
//!
//! In-kernel observability of request-level metrics from eBPF syscall
//! tracing — the reproduction of the primary contribution of
//! *"Characterizing In-Kernel Observability of Latency-Sensitive
//! Request-Level Metrics with eBPF"* (ISPASS 2024).
//!
//! The pipeline has three layers:
//!
//! 1. **Probes** attached to the `sys_enter`/`sys_exit` tracepoints
//!    maintain twelve integer cells ([`RawCounters`]): inter-send and
//!    inter-recv delta statistics (count/sum/sum-of-squares, scaled —
//!    everything eBPF's no-float arithmetic allows) and poll-duration
//!    statistics. The probe is [`BytecodeBackend`]: verified eBPF
//!    bytecode that `kscope-ebpf` runs on its JIT, which falls back to
//!    the interpreter by itself where it cannot compile, as the kernel
//!    does. Callers choose no tier, and one per-instruction cost
//!    ([`NS_PER_INSN`]) applies on either.
//!    [`NativeBackend`] is the same logic as plain Rust, kept only as the
//!    reference oracle of the differential tests.
//!
//!    This probe, the §III ring-buffer [`streaming`] collector and user
//!    programs all run on one runtime, [`ProgramProbe`]: one check
//!    (verification plus the [`PROBE_COST_BUDGET`] gate) and one
//!    per-event runner that counts a faulting run instead of panicking.
//! 2. A [`WindowedObserver`] plays the userspace collector: it rolls the
//!    cells into per-window [`WindowMetrics`] snapshots.
//! 3. The [`Agent`] applies the paper's three estimators per window:
//!    [`RpsEstimator`] (Eq. 1), [`SaturationDetector`] (Eq. 2 variance
//!    knee), and [`SlackEstimator`] (poll-duration headroom).
//!
//! [`timeline::reconstruct`] additionally implements the Fig. 1(c)
//! single-thread request-timeline reconstruction, including the pairing-rate
//! diagnostic that shows when that simple model stops applying.
//!
//! [`SketchState`], re-exported from `kscope-ebpf`, is the probe's
//! in-kernel Top-K entity sketch; the same type carries the
//! order-invariant merge the fleet's collection tree rolls it up with.
//!
//! # Examples
//!
//! Attaching a bytecode probe to a simulated memcached and reading RPS:
//!
//! ```
//! use kscope_core::{MetricBackend, ProbeSet, WindowedObserver};
//! use kscope_simcore::Nanos;
//! use kscope_syscalls::{pid_tgid, NetCtx, SyscallNo, SyscallProfile, TracePhase, TracepointCtx};
//!
//! let backend = ProbeSet::new(vec![1000], SyscallProfile::data_caching(), 10).build()?;
//! let mut observer = WindowedObserver::new(backend, Nanos::from_millis(100));
//!
//! // ... attach `observer` to a kernel's tracepoints; here, fire directly:
//! use kscope_kernel::TracepointProbe;
//! for i in 1..=500u64 {
//!     observer.fire(&TracepointCtx {
//!         phase: TracePhase::Exit,
//!         no: SyscallNo::SENDMSG,
//!         pid_tgid: pid_tgid(1000, 1001),
//!         ktime: Nanos::from_micros(200 * i),
//!         ret: 64,
//!         net: NetCtx::NONE,
//!     });
//! }
//! let w = observer.windows().first().unwrap();
//! assert!((w.rps_obsv.unwrap() - 5_000.0).abs() < 100.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod agent;
mod bytecode;
mod counters;
mod estimators;
mod fixed;
mod hist;
mod native;
mod observer;
mod runtime;
mod stack;
pub mod streaming;
pub mod timeline;

pub use agent::{Agent, AgentReport};
pub use bytecode::{stack_offsets, BytecodeBackend, ProbeSet, StackCounters, HIST_BUCKETS};
pub use counters::{offsets, RawCounters, WindowMetrics};
pub use estimators::{
    RpsEstimator, SaturationAssessment, SaturationDetector, SlackAssessment, SlackEstimator,
    PAPER_MIN_SAMPLES,
};
pub use fixed::{ScaledAcc, DEFAULT_SHIFT};
pub use hist::Log2Hist;
pub use kscope_ebpf::SketchState;
pub use native::NativeBackend;
pub use observer::{MetricBackend, WindowedObserver};
pub use runtime::{
    BuildError, ProgramProbe, CTX_SIZE, NET_CTX_SIZE, NS_PER_INSN, PROBE_COST_BUDGET,
};
pub use stack::StackDelay;
