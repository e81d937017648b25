//! # kscope
//!
//! In-kernel observability of request-level metrics with eBPF syscall
//! tracing — a full Rust reproduction of *"Characterizing In-Kernel
//! Observability of Latency-Sensitive Request-Level Metrics with eBPF"*
//! (Rezvani, Jahanshahi, Wong — ISPASS 2024), including every substrate the
//! methodology depends on.
//!
//! This crate is the facade: it re-exports the workspace's crates as
//! modules and offers a [`prelude`] for the common path. The layering:
//!
//! * [`simcore`] — deterministic discrete-event engine (time, RNG, dists);
//! * [`syscalls`] — syscall numbers, events, traces, profiles, phases;
//! * [`kernel`] — simulated OS: scheduler, channels, epoll, tracepoints;
//! * [`netem`] — tc-netem-style delay/jitter/loss with retransmission;
//! * [`ebpf`] — a real eBPF VM: ISA, assembler, verifier, interpreter, maps;
//! * [`workloads`] — the paper's nine latency-sensitive applications;
//! * [`core`] — **the contribution**: the eBPF bytecode probe, window
//!   metrics, and the three estimators (RPS / saturation / slack);
//! * [`experiments`] — one module per paper table/figure, with the
//!   regression, percentiles, charts and tables it renders them with.
//!
//! # Examples
//!
//! Observe a memcached-like server with an actual eBPF bytecode probe:
//!
//! ```
//! use kscope::prelude::*;
//!
//! let spec = kscope::workloads::data_caching();
//! let config = RunConfig::new(spec.paper_failure_rps * 0.5, 7).quick();
//! let window = Nanos::from_millis(100);
//!
//! let outcome = run_workload_with(&spec, &config, |sim| {
//!     let probe = WindowedObserver::new(
//!         ProbeSet::new(sim.server_pids(), spec.profile.clone(), 10)
//!             .build()
//!             .expect("generated programs verify"),
//!         window,
//!     );
//!     vec![Box::new(probe)]
//! });
//! assert!(outcome.client.completed > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use kscope_core as core;
pub use kscope_ebpf as ebpf;
pub use kscope_experiments as experiments;
pub use kscope_kernel as kernel;
pub use kscope_netem as netem;
pub use kscope_simcore as simcore;
pub use kscope_syscalls as syscalls;
pub use kscope_workloads as workloads;

/// The items most programs need.
pub mod prelude {
    pub use kscope_core::{
        Agent, BytecodeBackend, MetricBackend, ProbeSet, RpsEstimator, SaturationDetector,
        SlackEstimator, StackDelay, WindowMetrics, WindowedObserver,
    };
    pub use kscope_kernel::TracepointProbe;
    pub use kscope_netem::NetemConfig;
    pub use kscope_simcore::{Dist, Nanos, SimRng};
    pub use kscope_syscalls::{SyscallNo, SyscallProfile, SyscallRole, Trace};
    pub use kscope_workloads::{
        all_paper_workloads, run_workload, run_workload_with, RunConfig, ServerSim, WorkloadSpec,
    };
}
