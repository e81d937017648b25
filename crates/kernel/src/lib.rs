//! # kscope-kernel
//!
//! The simulated operating-system substrate: tasks, a contended multicore
//! CPU scheduler, connection/queue channels, epoll semantics, and — the
//! part the paper's methodology plugs into — `raw_syscalls` tracepoint
//! dispatch with attachable probes and per-probe overhead accounting.
//!
//! The crate is deliberately *passive*: every structure is clock-agnostic
//! bookkeeping that takes `now` as an argument and returns what should
//! happen next (a [`ComputeGrant`] to schedule, wakeups to deliver). The
//! discrete-event driver in `kscope-workloads` owns the
//! [`Engine`](kscope_simcore::Engine) and orchestrates these pieces into
//! running servers.
//!
//! # Examples
//!
//! The life of one request against the raw substrate:
//!
//! ```
//! use kscope_kernel::{Kernel, Message, SchedConfig};
//! use kscope_simcore::{Nanos, SimRng};
//! use kscope_syscalls::SyscallNo;
//!
//! let mut kernel = Kernel::new(4, SchedConfig::default());
//! kernel.tracing.set_collect_trace(true);
//! let mut rng = SimRng::seed_from_u64(7);
//!
//! let pid = kernel.tasks.spawn_process("server");
//! let worker = kernel.tasks.spawn_thread(pid, "worker-0").unwrap();
//! let conn = kernel.channels.create();
//! let ep = kernel.epolls.create();
//! kernel.epolls.watch(ep, conn);
//!
//! // Worker blocks in epoll_wait at t=0.
//! let t0 = Nanos::ZERO;
//! kernel.tracing.sys_enter(pid, worker, SyscallNo::EPOLL_WAIT, t0);
//! kernel.epolls.block(ep, worker);
//!
//! // A request arrives at t=1ms and wakes the worker.
//! let t1 = Nanos::from_millis(1);
//! kernel.channels.deliver(conn, Message::internal(1, 64, t1));
//! let mut wakeups = Vec::new();
//! kernel.epolls.wake(conn, |_, tid| wakeups.push(tid));
//! assert_eq!(wakeups[0], worker);
//! kernel.tracing.sys_exit(pid, worker, SyscallNo::EPOLL_WAIT, 1, t1);
//!
//! // The epoll_wait duration in the trace is the idle slack: 1ms.
//! let ev = kernel.tracing.trace().events()[0];
//! assert_eq!(ev.duration(), Nanos::from_millis(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod epoll;
mod host;
mod netstack;
mod sched;
mod socket;
mod task;
mod tracing;

pub use epoll::{EpollId, EpollTable};
pub use host::HostSpec;
pub use netstack::{IngressConfig, IngressQueue, IngressStats, RxPacket, SoftirqDelivery};
pub use sched::{ComputeGrant, CpuScheduler, SchedConfig, SchedStats};
pub use socket::{ChannelId, ChannelTable, Message, StackStamps};
pub use task::{TaskInfo, TaskTable};
pub use tracing::{ProbeId, TracepointProbe, Tracing, TracingStats};

/// The assembled kernel: every subsystem plus the host profile.
///
/// Subsystems are public fields — the driver composes them freely, exactly
/// as kernel subsystems compose.
#[derive(Debug)]
pub struct Kernel {
    /// Host profile (Table I stand-in).
    pub host: HostSpec,
    /// Process/thread table.
    pub tasks: TaskTable,
    /// CPU scheduler.
    pub sched: CpuScheduler,
    /// Connection and internal-queue buffers.
    pub channels: ChannelTable,
    /// Epoll instances.
    pub epolls: EpollTable,
    /// Network-stack ingress pipeline (NIC ring + softirq/NAPI).
    pub ingress: IngressQueue,
    /// Tracepoint dispatch (the eBPF attachment surface).
    pub tracing: Tracing,
}

impl Kernel {
    /// Creates a kernel with `cores` schedulable cores and the default
    /// (AMD) host profile.
    pub fn new(cores: u32, sched_config: SchedConfig) -> Kernel {
        Kernel {
            host: HostSpec::default(),
            tasks: TaskTable::new(),
            sched: CpuScheduler::new(cores, sched_config),
            channels: ChannelTable::new(),
            epolls: EpollTable::new(),
            ingress: IngressQueue::default(),
            tracing: Tracing::new(),
        }
    }

    /// Creates a kernel sized to a host profile's physical cores.
    pub fn for_host(host: HostSpec, sched_config: SchedConfig) -> Kernel {
        let cores = host.physical_cores();
        Kernel {
            host,
            tasks: TaskTable::new(),
            sched: CpuScheduler::new(cores, sched_config),
            channels: ChannelTable::new(),
            epolls: EpollTable::new(),
            ingress: IngressQueue::default(),
            tracing: Tracing::new(),
        }
    }
}
