//! One observed run: a workload under the paper's bytecode probe.
//!
//! Every experiment follows the same sequence — build the probe once the
//! server's pids exist, wrap it in a [`WindowedObserver`], attach it,
//! run, detach it, recover the concrete observer and close its last
//! window. [`observe_run`] owns that sequence; callers supply only the
//! probe builder and read the finished [`ObservedRun`].

use kscope_core::{BuildError, BytecodeBackend, WindowedObserver};
use kscope_kernel::{TracepointProbe, TracingStats};
use kscope_simcore::Nanos;
use kscope_syscalls::Trace;
use kscope_workloads::{run_workload_with, ClientStats, RunConfig, ServerSim, WorkloadSpec};

/// A finished run and the probe that watched it.
pub struct ObservedRun {
    /// Ground truth measured at the client.
    pub client: ClientStats,
    /// Syscall trace of the measurement window (empty unless
    /// `collect_trace` was set).
    pub trace: Trace,
    /// Start of the measurement window.
    pub warmup_end: Nanos,
    /// End of the measurement window.
    pub end: Nanos,
    /// Tracepoint firings and the probe time charged for them.
    pub tracing: TracingStats,
    probe: Box<dyn TracepointProbe>,
}

impl std::fmt::Debug for ObservedRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObservedRun")
            .field("client", &self.client)
            .field("warmup_end", &self.warmup_end)
            .field("end", &self.end)
            .field("tracing", &self.tracing)
            .finish_non_exhaustive()
    }
}

impl ObservedRun {
    /// The probe's observer, its last window closed at [`ObservedRun::end`].
    pub fn observer(&mut self) -> &mut WindowedObserver<BytecodeBackend> {
        match self
            .probe
            .as_any_mut()
            .downcast_mut::<WindowedObserver<BytecodeBackend>>()
        {
            Some(observer) => observer,
            None => unreachable!("observe_run attaches a bytecode windowed observer"),
        }
    }
}

/// Runs `spec` under `config` with the probe `build` makes from the
/// server, windowed every `window`, and returns the finished run.
///
/// # Panics
///
/// Panics if `build` fails: the generated probe programs always verify,
/// so a [`BuildError`] is a generator bug.
pub fn observe_run<F>(
    spec: &WorkloadSpec,
    config: &RunConfig,
    window: Nanos,
    build: F,
) -> ObservedRun
where
    F: FnOnce(&ServerSim) -> Result<BytecodeBackend, BuildError>,
{
    let outcome = run_workload_with(spec, config, |sim| {
        let backend =
            build(sim).unwrap_or_else(|e| panic!("generated probe programs must verify: {e}"));
        vec![Box::new(WindowedObserver::new(backend, window)) as Box<dyn TracepointProbe>]
    });
    let mut kernel = outcome.kernel;
    let probe = match kernel.tracing.detach(outcome.probes[0]) {
        Some(probe) => probe,
        None => unreachable!("probe id came from this run's attach"),
    };
    let mut run = ObservedRun {
        client: outcome.client,
        trace: outcome.trace,
        warmup_end: outcome.warmup_end,
        end: outcome.end,
        tracing: *kernel.tracing.stats(),
        probe,
    };
    let end = run.end;
    run.observer().finish(end);
    run
}
