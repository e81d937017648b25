//! The observer: backend abstraction plus the windowing tracepoint probe.
//!
//! A [`MetricBackend`] is "the eBPF program": it sees every tracepoint
//! firing and maintains the metric cells. The [`WindowedObserver`] wraps a
//! backend as a kernel [`TracepointProbe`] and plays the userspace agent's
//! role: at fixed boundaries it snapshots the cells into a
//! [`WindowMetrics`] history and resets the windowed counters — exactly the
//! poll-and-reset cycle a real collector runs against a BPF map.

use kscope_kernel::TracepointProbe;
use kscope_simcore::Nanos;
use kscope_syscalls::TracepointCtx;

use crate::bytecode::StackCounters;
use crate::counters::{RawCounters, WindowMetrics};

/// One metric-maintaining implementation: the eBPF bytecode probe, or
/// the plain-Rust oracle the tests hold it to.
pub trait MetricBackend {
    /// Handles one tracepoint firing, returning its execution cost.
    fn on_event(&mut self, ctx: &TracepointCtx) -> Nanos;

    /// Current cell contents.
    fn counters(&self) -> RawCounters;

    /// Zeroes the windowed cells (keeps last-timestamp chaining).
    fn reset_window(&mut self);

    /// Short backend label for diagnostics.
    fn backend_name(&self) -> &'static str;

    /// The in-probe log2 histogram of scaled poll durations, when the
    /// backend maintains one (bucket `i` counts polls whose scaled
    /// duration has `floor(log2) == i`). Backends without in-kernel
    /// aggregation return `None`, the default.
    fn poll_histogram(&self) -> Option<[u64; 64]> {
        None
    }

    /// The in-probe log2 histogram of scaled time-in-stack per request
    /// (NIC arrival to socket-queue drain), when the backend carries the
    /// netstack probe pair. Unlike the windowed cells this histogram is
    /// *cumulative* — [`MetricBackend::reset_window`] never clears it —
    /// so callers read it once at report time. Backends without the
    /// netstack programs return `None`, the default.
    fn stack_histogram(&self) -> Option<[u64; 64]> {
        None
    }

    /// The netstack probe's scalar cells (count/sum/sumsq/misses of
    /// scaled time-in-stack), cumulative like
    /// [`MetricBackend::stack_histogram`]. `None` without the netstack
    /// programs, the default.
    fn stack_counters(&self) -> Option<StackCounters> {
        None
    }
}

/// Windowing wrapper: backend + agent behaviour, attachable to the kernel's
/// tracepoints.
///
/// # Examples
///
/// ```
/// use kscope_core::{ProbeSet, WindowedObserver};
/// use kscope_simcore::Nanos;
/// use kscope_syscalls::SyscallProfile;
///
/// let backend = ProbeSet::new(vec![1200], SyscallProfile::data_caching(), 10)
///     .build()?;
/// let observer = WindowedObserver::new(backend, Nanos::from_millis(200));
/// assert_eq!(observer.windows().len(), 0);
/// # Ok::<(), kscope_core::BuildError>(())
/// ```
#[derive(Debug)]
pub struct WindowedObserver<B> {
    backend: B,
    window: Nanos,
    window_start: Nanos,
    history: Vec<WindowMetrics>,
    raw_history: Vec<RawCounters>,
    hist_history: Vec<Option<[u64; 64]>>,
}

impl<B: MetricBackend> WindowedObserver<B> {
    /// Wraps `backend` with a fixed observation window.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(backend: B, window: Nanos) -> WindowedObserver<B> {
        assert!(!window.is_zero(), "observation window must be non-zero");
        WindowedObserver {
            backend,
            window,
            window_start: Nanos::ZERO,
            history: Vec::new(),
            raw_history: Vec::new(),
            hist_history: Vec::new(),
        }
    }

    /// Completed windows so far.
    pub fn windows(&self) -> &[WindowMetrics] {
        &self.history
    }

    /// Raw counter snapshots for the completed windows, index-aligned
    /// with [`WindowedObserver::windows`]. These are the mergeable
    /// sufficient statistics ([`RawCounters::merge`]) a fleet host
    /// accumulates into the cumulative state it reports upstream.
    pub fn raw_windows(&self) -> &[RawCounters] {
        &self.raw_history
    }

    /// In-probe poll-duration histogram snapshots for the completed
    /// windows, index-aligned with [`WindowedObserver::windows`]; `None`
    /// entries come from backends without in-kernel aggregation.
    pub fn window_histograms(&self) -> &[Option<[u64; 64]>] {
        &self.hist_history
    }

    /// The wrapped backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Closes the currently open window at `now` (end of run).
    pub fn finish(&mut self, now: Nanos) {
        self.roll_to(now, true);
    }

    /// Consumes the observer, returning its window history.
    pub fn into_windows(self) -> Vec<WindowMetrics> {
        self.history
    }

    /// Rolls complete windows up to `now`; `force` closes a partial one.
    fn roll_to(&mut self, now: Nanos, force: bool) {
        while now >= self.window_start + self.window {
            let end = self.window_start + self.window;
            self.close_window(end);
        }
        if force && now > self.window_start {
            self.close_window(now);
        }
    }

    /// Snapshots the cells (derived metrics, raw counters, histogram)
    /// into history, then resets the windowed state.
    fn close_window(&mut self, end: Nanos) {
        let raw = self.backend.counters();
        self.history
            .push(WindowMetrics::from_counters(self.window_start, end, &raw));
        self.raw_history.push(raw);
        self.hist_history.push(self.backend.poll_histogram());
        self.backend.reset_window();
        self.window_start = end;
    }
}

impl<B: MetricBackend + 'static> TracepointProbe for WindowedObserver<B> {
    fn name(&self) -> &str {
        self.backend.backend_name()
    }

    fn fire(&mut self, ctx: &TracepointCtx) -> Nanos {
        self.roll_to(ctx.ktime, false);
        self.backend.on_event(ctx)
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::NativeBackend;
    use kscope_syscalls::{pid_tgid, NetCtx, SyscallNo, SyscallProfile, TracePhase};

    fn send_exit(t_us: u64) -> TracepointCtx {
        TracepointCtx {
            phase: TracePhase::Exit,
            no: SyscallNo::SENDMSG,
            pid_tgid: pid_tgid(7, 7),
            ktime: Nanos::from_micros(t_us),
            ret: 1,
            net: NetCtx::NONE,
        }
    }

    fn observer(window_ms: u64) -> WindowedObserver<NativeBackend> {
        WindowedObserver::new(
            NativeBackend::new(7, SyscallProfile::data_caching(), 0),
            Nanos::from_millis(window_ms),
        )
    }

    #[test]
    fn windows_roll_at_boundaries() {
        let mut obs = observer(1);
        // Sends every 100us for 3.05ms => windows at 1ms, 2ms, 3ms.
        for i in 0..31 {
            obs.fire(&send_exit(i * 100));
        }
        assert_eq!(obs.windows().len(), 3);
        for w in obs.windows() {
            let rps = w.rps_obsv.unwrap();
            assert!((rps - 10_000.0).abs() < 100.0, "rps {rps}");
        }
    }

    #[test]
    fn deltas_span_window_boundaries() {
        let mut obs = observer(1);
        obs.fire(&send_exit(950));
        obs.fire(&send_exit(1_050)); // delta 100us crosses the 1ms boundary
        obs.finish(Nanos::from_micros(1_100));
        let windows = obs.windows();
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].send_samples, 0);
        assert_eq!(windows[1].send_samples, 1);
    }

    #[test]
    fn finish_closes_partial_window() {
        let mut obs = observer(10);
        obs.fire(&send_exit(100));
        obs.fire(&send_exit(200));
        obs.finish(Nanos::from_micros(500));
        assert_eq!(obs.windows().len(), 1);
        assert_eq!(obs.windows()[0].end, Nanos::from_micros(500));
        assert_eq!(obs.windows()[0].send_samples, 1);
    }

    #[test]
    fn idle_gaps_produce_empty_windows() {
        let mut obs = observer(1);
        obs.fire(&send_exit(100));
        obs.fire(&send_exit(4_500));
        let windows = obs.windows();
        assert_eq!(windows.len(), 4);
        assert_eq!(windows[1].send_samples, 0);
        assert_eq!(windows[2].send_samples, 0);
    }

    #[test]
    fn raw_snapshots_align_with_windows() {
        let mut obs = observer(1);
        for i in 0..31 {
            obs.fire(&send_exit(i * 100));
        }
        assert_eq!(obs.raw_windows().len(), obs.windows().len());
        assert_eq!(obs.window_histograms().len(), obs.windows().len());
        for (w, raw) in obs.windows().iter().zip(obs.raw_windows()) {
            assert_eq!(w.send_samples, raw.send.count);
            assert_eq!(w.events, raw.events);
        }
        // The native backend has no in-probe histogram.
        assert!(obs.window_histograms().iter().all(Option::is_none));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_window_rejected() {
        observer(0);
    }
}
