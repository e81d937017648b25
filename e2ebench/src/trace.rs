//! Span timing for the traced run.
//!
//! The benchmark wraps its own calls into each crate's public functions
//! in [`span`]; nothing inside the crates is instrumented. A span's self
//! time is its duration minus the spans nested in it. The traced run is
//! serial, so one thread-local tracer holds every span.
//!
//! Each span costs two clock reads. A probe firing takes about 200 ns,
//! so that cost is calibrated ([`Tracer::calibrate`]) and moved out of
//! the layers into a `trace.wrapper` layer of its own: part of it falls
//! inside the measured span, the rest in the enclosing one. The layers,
//! `trace.wrapper` and `other` (wall time outside every span) add up to
//! the traced wall time exactly.

use std::cell::RefCell;
use std::time::Instant;

use kscope_core::{MetricBackend, RawCounters, StackCounters};
use kscope_kernel::TracepointProbe;
use kscope_simcore::Nanos;
use kscope_syscalls::{TracePhase, TracepointCtx};

/// A layer the traced run attributes time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Probe construction: assembly, verification, cost certification.
    ProbeBuild,
    /// `MetricBackend::on_event` after each program's first event.
    ProbeExec,
    /// The first `on_event` per program (carries the lazy JIT compile).
    ProbeFirstEvent,
    /// `WindowedObserver` work around the probe: window rolls, finish.
    ObserverWindow,
    /// The simulation driver: engine, kernel model, workloads, netem.
    SimOther,
    /// `SimHost::new`: a fleet host's whole stack, its probe included.
    FleetHostBuild,
    /// The first `SimHost::serve_request` of each host.
    FleetServeFirst,
    /// Later `SimHost::serve_request` calls.
    FleetServe,
    /// `SimHost::make_report`.
    FleetEncode,
    /// `SimHost::offer`.
    FleetChannel,
    /// `Collector::receive`.
    FleetCollect,
    /// `FleetRun::rollup`.
    FleetTreeMerge,
    /// `report_to_json`.
    FleetJson,
    /// Calibration spans; never part of a reported run.
    Calibration,
}

impl Layer {
    /// Every reported layer, in report order.
    pub const ALL: [Layer; 13] = [
        Layer::ProbeBuild,
        Layer::ProbeExec,
        Layer::ProbeFirstEvent,
        Layer::ObserverWindow,
        Layer::SimOther,
        Layer::FleetHostBuild,
        Layer::FleetServeFirst,
        Layer::FleetServe,
        Layer::FleetEncode,
        Layer::FleetChannel,
        Layer::FleetCollect,
        Layer::FleetTreeMerge,
        Layer::FleetJson,
    ];

    /// Metric-name stem.
    pub fn name(self) -> &'static str {
        match self {
            Layer::ProbeBuild => "probe.build",
            Layer::ProbeExec => "probe.exec",
            Layer::ProbeFirstEvent => "probe.first_event",
            Layer::ObserverWindow => "observer.window",
            Layer::SimOther => "sim.other",
            Layer::FleetHostBuild => "fleet.host_build",
            Layer::FleetServeFirst => "fleet.serve_first",
            Layer::FleetServe => "fleet.serve",
            Layer::FleetEncode => "fleet.encode",
            Layer::FleetChannel => "fleet.channel",
            Layer::FleetCollect => "fleet.collect",
            Layer::FleetTreeMerge => "fleet.tree_merge",
            Layer::FleetJson => "fleet.json",
            Layer::Calibration => "calibration",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

const SLOTS: usize = Layer::Calibration as usize + 1;

#[derive(Debug)]
struct Frame {
    layer: Layer,
    start: Instant,
    child_ns: f64,
}

/// Per-layer self times of one traced run.
#[derive(Debug, Clone)]
pub struct LayerTimes {
    /// Self time per layer (ns), indexed like [`Layer::ALL`].
    pub self_ns: [f64; 13],
    /// Completed spans per layer, indexed like [`Layer::ALL`].
    pub calls: [u64; 13],
    /// Calibrated wrapper cost of every span (ns).
    pub wrapper_ns: f64,
    /// Wall time outside every span (ns).
    pub other_ns: f64,
    /// The traced wall time the parts add up to (ns).
    pub wall_ns: f64,
}

impl LayerTimes {
    /// Self time of `layer` (ns).
    pub fn get(&self, layer: Layer) -> f64 {
        self.self_ns[layer.index()]
    }

    /// Completed spans of `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer.index()]
    }
}

/// The span recorder.
#[derive(Debug, Default)]
pub struct Tracer {
    stack: Vec<Frame>,
    self_ns: [f64; SLOTS],
    calls: [u64; SLOTS],
    root_child_ns: f64,
    /// Calibrated span cost that lands inside the measured interval.
    inner_ns: f64,
    /// Calibrated span cost in total (clock reads plus bookkeeping).
    full_ns: f64,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Runs `f` inside a span of `layer` when tracing is on, and just runs
/// it otherwise.
pub fn span<T>(layer: Layer, f: impl FnOnce() -> T) -> T {
    let on = TRACER.with(|t| match t.borrow_mut().as_mut() {
        Some(tracer) => {
            tracer.stack.push(Frame {
                layer,
                start: Instant::now(),
                child_ns: 0.0,
            });
            true
        }
        None => false,
    });
    let out = f();
    if on {
        let end = Instant::now();
        TRACER.with(|t| {
            if let Some(tracer) = t.borrow_mut().as_mut() {
                tracer.close(end);
            }
        });
    }
    out
}

impl Tracer {
    fn close(&mut self, end: Instant) {
        let frame = self
            .stack
            .pop()
            .expect("every span close pairs with an open");
        let dur = end.duration_since(frame.start).as_nanos() as f64;
        let i = frame.layer.index();
        self.self_ns[i] += dur - frame.child_ns - self.inner_ns;
        self.calls[i] += 1;
        // The enclosing span (or the run itself) carries the part of the
        // wrapper cost outside this span's clock reads.
        let charged = dur + self.full_ns - self.inner_ns;
        match self.stack.last_mut() {
            Some(parent) => parent.child_ns += charged,
            None => self.root_child_ns += charged,
        }
    }

    /// A tracer that moves `inner_ns`/`full_ns` of wrapper cost per span
    /// out of the layers (see [`Tracer::calibrate`]).
    pub fn calibrated(inner_ns: f64, full_ns: f64) -> Tracer {
        Tracer {
            inner_ns,
            full_ns,
            ..Tracer::default()
        }
    }

    /// Measures the span cost on this thread: `rounds` batches of
    /// `per_round` empty spans nested in a parent span, as probe spans
    /// nest in the observer's. Returns the medians over batches of
    /// `(inner_ns, full_ns)`: the cost one span measures inside its own
    /// interval, and its whole cost.
    pub fn calibrate(rounds: usize, per_round: usize) -> (f64, f64) {
        let mut inner = Vec::with_capacity(rounds);
        let mut full = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            install(Tracer::default());
            let start = Instant::now();
            span(Layer::SimOther, || {
                for _ in 0..per_round {
                    span(Layer::Calibration, || std::hint::black_box(()));
                }
            });
            let wall = start.elapsed().as_nanos() as f64;
            let tracer = uninstall();
            let n = per_round as f64;
            inner.push(tracer.self_ns[Layer::Calibration.index()] / n);
            full.push(wall / n);
        }
        (crate::stats::median(&inner), crate::stats::median(&full))
    }

    /// Closes the run: attributes `wall_ns` of traced wall time.
    ///
    /// # Panics
    ///
    /// Panics if a span is still open.
    pub fn finish(self, wall_ns: f64) -> LayerTimes {
        assert!(self.stack.is_empty(), "finish with open spans");
        let mut self_ns = [0.0; 13];
        let mut calls = [0; 13];
        for (k, layer) in Layer::ALL.iter().enumerate() {
            self_ns[k] = self.self_ns[layer.index()];
            calls[k] = self.calls[layer.index()];
        }
        let spans: u64 = self.calls.iter().sum();
        LayerTimes {
            self_ns,
            calls,
            wrapper_ns: spans as f64 * self.full_ns,
            other_ns: wall_ns - self.root_child_ns,
            wall_ns,
        }
    }
}

/// Starts recording spans on this thread.
pub fn install(tracer: Tracer) {
    TRACER.with(|t| *t.borrow_mut() = Some(tracer));
}

/// Stops recording and returns the tracer.
pub fn uninstall() -> Tracer {
    TRACER
        .with(|t| t.borrow_mut().take())
        .expect("uninstall pairs with install")
}

/// A delegating backend that times every `on_event`, keeping each
/// program's first event apart.
#[derive(Debug)]
pub struct TimedBackend<B> {
    inner: B,
    seen: [bool; 4],
}

impl<B> TimedBackend<B> {
    /// Wraps `inner`.
    pub fn new(inner: B) -> TimedBackend<B> {
        TimedBackend {
            inner,
            seen: [false; 4],
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }
}

fn program_slot(phase: TracePhase) -> usize {
    match phase {
        TracePhase::Enter => 0,
        TracePhase::Exit => 1,
        TracePhase::NetRxSoftirq => 2,
        TracePhase::SockQueueDrain => 3,
    }
}

impl<B: MetricBackend> MetricBackend for TimedBackend<B> {
    fn on_event(&mut self, ctx: &TracepointCtx) -> Nanos {
        let slot = program_slot(ctx.phase);
        let layer = if self.seen[slot] {
            Layer::ProbeExec
        } else {
            self.seen[slot] = true;
            Layer::ProbeFirstEvent
        };
        let inner = &mut self.inner;
        span(layer, || inner.on_event(ctx))
    }

    fn counters(&self) -> RawCounters {
        self.inner.counters()
    }

    fn reset_window(&mut self) {
        self.inner.reset_window();
    }

    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }

    fn poll_histogram(&self) -> Option<[u64; 64]> {
        self.inner.poll_histogram()
    }

    fn stack_histogram(&self) -> Option<[u64; 64]> {
        self.inner.stack_histogram()
    }

    fn stack_counters(&self) -> Option<StackCounters> {
        self.inner.stack_counters()
    }
}

/// A delegating tracepoint probe that times every firing.
#[derive(Debug)]
pub struct TimedProbe<P> {
    inner: P,
}

impl<P> TimedProbe<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> TimedProbe<P> {
        TimedProbe { inner }
    }

    /// The wrapped probe.
    pub fn inner_mut(&mut self) -> &mut P {
        &mut self.inner
    }
}

impl<P: TracepointProbe + 'static> TracepointProbe for TimedProbe<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn fire(&mut self, ctx: &TracepointCtx) -> Nanos {
        let inner = &mut self.inner;
        span(Layer::ObserverWindow, || inner.fire(ctx))
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
