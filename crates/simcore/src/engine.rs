//! The discrete-event simulation engine.
//!
//! The engine owns a virtual clock and a priority queue of timestamped
//! events. A model implements [`Simulation`] by providing an event type and a
//! handler; the engine repeatedly pops the earliest event, advances the
//! clock, and dispatches. Two events at the same instant are delivered in
//! the order they were scheduled (FIFO tie-breaking by sequence number),
//! which keeps runs bit-for-bit deterministic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Nanos;

/// A model driven by the engine.
///
/// # Examples
///
/// ```
/// use kscope_simcore::{Engine, Nanos, Scheduler, Simulation};
///
/// struct Counter {
///     fired: u32,
/// }
///
/// impl Simulation for Counter {
///     type Event = ();
///     fn handle(&mut self, _event: (), sched: &mut Scheduler<'_, ()>) {
///         self.fired += 1;
///         if self.fired < 3 {
///             sched.after(Nanos::from_micros(1), ());
///         }
///     }
/// }
///
/// let mut engine = Engine::new();
/// engine.schedule(Nanos::ZERO, ());
/// let mut model = Counter { fired: 0 };
/// engine.run(&mut model);
/// assert_eq!(model.fired, 3);
/// assert_eq!(engine.now(), Nanos::from_micros(2));
/// ```
pub trait Simulation {
    /// The event vocabulary of the model.
    type Event;

    /// Handles one event at the scheduler's current instant.
    fn handle(&mut self, event: Self::Event, sched: &mut Scheduler<'_, Self::Event>);
}

/// One pending event: ordered by time, then insertion sequence.
struct Pending<E> {
    at: Nanos,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Pending<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Pending<E> {}
impl<E> PartialOrd for Pending<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Pending<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap on (time, sequence).
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The discrete-event engine: a virtual clock plus an event queue.
#[derive(Default)]
pub struct Engine<E> {
    now: Nanos,
    seq: u64,
    heap: BinaryHeap<Pending<E>>,
    processed: u64,
}

impl<E> std::fmt::Debug for Engine<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("pending", &self.heap.len())
            .field("processed", &self.processed)
            .finish()
    }
}

impl<E> Engine<E> {
    /// Creates an engine with the clock at zero and no pending events.
    pub fn new() -> Self {
        Engine {
            now: Nanos::ZERO,
            seq: 0,
            heap: BinaryHeap::new(),
            processed: 0,
        }
    }

    /// Creates an engine with queue capacity for `capacity` pending events.
    ///
    /// Harnesses that know their expected in-flight event count (e.g. the
    /// workload runner, which can bound it from the offered rate) avoid
    /// the heap's growth reallocations during the run.
    pub fn with_capacity(capacity: usize) -> Self {
        Engine {
            now: Nanos::ZERO,
            seq: 0,
            heap: BinaryHeap::with_capacity(capacity),
            processed: 0,
        }
    }

    /// Reserves space for at least `additional` more pending events.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// The current virtual instant.
    #[inline]
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Number of events dispatched so far.
    #[inline]
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    #[inline]
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.heap.is_empty()
    }

    /// Instant of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Nanos> {
        self.heap.peek().map(|p| p.at)
    }

    /// Instant of the earliest pending event, if any.
    ///
    /// Alias of [`Engine::peek_time`] matching the accessor on
    /// [`Scheduler`], so schedulers and engines can be probed uniformly.
    #[inline]
    pub fn peek_next_at(&self) -> Option<Nanos> {
        self.peek_time()
    }

    /// Schedules `event` at absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current instant — scheduling into
    /// the past would silently corrupt causality.
    pub fn schedule(&mut self, at: Nanos, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at}, now={now}",
            now = self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Pending { at, seq, event });
    }

    /// Dispatches the single earliest event into `model`.
    ///
    /// Returns `false` if the queue was empty.
    pub fn step<S>(&mut self, model: &mut S) -> bool
    where
        S: Simulation<Event = E>,
    {
        let Some(pending) = self.heap.pop() else {
            return false;
        };
        debug_assert!(pending.at >= self.now, "event queue time went backwards");
        self.now = pending.at;
        self.processed += 1;
        let mut sched = Scheduler {
            now: self.now,
            seq: &mut self.seq,
            heap: &mut self.heap,
        };
        model.handle(pending.event, &mut sched);
        true
    }

    /// Runs until the queue is empty.
    pub fn run<S>(&mut self, model: &mut S)
    where
        S: Simulation<Event = E>,
    {
        while self.step(model) {}
    }

    /// Runs until the queue is empty or the next event is past `deadline`.
    ///
    /// Events *at* the deadline are processed; the clock never exceeds the
    /// deadline. Returns the number of events dispatched by this call.
    pub fn run_until<S>(&mut self, model: &mut S, deadline: Nanos) -> u64
    where
        S: Simulation<Event = E>,
    {
        let before = self.processed;
        while let Some(at) = self.peek_time() {
            if at > deadline {
                break;
            }
            self.step(model);
        }
        self.processed - before
    }
}

/// Scheduling handle passed to [`Simulation::handle`].
///
/// Exposes the current instant and lets the handler enqueue follow-up events
/// without borrowing the whole engine.
pub struct Scheduler<'a, E> {
    now: Nanos,
    seq: &'a mut u64,
    heap: &'a mut BinaryHeap<Pending<E>>,
}

impl<E> std::fmt::Debug for Scheduler<'_, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler").field("now", &self.now).finish()
    }
}

impl<E> Scheduler<'_, E> {
    /// The instant of the event currently being handled.
    #[inline]
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Schedules `event` at absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn at(&mut self, at: Nanos, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at}, now={now}",
            now = self.now
        );
        let seq = *self.seq;
        *self.seq += 1;
        self.heap.push(Pending { at, seq, event });
    }

    /// Schedules `event` after a relative delay.
    pub fn after(&mut self, delay: Nanos, event: E) {
        self.at(self.now.saturating_add(delay), event);
    }

    /// Schedules `event` at the current instant (delivered after all events
    /// already queued for this instant).
    pub fn immediately(&mut self, event: E) {
        self.at(self.now, event);
    }

    /// Instant of the earliest pending event, if any.
    ///
    /// Handlers that need to coordinate with the queue head (e.g. a
    /// scheduler deciding whether to batch work before the next wakeup)
    /// can inspect it directly instead of the old pop/re-push probe.
    pub fn peek_next_at(&self) -> Option<Nanos> {
        self.heap.peek().map(|p| p.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Tag(u32),
        Chain(u32),
    }

    #[derive(Default)]
    struct Recorder {
        seen: Vec<(Nanos, u32)>,
    }

    impl Simulation for Recorder {
        type Event = Ev;
        fn handle(&mut self, event: Ev, sched: &mut Scheduler<'_, Ev>) {
            match event {
                Ev::Tag(id) => self.seen.push((sched.now(), id)),
                Ev::Chain(n) => {
                    self.seen.push((sched.now(), n));
                    if n > 0 {
                        sched.after(Nanos::from_nanos(10), Ev::Chain(n - 1));
                    }
                }
            }
        }
    }

    #[test]
    fn events_dispatch_in_time_order() {
        let mut eng = Engine::new();
        eng.schedule(Nanos::from_nanos(30), Ev::Tag(3));
        eng.schedule(Nanos::from_nanos(10), Ev::Tag(1));
        eng.schedule(Nanos::from_nanos(20), Ev::Tag(2));
        let mut rec = Recorder::default();
        eng.run(&mut rec);
        assert_eq!(
            rec.seen,
            vec![
                (Nanos::from_nanos(10), 1),
                (Nanos::from_nanos(20), 2),
                (Nanos::from_nanos(30), 3)
            ]
        );
    }

    #[test]
    fn simultaneous_events_keep_fifo_order() {
        let mut eng = Engine::new();
        for id in 0..50 {
            eng.schedule(Nanos::from_nanos(5), Ev::Tag(id));
        }
        let mut rec = Recorder::default();
        eng.run(&mut rec);
        let ids: Vec<u32> = rec.seen.iter().map(|&(_, id)| id).collect();
        assert_eq!(ids, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn handlers_can_schedule_followups() {
        let mut eng = Engine::new();
        eng.schedule(Nanos::ZERO, Ev::Chain(3));
        let mut rec = Recorder::default();
        eng.run(&mut rec);
        assert_eq!(rec.seen.len(), 4);
        assert_eq!(eng.now(), Nanos::from_nanos(30));
        assert_eq!(eng.processed(), 4);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut eng = Engine::new();
        eng.schedule(Nanos::ZERO, Ev::Chain(100));
        let mut rec = Recorder::default();
        let n = eng.run_until(&mut rec, Nanos::from_nanos(25));
        assert_eq!(n, 3); // t = 0, 10, 20
        assert_eq!(eng.now(), Nanos::from_nanos(20));
        assert!(!eng.is_idle());
        assert_eq!(eng.peek_time(), Some(Nanos::from_nanos(30)));
    }

    #[test]
    fn run_until_processes_events_at_deadline() {
        let mut eng = Engine::new();
        eng.schedule(Nanos::from_nanos(25), Ev::Tag(1));
        let mut rec = Recorder::default();
        let n = eng.run_until(&mut rec, Nanos::from_nanos(25));
        assert_eq!(n, 1);
    }

    #[test]
    fn step_returns_false_when_idle() {
        let mut eng: Engine<Ev> = Engine::new();
        let mut rec = Recorder::default();
        assert!(!eng.step(&mut rec));
    }

    #[test]
    fn immediately_runs_after_already_queued_same_instant() {
        struct Imm {
            order: Vec<u32>,
        }
        impl Simulation for Imm {
            type Event = u32;
            fn handle(&mut self, event: u32, sched: &mut Scheduler<'_, u32>) {
                self.order.push(event);
                if event == 0 {
                    sched.immediately(2);
                }
            }
        }
        let mut eng = Engine::new();
        eng.schedule(Nanos::ZERO, 0);
        eng.schedule(Nanos::ZERO, 1);
        let mut m = Imm { order: vec![] };
        eng.run(&mut m);
        assert_eq!(m.order, vec![0, 1, 2]);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut eng = Engine::with_capacity(256);
        eng.reserve(64);
        eng.schedule(Nanos::from_nanos(10), Ev::Tag(1));
        let mut rec = Recorder::default();
        eng.run(&mut rec);
        assert_eq!(rec.seen, vec![(Nanos::from_nanos(10), 1)]);
    }

    #[test]
    fn peek_next_at_sees_the_queue_head() {
        let mut eng = Engine::new();
        assert_eq!(eng.peek_next_at(), None);
        eng.schedule(Nanos::from_nanos(20), Ev::Tag(2));
        eng.schedule(Nanos::from_nanos(10), Ev::Tag(1));
        assert_eq!(eng.peek_next_at(), Some(Nanos::from_nanos(10)));

        // The handler-side accessor sees follow-ups queued at dispatch time.
        struct Peeker {
            heads: Vec<Option<Nanos>>,
        }
        impl Simulation for Peeker {
            type Event = Ev;
            fn handle(&mut self, _event: Ev, sched: &mut Scheduler<'_, Ev>) {
                self.heads.push(sched.peek_next_at());
            }
        }
        let mut m = Peeker { heads: vec![] };
        eng.run(&mut m);
        assert_eq!(m.heads, vec![Some(Nanos::from_nanos(20)), None]);
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_the_past_panics() {
        let mut eng = Engine::new();
        eng.schedule(Nanos::from_nanos(10), Ev::Tag(1));
        let mut rec = Recorder::default();
        eng.run(&mut rec);
        eng.schedule(Nanos::from_nanos(5), Ev::Tag(2));
    }
}
