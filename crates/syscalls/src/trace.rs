//! Trace containers and the statistics extracted from them.
//!
//! A [`Trace`] is the stream of completed syscall events an eBPF collector
//! would have streamed to userspace. The paper's methodology reduces traces
//! to two statistic families (§III): **inter-syscall deltas** (intervals
//! between consecutive completions of the same role, whose mean gives
//! `RPS_obsv` and whose variance flags saturation) and **durations** (time
//! spent inside poll syscalls, which measures idleness).

use kscope_simcore::Nanos;

use crate::event::SyscallEvent;
use crate::no::SyscallNo;
use crate::profile::{SyscallProfile, SyscallRole};

/// An ordered stream of completed syscall events.
///
/// Events are kept in completion (`exit`) order; [`Trace::push`] enforces
/// monotonicity in debug builds and [`Trace::sort_by_exit`] restores it after
/// bulk construction.
///
/// # Examples
///
/// ```
/// use kscope_simcore::Nanos;
/// use kscope_syscalls::{SyscallEvent, SyscallNo, Trace};
///
/// let mut trace = Trace::new();
/// for i in 0..4u64 {
///     trace.push(SyscallEvent {
///         tid: 1,
///         pid: 1,
///         no: SyscallNo::SENDTO,
///         enter: Nanos::from_micros(10 * i),
///         exit: Nanos::from_micros(10 * i + 1),
///         ret: 64,
///     });
/// }
/// let deltas = trace.inter_deltas();
/// assert_eq!(deltas.len(), 3);
/// assert!(deltas.iter().all(|d| d.as_micros() == 10));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    events: Vec<SyscallEvent>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Trace {
        Trace { events: Vec::new() }
    }

    /// Creates an empty trace with room for `cap` events.
    pub fn with_capacity(cap: usize) -> Trace {
        Trace {
            events: Vec::with_capacity(cap),
        }
    }

    /// Appends a completed event.
    pub fn push(&mut self, event: SyscallEvent) {
        debug_assert!(
            self.events
                .last()
                .is_none_or(|last| last.exit <= event.exit),
            "trace events must be pushed in completion order"
        );
        self.events.push(event);
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events, in completion order.
    pub fn events(&self) -> &[SyscallEvent] {
        &self.events
    }

    /// Iterates over the events.
    pub fn iter(&self) -> std::slice::Iter<'_, SyscallEvent> {
        self.events.iter()
    }

    /// Re-sorts events by completion time (stable), for traces assembled
    /// from multiple per-thread streams.
    pub fn sort_by_exit(&mut self) {
        self.events.sort_by_key(|e| e.exit);
    }

    /// A sub-trace containing only events for the given syscall.
    pub fn filter_syscall(&self, no: SyscallNo) -> Trace {
        Trace {
            events: self.events.iter().copied().filter(|e| e.no == no).collect(),
        }
    }

    /// A sub-trace containing only events playing `role` under `profile`.
    ///
    /// This is the "extracted subset" of Fig. 1(c): the unified, cross-thread
    /// stream of one request-oriented role.
    pub fn filter_role(&self, profile: &SyscallProfile, role: SyscallRole) -> Trace {
        Trace {
            events: self
                .events
                .iter()
                .copied()
                .filter(|e| profile.role_of(e.no) == Some(role))
                .collect(),
        }
    }

    /// A sub-trace of events completing within `[start, end)`.
    pub fn slice_time(&self, start: Nanos, end: Nanos) -> Trace {
        Trace {
            events: self
                .events
                .iter()
                .copied()
                .filter(|e| e.exit >= start && e.exit < end)
                .collect(),
        }
    }

    /// Intervals between consecutive completions ("deltas", §III).
    ///
    /// Empty for traces with fewer than two events.
    pub fn inter_deltas(&self) -> Vec<Nanos> {
        self.events
            .windows(2)
            .map(|w| w[1].exit.saturating_sub(w[0].exit))
            .collect()
    }

    /// In-kernel durations of each event.
    pub fn durations(&self) -> Vec<Nanos> {
        self.events.iter().map(|e| e.duration()).collect()
    }

    /// First and last completion instants, if the trace is non-empty.
    pub fn time_span(&self) -> Option<(Nanos, Nanos)> {
        match (self.events.first(), self.events.last()) {
            (Some(first), Some(last)) => Some((first.exit, last.exit)),
            _ => None,
        }
    }

    /// Mean completion rate over the trace's span, in events per second.
    ///
    /// This is Eq. 1 of the paper applied to the whole trace:
    /// `r / (t_r - t_1) = 1 / mean(Δt)`. Returns `None` for traces shorter
    /// than two events or with zero span.
    pub fn completion_rate(&self) -> Option<f64> {
        let (first, last) = self.time_span()?;
        let span = last.saturating_sub(first);
        if span.is_zero() || self.len() < 2 {
            return None;
        }
        Some((self.len() - 1) as f64 / span.as_secs_f64())
    }

    /// Splits the trace into fixed-width windows by completion time.
    ///
    /// Windows are aligned to multiples of `width` starting at the first
    /// event; empty windows in the middle of the span are included (with
    /// empty traces), matching how a polling userspace agent would see them.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn windows(&self, width: Nanos) -> Vec<Trace> {
        assert!(!width.is_zero(), "window width must be non-zero");
        let Some((start, end)) = self.time_span() else {
            return Vec::new();
        };
        let n = (end.saturating_sub(start).as_nanos() / width.as_nanos()) as usize + 1;
        let mut out = vec![Trace::new(); n];
        for e in &self.events {
            let idx = (e.exit.saturating_sub(start).as_nanos() / width.as_nanos()) as usize;
            out[idx].events.push(*e);
        }
        out
    }
}

impl FromIterator<SyscallEvent> for Trace {
    fn from_iter<I: IntoIterator<Item = SyscallEvent>>(iter: I) -> Trace {
        let mut trace = Trace {
            events: iter.into_iter().collect(),
        };
        trace.sort_by_exit();
        trace
    }
}

impl Extend<SyscallEvent> for Trace {
    fn extend<I: IntoIterator<Item = SyscallEvent>>(&mut self, iter: I) {
        self.events.extend(iter);
        self.sort_by_exit();
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a SyscallEvent;
    type IntoIter = std::slice::Iter<'a, SyscallEvent>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

impl IntoIterator for Trace {
    type Item = SyscallEvent;
    type IntoIter = std::vec::IntoIter<SyscallEvent>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Tid;

    fn ev(no: SyscallNo, tid: Tid, exit_us: u64) -> SyscallEvent {
        SyscallEvent {
            tid,
            pid: 100,
            no,
            enter: Nanos::from_micros(exit_us.saturating_sub(1)),
            exit: Nanos::from_micros(exit_us),
            ret: 1,
        }
    }

    fn sample() -> Trace {
        let mut t = Trace::new();
        t.push(ev(SyscallNo::RECVFROM, 1, 10));
        t.push(ev(SyscallNo::SENDTO, 1, 12));
        t.push(ev(SyscallNo::RECVFROM, 2, 20));
        t.push(ev(SyscallNo::SENDTO, 2, 22));
        t.push(ev(SyscallNo::SELECT, 1, 30));
        t
    }

    #[test]
    fn filters_by_syscall_and_role() {
        let t = sample();
        assert_eq!(t.filter_syscall(SyscallNo::SENDTO).len(), 2);
        let profile = SyscallProfile::tailbench();
        assert_eq!(t.filter_role(&profile, SyscallRole::Receive).len(), 2);
        assert_eq!(t.filter_role(&profile, SyscallRole::Poll).len(), 1);
    }

    #[test]
    fn inter_deltas_of_sends() {
        let t = sample().filter_syscall(SyscallNo::SENDTO);
        assert_eq!(t.inter_deltas(), vec![Nanos::from_micros(10)]);
    }

    #[test]
    fn completion_rate_matches_eq1() {
        // 5 sends, one every 100us => 10_000 per second.
        let t: Trace = (0..5).map(|i| ev(SyscallNo::SENDTO, 1, 100 * i)).collect();
        let rate = t.completion_rate().unwrap();
        assert!((rate - 10_000.0).abs() < 1e-6, "rate {rate}");
    }

    #[test]
    fn completion_rate_undefined_for_degenerate_traces() {
        assert_eq!(Trace::new().completion_rate(), None);
        let single: Trace = std::iter::once(ev(SyscallNo::SENDTO, 1, 5)).collect();
        assert_eq!(single.completion_rate(), None);
    }

    #[test]
    fn windows_partition_events() {
        let t: Trace = (0..10).map(|i| ev(SyscallNo::SENDTO, 1, 7 * i)).collect();
        let windows = t.windows(Nanos::from_micros(20));
        let total: usize = windows.iter().map(Trace::len).sum();
        assert_eq!(total, t.len());
        assert!(windows.len() >= 3);
    }

    #[test]
    fn windows_include_empty_gaps() {
        let mut t = Trace::new();
        t.push(ev(SyscallNo::SENDTO, 1, 0));
        t.push(ev(SyscallNo::SENDTO, 1, 100));
        let windows = t.windows(Nanos::from_micros(10));
        assert_eq!(windows.len(), 11);
        assert!(windows[5].is_empty());
    }

    #[test]
    fn from_iterator_sorts_by_exit() {
        let t: Trace = vec![
            ev(SyscallNo::SENDTO, 1, 30),
            ev(SyscallNo::SENDTO, 1, 10),
            ev(SyscallNo::SENDTO, 1, 20),
        ]
        .into_iter()
        .collect();
        let exits: Vec<u64> = t.iter().map(|e| e.exit.as_micros()).collect();
        assert_eq!(exits, vec![10, 20, 30]);
    }

    #[test]
    fn slice_time_is_half_open() {
        let t = sample();
        let s = t.slice_time(Nanos::from_micros(12), Nanos::from_micros(30));
        assert_eq!(s.len(), 3); // 12, 20, 22
    }

    #[test]
    fn time_span_endpoints() {
        let t = sample();
        assert_eq!(
            t.time_span(),
            Some((Nanos::from_micros(10), Nanos::from_micros(30)))
        );
    }
}
