//! Application-phase extraction from a raw syscall stream (Fig. 1).
//!
//! Figure 1(b) of the paper shows that a server's syscall stream has three
//! regimes: a **setup** phase dominated by socket/listen/mmap-style calls, an
//! **active** request-processing phase carried by the receive/send/poll
//! families, and a **shutdown** phase of closes and exits. The request-level
//! metrics only make sense over the active phase, so the first step of any
//! analysis is locating it.

use crate::profile::SyscallProfile;
use crate::trace::Trace;

/// Result of splitting a trace into lifecycle phases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseReport {
    /// Events before the first request-oriented syscall.
    pub setup: Trace,
    /// Events from the first through the last request-oriented syscall.
    pub active: Trace,
    /// Events after the last request-oriented syscall.
    pub shutdown: Trace,
}

impl PhaseReport {
    /// Splits `trace` using the application's [`SyscallProfile`] to decide
    /// which syscalls are request-oriented.
    ///
    /// A trace with no request-oriented events is reported as all-setup.
    pub fn extract(trace: &Trace, profile: &SyscallProfile) -> PhaseReport {
        let events = trace.events();
        let first = events.iter().position(|e| profile.is_request_syscall(e.no));
        let last = events
            .iter()
            .rposition(|e| profile.is_request_syscall(e.no));
        match (first, last) {
            (Some(first), Some(last)) => PhaseReport {
                setup: events[..first].iter().copied().collect(),
                active: events[first..=last].iter().copied().collect(),
                shutdown: events[last + 1..].iter().copied().collect(),
            },
            _ => PhaseReport {
                setup: trace.clone(),
                active: Trace::new(),
                shutdown: Trace::new(),
            },
        }
    }

    /// Fraction of all events that fall in the active phase.
    pub fn active_fraction(&self) -> f64 {
        let total = self.setup.len() + self.active.len() + self.shutdown.len();
        if total == 0 {
            0.0
        } else {
            self.active.len() as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SyscallEvent;
    use crate::no::SyscallNo;
    use kscope_simcore::Nanos;

    fn ev(no: SyscallNo, exit_us: u64) -> SyscallEvent {
        SyscallEvent {
            tid: 1,
            pid: 1,
            no,
            enter: Nanos::from_micros(exit_us),
            exit: Nanos::from_micros(exit_us),
            ret: 0,
        }
    }

    fn lifecycle_trace() -> Trace {
        let mut t = Trace::new();
        // Setup: socket / bind / listen / mmap noise.
        t.push(ev(SyscallNo::SOCKET, 1));
        t.push(ev(SyscallNo::BIND, 2));
        t.push(ev(SyscallNo::LISTEN, 3));
        t.push(ev(SyscallNo::MMAP, 4));
        t.push(ev(SyscallNo::ACCEPT4, 5));
        // Active: poll/recv/send cycle.
        t.push(ev(SyscallNo::EPOLL_WAIT, 10));
        t.push(ev(SyscallNo::READ, 11));
        t.push(ev(SyscallNo::FUTEX, 12)); // interleaved noise stays in active
        t.push(ev(SyscallNo::SENDMSG, 13));
        t.push(ev(SyscallNo::EPOLL_WAIT, 20));
        t.push(ev(SyscallNo::READ, 21));
        t.push(ev(SyscallNo::SENDMSG, 23));
        // Shutdown.
        t.push(ev(SyscallNo::CLOSE, 30));
        t.push(ev(SyscallNo::SHUTDOWN, 31));
        t.push(ev(SyscallNo::EXIT, 32));
        t
    }

    #[test]
    fn phases_split_around_request_syscalls() {
        let trace = lifecycle_trace();
        let report = PhaseReport::extract(&trace, &SyscallProfile::data_caching());
        assert_eq!(report.setup.len(), 5);
        assert_eq!(report.active.len(), 7);
        assert_eq!(report.shutdown.len(), 3);
    }

    #[test]
    fn trace_without_requests_is_all_setup() {
        let mut t = Trace::new();
        t.push(ev(SyscallNo::SOCKET, 1));
        t.push(ev(SyscallNo::CLOSE, 2));
        let report = PhaseReport::extract(&t, &SyscallProfile::tailbench());
        assert_eq!(report.setup.len(), 2);
        assert!(report.active.is_empty());
        assert!(report.shutdown.is_empty());
        assert_eq!(report.active_fraction(), 0.0);
    }

    #[test]
    fn active_fraction_counts_interleaved_noise() {
        let trace = lifecycle_trace();
        let report = PhaseReport::extract(&trace, &SyscallProfile::data_caching());
        let frac = report.active_fraction();
        assert!((frac - 7.0 / 15.0).abs() < 1e-9, "fraction {frac}");
    }

    #[test]
    fn empty_trace_reports_empty_phases() {
        let report = PhaseReport::extract(&Trace::new(), &SyscallProfile::tailbench());
        assert!(report.setup.is_empty());
        assert!(report.active.is_empty());
        assert!(report.shutdown.is_empty());
    }
}
