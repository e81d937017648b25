//! Per-request timeline reconstruction for simple threading (Fig. 1c).
//!
//! When a single thread handles a whole request — `epoll` → `recv` →
//! compute → `send` — the recv and send syscalls of that request can be
//! paired from the trace alone, yielding service-time estimates without any
//! application cooperation (§III). The paper notes this breaks down once
//! requests hop between threads; [`reconstruct`] therefore pairs per
//! thread and reports how much of the trace it could explain, so callers
//! can detect when the simple model does not apply.

use kscope_simcore::Nanos;
use kscope_syscalls::{SyscallEvent, SyscallProfile, SyscallRole, Tid, Trace};

/// One reconstructed request: a recv/send pair on the same thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestSpan {
    /// Thread that served the request.
    pub tid: Tid,
    /// The receive syscall that read the request.
    pub recv: SyscallEvent,
    /// The (first) send syscall that wrote the response.
    pub send: SyscallEvent,
}

impl RequestSpan {
    /// Service-time estimate: receive completion to send completion.
    pub fn service_time(&self) -> Nanos {
        self.send.exit.saturating_sub(self.recv.exit)
    }
}

/// Result of a reconstruction pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineReport {
    /// Paired requests, in completion order.
    pub spans: Vec<RequestSpan>,
    /// Receive events that never found a matching send (in-flight at trace
    /// end, or multi-thread handoff).
    pub unmatched_recvs: usize,
    /// Send events with no preceding receive on their thread (responses
    /// served by a different thread than the one that read the request).
    pub orphan_sends: usize,
}

impl TimelineReport {
    /// Fraction of send events explained by a same-thread pairing; near 1.0
    /// means the simple single-thread model applies (§III), near 0 means
    /// requests hop threads and only aggregate statistics are usable.
    pub fn pairing_rate(&self) -> f64 {
        let total = self.spans.len() + self.orphan_sends;
        if total == 0 {
            0.0
        } else {
            self.spans.len() as f64 / total as f64
        }
    }

    /// Service times of all paired requests.
    pub fn service_times(&self) -> Vec<Nanos> {
        self.spans.iter().map(RequestSpan::service_time).collect()
    }
}

/// Pairs recv→send per thread across the trace.
///
/// Consecutive sends after one receive (segmented responses) are attributed
/// to the same request: only the first send closes the span, later sends
/// before the next receive are ignored rather than counted as orphans.
pub fn reconstruct(trace: &Trace, profile: &SyscallProfile) -> TimelineReport {
    use std::collections::HashMap;
    let mut pending_recv: HashMap<Tid, SyscallEvent> = HashMap::new();
    let mut in_response: HashMap<Tid, bool> = HashMap::new();
    let mut spans = Vec::new();
    let mut orphan_sends = 0usize;

    for &event in trace.events() {
        match profile.role_of(event.no) {
            Some(SyscallRole::Receive) => {
                pending_recv.insert(event.tid, event);
                in_response.insert(event.tid, false);
            }
            Some(SyscallRole::Send) => {
                if let Some(recv) = pending_recv.remove(&event.tid) {
                    spans.push(RequestSpan {
                        tid: event.tid,
                        recv,
                        send: event,
                    });
                    in_response.insert(event.tid, true);
                } else if !in_response.get(&event.tid).copied().unwrap_or(false) {
                    orphan_sends += 1;
                }
            }
            _ => {}
        }
    }
    TimelineReport {
        spans,
        unmatched_recvs: pending_recv.len(),
        orphan_sends,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kscope_syscalls::SyscallNo;

    fn ev(no: SyscallNo, tid: Tid, exit_us: u64) -> SyscallEvent {
        SyscallEvent {
            tid,
            pid: 1,
            no,
            enter: Nanos::from_micros(exit_us.saturating_sub(1)),
            exit: Nanos::from_micros(exit_us),
            ret: 1,
        }
    }

    fn profile() -> SyscallProfile {
        SyscallProfile::data_caching()
    }

    #[test]
    fn pairs_single_thread_cycles() {
        let trace: Trace = vec![
            ev(SyscallNo::EPOLL_WAIT, 1, 10),
            ev(SyscallNo::READ, 1, 12),
            ev(SyscallNo::SENDMSG, 1, 30),
            ev(SyscallNo::EPOLL_WAIT, 1, 40),
            ev(SyscallNo::READ, 1, 42),
            ev(SyscallNo::SENDMSG, 1, 55),
        ]
        .into_iter()
        .collect();
        let report = reconstruct(&trace, &profile());
        assert_eq!(report.spans.len(), 2);
        assert_eq!(report.unmatched_recvs, 0);
        assert_eq!(report.orphan_sends, 0);
        assert_eq!(report.pairing_rate(), 1.0);
        assert_eq!(report.spans[0].service_time(), Nanos::from_micros(18));
        assert_eq!(report.spans[1].service_time(), Nanos::from_micros(13));
    }

    #[test]
    fn segmented_responses_count_once() {
        let trace: Trace = vec![
            ev(SyscallNo::READ, 1, 10),
            ev(SyscallNo::SENDMSG, 1, 20),
            ev(SyscallNo::SENDMSG, 1, 21),
            ev(SyscallNo::SENDMSG, 1, 22),
        ]
        .into_iter()
        .collect();
        let report = reconstruct(&trace, &profile());
        assert_eq!(report.spans.len(), 1);
        assert_eq!(report.orphan_sends, 0);
    }

    #[test]
    fn cross_thread_handoff_surfaces_as_orphans() {
        // Thread 1 reads; thread 2 sends the response.
        let trace: Trace = vec![ev(SyscallNo::READ, 1, 10), ev(SyscallNo::SENDMSG, 2, 25)]
            .into_iter()
            .collect();
        let report = reconstruct(&trace, &profile());
        assert_eq!(report.spans.len(), 0);
        assert_eq!(report.unmatched_recvs, 1);
        assert_eq!(report.orphan_sends, 1);
        assert_eq!(report.pairing_rate(), 0.0);
    }

    #[test]
    fn interleaved_threads_pair_independently() {
        let trace: Trace = vec![
            ev(SyscallNo::READ, 1, 10),
            ev(SyscallNo::READ, 2, 11),
            ev(SyscallNo::SENDMSG, 2, 20),
            ev(SyscallNo::SENDMSG, 1, 31),
        ]
        .into_iter()
        .collect();
        let report = reconstruct(&trace, &profile());
        assert_eq!(report.spans.len(), 2);
        let by_tid: Vec<(Tid, u64)> = report
            .spans
            .iter()
            .map(|s| (s.tid, s.service_time().as_micros()))
            .collect();
        assert!(by_tid.contains(&(1, 21)));
        assert!(by_tid.contains(&(2, 9)));
    }

    #[test]
    fn empty_trace_is_empty_report() {
        let report = reconstruct(&Trace::new(), &profile());
        assert!(report.spans.is_empty());
        assert_eq!(report.pairing_rate(), 0.0);
        assert!(report.service_times().is_empty());
    }
}
