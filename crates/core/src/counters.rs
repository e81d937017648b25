//! The shared metric-cell layout.
//!
//! Both backends — the native Rust probe and the eBPF bytecode probe —
//! maintain the same twelve `u64` cells, so the userspace side can decode
//! either one identically and the differential tests can compare them
//! cell-for-cell. In the bytecode backend the cells are one 96-byte array-map
//! value; natively they are plain fields.

use kscope_simcore::Nanos;

use crate::fixed::ScaledAcc;

/// Byte offset of each cell within the stats map value.
pub mod offsets {
    /// Send-delta count.
    pub const SEND_COUNT: usize = 0;
    /// Send-delta sum (scaled).
    pub const SEND_SUM: usize = 8;
    /// Send-delta sum of squares (scaled²).
    pub const SEND_SUMSQ: usize = 16;
    /// Timestamp of the last send exit.
    pub const SEND_LAST_TS: usize = 24;
    /// Receive-delta count.
    pub const RECV_COUNT: usize = 32;
    /// Receive-delta sum (scaled).
    pub const RECV_SUM: usize = 40;
    /// Receive-delta sum of squares (scaled²).
    pub const RECV_SUMSQ: usize = 48;
    /// Timestamp of the last receive exit.
    pub const RECV_LAST_TS: usize = 56;
    /// Poll-duration count.
    pub const POLL_COUNT: usize = 64;
    /// Poll-duration sum (scaled).
    pub const POLL_SUM: usize = 72;
    /// Poll-duration sum of squares (scaled²).
    pub const POLL_SUMSQ: usize = 80;
    /// Matched tracepoint exits.
    pub const EVENTS: usize = 88;
    /// Total value size in bytes.
    pub const VALUE_SIZE: usize = 96;
}

/// Decoded contents of the stats cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawCounters {
    /// Inter-send deltas (Eq. 1 numerator / Eq. 2 input).
    pub send: ScaledAcc,
    /// Inter-receive deltas.
    pub recv: ScaledAcc,
    /// Poll (epoll/select) durations — the idleness signal.
    pub poll: ScaledAcc,
    /// Last send exit timestamp (persists across window rolls).
    pub send_last_ts: u64,
    /// Last receive exit timestamp.
    pub recv_last_ts: u64,
    /// Matched syscall exits observed.
    pub events: u64,
}

impl RawCounters {
    /// Empty counters with the given scaling shift.
    pub fn new(shift: u32) -> RawCounters {
        RawCounters {
            send: ScaledAcc::new(shift),
            recv: ScaledAcc::new(shift),
            poll: ScaledAcc::new(shift),
            send_last_ts: 0,
            recv_last_ts: 0,
            events: 0,
        }
    }

    /// Decodes counters from a 96-byte map value.
    ///
    /// # Panics
    ///
    /// Panics if `value` is shorter than [`offsets::VALUE_SIZE`].
    pub fn decode(shift: u32, value: &[u8]) -> RawCounters {
        let cell = |off: usize| -> u64 {
            match value[off..off + 8].try_into() {
                Ok(bytes) => u64::from_le_bytes(bytes),
                Err(_) => unreachable!("an 8-byte slice converts to [u8; 8]"),
            }
        };
        RawCounters {
            send: ScaledAcc::from_cells(
                shift,
                cell(offsets::SEND_COUNT),
                cell(offsets::SEND_SUM),
                cell(offsets::SEND_SUMSQ),
            ),
            recv: ScaledAcc::from_cells(
                shift,
                cell(offsets::RECV_COUNT),
                cell(offsets::RECV_SUM),
                cell(offsets::RECV_SUMSQ),
            ),
            poll: ScaledAcc::from_cells(
                shift,
                cell(offsets::POLL_COUNT),
                cell(offsets::POLL_SUM),
                cell(offsets::POLL_SUMSQ),
            ),
            send_last_ts: cell(offsets::SEND_LAST_TS),
            recv_last_ts: cell(offsets::RECV_LAST_TS),
            events: cell(offsets::EVENTS),
        }
    }

    /// Zeroes the windowed cells, keeping the last-timestamp cells so
    /// deltas spanning a window boundary stay correct.
    pub fn reset_window(&mut self) {
        self.send.reset();
        self.recv.reset();
        self.poll.reset();
        self.events = 0;
    }

    /// Merges another host's (or window's) counters into this one.
    ///
    /// The statistic cells are sufficient statistics — counts, Σδ, and
    /// Σδ² under wrapping `u64` addition — so merging is associative and
    /// commutative, and merging K disjoint streams is **bit-for-bit**
    /// equal to accumulating the concatenated stream: the algebraic
    /// property the fleet collection plane relies on. The last-timestamp
    /// cells take the maximum, matching "latest event wins" across hosts
    /// that share a clock (the simulated fleet drives all hosts on one
    /// engine).
    ///
    /// # Panics
    ///
    /// Panics if the scaling shifts differ.
    pub fn merge(&mut self, other: &RawCounters) {
        self.send.merge(&other.send);
        self.recv.merge(&other.recv);
        self.poll.merge(&other.poll);
        self.send_last_ts = self.send_last_ts.max(other.send_last_ts);
        self.recv_last_ts = self.recv_last_ts.max(other.recv_last_ts);
        self.events = self.events.wrapping_add(other.events);
    }
}

/// Metrics derived from one observation window — what the userspace agent
/// hands to the estimators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowMetrics {
    /// Window start.
    pub start: Nanos,
    /// Window end.
    pub end: Nanos,
    /// Observed RPS (Eq. 1: `1 / mean(Δt_send)`), `None` without samples.
    pub rps_obsv: Option<f64>,
    /// Observed receive rate, same construction over the recv stream.
    pub recv_rate: Option<f64>,
    /// Variance of inter-send deltas in ns² (Eq. 2).
    pub var_send: Option<f64>,
    /// Variance of inter-receive deltas in ns².
    pub var_recv: Option<f64>,
    /// Mean poll (epoll/select) duration in ns — idleness.
    pub poll_mean_ns: Option<f64>,
    /// Number of poll completions in the window.
    pub poll_count: u64,
    /// Send deltas observed (the paper recommends ≥ 2048 syscalls for a
    /// stable Eq. 1 estimate).
    pub send_samples: u64,
    /// Matched syscall exits in the window.
    pub events: u64,
}

impl WindowMetrics {
    /// Derives window metrics from counters accumulated over
    /// `[start, end)`.
    pub fn from_counters(start: Nanos, end: Nanos, counters: &RawCounters) -> WindowMetrics {
        let rate_of = |acc: &ScaledAcc| -> Option<f64> {
            let mean_ns = acc.mean()?;
            if mean_ns <= 0.0 {
                return None;
            }
            Some(1e9 / mean_ns)
        };
        WindowMetrics {
            start,
            end,
            rps_obsv: rate_of(&counters.send),
            recv_rate: rate_of(&counters.recv),
            var_send: counters.send.variance(),
            var_recv: counters.recv.variance(),
            poll_mean_ns: counters.poll.mean(),
            poll_count: counters.poll.count,
            send_samples: counters.send.count,
            events: counters.events,
        }
    }

    /// Window length.
    pub fn duration(&self) -> Nanos {
        self.end.saturating_sub(self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_reads_every_cell() {
        let mut value = vec![0u8; offsets::VALUE_SIZE];
        let put = |value: &mut [u8], off: usize, v: u64| {
            value[off..off + 8].copy_from_slice(&v.to_le_bytes());
        };
        put(&mut value, offsets::SEND_COUNT, 3);
        put(&mut value, offsets::SEND_SUM, 300);
        put(&mut value, offsets::SEND_SUMSQ, 30_000);
        put(&mut value, offsets::SEND_LAST_TS, 777);
        put(&mut value, offsets::RECV_COUNT, 2);
        put(&mut value, offsets::POLL_COUNT, 5);
        put(&mut value, offsets::POLL_SUM, 50);
        put(&mut value, offsets::EVENTS, 10);
        let counters = RawCounters::decode(0, &value);
        assert_eq!(counters.send.count, 3);
        assert_eq!(counters.send.sum, 300);
        assert_eq!(counters.send.sum_sq, 30_000);
        assert_eq!(counters.send_last_ts, 777);
        assert_eq!(counters.recv.count, 2);
        assert_eq!(counters.poll.count, 5);
        assert_eq!(counters.events, 10);
    }

    #[test]
    fn window_metrics_rps_is_inverse_mean_delta() {
        let mut counters = RawCounters::new(0);
        // Four sends, 500us apart.
        for _ in 0..4 {
            counters.send.push(500_000);
        }
        let m = WindowMetrics::from_counters(Nanos::ZERO, Nanos::from_secs(2), &counters);
        let rps = m.rps_obsv.unwrap();
        assert!((rps - 2_000.0).abs() < 1e-9, "rps {rps}");
        assert_eq!(m.send_samples, 4);
        assert_eq!(m.duration(), Nanos::from_secs(2));
    }

    #[test]
    fn empty_window_has_no_estimates() {
        let counters = RawCounters::new(10);
        let m = WindowMetrics::from_counters(Nanos::ZERO, Nanos::from_secs(1), &counters);
        assert_eq!(m.rps_obsv, None);
        assert_eq!(m.var_send, None);
        assert_eq!(m.poll_mean_ns, None);
    }

    #[test]
    fn merge_equals_concatenated_stream() {
        let deltas: Vec<u64> = (0..200).map(|i| 100_000 + i * 977).collect();
        let mut whole = RawCounters::new(10);
        let mut parts = [
            RawCounters::new(10),
            RawCounters::new(10),
            RawCounters::new(10),
        ];
        for (i, &d) in deltas.iter().enumerate() {
            whole.send.push(d);
            whole.poll.push(d / 3);
            whole.events += 2;
            whole.send_last_ts = i as u64;
            let p = &mut parts[i % 3];
            p.send.push(d);
            p.poll.push(d / 3);
            p.events += 2;
            p.send_last_ts = i as u64;
        }
        let mut merged = RawCounters::new(10);
        for p in &parts {
            merged.merge(p);
        }
        assert_eq!(merged, whole);
    }

    #[test]
    fn reset_window_keeps_last_timestamps() {
        let mut counters = RawCounters::new(0);
        counters.send.push(100);
        counters.send_last_ts = 42;
        counters.events = 9;
        counters.reset_window();
        assert!(counters.send.is_empty());
        assert_eq!(counters.send_last_ts, 42);
        assert_eq!(counters.events, 0);
    }
}
