//! Mergeable time-in-stack estimator fed by the netstack probe pair.
//!
//! The `kscope_net_rx`/`kscope_sock_drain` programs (see
//! [`ProbeSet::with_netstack`](crate::ProbeSet::with_netstack))
//! maintain cumulative cells: a [`StackCounters`] scalar block and a
//! 64-bucket log2 histogram of scaled time-in-stack per request.
//! [`StackDelay`] is the userspace view of those cells — a snapshot that
//! merges across hosts exactly like [`Log2Hist`] and
//! [`RawCounters`](crate::RawCounters) do, so a fleet collector can fold
//! per-host stack-delay state up a fan-in tree without ever touching
//! per-request samples.
//!
//! Merging is exact: bucket-wise addition plus wrapping scalar addition
//! reproduces, bit for bit, the state a single probe would have built had
//! it seen every request itself. That property is what makes the fleet
//! rollup independent of `--jobs` and fan-in shape.

use crate::bytecode::StackCounters;
use crate::hist::Log2Hist;
use crate::observer::MetricBackend;

/// Mergeable snapshot of the netstack probe's cumulative cells.
///
/// # Examples
///
/// ```
/// use kscope_core::StackDelay;
///
/// let mut a = StackDelay::new(10);
/// let b = StackDelay::new(10);
/// a.merge(&b);
/// assert!(a.is_empty());
/// assert_eq!(a.shift(), 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StackDelay {
    hist: Log2Hist,
    counters: StackCounters,
}

impl StackDelay {
    /// An empty estimator whose samples were scaled by `raw >> shift`
    /// before bucketing, matching the probe's scaling shift.
    pub fn new(shift: u32) -> StackDelay {
        StackDelay {
            hist: Log2Hist::new(shift),
            counters: StackCounters::default(),
        }
    }

    /// Snapshots the cumulative stack cells of `backend`, or `None` if
    /// the backend does not carry the netstack probe pair.
    ///
    /// `shift` must be the scaling shift the probe was built with — the
    /// cells store already-scaled values and do not record it themselves,
    /// mirroring a real BPF map.
    pub fn from_backend<B: MetricBackend>(shift: u32, backend: &B) -> Option<StackDelay> {
        let buckets = backend.stack_histogram()?;
        let counters = backend.stack_counters()?;
        Some(StackDelay {
            hist: Log2Hist::from_buckets(shift, buckets),
            counters,
        })
    }

    /// Rebuilds an estimator from wire parts (fleet envelope decode).
    pub fn from_parts(shift: u32, buckets: [u64; 64], counters: StackCounters) -> StackDelay {
        StackDelay {
            hist: Log2Hist::from_buckets(shift, buckets),
            counters,
        }
    }

    /// Folds `other` into `self`: bucket-wise histogram addition plus
    /// wrapping scalar addition, the same arithmetic the probe itself
    /// uses — so merge order can never change the result.
    ///
    /// # Panics
    ///
    /// Panics if the scaling shifts differ; merging histograms with
    /// different bucket widths would be silently wrong.
    pub fn merge(&mut self, other: &StackDelay) {
        self.hist.merge(&other.hist);
        self.counters.count = self.counters.count.wrapping_add(other.counters.count);
        self.counters.sum = self.counters.sum.wrapping_add(other.counters.sum);
        self.counters.sumsq = self.counters.sumsq.wrapping_add(other.counters.sumsq);
        self.counters.misses = self.counters.misses.wrapping_add(other.counters.misses);
    }

    /// The scaling shift samples were divided by before bucketing.
    pub fn shift(&self) -> u32 {
        self.hist.shift()
    }

    /// The time-in-stack log2 histogram (scaled buckets).
    pub fn hist(&self) -> &Log2Hist {
        &self.hist
    }

    /// The scalar cells (count/sum/sumsq/misses, scaled domain).
    pub fn counters(&self) -> StackCounters {
        self.counters
    }

    /// Completed NIC-to-drain samples.
    pub fn count(&self) -> u64 {
        self.counters.count
    }

    /// Drain events whose request had no in-flight rx entry.
    pub fn misses(&self) -> u64 {
        self.counters.misses
    }

    /// True when no drain event (hit or miss) has been observed.
    pub fn is_empty(&self) -> bool {
        self.counters.count == 0 && self.counters.misses == 0
    }

    /// Mean time-in-stack in nanoseconds (unscaled), `None` when empty.
    ///
    /// The scaled-domain mean is multiplied back by `2^shift`; the
    /// result inherits the probe's quantization (up to `2^shift - 1` ns
    /// truncation per sample).
    pub fn mean_ns(&self) -> Option<f64> {
        if self.counters.count == 0 {
            return None;
        }
        let mean_scaled = self.counters.sum as f64 / self.counters.count as f64;
        Some(mean_scaled * (1u64 << self.shift()) as f64)
    }

    /// Fraction of drain events that found their rx entry:
    /// `count / (count + misses)`, `None` when nothing was observed.
    ///
    /// Below 1.0 means the in-flight map evicted entries (or rx edges
    /// were dropped) and the histogram under-covers the true traffic.
    pub fn coverage(&self) -> Option<f64> {
        let total = self.counters.count + self.counters.misses;
        if total == 0 {
            return None;
        }
        Some(self.counters.count as f64 / total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::ProbeSet;
    use crate::native::NativeBackend;
    use kscope_simcore::Nanos;
    use kscope_syscalls::{NetCtx, SyscallNo, SyscallProfile, TracePhase, TracepointCtx};

    fn net_ctx(
        phase: TracePhase,
        request: u64,
        stage_ns: u64,
        arg: u64,
        t_ns: u64,
    ) -> TracepointCtx {
        TracepointCtx {
            phase,
            no: SyscallNo::from_raw(u32::MAX),
            pid_tgid: 0,
            ktime: Nanos::from_nanos(t_ns),
            ret: 0,
            net: NetCtx {
                request,
                stage_ns,
                arg,
            },
        }
    }

    fn drive(backend: &mut impl MetricBackend, pairs: &[(u64, u64, u64)]) {
        // (request, rx_at, drain_at)
        for &(req, rx_at, _) in pairs {
            backend.on_event(&net_ctx(TracePhase::NetRxSoftirq, req, 0, 64, rx_at));
        }
        for &(req, _, drain_at) in pairs {
            backend.on_event(&net_ctx(TracePhase::SockQueueDrain, req, 0, 1, drain_at));
        }
    }

    #[test]
    fn from_backend_requires_netstack() {
        let plain = NativeBackend::new(7, SyscallProfile::data_caching(), 0);
        assert!(StackDelay::from_backend(0, &plain).is_none());
        let with = NativeBackend::new(7, SyscallProfile::data_caching(), 0).with_netstack();
        let sd = StackDelay::from_backend(0, &with).expect("netstack attached");
        assert!(sd.is_empty());
        assert_eq!(sd.mean_ns(), None);
        assert_eq!(sd.coverage(), None);
    }

    #[test]
    fn mean_and_coverage_from_native_backend() {
        let mut b = NativeBackend::new(7, SyscallProfile::data_caching(), 0).with_netstack();
        drive(&mut b, &[(1, 1_000, 3_000), (2, 1_000, 5_000)]);
        // A drain with no rx entry is a miss.
        b.on_event(&net_ctx(TracePhase::SockQueueDrain, 99, 0, 1, 6_000));
        let sd = StackDelay::from_backend(0, &b).unwrap();
        assert_eq!(sd.count(), 2);
        assert_eq!(sd.misses(), 1);
        assert!((sd.mean_ns().unwrap() - 3_000.0).abs() < 1e-9);
        assert!((sd.coverage().unwrap() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_single_stream() {
        // Two halves of a stream, merged, must equal the whole stream
        // observed by one probe — the fleet fan-in invariant.
        let whole: Vec<(u64, u64, u64)> = (0..20)
            .map(|i| (i, 1_000 * i, 1_000 * i + 500 + 137 * i))
            .collect();
        let (left, right) = whole.split_at(11);

        let mut b_whole = NativeBackend::new(7, SyscallProfile::data_caching(), 0).with_netstack();
        drive(&mut b_whole, &whole);
        let sd_whole = StackDelay::from_backend(0, &b_whole).unwrap();

        let mut b_left = NativeBackend::new(7, SyscallProfile::data_caching(), 0).with_netstack();
        drive(&mut b_left, left);
        let mut b_right = NativeBackend::new(7, SyscallProfile::data_caching(), 0).with_netstack();
        drive(&mut b_right, right);
        let mut merged = StackDelay::from_backend(0, &b_left).unwrap();
        merged.merge(&StackDelay::from_backend(0, &b_right).unwrap());

        assert_eq!(merged, sd_whole);
    }

    #[test]
    fn bytecode_and_native_snapshots_agree() {
        let pairs: Vec<(u64, u64, u64)> = (1..=8)
            .map(|i| (i, 10_000 * i, 10_000 * i + 777 * i))
            .collect();
        let mut native = NativeBackend::new(7, SyscallProfile::data_caching(), 10).with_netstack();
        drive(&mut native, &pairs);
        let mut bytecode = ProbeSet::new(vec![7], SyscallProfile::data_caching(), 10)
            .with_netstack()
            .build()
            .unwrap();
        drive(&mut bytecode, &pairs);
        assert_eq!(
            StackDelay::from_backend(10, &native).unwrap(),
            StackDelay::from_backend(10, &bytecode).unwrap(),
        );
    }

    #[test]
    fn from_parts_round_trips() {
        let mut b = NativeBackend::new(7, SyscallProfile::data_caching(), 0).with_netstack();
        drive(&mut b, &[(1, 0, 9_999)]);
        let sd = StackDelay::from_backend(0, &b).unwrap();
        let rebuilt = StackDelay::from_parts(0, *sd.hist().buckets(), sd.counters());
        assert_eq!(rebuilt, sd);
    }

    #[test]
    #[should_panic(expected = "different scales")]
    fn merge_rejects_shift_mismatch() {
        let mut a = StackDelay::new(0);
        a.merge(&StackDelay::new(10));
    }
}
