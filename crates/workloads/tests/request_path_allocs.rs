//! The simulated request path allocates nothing per request.
//!
//! A counting global allocator sees every heap allocation of a whole
//! data-caching run (server wiring and engine setup included) and the
//! count is divided by the requests the NIC delivered. Per-request work
//! (epoll readiness, wakeups, softirq batches, thread and channel
//! lookups, in-flight bookkeeping) reuses buffers and index tables, so
//! only setup and amortized growth remain: far below one allocation per
//! twenty requests.
//!
//! This binary holds a single `#[test]`, so no concurrently running test
//! can add to the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use kscope_workloads::{data_caching, run_workload, RunConfig};

/// Counts allocations and reallocations, then defers to the system
/// allocator.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a statistic
// that publishes no other data, so `Relaxed` suffices.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation budget per delivered request.
const MAX_ALLOCS_PER_REQUEST: f64 = 0.05;

#[test]
fn request_path_does_not_allocate_per_request() {
    let spec = data_caching();
    for load in [0.3, 0.9] {
        let mut config = RunConfig::new(load * spec.paper_failure_rps, 7).quick();
        config.collect_trace = false;
        let before = ALLOCS.load(Ordering::Relaxed);
        let outcome = run_workload(&spec, &config, Vec::new());
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        let requests = outcome.kernel.tracing.stats().net_rx;
        assert!(requests > 1_000, "load {load}: only {requests} requests");
        let per_request = allocs as f64 / requests as f64;
        assert!(
            per_request < MAX_ALLOCS_PER_REQUEST,
            "load {load}: {allocs} allocations for {requests} requests \
             ({per_request:.4} per request, budget {MAX_ALLOCS_PER_REQUEST})"
        );
    }
}
