//! A fleet run holds a few kilobytes of heap per host, not its reports.
//!
//! A counting global allocator tracks live heap bytes and their peak
//! over `run_fleet_jobs`, `FleetRun::rollup` and `report_to_json` on a
//! 1000-host fleet, at one worker and at two, and bounds the peak per
//! host. A run holds, per host, its slot's bookkeeping, its row and its
//! ground truth; per level-1 node of the collection tree, one O(K)
//! aggregate and its hosts' sketch keys; per worker, one host stack and
//! one node's report envelopes; and the shared probe and the rendered
//! report once. Keeping every host's ~10 KB report envelope until the
//! rollup, as a collector that seals no nodes does, breaks the bound
//! more than twice over.
//!
//! This binary holds a single `#[test]`, so no concurrently running test
//! can add to the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use kscope_fleet::{report_to_json, run_fleet_jobs, FleetConfig};

/// Tracks live heap bytes and their high-water mark, then defers to the
/// system allocator.
struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are statistics
// that publish no other data, so `Relaxed` suffices.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            shrink(layout.size());
            grow(new_size);
        }
        new
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// Hosts in the measured fleet.
const HOSTS: usize = 1_000;

/// The largest peak of live heap bytes a run may reach, per host. A run
/// peaks near 1.8 KB per host on one worker and 2.3 KB on two (each
/// worker holds one node's reports until it seals the node); holding
/// every host's report until the rollup peaks near 11.1 KB.
const MAX_PEAK_BYTES_PER_HOST: usize = 4 * 1024;

#[test]
fn a_run_peaks_at_a_few_kilobytes_per_host() {
    let config = FleetConfig::scale(HOSTS);
    for jobs in [1, 2] {
        let base = LIVE.load(Ordering::Relaxed);
        PEAK.store(base, Ordering::Relaxed);
        let run = match run_fleet_jobs(&config, jobs) {
            Ok(run) => run,
            Err(e) => panic!("fleet build failed: {e:?}"),
        };
        let rollup = run.rollup(jobs);
        let json = report_to_json(&config, &rollup);
        let peak = PEAK.load(Ordering::Relaxed) - base;
        assert!(json.contains("\"per_host\""));
        assert_eq!(rollup.per_host.len(), HOSTS);

        let per_host = peak / HOSTS;
        assert!(
            per_host <= MAX_PEAK_BYTES_PER_HOST,
            "jobs={jobs}: a run peaked at {peak} live bytes, {per_host} per host \
             (limit {MAX_PEAK_BYTES_PER_HOST})"
        );
    }
}
