//! A fleet run holds little beyond the reports its collector keeps.
//!
//! A counting global allocator tracks live heap bytes and their peak
//! over `run_fleet_jobs`, `FleetRun::rollup` and `report_to_json` on a
//! 1000-host fleet, at one worker and at two. The bytes the collector's
//! slots own (each host's latest report) are then measured by dropping
//! the collector. Everything else a run holds at its peak (the shared
//! probe, one host stack per worker, each host's ground truth, the
//! collection tree's aggregates, the rendered report) must stay a small
//! share of those reports: per-host scaffolding that outlives its host,
//! such as an entity-count vector per host or every leaf aggregate of
//! the tree at once, breaks the bound.
//!
//! This binary holds a single `#[test]`, so no concurrently running test
//! can add to the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use kscope_fleet::{report_to_json, run_fleet_jobs, FleetConfig, FleetRun};

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

/// The largest peak, in slot bytes, a run may reach. A run peaks near
/// 1.04× on one or two workers; an entity-count vector kept per host
/// until the run ends adds about 0.38×, and every leaf aggregate of the
/// tree at once about 0.12×.
const MAX_PEAK_PER_SLOT_BYTE: f64 = 1.1;

#[test]
fn a_run_peaks_near_the_bytes_its_slots_own() {
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

        let FleetRun { collector, .. } = run;
        assert_eq!(collector.slots().len(), HOSTS);
        let held = LIVE.load(Ordering::Relaxed);
        drop(collector);
        let slot_bytes = held - LIVE.load(Ordering::Relaxed);

        let ratio = peak as f64 / slot_bytes as f64;
        assert!(
            ratio <= MAX_PEAK_PER_SLOT_BYTE,
            "jobs={jobs}: a run peaked at {peak} live bytes, {ratio:.3}× the \
             {slot_bytes} its slots own (limit {MAX_PEAK_PER_SLOT_BYTE}×)"
        );
    }
}
