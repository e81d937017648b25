//! One probe instance costs what its maps hold, not what they may hold.
//!
//! A counting global allocator measures one `BytecodeBackend::instantiate`
//! of the probe set every fleet host runs (poll histogram, entity sketch,
//! netstack pair, JIT tier). Hash maps are sized by content, so the two
//! 4096-entry hash maps start small and the whole instance stays far
//! below a megabyte: under 32 KiB.
//!
//! This binary holds a single `#[test]`, so no concurrently running test
//! can add to the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use kscope_core::{ProbeSet, DEFAULT_SHIFT};
use kscope_syscalls::SyscallProfile;

/// Counts allocated bytes (reallocations count their new size), then
/// defers to the system allocator.
struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a statistic
// that publishes no other data, so `Relaxed` suffices.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation budget of one fleet-probe instance.
const MAX_INSTANCE_BYTES: u64 = 32 * 1024;

#[test]
fn fleet_probe_instance_allocates_under_32_kib() {
    // The fleet's probe: one server pid, the default sketch capacity.
    let probe = ProbeSet::new(vec![1_200], SyscallProfile::data_caching(), DEFAULT_SHIFT)
        .with_poll_histogram()
        .with_entity_sketch(64)
        .with_netstack()
        .with_jit()
        .build()
        .expect("the fleet probe builds");
    let before = BYTES.load(Ordering::Relaxed);
    let instance = probe.instantiate();
    let bytes = BYTES.load(Ordering::Relaxed) - before;
    assert!(instance.uses_jit());
    println!("one fleet-probe instance: {bytes} bytes");
    assert!(
        bytes < MAX_INSTANCE_BYTES,
        "one instance allocated {bytes} bytes (budget {MAX_INSTANCE_BYTES})"
    );
}
