//! One probe instance costs what its maps hold, not what they may hold,
//! and running it costs no heap at all.
//!
//! A counting global allocator measures one `BytecodeBackend::instantiate`
//! of the probe set every fleet host runs (poll histogram, entity sketch,
//! netstack pair, JIT tier). Hash maps are sized by content, so the two
//! 4096-entry hash maps start small and the whole instance stays far
//! below a megabyte: under 32 KiB.
//!
//! The same probe then serves a stream of requests across all four
//! tracepoints (packet arrival, socket drain, and the poll, receive and
//! send syscalls' enter and exit), on the JIT and on the interpreter it
//! falls back to. After a warm-up has grown the maps to their steady
//! size, the per-event path makes no allocation on either tier.
//!
//! This binary holds a single `#[test]`, so no concurrently running test
//! can add to the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use kscope_core::{BytecodeBackend, MetricBackend, ProbeSet, DEFAULT_SHIFT};
use kscope_simcore::Nanos;
use kscope_syscalls::{
    pid_tgid, NetCtx, SyscallNo, SyscallProfile, SyscallRole, TracePhase, TracepointCtx,
};

/// Counts allocation calls and allocated bytes (reallocations count as a
/// call of their new size), then defers to the system allocator.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are statistics
// that publish no other data, so `Relaxed` suffices.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation budget of one fleet-probe instance.
const MAX_INSTANCE_BYTES: u64 = 32 * 1024;

/// The observed server process.
const TGID: u32 = 1_200;

/// Requests served before counting, so the maps reach their steady size.
const WARM_UP_REQUESTS: u64 = 1_000;

/// Requests served while counting.
const COUNTED_REQUESTS: u64 = 10_000;

/// Fires one request's tracepoints: the packet's softirq arrival, a poll
/// that returns, the socket drain, then the receive and send syscalls,
/// on one of 96 threads (more than the entity sketch holds).
fn serve(probe: &mut BytecodeBackend, profile: &SyscallProfile, request: u64) {
    let thread = pid_tgid(TGID, TGID + 1 + (request % 96) as u32);
    let mut ktime = request * 50_000;
    let mut fire = |phase, no, pid_tgid, ret, net| {
        ktime += 1_000;
        let ctx = TracepointCtx {
            phase,
            no,
            pid_tgid,
            ktime: Nanos::from_nanos(ktime),
            ret,
            net,
        };
        probe.on_event(&ctx);
    };
    let net = |stage_ns, arg| NetCtx {
        request,
        stage_ns,
        arg,
    };
    let none = SyscallNo::from_raw(u32::MAX);
    fire(TracePhase::NetRxSoftirq, none, 0, 0, net(2_000, 64));
    for role in [SyscallRole::Poll, SyscallRole::Receive, SyscallRole::Send] {
        let no = profile.primary(role);
        fire(TracePhase::Enter, no, thread, 0, NetCtx::NONE);
        fire(TracePhase::Exit, no, thread, 64, NetCtx::NONE);
        if role == SyscallRole::Poll {
            fire(TracePhase::SockQueueDrain, none, thread, 0, net(3_000, 0));
        }
    }
}

/// Allocation calls made while `probe` serves the counted requests, after
/// the warm-up.
fn steady_state_allocs(mut probe: BytecodeBackend, profile: &SyscallProfile) -> u64 {
    for request in 0..WARM_UP_REQUESTS {
        serve(&mut probe, profile, request);
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for request in WARM_UP_REQUESTS..WARM_UP_REQUESTS + COUNTED_REQUESTS {
        serve(&mut probe, profile, request);
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    // The stream reached every program: no fault, every drain matched its
    // arrival, and the syscall pair saw matched exits.
    assert_eq!(probe.faults(), 0, "a verified probe program faulted");
    let stack = probe
        .stack_counters()
        .expect("the netstack pair is attached");
    let served = WARM_UP_REQUESTS + COUNTED_REQUESTS;
    assert_eq!((stack.count, stack.misses), (served, 0));
    assert!(probe.counters().events > 0, "no matched syscall exit");
    allocs
}

#[test]
fn fleet_probe_instance_allocates_under_32_kib() {
    // The fleet's probe: one server pid, the default sketch capacity.
    let profile = SyscallProfile::data_caching();
    let probe = ProbeSet::new(vec![TGID], profile.clone(), DEFAULT_SHIFT)
        .with_poll_histogram()
        .with_entity_sketch(64)
        .with_netstack()
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

    let interpreted = probe.interpreted();
    assert!(!interpreted.uses_jit());
    for (tier, probe) in [("jit", instance), ("interpreter", interpreted)] {
        let allocs = steady_state_allocs(probe, &profile);
        println!("{tier}: {allocs} allocations over {COUNTED_REQUESTS} requests");
        assert_eq!(
            allocs, 0,
            "{tier}: the steady-state probe path allocated {allocs} times \
             over {COUNTED_REQUESTS} requests"
        );
    }
}
