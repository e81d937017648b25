//! The streaming collector (ring-buffer raw events, the paper's
//! exploration mode) must agree with the kernel's own trace for the
//! filtered subset — an independent validation path for the whole probe
//! stack — and must visibly degrade (drops) when undersized, which is the
//! paper's motivation for computing metrics in kernel space.

use kscope::core::streaming::StreamingProbe;
use kscope::prelude::*;
use kscope::syscalls::Trace;

#[test]
fn streamed_trace_matches_kernel_trace() {
    let spec = kscope::workloads::data_caching();
    let config = RunConfig::new(spec.paper_failure_rps * 0.4, 21).quick();
    let profile = spec.profile.clone();

    let outcome = run_workload_with(&spec, &config, |sim| {
        let pid = sim.server_pids()[0];
        vec![Box::new(
            StreamingProbe::new(pid, profile.clone(), 1 << 22).expect("program verifies"),
        ) as Box<dyn TracepointProbe>]
    });

    let mut kernel = outcome.kernel;
    let mut probe = kernel.tracing.detach(outcome.probes[0]).unwrap();
    let streaming = probe
        .as_any_mut()
        .downcast_mut::<StreamingProbe>()
        .unwrap();
    assert_eq!(streaming.dropped(), 0, "buffer sized for the whole run");
    // The pair ran through the shared runtime: checked, and no run faulted.
    assert_eq!(streaming.runtime().faults(), 0);
    assert!(streaming.runtime().insns_executed() > 0);
    let events = streaming.drain();
    assert!(!events.is_empty());
    let streamed = StreamingProbe::reconstruct(&events);

    // The kernel's own (unsliced) trace, restricted to what the streamer
    // filters for: the profile's request syscalls.
    let reference: Trace = kernel
        .tracing
        .trace()
        .iter()
        .copied()
        .filter(|e| profile.is_request_syscall(e.no))
        .collect();

    assert_eq!(streamed.len(), reference.len());
    for (a, b) in streamed.iter().zip(reference.iter()) {
        assert_eq!(a.tid, b.tid);
        assert_eq!(a.no, b.no);
        assert_eq!(a.enter, b.enter);
        assert_eq!(a.exit, b.exit);
    }
    // And the streamed trace supports the same Eq. 1 computation.
    let sends = streamed.filter_role(&profile, kscope::syscalls::SyscallRole::Send);
    let rps = sends.completion_rate().expect("enough sends");
    assert!(
        (rps - outcome.client.achieved_rps).abs() / outcome.client.achieved_rps < 0.25,
        "streamed rps {rps:.0} vs real {:.0}",
        outcome.client.achieved_rps
    );
}

#[test]
fn undersized_ring_buffer_drops_under_load() {
    let spec = kscope::workloads::data_caching();
    let config = RunConfig::new(spec.paper_failure_rps * 0.6, 22).quick();
    let outcome = run_workload_with(&spec, &config, |sim| {
        let pid = sim.server_pids()[0];
        // A tiny buffer that is never drained mid-run: guaranteed overflow.
        vec![Box::new(
            StreamingProbe::new(pid, spec.profile.clone(), 256).expect("program verifies"),
        ) as Box<dyn TracepointProbe>]
    });
    let mut kernel = outcome.kernel;
    let mut probe = kernel.tracing.detach(outcome.probes[0]).unwrap();
    let streaming = probe
        .as_any_mut()
        .downcast_mut::<StreamingProbe>()
        .unwrap();
    assert!(
        streaming.dropped() > 1_000,
        "expected heavy drops, got {}",
        streaming.dropped()
    );
}
