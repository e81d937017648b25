//! Differential test: the native probe and the eBPF bytecode probe must
//! produce *identical* metric cells when observing the same run — under
//! every bytecode dispatcher (interpreter and template JIT).
//!
//! This is the repository's strongest correctness check — it ties the
//! hand-written Rust semantics, the generated bytecode, the verifier,
//! the interpreter, and the JIT together: any divergence in filtering,
//! delta chaining, scaling, or cell layout fails the comparison.

use kscope::core::{BytecodeBackend, MetricBackend, NativeBackend, ProbeSet, DEFAULT_SHIFT};
use kscope::prelude::*;
use kscope::syscalls::{pid_tgid, NetCtx, TracePhase, TracepointCtx};

/// The bytecode probe of `set` in every available dispatch mode, labeled:
/// as built (the JIT) and on the interpreter, the reference tier.
fn bytecode_variants(set: ProbeSet) -> Vec<(&'static str, BytecodeBackend)> {
    let jit = set.build().expect("programs verify");
    let interp = jit.interpreted();
    assert!(!interp.uses_jit());
    assert!(jit.uses_jit());
    vec![("bytecode-interp", interp), ("bytecode-jit", jit)]
}

/// Replays a synthetic event stream into all backends and compares cells.
#[test]
fn backends_agree_on_synthetic_stream() {
    let profile = SyscallProfile::data_caching();
    let mut native = NativeBackend::new(1200, profile.clone(), DEFAULT_SHIFT);
    let mut bytecodes = bytecode_variants(ProbeSet::new(vec![1200], profile, DEFAULT_SHIFT));

    let mut rng = SimRng::seed_from_u64(99);
    let mut t = 1_000u64;
    for i in 0..5_000u64 {
        t += rng.next_range(500, 2_000_000);
        let (no, phase) = match rng.next_below(6) {
            0 => (SyscallNo::EPOLL_WAIT, TracePhase::Enter),
            1 => (SyscallNo::EPOLL_WAIT, TracePhase::Exit),
            2 => (SyscallNo::READ, TracePhase::Exit),
            3 => (SyscallNo::SENDMSG, TracePhase::Exit),
            4 => (SyscallNo::FUTEX, TracePhase::Exit), // unmatched syscall
            _ => (SyscallNo::SENDMSG, TracePhase::Enter),
        };
        // Mix in a foreign process every few events.
        let tgid = if i % 7 == 0 { 999 } else { 1200 };
        let ctx = TracepointCtx {
            phase,
            no,
            pid_tgid: pid_tgid(tgid, 1201 + (i % 4) as u32),
            ktime: Nanos::from_nanos(t),
            ret: 64,
            net: NetCtx::NONE,
        };
        native.on_event(&ctx);
        for (_, bytecode) in bytecodes.iter_mut() {
            bytecode.on_event(&ctx);
        }
    }

    let a = native.counters();
    for (label, bytecode) in &bytecodes {
        let b = bytecode.counters();
        assert_eq!(a, b, "native and {label} cells diverged");
    }
    assert!(a.send.count > 100, "stream exercised the send path");
    assert!(a.poll.count > 50, "stream exercised the poll path");
}

/// The netstack ingress pair must agree too: replay a mixed stream of
/// syscall events and `net_rx_softirq`/`sock_queue_drain` firings
/// (matched pairs, orphan drains, duplicate arrivals) into netstack-
/// enabled backends and compare the time-in-stack histogram, the stack
/// scalar cells, and the ordinary syscall cells under every dispatcher.
#[test]
fn backends_agree_on_netstack_stream() {
    let profile = SyscallProfile::data_caching();
    let mut native = NativeBackend::new(1200, profile.clone(), DEFAULT_SHIFT).with_netstack();
    let mut bytecodes =
        bytecode_variants(ProbeSet::new(vec![1200], profile, DEFAULT_SHIFT).with_netstack());

    let mut rng = SimRng::seed_from_u64(41);
    let mut t = 1_000u64;
    for i in 0..5_000u64 {
        t += rng.next_range(500, 2_000_000);
        let (phase, no, request) = match rng.next_below(6) {
            0 => (TracePhase::NetRxSoftirq, SyscallNo::from_raw(u32::MAX), i),
            1 => (
                TracePhase::SockQueueDrain,
                SyscallNo::from_raw(u32::MAX),
                i - 1,
            ),
            2 => (
                TracePhase::SockQueueDrain,
                SyscallNo::from_raw(u32::MAX),
                i + 7,
            ), // orphan
            3 => (TracePhase::Enter, SyscallNo::EPOLL_WAIT, 0),
            4 => (TracePhase::Exit, SyscallNo::EPOLL_WAIT, 0),
            _ => (TracePhase::Exit, SyscallNo::SENDMSG, 0),
        };
        let net = match phase {
            TracePhase::NetRxSoftirq | TracePhase::SockQueueDrain => NetCtx {
                request,
                stage_ns: rng.next_range(0, 900_000),
                arg: rng.next_below(4096),
            },
            _ => NetCtx::NONE,
        };
        let ctx = TracepointCtx {
            phase,
            no,
            pid_tgid: pid_tgid(1200, 1201),
            ktime: Nanos::from_nanos(t),
            ret: 64,
            net,
        };
        native.on_event(&ctx);
        for (_, bytecode) in bytecodes.iter_mut() {
            bytecode.on_event(&ctx);
        }
    }

    let hist = native.stack_histogram().expect("netstack attached");
    let scalars = native.stack_counters().expect("netstack attached");
    let cells = native.counters();
    assert!(scalars.count > 100, "stream produced matched stack samples");
    assert!(scalars.misses > 10, "stream produced orphan drains");
    for (label, bytecode) in &bytecodes {
        assert_eq!(
            Some(hist),
            bytecode.stack_histogram(),
            "native and {label} stack histograms diverged"
        );
        assert_eq!(
            Some(scalars),
            bytecode.stack_counters(),
            "native and {label} stack scalar cells diverged"
        );
        assert_eq!(
            cells,
            bytecode.counters(),
            "netstack firings perturbed {label} syscall cells"
        );
    }
}

/// Full-system differential: attach the native probe plus both bytecode
/// dispatchers to the same simulated server run and compare what they
/// accumulated.
#[test]
fn backends_agree_on_a_real_workload_run() {
    let spec = kscope::workloads::data_caching();
    let config = RunConfig::new(spec.paper_failure_rps * 0.5, 4).quick();

    let outcome = run_workload_with(&spec, &config, |sim| {
        let pids = sim.server_pids();
        let mut probes: Vec<Box<dyn TracepointProbe>> = vec![Box::new(WindowedObserver::new(
            NativeBackend::new_multi(pids.clone(), spec.profile.clone(), DEFAULT_SHIFT),
            Nanos::from_secs(3_600),
        ))];
        for (_, bytecode) in
            bytecode_variants(ProbeSet::new(pids, spec.profile.clone(), DEFAULT_SHIFT))
        {
            probes.push(Box::new(WindowedObserver::new(
                bytecode,
                Nanos::from_secs(3_600),
            )));
        }
        probes
    });

    let mut kernel = outcome.kernel;
    let mut native_probe = kernel.tracing.detach(outcome.probes[0]).unwrap();
    let a = native_probe
        .as_any_mut()
        .downcast_mut::<WindowedObserver<NativeBackend>>()
        .unwrap()
        .backend()
        .counters();
    for (idx, label) in [(1, "bytecode-interp"), (2, "bytecode-jit")] {
        let mut bytecode_probe = kernel.tracing.detach(outcome.probes[idx]).unwrap();
        let b = bytecode_probe
            .as_any_mut()
            .downcast_mut::<WindowedObserver<BytecodeBackend>>()
            .unwrap()
            .backend()
            .counters();
        assert_eq!(a, b, "native and {label} cells diverged on a live run");
    }
    assert!(a.events > 1_000, "run produced substantial traffic");
}

/// The two-process (Web Search) filter path must also agree, on every
/// dispatcher.
#[test]
fn backends_agree_for_multi_process_workloads() {
    let spec = kscope::workloads::web_search();
    let config = RunConfig::new(spec.paper_failure_rps * 0.5, 5).quick();
    let outcome = run_workload_with(&spec, &config, |sim| {
        let pids = sim.server_pids();
        assert_eq!(pids.len(), 2, "web search runs two processes");
        let mut probes: Vec<Box<dyn TracepointProbe>> = vec![Box::new(WindowedObserver::new(
            NativeBackend::new_multi(pids.clone(), spec.profile.clone(), DEFAULT_SHIFT),
            Nanos::from_secs(3_600),
        ))];
        for (_, bytecode) in
            bytecode_variants(ProbeSet::new(pids, spec.profile.clone(), DEFAULT_SHIFT))
        {
            probes.push(Box::new(WindowedObserver::new(
                bytecode,
                Nanos::from_secs(3_600),
            )));
        }
        probes
    });
    let mut kernel = outcome.kernel;
    let mut native_probe = kernel.tracing.detach(outcome.probes[0]).unwrap();
    let a = native_probe
        .as_any_mut()
        .downcast_mut::<WindowedObserver<NativeBackend>>()
        .unwrap()
        .backend()
        .counters();
    for (idx, label) in [(1, "bytecode-interp"), (2, "bytecode-jit")] {
        let mut bytecode_probe = kernel.tracing.detach(outcome.probes[idx]).unwrap();
        let b = bytecode_probe
            .as_any_mut()
            .downcast_mut::<WindowedObserver<BytecodeBackend>>()
            .unwrap()
            .backend()
            .counters();
        assert_eq!(a, b, "native and {label} cells diverged");
    }
    // Multi-hop structure: more recv events than completed requests.
    assert!(a.recv.count > outcome.client.completed);
}
