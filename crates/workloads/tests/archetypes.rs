//! Behavioural tests of the threading archetypes: each model must emit
//! the syscall mix §IV-A describes for its application family.

use kscope_netem::NetemConfig;
use kscope_simcore::Nanos;
use kscope_syscalls::{SyscallNo, Trace};
use kscope_workloads::{
    data_caching, run_workload, triton_grpc, web_search, xapian, RunConfig, WorkloadSpec,
};

fn trace_of(spec: &WorkloadSpec, fraction: f64, seed: u64) -> (Trace, u64) {
    let offered = spec.paper_failure_rps * fraction;
    let mut config = RunConfig::new(offered, seed);
    config.netem = NetemConfig::ideal();
    config.warmup = Nanos::from_millis(100);
    config.measure = Nanos::from_secs_f64((600.0 / offered).clamp(0.5, 120.0));
    let outcome = run_workload(spec, &config, Vec::new());
    (outcome.trace, outcome.client.completed)
}

fn count(trace: &Trace, no: SyscallNo) -> usize {
    trace.filter_syscall(no).len()
}

#[test]
fn tailbench_uses_recvfrom_sendto_select() {
    let spec = xapian();
    let (trace, completed) = trace_of(&spec, 0.4, 11);
    assert!(completed > 100);
    let recv = count(&trace, SyscallNo::RECVFROM);
    let send = count(&trace, SyscallNo::SENDTO);
    let select = count(&trace, SyscallNo::SELECT);
    assert!(recv > 0 && send > 0 && select > 0);
    // One recv and one send per request (ratios, window edges allowed).
    assert!((recv as f64 / completed as f64 - 1.0).abs() < 0.15);
    assert!((send as f64 / completed as f64 - 1.0).abs() < 0.15);
    // No epoll in a select-based app.
    assert_eq!(count(&trace, SyscallNo::EPOLL_WAIT), 0);
}

#[test]
fn data_caching_uses_read_sendmsg_epoll() {
    let spec = data_caching();
    let (trace, completed) = trace_of(&spec, 0.4, 12);
    assert!(completed > 100);
    assert!(count(&trace, SyscallNo::READ) > 0);
    assert!(count(&trace, SyscallNo::SENDMSG) > 0);
    assert!(count(&trace, SyscallNo::EPOLL_WAIT) > 0);
    assert_eq!(count(&trace, SyscallNo::SELECT), 0);
    assert_eq!(count(&trace, SyscallNo::FUTEX), 0);
}

#[test]
fn web_search_is_multi_hop_and_two_process() {
    let spec = web_search();
    let (trace, completed) = trace_of(&spec, 0.4, 13);
    assert!(completed > 50);
    let reads = count(&trace, SyscallNo::READ) as f64;
    let writes = count(&trace, SyscallNo::WRITE) as f64;
    let n = completed as f64;
    // Three reads per request: conn, stage socket, reply socket.
    assert!(
        (reads / n - 3.0).abs() < 0.4,
        "reads/request = {:.2}",
        reads / n
    );
    // Writes: forward + backend reply + variable egress (mean ~1.8).
    assert!(
        writes / n > 3.0 && writes / n < 5.0,
        "writes/request = {:.2}",
        writes / n
    );
    // Two distinct processes appear in the trace.
    let mut pids: Vec<u32> = trace.events().iter().map(|e| e.pid).collect();
    pids.sort_unstable();
    pids.dedup();
    assert_eq!(pids.len(), 2, "expected two processes, got {pids:?}");
}

#[test]
fn triton_workers_wait_on_futex_not_epoll() {
    let spec = triton_grpc();
    let (trace, completed) = trace_of(&spec, 0.5, 14);
    assert!(completed > 20);
    let futex = count(&trace, SyscallNo::FUTEX);
    let epoll = count(&trace, SyscallNo::EPOLL_WAIT);
    assert!(futex > 0, "compute workers should block via futex");
    assert!(epoll > 0, "network thread should block via epoll");
    // The recv/send path is recvmsg/sendmsg.
    assert!(count(&trace, SyscallNo::RECVMSG) > 0);
    assert!(count(&trace, SyscallNo::SENDMSG) > 0);
    assert_eq!(count(&trace, SyscallNo::RECVFROM), 0);
}

#[test]
fn epoll_wait_return_value_counts_ready_channels() {
    let spec = data_caching();
    let (trace, _) = trace_of(&spec, 0.3, 15);
    let polls = trace.filter_syscall(SyscallNo::EPOLL_WAIT);
    assert!(polls.iter().all(|e| e.ret >= 0));
    assert!(polls.iter().any(|e| e.ret >= 1));
}

#[test]
fn syscall_bypass_removes_traced_io_but_not_throughput() {
    let mut spec = data_caching();
    let (clean_trace, clean_done) = trace_of(&spec, 0.4, 16);
    spec.syscall_bypass_fraction = 1.0;
    let (bypass_trace, bypass_done) = trace_of(&spec, 0.4, 16);
    // Same throughput...
    assert!(
        (clean_done as f64 - bypass_done as f64).abs() / clean_done as f64 * 100.0 < 10.0,
        "{clean_done} vs {bypass_done}"
    );
    // ...but the traced recv/send I/O is gone (polls remain).
    assert_eq!(bypass_trace.filter_syscall(SyscallNo::READ).len(), 0);
    assert_eq!(bypass_trace.filter_syscall(SyscallNo::SENDMSG).len(), 0);
    assert!(!bypass_trace
        .filter_syscall(SyscallNo::EPOLL_WAIT)
        .is_empty());
    assert!(!clean_trace.filter_syscall(SyscallNo::READ).is_empty());
}

#[test]
fn overload_accumulates_backlog() {
    let spec = data_caching();
    let offered = spec.paper_failure_rps * 1.4;
    let mut config = RunConfig::new(offered, 18).quick();
    config.collect_trace = false;
    let outcome = run_workload(&spec, &config, Vec::new());
    // In deep overload the achieved rate pins below offered.
    assert!(
        outcome.client.achieved_rps < offered * 0.9,
        "achieved {} vs offered {offered}",
        outcome.client.achieved_rps
    );
}
