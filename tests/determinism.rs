//! Cross-stack determinism: identical seeds must reproduce identical runs
//! bit for bit — traces, client stats, probe cells — and different seeds
//! must diverge. This is what makes every experiment in the repository
//! reproducible.

use kscope::core::DEFAULT_SHIFT;
use kscope::experiments::observe_run;
use kscope::prelude::*;

fn run_probed(seed: u64) -> (u64, u64, u64, Nanos, usize) {
    let spec = kscope::workloads::data_caching();
    let config = RunConfig::new(spec.paper_failure_rps * 0.7, seed).quick();
    let mut run = observe_run(&spec, &config, Nanos::from_secs(3_600), |sim| {
        ProbeSet::new(sim.server_pids(), spec.profile.clone(), DEFAULT_SHIFT).build()
    });
    let counters = run.observer().backend().counters();
    (
        counters.send.count,
        counters.send.sum,
        counters.send.sum_sq,
        run.client.p99_latency,
        run.trace.len(),
    )
}

#[test]
fn identical_seeds_reproduce_identical_state() {
    let a = run_probed(1234);
    let b = run_probed(1234);
    assert_eq!(a, b);
}

#[test]
fn different_seeds_diverge() {
    let a = run_probed(1);
    let b = run_probed(2);
    assert_ne!(a, b);
}

#[test]
fn traces_are_byte_identical_across_reruns() {
    let spec = kscope::workloads::silo();
    let config = RunConfig::new(spec.paper_failure_rps * 0.4, 9).quick();
    let a = run_workload(&spec, &config, Vec::new());
    let b = run_workload(&spec, &config, Vec::new());
    assert_eq!(a.trace.events(), b.trace.events());
    assert_eq!(a.client.completed, b.client.completed);
    assert_eq!(a.client.p99_latency, b.client.p99_latency);
}
