//! Dev diagnostic: binary-search the QoS-failure RPS of every workload and
//! compare with the paper's reported values.
use kscope_netem::NetemConfig;
use kscope_simcore::Nanos;
use kscope_workloads::{all_paper_workloads, run_workload, RunConfig};

fn p99_at(spec: &kscope_workloads::WorkloadSpec, rps: f64, seed: u64) -> f64 {
    let mut cfg = RunConfig::new(rps, seed);
    cfg.netem = NetemConfig::loopback();
    cfg.collect_trace = false;
    cfg.warmup = Nanos::from_millis(500);
    let secs = (4000.0 / rps).clamp(1.5, 400.0);
    cfg.measure = Nanos::from_secs_f64(secs);
    let out = run_workload(spec, &cfg, Vec::new());
    out.client.p99_latency.as_nanos() as f64
}

fn main() {
    println!(
        "{:<14} {:>10} {:>10} {:>7}",
        "workload", "paper", "measured", "ratio"
    );
    for spec in all_paper_workloads() {
        let qos = spec.qos_p99.as_nanos() as f64;
        let (mut lo, mut hi) = (spec.paper_failure_rps * 0.4, spec.paper_failure_rps * 1.5);
        // ensure bracket
        if p99_at(&spec, hi, 9) < qos {
            lo = hi;
            hi *= 2.0;
        }
        for _ in 0..9 {
            let mid = (lo + hi) / 2.0;
            if p99_at(&spec, mid, 9) > qos {
                hi = mid
            } else {
                lo = mid
            }
        }
        let fail = (lo + hi) / 2.0;
        println!(
            "{:<14} {:>10.0} {:>10.0} {:>7.2}",
            spec.name,
            spec.paper_failure_rps,
            fail,
            fail / spec.paper_failure_rps
        );
    }
}
