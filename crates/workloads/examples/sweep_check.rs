//! Dev diagnostic: sweep load and print ground truth vs. syscall signals.
use kscope_netem::NetemConfig;
use kscope_simcore::Nanos;
use kscope_syscalls::SyscallRole;
use kscope_workloads::{run_workload, RunConfig};

fn main() {
    let which = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "data-caching".into());
    let spec = kscope_workloads::all_paper_workloads()
        .into_iter()
        .find(|w| w.name == which)
        .unwrap_or_else(kscope_workloads::echo_single_thread);
    let fail = spec.paper_failure_rps;
    println!(
        "workload {} paper_fail {} capacity {:.0}",
        spec.name,
        fail,
        spec.nominal_capacity_rps()
    );
    println!(
        "{:>8} {:>9} {:>10} {:>10} {:>12} {:>12} {:>12}",
        "offered", "achieved", "p50(ms)", "p99(ms)", "epoll_us", "var_dt_send", "rps_obsv"
    );
    for frac in [0.1, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 1.0, 1.05, 1.1] {
        let rps = fail * frac;
        let mut cfg = RunConfig::new(rps, 42);
        cfg.netem = NetemConfig::loopback();
        cfg.warmup = Nanos::from_millis(300);
        cfg.measure = Nanos::from_secs(2);
        let out = run_workload(&spec, &cfg, Vec::new());
        let sends = out.trace.filter_role(&spec.profile, SyscallRole::Send);
        let deltas: Vec<f64> = sends
            .inter_deltas()
            .iter()
            .map(|d| d.as_nanos() as f64)
            .collect();
        let n = deltas.len().max(1) as f64;
        let mean = deltas.iter().sum::<f64>() / n;
        let var = deltas.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / n;
        let polls = out.trace.filter_role(&spec.profile, SyscallRole::Poll);
        let pdur: Vec<f64> = polls
            .durations()
            .iter()
            .map(|d| d.as_micros_f64())
            .collect();
        let pmean = pdur.iter().sum::<f64>() / pdur.len().max(1) as f64;
        let rps_obsv = if mean > 0.0 { 1e9 / mean } else { 0.0 };
        println!(
            "{:>8.0} {:>9.0} {:>10.2} {:>10.2} {:>12.1} {:>12.3e} {:>12.0}",
            rps,
            out.client.achieved_rps,
            out.client.p50_latency.as_millis_f64(),
            out.client.p99_latency.as_millis_f64(),
            pmean,
            var,
            rps_obsv
        );
    }
}
