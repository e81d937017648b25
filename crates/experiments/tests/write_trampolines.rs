//! The shipped probes' hash writes stay in JIT code: a `map_update_elem`
//! or `map_delete_elem` leaves native code only when the table must be
//! laid out afresh or the key's home slot is taken, which at the hash
//! tables' 1/16 load is a few percent of writes. Counted with the VM's
//! per-helper trampoline entries, on a fleet and on an impaired
//! netstack run, both at their benchmark shapes.

use kscope_core::{ProbeSet, DEFAULT_SHIFT};
use kscope_ebpf::Helper;
use kscope_experiments::{fig_netstack, observe_run, Scale};
use kscope_fleet::{FleetConfig, SimHost};
use kscope_netem::NetemConfig;
use kscope_simcore::{Dist, Nanos};
use kscope_workloads::{data_caching, RunConfig};

/// Write trampolines of one probe: updates plus deletes.
fn write_trampolines(probe: &kscope_core::BytecodeBackend) -> u64 {
    probe.trampoline_entries(Helper::MapUpdateElem)
        + probe.trampoline_entries(Helper::MapDeleteElem)
}

/// Every host of a 64-host scale fleet serves its whole horizon. Each
/// request fires two updates (the poll entry and the packet arrival)
/// and one delete (its socket drain), so twice the requests is a lower
/// bound on the writes; under a tenth of that may leave native code.
#[test]
fn fleet_writes_stay_inline() {
    let config = FleetConfig::scale(64);
    let horizon = config.horizon();
    let (mut requests, mut trampolines) = (0u64, 0u64);
    for id in 0..64 {
        let mut host = SimHost::new(&config, id).expect("the fleet probe verifies");
        let mut now = host.first_request_at();
        loop {
            requests += 1;
            match host.serve_request(now, horizon) {
                Some(next) => now = next,
                None => break,
            }
        }
        trampolines += write_trampolines(host.backend());
    }
    let writes = 2 * requests;
    assert!(requests > 1_000, "{requests} requests");
    if cfg!(target_arch = "x86_64") {
        assert!(
            trampolines * 10 < writes,
            "{trampolines} write trampolines for at least {writes} writes"
        );
    }
}

/// One `netstack_impaired`-shaped run: the netstack probe pair at half
/// the failure load under 5 ms ± 1 ms of netem delay. Every packet
/// arrival updates the in-flight map, so the arrivals alone bound the
/// writes from below.
#[test]
fn netstack_writes_stay_inline() {
    let spec = data_caching();
    let offered = spec.paper_failure_rps * 0.5;
    let cond = fig_netstack::conditions(Scale::Quick)
        .into_iter()
        .find(|c| c.loss == 0.0 && c.delay > Nanos::from_millis(1))
        .expect("a delay condition");
    let mut run = RunConfig::new(offered, 11);
    let mut netem = NetemConfig::impaired(cond.delay, cond.loss);
    netem.jitter = Some(Dist::exponential(cond.jitter_ns));
    run.netem = netem;
    run.measure = Nanos::from_secs_f64(3_000.0 / offered);
    run.collect_trace = false;
    let mut observed = observe_run(&spec, &run, run.measure / 8, |sim| {
        ProbeSet::new(sim.server_pids(), spec.profile.clone(), DEFAULT_SHIFT)
            .with_netstack()
            .build()
    });
    let arrivals = observed.tracing.net_rx;
    let trampolines = write_trampolines(observed.observer().backend());
    assert!(arrivals > 1_000, "{arrivals} packet arrivals");
    if cfg!(target_arch = "x86_64") {
        assert!(
            trampolines * 10 < arrivals,
            "{trampolines} write trampolines for at least {arrivals} writes"
        );
    }
}
