//! The parallel sweep runner is bitwise deterministic: running the same
//! sweep with one worker (the serial reference) and with four workers
//! must produce *identical* results — not statistically close, identical
//! to the last bit of every float.
//!
//! This holds because levels are independent simulations with split
//! seeds (`config.seed + level index`), results are written back by
//! input index, and no cross-level float reduction happens inside the
//! pool. `Debug`-formatting the full result uses Rust's
//! shortest-roundtrip float rendering, so string equality here is
//! bit-for-bit equality of every number in the structure.

use kscope_experiments::{sweep_jobs, SweepConfig};
use kscope_netem::NetemConfig;
use kscope_workloads::data_caching;

fn reduced_config() -> SweepConfig {
    SweepConfig {
        fractions: vec![0.3, 0.7, 1.0],
        windows_per_level: 2,
        min_send_samples: 96,
        netem: NetemConfig::loopback(),
        seed: 7,
    }
}

#[test]
fn one_worker_and_four_workers_agree_bitwise() {
    let spec = data_caching();
    let config = reduced_config();
    let serial = sweep_jobs(&spec, &config, 1);
    let parallel = sweep_jobs(&spec, &config, 4);

    assert_eq!(serial.levels.len(), config.fractions.len());
    assert_eq!(parallel.levels.len(), config.fractions.len());
    // Spot-check structured fields first for a readable failure...
    for (i, (s, p)) in serial.levels.iter().zip(&parallel.levels).enumerate() {
        assert_eq!(
            s.offered_rps.to_bits(),
            p.offered_rps.to_bits(),
            "level {i}: offered load diverges"
        );
        assert_eq!(s.client, p.client, "level {i}: client stats diverge");
        assert_eq!(
            s.windows.len(),
            p.windows.len(),
            "level {i}: window count diverges"
        );
    }
    // ...then hold the entire structure to bitwise identity.
    assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
}

#[test]
fn oversubscribed_pool_still_agrees() {
    // More workers than levels exercises the jobs.min(items) clamp.
    let spec = data_caching();
    let config = reduced_config();
    let serial = sweep_jobs(&spec, &config, 1);
    let flooded = sweep_jobs(&spec, &config, 32);
    assert_eq!(format!("{serial:?}"), format!("{flooded:?}"));
}

#[test]
fn repeated_parallel_runs_are_stable() {
    // Scheduling nondeterminism must not leak: two parallel runs of the
    // same sweep are identical to each other, not only to the serial one.
    let spec = data_caching();
    let config = reduced_config();
    let a = sweep_jobs(&spec, &config, 4);
    let b = sweep_jobs(&spec, &config, 4);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}
