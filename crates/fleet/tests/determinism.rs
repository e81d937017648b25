//! Acceptance-criteria determinism checks for the fleet collection
//! plane: the rolled-up report must be byte-identical across worker
//! counts and across reruns of the same seed.

use kscope_fleet::{report_to_json, run_fleet, FleetConfig};

fn run(config: &FleetConfig) -> kscope_fleet::FleetRun {
    match run_fleet(config) {
        Ok(run) => run,
        Err(e) => panic!("fleet build failed: {e:?}"),
    }
}

#[test]
fn rollup_bytes_identical_across_jobs() {
    for loss in [0.0, 0.2] {
        let config = FleetConfig::quick(16).with_loss(loss);
        let fleet = run(&config);
        let baseline = report_to_json(&config, &fleet.rollup(1));
        for jobs in [4, 32] {
            let other = report_to_json(&config, &fleet.rollup(jobs));
            assert_eq!(
                baseline, other,
                "jobs={jobs} loss={loss} changed a byte of the fleet report"
            );
        }
    }
}

#[test]
fn rerun_same_seed_is_byte_identical() {
    let config = FleetConfig::quick(12).with_loss(0.15);
    let a = report_to_json(&config, &run(&config).rollup(4));
    let b = report_to_json(&config, &run(&config).rollup(4));
    assert_eq!(a, b, "rerunning the same seed changed the fleet report");
}

#[test]
fn rollup_bytes_identical_across_fan_ins() {
    // The collection tree's shape is a deployment knob, not a result
    // knob: a flat tree (fan-in ≥ hosts), the default 8-ary tree, and a
    // deep binary tree must roll up to the same bytes. The runs differ
    // only in `fan_in`, so all three reports are rendered under the
    // baseline config (the config echo would otherwise differ) — every
    // rollup byte is what's compared.
    let base = FleetConfig::quick(24).with_loss(0.1);
    let fleet = run(&base);
    let baseline = report_to_json(&base, &fleet.rollup(2));
    for fan_in in [2, 3, 24] {
        let config = base.clone().with_fan_in(fan_in);
        let other = report_to_json(&base, &run(&config).rollup(4));
        assert_eq!(
            baseline, other,
            "fan_in={fan_in} changed a byte of the fleet report"
        );
    }
}

#[test]
fn different_seeds_actually_differ() {
    let base = FleetConfig::quick(8).with_loss(0.1);
    let mut other = base.clone();
    other.seed = base.seed + 1;
    let a = report_to_json(&base, &run(&base).rollup(2));
    let b = report_to_json(&other, &run(&other).rollup(2));
    assert_ne!(a, b, "seed must steer the run, or determinism is vacuous");
}

#[test]
fn stack_delay_section_is_populated_and_jobs_invariant() {
    // The stack-delay block rides the same exactly-merged integer cells
    // as the counters, so its JSON section must be byte-identical at any
    // worker count and fan-in — and non-trivial (the fleet hosts all
    // carry the netstack probe pair, so samples accumulate).
    let base = FleetConfig::quick(16).with_loss(0.1);
    let fleet = run(&base);
    let baseline = report_to_json(&base, &fleet.rollup(1));
    let start = baseline
        .find("\"stack_delay\":{")
        .expect("report carries a stack_delay section");
    let end = baseline[start..].find('}').map(|e| start + e + 1).unwrap();
    let section = &baseline[start..end];
    assert!(
        !section.contains("\"samples\":0,"),
        "netstack probes saw traffic: {section}"
    );
    assert!(!section.contains("\"mean_ns\":null"), "{section}");
    for jobs in [2, 8, 32] {
        let other = report_to_json(&base, &fleet.rollup(jobs));
        assert_eq!(baseline, other, "jobs={jobs} changed the stack_delay bytes");
    }
    for fan_in in [1, 3, 16] {
        let config = base.clone().with_fan_in(fan_in);
        let other = report_to_json(&base, &run(&config).rollup(4));
        assert_eq!(
            baseline, other,
            "fan_in={fan_in} changed the stack_delay bytes"
        );
    }
}
