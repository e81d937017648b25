//! Byte-identity goldens for the probe shapes production builds.
//!
//! Each `fixtures/probes/*.golden` file holds, for one probe shape, its
//! map definitions in fd order and every attached program in the text
//! form `emit_program` writes. A change to the probe generator or to
//! the order maps are created in shows up here as a diff. Regenerate
//! with `UPDATE_GOLDEN=1` only when the change is intended.
//!
//! The pids are the ones production observes: the simulated server's
//! process (1000; web search runs several), and the fleet's
//! `SimHost::SERVER_PID` (1200).

use kscope_core::{BytecodeBackend, ProbeSet, DEFAULT_SHIFT};
use kscope_ebpf::text::emit_program;
use kscope_syscalls::{Pid, SyscallProfile};
use kscope_testkit::golden::assert_matches_golden;

/// The probe's map definitions in fd order, then each attached program.
fn render(probe: &BytecodeBackend) -> String {
    let mut out = String::from("# maps, in fd order\n");
    for (fd, (name, def)) in probe.map_registry().defs().enumerate() {
        out.push_str(&format!("map {fd} {name}: {def:?}\n"));
    }
    let (enter, exit) = probe.programs();
    let mut programs = vec![enter, exit];
    if let Some((rx, drain)) = probe.net_programs() {
        programs.extend([rx, drain]);
    }
    for program in programs {
        let text = emit_program(program)
            .unwrap_or_else(|e| panic!("'{}' failed to emit: {e:?}", program.name()));
        out.push_str(&format!("\n# program {}\n{text}", program.name()));
    }
    out
}

fn check(name: &str, set: ProbeSet) {
    let probe = set
        .build()
        .unwrap_or_else(|e| panic!("probe '{name}' failed to build: {e}"));
    let path = format!(
        "{}/tests/fixtures/probes/{name}.golden",
        env!("CARGO_MANIFEST_DIR")
    );
    assert_matches_golden(&path, &render(&probe));
}

fn syscall_pair(tgids: Vec<Pid>, profile: SyscallProfile) -> ProbeSet {
    ProbeSet::new(tgids, profile, DEFAULT_SHIFT)
}

/// The sweep probe of a single-process workload.
#[test]
fn data_caching_pair() {
    check(
        "data_caching",
        syscall_pair(vec![1000], SyscallProfile::data_caching()),
    );
}

/// A multi-process probe: one filter over every stage.
#[test]
fn web_search_pair_with_three_tgids() {
    check(
        "web_search_multi",
        syscall_pair(vec![1000, 1001, 1002], SyscallProfile::web_search()),
    );
}

/// The `fig_netstack` probe.
#[test]
fn pair_plus_netstack() {
    check(
        "data_caching_netstack",
        syscall_pair(vec![1000], SyscallProfile::data_caching()).with_netstack(),
    );
}

/// The probe every fleet host runs.
#[test]
fn fleet_probe() {
    check(
        "fleet",
        syscall_pair(vec![1200], SyscallProfile::data_caching())
            .with_poll_histogram()
            .with_entity_sketch(64)
            .with_netstack(),
    );
}

/// The histogram-only probe the precision and analysis suites audit.
#[test]
fn histogram_only() {
    check(
        "data_caching_hist",
        syscall_pair(vec![1200], SyscallProfile::data_caching()).with_poll_histogram(),
    );
}
