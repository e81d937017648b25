//! Golden fixtures for the static-analysis pipeline.
//!
//! Three drift detectors, each backed by a committed golden file that a
//! human reviews when it changes (regenerate with `UPDATE_GOLDEN=1`):
//!
//! 1. `analysis.golden` — per precision fixture: the certified
//!    worst-case cost. Any change to the cost model or the inline plan
//!    shows up as a diff here before it shows up in production.
//! 2. `warnings.golden` — the exact rendered verifier warnings for a
//!    program carrying one of every advisory kind. The discovery logic
//!    lives in the analysis module now; this file proves the move kept
//!    the report byte-stable.
//! 3. Text-layer round-trip (no golden file): emit → re-parse
//!    reproduces the stream instruction-for-instruction, and the
//!    re-parsed program still verifies cleanly — covering the shipped
//!    backend probes as well as the corpus.

use kscope_core::ProbeSet;
use kscope_ebpf::maps::{MapDef, MapRegistry};
use kscope_ebpf::text::{emit_program, parse_program};
use kscope_ebpf::verifier::{Verifier, VerifierConfig};
use kscope_ebpf::{cost_report, CostReport, Program};
use kscope_syscalls::SyscallProfile;
use kscope_testkit::golden::assert_matches_golden;

/// The precision corpus, in `precision_corpus.rs` order.
const FIXTURES: &[(&str, &str)] = &[
    (
        "and_mask_stack",
        include_str!("fixtures/precision/and_mask_stack.bpf"),
    ),
    (
        "log2_bucket_map",
        include_str!("fixtures/precision/log2_bucket_map.bpf"),
    ),
    (
        "range_guard_byte",
        include_str!("fixtures/precision/range_guard_byte.bpf"),
    ),
    (
        "jset_aligned",
        include_str!("fixtures/precision/jset_aligned.bpf"),
    ),
    (
        "signed_window",
        include_str!("fixtures/precision/signed_window.bpf"),
    ),
    (
        "div_range_proof",
        include_str!("fixtures/precision/div_range_proof.bpf"),
    ),
];

fn corpus_maps() -> MapRegistry {
    let mut maps = MapRegistry::new();
    maps.create("vals", MapDef::array(512, 1));
    maps
}

fn render_cost(cost: Option<CostReport>) -> String {
    match cost {
        Some(c) => format!("{c}"),
        None => "unbounded".to_string(),
    }
}

#[test]
fn precision_corpus_analysis_matches_golden() {
    let mut out = String::new();
    for (name, text) in FIXTURES {
        let prog = parse_program(name, text)
            .unwrap_or_else(|e| panic!("fixture `{name}` failed to parse: {e}"));
        out.push_str(&format!("fixture: {name}\n"));
        out.push_str(&format!("  cost: {}\n", render_cost(cost_report(&prog))));
    }
    assert_matches_golden(
        concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/precision/analysis.golden"),
        &out,
    );
}

#[test]
fn verifier_warning_rendering_is_stable() {
    let prog = parse_program("warnings", include_str!("fixtures/analysis/warnings.bpf"))
        .unwrap_or_else(|e| panic!("warnings fixture failed to parse: {e}"));
    let report = Verifier::default().verify_report(&prog, &MapRegistry::new());
    assert!(report.is_ok(), "warnings fixture must verify:\n{report}");
    // The fixture stays a genuine proof only while it trips both
    // advisory kinds.
    let rendered: String = report
        .warnings
        .iter()
        .map(|w| format!("warning: {w}\n"))
        .collect();
    assert!(
        rendered.contains("unreachable") && rendered.contains("dead store"),
        "fixture no longer carries both warning kinds:\n{rendered}"
    );
    assert_matches_golden(
        concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/analysis/warnings.golden"),
        &rendered,
    );
}

/// Every program the round-trip test covers: the precision corpus plus
/// the shipped backend probes (which carry map-fd loads, the emit
/// path's only pseudo-instruction). Each entry carries the ctx size it
/// was verified against — the corpus assumes the default, the backend
/// probes their event layout.
fn round_trip_programs() -> Vec<(String, Program, MapRegistry, usize)> {
    let default_ctx = VerifierConfig::default().ctx_size;
    let mut progs: Vec<(String, Program, MapRegistry, usize)> = FIXTURES
        .iter()
        .map(|(name, text)| {
            let prog = parse_program(name, text).expect("fixture parses");
            ((*name).to_string(), prog, corpus_maps(), default_ctx)
        })
        .collect();
    let backend = ProbeSet::new(vec![1200], SyscallProfile::data_caching(), 10)
        .with_poll_histogram()
        .build()
        .expect("histogram backend builds");
    let (enter, exit) = backend.programs();
    for prog in [enter, exit] {
        progs.push((
            prog.name().to_string(),
            prog.clone(),
            backend.map_registry().clone(),
            kscope_core::CTX_SIZE,
        ));
    }
    progs
}

#[test]
fn programs_round_trip_through_text() {
    for (name, prog, maps, ctx_size) in round_trip_programs() {
        let text = emit_program(&prog)
            .unwrap_or_else(|e| panic!("`{name}` failed to emit: {e:?}"));
        let reparsed = parse_program(&name, &text)
            .unwrap_or_else(|e| panic!("`{name}` emitted text failed to parse: {e}\n{text}"));
        assert_eq!(
            prog.insns(),
            reparsed.insns(),
            "`{name}` emit -> parse is not the identity\n{text}"
        );

        // The re-parsed program still verifies cleanly against the same
        // maps the original was built for.
        let verifier = Verifier::new(VerifierConfig {
            ctx_size,
            ..VerifierConfig::default()
        });
        let report = verifier.verify_report(&reparsed, &maps);
        assert!(
            report.is_ok(),
            "`{name}` re-parsed program fails verification:\n{report}\n{}",
            reparsed.disassemble()
        );
    }
}
