//! Golden fixtures for the static-analysis pipeline.
//!
//! Four drift detectors, three backed by a committed golden file that a
//! human reviews when it changes (regenerate with `UPDATE_GOLDEN=1`):
//!
//! 1. `analysis.golden` — per verified precision fixture: the certified
//!    worst-case cost. Any change to the cost model or the inline plan
//!    shows up as a diff here before it shows up in production.
//! 2. `warnings.golden` — the exact rendered verifier warnings for a
//!    program carrying one of every advisory kind. The discovery logic
//!    lives in the analysis module now; this file proves the move kept
//!    the report byte-stable.
//! 3. `plans.golden` — for every program of every shipped probe
//!    configuration plus the precision corpus: each helper-call site's
//!    JIT treatment and map-lookup facts, and the certified cost. The
//!    plan is what the JIT emits, so a diff here is a change to native
//!    code. Before the diff, the shipped programs must also hold the
//!    probe audit's invariants: each compiles on a JIT-supported
//!    platform, the sketch update stays a trampoline call, env helpers
//!    and map lookups inline, and the netstack and streaming pairs are
//!    present.
//! 4. Text-layer round-trip (no golden file): emit → re-parse
//!    reproduces the stream instruction-for-instruction, and the
//!    re-parsed program still verifies cleanly — covering the shipped
//!    backend probes as well as the corpus.

use kscope_core::streaming::StreamingProbe;
use kscope_core::ProbeSet;
use kscope_ebpf::maps::{MapDef, MapRegistry};
use kscope_ebpf::text::{emit_program, parse_program};
use kscope_ebpf::verifier::{Verifier, VerifierConfig};
use kscope_ebpf::{
    cost_report, helper_inline_plan, jit, CostReport, Helper, HelperInline, Program,
};
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
        // The JIT columns price the verifier's lookup facts, which only
        // a verified program carries.
        let report = Verifier::default().verify_report(&prog, &corpus_maps());
        assert!(report.is_ok(), "fixture `{name}` must verify:\n{report}");
        out.push_str(&format!("fixture: {name}\n"));
        out.push_str(&format!("  cost: {}\n", render_cost(cost_report(&prog))));
    }
    assert_matches_golden(
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/precision/analysis.golden"
        ),
        &out,
    );
}

/// Every probe configuration the repo ships, as the set that builds it:
/// each syscall profile's pair, the histogram variant, the fleet's
/// sketch and netstack additions, and the multi-process probe.
fn audited_sets() -> Vec<(&'static str, ProbeSet)> {
    let pair = |profile| ProbeSet::new(vec![1_000], profile, 10);
    let hist = pair(SyscallProfile::data_caching()).with_poll_histogram();
    let sketch = hist.clone().with_entity_sketch(64);
    vec![
        ("tailbench", pair(SyscallProfile::tailbench())),
        ("data_caching", pair(SyscallProfile::data_caching())),
        ("web_search", pair(SyscallProfile::web_search())),
        ("triton_grpc", pair(SyscallProfile::triton_grpc())),
        ("triton_http", pair(SyscallProfile::triton_http())),
        ("data_caching+hist", hist),
        ("data_caching+hist+sketch", sketch.clone()),
        ("data_caching+hist+sketch+netstack", sketch.with_netstack()),
        (
            "web_search+multi",
            ProbeSet::new(vec![1_000, 1_001, 1_002], SyscallProfile::web_search(), 10),
        ),
    ]
}

/// One program's inline plan and cost, one line per helper-call site.
fn render_plan(label: &str, prog: &Program) -> String {
    let mut out = format!("{label} / {} [{} slots]\n", prog.name(), prog.len());
    out.push_str(&format!("  cost: {}\n", render_cost(cost_report(prog))));
    let plan = helper_inline_plan(prog);
    for &(pc, helper, treatment) in plan.sites() {
        out.push_str(&format!("  pc {pc:3}: {helper:?} -> {treatment:?}"));
        if let Some(site) = plan.lookup_site(pc) {
            out.push_str(&format!(
                " (fd {}, key_off {}, array_ok {}, hash8_ok {})",
                site.fd, site.key_off, site.array_ok, site.hash8_ok
            ));
        }
        out.push('\n');
    }
    out
}

/// Which tracepoint pair a shipped program belongs to.
#[derive(Clone, Copy, PartialEq)]
enum Pair {
    Syscall,
    Netstack,
    Streaming,
}

/// The probe audit over every shipped `(label, program, pair)`. Building
/// already refused any program over `PROBE_COST_BUDGET` or without a
/// finite cost bound.
fn assert_audit_invariants(shipped: &[(&str, &Program, Pair)]) {
    let (mut env, mut lookup_fast, mut sketch_sites) = (0, 0, 0);
    for &(label, prog, _) in shipped {
        // On a platform the JIT supports, a program it declines would run
        // on the interpreter fallback instead of native code.
        if jit::supported() {
            assert!(
                prog.jit().is_some(),
                "{label}: the JIT declined '{}'",
                prog.name()
            );
        }
        for &(_, helper, treatment) in helper_inline_plan(prog).sites() {
            match treatment {
                HelperInline::Env => env += 1,
                HelperInline::MapLookupFast => lookup_fast += 1,
                HelperInline::Trampoline => {}
            }
            if helper == Helper::SketchUpdate {
                // The sketch update mutates shared multi-word state, so
                // inlining it would fork interpreter and JIT semantics.
                assert_eq!(
                    treatment,
                    HelperInline::Trampoline,
                    "{label}: sketch_update site in '{}' is not trampolined",
                    prog.name()
                );
                sketch_sites += 1;
            }
        }
    }
    let count = |pair| shipped.iter().filter(|p| p.2 == pair).count();
    let (net, stream) = (count(Pair::Netstack), count(Pair::Streaming));
    assert!(
        env >= 3,
        "inline plan covers only {env} env helper sites (expected >= 3)"
    );
    assert!(
        lookup_fast > 0,
        "no shipped map lookup compiles to the inline fast path"
    );
    assert!(
        sketch_sites > 0,
        "no sketch_update site audited — the fleet probe configuration is missing"
    );
    assert!(
        net >= 2,
        "only {net} netstack programs audited (expected the kscope_net_rx / \
         kscope_sock_drain pair) — the netstack probe configuration is missing"
    );
    assert!(
        stream >= 2,
        "only {stream} streaming programs audited (expected the \
         kscope_stream_enter / kscope_stream_exit pair)"
    );
}

#[test]
fn inline_plans_match_golden() {
    let built: Vec<_> = audited_sets()
        .into_iter()
        .map(|(label, set)| {
            let backend = set
                .build()
                .unwrap_or_else(|e| panic!("`{label}` does not build: {e}"));
            (label, backend)
        })
        .collect();
    let streamer = StreamingProbe::new(1_000, SyscallProfile::data_caching(), 4_096)
        .unwrap_or_else(|e| panic!("streaming pair does not build: {e}"));
    let mut shipped = Vec::new();
    for (label, backend) in &built {
        let (enter, exit) = backend.programs();
        shipped.extend([
            (*label, enter, Pair::Syscall),
            (*label, exit, Pair::Syscall),
        ]);
        if let Some((rx, drain)) = backend.net_programs() {
            shipped.extend([
                (*label, rx, Pair::Netstack),
                (*label, drain, Pair::Netstack),
            ]);
        }
    }
    shipped.extend(
        streamer
            .runtime()
            .programs()
            .map(|p| ("streaming", p, Pair::Streaming)),
    );
    assert_audit_invariants(&shipped);

    let mut out = String::new();
    for &(label, prog, _) in &shipped {
        out.push_str(&render_plan(label, prog));
    }
    for (name, text) in FIXTURES {
        let prog = parse_program(name, text)
            .unwrap_or_else(|e| panic!("fixture `{name}` failed to parse: {e}"));
        let report = Verifier::default().verify_report(&prog, &corpus_maps());
        assert!(report.is_ok(), "fixture `{name}` must verify:\n{report}");
        out.push_str(&render_plan("precision", &prog));
    }
    assert_matches_golden(
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/analysis/plans.golden"
        ),
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
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/analysis/warnings.golden"
        ),
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
        let text = emit_program(&prog).unwrap_or_else(|e| panic!("`{name}` failed to emit: {e:?}"));
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
