//! Precision regression corpus: realistic programs the old type-only
//! verifier rejected and the value-tracking verifier accepts.
//!
//! Each fixture in `fixtures/precision/` is a committed text-format
//! program whose header comment documents the old rejection. The tests
//! here assert three things per fixture:
//!
//! 1. the type-only rules (`VerifierConfig { value_tracking: false }`)
//!    still reject it with `PointerArith` — the corpus stays a genuine
//!    precision delta, not programs that were always legal;
//! 2. the value-tracking verifier accepts it with a clean report
//!    (no errors, no warnings);
//! 3. the accepted program executes without faulting on randomized
//!    context bytes — acceptance is backed by the interpreter, not just
//!    claimed by the analysis.
//!
//! The real histogram probe from `kscope-core` rides along as the
//! corpus's capstone: built, old-rejected, new-accepted, end to end.

use kscope_core::ProbeSet;
use kscope_ebpf::interp::{ExecEnv, Vm};
use kscope_ebpf::maps::{MapDef, MapRegistry};
use kscope_ebpf::text::parse_program;
use kscope_ebpf::verifier::{Verifier, VerifierConfig, VerifyError};
use kscope_simcore::SimRng;
use kscope_syscalls::SyscallProfile;

/// Every committed precision fixture, by name.
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

fn type_only() -> Verifier {
    Verifier::new(VerifierConfig {
        value_tracking: false,
        ..VerifierConfig::default()
    })
}

/// Map registry every fixture verifies against: fd 0 is a 512-byte
/// array value (the histogram shape `log2_bucket_map` indexes into).
fn corpus_maps() -> MapRegistry {
    let mut maps = MapRegistry::new();
    maps.create("vals", MapDef::array(512, 1));
    maps
}

#[test]
fn corpus_is_old_rejected_and_new_accepted() {
    assert!(FIXTURES.len() >= 5, "corpus must stay non-trivial");
    for (name, text) in FIXTURES {
        let prog = parse_program(name, text)
            .unwrap_or_else(|e| panic!("fixture `{name}` failed to parse: {e}"));
        let maps = corpus_maps();

        let old = type_only().verify(&prog, &maps);
        assert!(
            matches!(old, Err(VerifyError::PointerArith { .. })),
            "fixture `{name}` should be type-only-rejected as PointerArith, got {old:?}"
        );

        let report = Verifier::default().verify_report(&prog, &maps);
        assert!(
            report.is_ok(),
            "fixture `{name}` rejected by the value-tracking verifier:\n{report}"
        );
        assert!(
            report.warnings.is_empty(),
            "fixture `{name}` should verify without warnings:\n{report}"
        );
    }
}

#[test]
fn corpus_programs_run_clean_on_random_contexts() {
    let mut rng = SimRng::seed_from_u64(0xC0_2B_05);
    for (name, text) in FIXTURES {
        let prog = parse_program(name, text).expect("fixture parses");
        for _ in 0..64 {
            let mut maps = corpus_maps();
            let mut ctx = [0u8; 64];
            for b in ctx.iter_mut() {
                *b = rng.next_u64() as u8;
            }
            let result = Vm::new().execute(&prog, &ctx, &mut maps, &mut ExecEnv::default());
            assert!(
                result.is_ok(),
                "fixture `{name}` faulted on ctx {ctx:02x?}: {result:?}"
            );
        }
    }
}

/// The real histogram probe is the corpus capstone: the whole point of
/// value tracking is that this program now loads.
#[test]
fn histogram_probe_is_a_precision_win() {
    let backend = ProbeSet::new(vec![1200], SyscallProfile::data_caching(), 0)
        .with_poll_histogram()
        .build()
        .expect("histogram probe builds under the value-tracking verifier");
    let (_, exit) = backend.programs();
    let old = type_only().verify(exit, backend.map_registry());
    assert!(
        matches!(old, Err(VerifyError::PointerArith { .. })),
        "the histogram exit program should be beyond the type-only rules, got {old:?}"
    );
}

/// Golden acceptance corpus: every probe program `kscope-core` emits —
/// all syscall profiles, multi-tgid, with and without the histogram —
/// verifies under the *default* `VerifierConfig` with a clean report.
#[test]
fn every_core_probe_program_verifies_cleanly() {
    let profiles = [
        SyscallProfile::tailbench(),
        SyscallProfile::data_caching(),
        SyscallProfile::web_search(),
        SyscallProfile::triton_grpc(),
        SyscallProfile::triton_http(),
    ];
    for profile in profiles {
        for histogram in [false, true] {
            let backend = if histogram {
                ProbeSet::new(vec![42], profile.clone(), 10).with_poll_histogram()
            } else {
                ProbeSet::new(vec![42, 43, 44], profile.clone(), 10)
            }
            .build()
            .expect("probe builds");
            let verifier = Verifier::new(VerifierConfig {
                ctx_size: kscope_core::CTX_SIZE,
                ..VerifierConfig::default()
            });
            for (which, prog) in [("enter", backend.programs().0), ("exit", backend.programs().1)]
            {
                let report = verifier.verify_report(prog, backend.map_registry());
                assert!(
                    report.is_ok(),
                    "{which} program (histogram={histogram}) rejected:\n{report}\n{}",
                    prog.disassemble()
                );
                assert!(
                    report.warnings.is_empty(),
                    "{which} program (histogram={histogram}) has warnings:\n{report}\n{}",
                    prog.disassemble()
                );
            }
        }
    }
}
