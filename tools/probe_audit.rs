//! `probe_audit` — static-analysis audit of every shipped probe program.
//!
//! Builds each probe configuration the repo ships through [`ProbeSet`]
//! (every syscall profile, the histogram variant the fleet runs, and the
//! multi-process probe) plus the §III streaming collector's program pair
//! ([`StreamingProbe`]), then for each generated program reports:
//!
//! * the certified worst-case cost bound ([`kscope_ebpf::CostReport`]):
//!   instructions, helper calls, and weighted cost per event;
//! * the JIT helper-inline plan ([`kscope_ebpf::helper_inline_plan`]):
//!   how many call sites compile to inline fast paths versus the sysv64
//!   trampoline round-trip;
//! * whether the template JIT compiles the verified program, with and
//!   without bounds-check elision.
//!
//! Exit status is non-zero when any audit invariant fails:
//!
//! * a program has no finite cost bound, or one over
//!   [`PROBE_COST_BUDGET`] (the bound [`ProbeSet::build`] enforces);
//! * on a platform the JIT supports, a verified program does not
//!   compile with or without elision — so the probe would run on the
//!   interpreter fallback instead of native code;
//! * the shipped probes' inline plans regress: fewer than three env
//!   helper sites or no map lookup compiles to an inline fast path;
//! * the fleet's sketch probe regresses: its `sketch_update` site is
//!   missing or is not compiled as a trampoline call (the helper
//!   mutates shared multi-word sketch state, so inlining it would fork
//!   interpreter and JIT semantics);
//! * the netstack ingress probe pair (`kscope_net_rx` /
//!   `kscope_sock_drain`, verified against the 24-byte `NetCtx`) is
//!   absent or loses its finite cost bound;
//! * the streaming pair (`kscope_stream_enter` / `kscope_stream_exit`)
//!   is absent.
//!
//! CI runs this in the `jit-smoke` job. Usage: `probe_audit`.

use kscope_core::streaming::StreamingProbe;
use kscope_core::{ProbeSet, PROBE_COST_BUDGET};
use kscope_ebpf::{cost_report, helper_inline_plan, jit, HelperInline, Program};
use kscope_syscalls::SyscallProfile;

/// Inline-plan tallies accumulated across every audited program.
#[derive(Default)]
struct InlineTally {
    env: usize,
    lookup_fast: usize,
    trampolined: usize,
    sketch_sites: usize,
}

/// Every probe configuration the repo ships, as the set that builds it.
fn shipped_sets() -> Vec<(String, ProbeSet)> {
    let profiles: [(&str, SyscallProfile); 5] = [
        ("tailbench", SyscallProfile::tailbench()),
        ("data_caching", SyscallProfile::data_caching()),
        ("web_search", SyscallProfile::web_search()),
        ("triton_grpc", SyscallProfile::triton_grpc()),
        ("triton_http", SyscallProfile::triton_http()),
    ];
    let pair = |profile| ProbeSet::new(vec![1_000], profile, 10);
    let mut out: Vec<(String, ProbeSet)> = profiles
        .into_iter()
        .map(|(name, profile)| (name.to_string(), pair(profile)))
        .collect();
    let data_caching = pair(SyscallProfile::data_caching());
    // The histogram variant (register-offset map access).
    let hist = data_caching.clone().with_poll_histogram();
    out.push(("data_caching+hist".to_string(), hist.clone()));
    // The fleet's configuration: histogram plus the per-entity Top-K
    // sketch the collection tree merges (`bpf_sketch_update` site).
    let sketch = hist.with_entity_sketch(64);
    out.push(("data_caching+hist+sketch".to_string(), sketch.clone()));
    // The full fleet configuration: the above plus the netstack ingress
    // probe pair (`kscope_net_rx` / `kscope_sock_drain`) attached to the
    // `net_rx_softirq` and `sock_queue_drain` tracepoints.
    out.push((
        "data_caching+hist+sketch+netstack".to_string(),
        sketch.with_netstack(),
    ));
    // Multi-process probe (Web Search aggregates every stage).
    out.push((
        "web_search+multi".to_string(),
        ProbeSet::new(vec![1_000, 1_001, 1_002], SyscallProfile::web_search(), 10),
    ));
    out
}

fn audit_program(label: &str, prog: &Program, tally: &mut InlineTally) -> Result<(), String> {
    let cost = cost_report(prog)
        .ok_or_else(|| format!("{label}: no finite cost bound for '{}'", prog.name()))?;
    if cost.max_insns > PROBE_COST_BUDGET {
        return Err(format!(
            "{label}: '{}' certifies {} insns, over the {PROBE_COST_BUDGET}-insn budget",
            prog.name(),
            cost.max_insns
        ));
    }
    println!("  {} [{} slots]", prog.name(), prog.len());
    println!("    cost:      {cost}");
    let plan = helper_inline_plan(prog);
    let mut env = 0usize;
    let mut fast = 0usize;
    let mut tramp = 0usize;
    for (_, helper, treatment) in plan.sites() {
        match treatment {
            HelperInline::Env => env += 1,
            HelperInline::MapLookupFast => fast += 1,
            HelperInline::Trampoline => tramp += 1,
        }
        if *helper == kscope_ebpf::Helper::SketchUpdate {
            // The sketch update mutates shared multi-word state, so it
            // must stay a trampoline call — inlining it would fork the
            // semantics between interpreter and JIT.
            if *treatment != HelperInline::Trampoline {
                return Err(format!(
                    "{label}: sketch_update site in '{}' is not trampolined",
                    prog.name()
                ));
            }
            tally.sketch_sites += 1;
        }
    }
    println!(
        "    inline:    {} of {} helper sites inlined ({env} env, {fast} map-lookup fast path), {tramp} trampolined",
        plan.inlined(),
        plan.sites().len(),
    );
    tally.env += env;
    tally.lookup_fast += fast;
    tally.trampolined += tramp;
    // The backend verified every program when it was built, so the
    // elided compile sees the verifier's access proofs.
    if jit::supported() {
        for elide in [true, false] {
            if prog.jit_for(elide).is_none() {
                return Err(format!(
                    "{label}: the JIT declined '{}' (elide = {elide})",
                    prog.name()
                ));
            }
        }
        println!("    jit:       compiles with and without bounds elision");
    }
    Ok(())
}

fn main() {
    let mut failures: Vec<String> = Vec::new();
    let mut audited = 0usize;
    let mut tally = InlineTally::default();
    let mut net_audited = 0usize;
    let mut stream_audited = 0usize;
    for (label, set) in shipped_sets() {
        println!("probe configuration: {label}");
        let backend = match set.build() {
            Ok(backend) => backend,
            Err(e) => {
                failures.push(format!("{label}: {e}"));
                continue;
            }
        };
        let (enter, exit) = backend.programs();
        let mut queue: Vec<(&Program, bool)> = vec![(enter, false), (exit, false)];
        if let Some((rx, drain)) = backend.net_programs() {
            queue.push((rx, true));
            queue.push((drain, true));
        }
        for (prog, is_net) in queue {
            match audit_program(&label, prog, &mut tally) {
                Ok(()) => {
                    audited += 1;
                    if is_net {
                        net_audited += 1;
                    }
                }
                Err(e) => failures.push(e),
            }
        }
    }
    // The streaming collector's pair registers through the same runtime
    // check as the sets above.
    println!("probe configuration: streaming");
    match StreamingProbe::new(1_000, SyscallProfile::data_caching(), 4_096) {
        Ok(streamer) => {
            for prog in streamer.runtime().programs() {
                match audit_program("streaming", prog, &mut tally) {
                    Ok(()) => {
                        audited += 1;
                        stream_audited += 1;
                    }
                    Err(e) => failures.push(e),
                }
            }
        }
        Err(e) => failures.push(format!("streaming: {e}")),
    }
    println!(
        "\naudited {audited} programs ({net_audited} netstack, {stream_audited} streaming); \
         inline plan: {} env + {} map-lookup fast path, {} trampolined \
         ({} sketch-update)",
        tally.env, tally.lookup_fast, tally.trampolined, tally.sketch_sites
    );
    if tally.env < 3 {
        failures.push(format!(
            "inline plan covers only {} env helper sites (expected >= 3)",
            tally.env
        ));
    }
    if tally.lookup_fast == 0 {
        failures.push("no shipped map lookup compiles to the inline fast path".to_string());
    }
    if tally.sketch_sites == 0 {
        failures.push(
            "no sketch_update site audited — the fleet probe configuration is missing".to_string(),
        );
    }
    if net_audited < 2 {
        failures.push(format!(
            "only {net_audited} netstack programs audited (expected the \
             kscope_net_rx / kscope_sock_drain pair) — the netstack probe \
             configuration is missing"
        ));
    }
    if stream_audited < 2 {
        failures.push(format!(
            "only {stream_audited} streaming programs audited (expected the \
             kscope_stream_enter / kscope_stream_exit pair)"
        ));
    }
    if failures.is_empty() {
        println!("probe audit: PASS");
    } else {
        for f in &failures {
            eprintln!("probe audit FAIL: {f}");
        }
        std::process::exit(1);
    }
}
