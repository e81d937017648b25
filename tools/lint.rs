//! Repo-local lint gate, compiled with plain `rustc` (no dependencies):
//!
//! ```text
//! rustc tools/lint.rs -O -o target/lint && ./target/lint
//! ```
//!
//! Policy, enforced over every `crates/*/src/**/*.rs` file:
//!
//! * `.unwrap()` and `.expect(` are banned in non-test library code.
//!   Infallible-by-construction cases use `match` with a `panic!` /
//!   `unreachable!` carrying a message that says *why* the case cannot
//!   happen; everything else propagates an error.
//! * `dbg!(` and `todo!(` are banned everywhere under `src/`, including
//!   test modules — they are debugging residue, not shipping code.
//! * `.to_vec()` and `.clone()` are banned in the interpreter/map/stream
//!   hot-path modules (`crates/ebpf/src/{interp,decode,maps,analysis}.rs`
//!   and `crates/core/src/{runtime,streaming}.rs`): the
//!   per-event path is allocation-free by measurement
//!   (`crates/core/tests/instance_allocs.rs`, a Tier-1 test), and this
//!   keeps it that way by construction. Deliberate off-path allocations
//!   carry a `// cold path: ...` comment on the same line, which exempts
//!   that line.
//! * Bare slice indexing (`expr[i]`, including range slicing) is banned
//!   in the non-test code of the static-analysis module
//!   (`crates/ebpf/src/analysis.rs`): every lookup there goes through
//!   `.get()`/`.get_mut()`/iterators, so a pass bug surfaces as a
//!   handled `None`, never as a panic inside the analysis.
//! * `NativeBackend` is banned in non-test code outside its own module
//!   (`crates/core/src/native.rs`) and its `pub use` re-export in
//!   `crates/core/src/lib.rs`: it is the differential tests' reference
//!   oracle, and every experiment attaches the bytecode probe.
//! * `Verifier::new(`, `Vm::new(` and `.execute(` are banned in non-test
//!   code of `crates/{core,experiments,fleet,workloads}/src` outside the
//!   probe runtime (`crates/core/src/runtime.rs`): every attached program
//!   is verified, cost-gated and run there, so no probe type can build
//!   or run itself outside that check.
//! * The probe's reference-tier constructor (`.interpreted(` /
//!   `::interpreted(`, the interpreter instance the JIT is measured
//!   against) is banned in non-test code outside the files that define
//!   it (`crates/core/src/{bytecode,runtime}.rs`) and the benchmark
//!   crate (`crates/bench/src/`): every probe runs on the JIT, which
//!   falls back to the interpreter by itself, so nothing attaches the
//!   interpreter on purpose.
//! * `attach_access_proofs(` is banned in non-test code outside the
//!   verifier (`crates/ebpf/src/verifier.rs`) and its definition in
//!   `crates/ebpf/src/program.rs`: attached proofs are what lets a
//!   program compile on the JIT, so a successful value-tracking
//!   verification stays the only route to native code.
//! * Raw-encoding reads (`.class()`, `.op()`, `.is_src_reg()`,
//!   `.is_ld_dw()` and the `CLS_*`/`OP_*` opcode constants) are banned in
//!   the non-test code of the verifier, the JIT, the static analyses and
//!   the program container
//!   (`crates/ebpf/src/{verifier,jit,analysis,program}.rs`): all four
//!   read the one decoded form (`crates/ebpf/src/decode.rs`), so the
//!   instruction the structural pass and the verifier check is the one
//!   the JIT compiles and the listing shows.
//! * The tier shims the end-to-end benchmark still calls
//!   (`with_jit_probes(`, `with_backend(`, `BackendKind::`) are banned
//!   everywhere outside the file that defines each, test modules
//!   included, so they stay callerless until the benchmark moves off
//!   them and they are deleted.
//!
//! `#[cfg(test)]` items (and everything nested inside them) are exempt
//! from the unwrap/expect ban, as are doc comments, line/block
//! comments, and string literals: the scanner strips those before
//! matching, so an error message that *mentions* `.unwrap()` is fine.
//!
//! Exit status is the number-of-violations truth: 0 when clean, 1 when
//! anything fired, 2 on I/O trouble (so CI can't green-wash a missing
//! tree).

use std::env;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Patterns banned in non-test library code.
const BANNED_NON_TEST: &[&str] = &[".unwrap()", ".expect("];

/// Patterns banned everywhere under `src/`, test modules included.
const BANNED_EVERYWHERE: &[&str] = &["dbg!(", "todo!("];

/// Interpreter/map hot-path modules: per-event code where heap churn is
/// a measured regression (`crates/core/tests/instance_allocs.rs` pins
/// the probe's per-event allocations at zero).
const HOT_PATH_FILES: &[&str] = &[
    "crates/ebpf/src/interp.rs",
    "crates/ebpf/src/decode.rs",
    "crates/ebpf/src/jit.rs",
    "crates/ebpf/src/maps.rs",
    "crates/ebpf/src/mapindex.rs",
    "crates/ebpf/src/sketch.rs",
    "crates/ebpf/src/analysis.rs",
    "crates/core/src/runtime.rs",
    "crates/core/src/streaming.rs",
];

/// Modules whose non-test code may not use bare slice indexing: a
/// malformed program must never panic the analysis, so every lookup is a
/// checked `.get()` or an iterator. `mapindex.rs` is held to the same
/// bar — the JIT reads its tables from native code, so the Rust side
/// must stay panic-free on any fd/key shape.
const NO_SLICE_INDEX_FILES: &[&str] = &[
    "crates/ebpf/src/analysis.rs",
    "crates/ebpf/src/mapindex.rs",
];

/// The plain-Rust probe oracle: test code only, outside its own module.
const ORACLE: &str = "NativeBackend";

/// The oracle's module, where non-test code may name it.
const ORACLE_HOME: &str = "crates/core/src/native.rs";

/// The crate root, which may name the oracle in its `pub use` re-export.
const ORACLE_REEXPORT_FILE: &str = "crates/core/src/lib.rs";

/// Ways to verify or run an eBPF program outside the probe runtime.
const BANNED_OUTSIDE_RUNTIME: &[&str] = &["Verifier::new(", "Vm::new(", ".execute("];

/// The crates whose probes must go through the runtime.
const RUNTIME_CLIENT_CRATES: &[&str] = &[
    "crates/core/src/",
    "crates/experiments/src/",
    "crates/fleet/src/",
    "crates/workloads/src/",
];

/// The probe runtime: the one module that verifies and runs programs.
const RUNTIME_HOME: &str = "crates/core/src/runtime.rs";

/// Ways to name the probe's reference-tier (interpreter) constructor.
const REFERENCE_TIER: &[&str] = &[".interpreted(", "::interpreted("];

/// Where non-test code may name the reference tier: the files that
/// define it, and the benchmark crate that measures the JIT against it.
const REFERENCE_TIER_HOMES: &[&str] = &[
    "crates/core/src/bytecode.rs",
    "crates/core/src/runtime.rs",
    "crates/bench/src/",
];

/// The call that attaches verifier proofs, which admit a program to the
/// JIT.
const PROOF_ATTACH: &str = "attach_access_proofs(";

/// The one file whose non-test code may attach proofs: the verifier.
const PROOF_ATTACH_HOME: &str = "crates/ebpf/src/verifier.rs";

/// The file that defines the call, on its `fn` line only.
const PROOF_ATTACH_DEFINITION: &str = "crates/ebpf/src/program.rs";

/// Method calls that read opcode fields off a raw instruction word.
const RAW_ENCODING_CALLS: &[&str] = &[".class()", ".op()", ".is_src_reg()", ".is_ld_dw()"];

/// Prefixes of the opcode-field constants, matched at an identifier start.
const RAW_ENCODING_CONSTS: &[&str] = &["CLS_", "OP_"];

/// Modules whose non-test code reads only the decoded form.
const DECODED_ONLY_FILES: &[&str] = &[
    "crates/ebpf/src/verifier.rs",
    "crates/ebpf/src/jit.rs",
    "crates/ebpf/src/analysis.rs",
    "crates/ebpf/src/program.rs",
];

/// Tier shims kept only for the end-to-end benchmark, each with the one
/// file that may name it (its definition).
const BENCHMARK_SHIMS: &[(&str, &str)] = &[
    ("with_jit_probes(", "crates/fleet/src/config.rs"),
    ("with_backend(", "crates/experiments/src/sweep.rs"),
    ("BackendKind::", "crates/experiments/src/sweep.rs"),
];

/// Allocation patterns banned in hot-path modules outside annotated cold
/// paths and test code.
const BANNED_HOT_PATH: &[&str] = &[".to_vec()", ".clone()"];

/// A line (comment included) containing this marker declares itself a
/// deliberate cold path — setup, drain, or error handling that runs off
/// the per-event path — and is exempt from the hot-path allocation ban.
const COLD_MARKER: &str = "cold path:";

fn main() -> ExitCode {
    let root = env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    let crates = root.join("crates");
    let mut files = Vec::new();
    if let Err(e) = collect_sources(&crates, &mut files) {
        eprintln!("lint: cannot walk {}: {e}", crates.display());
        return ExitCode::from(2);
    }
    files.sort();

    let mut violations = 0usize;
    for file in &files {
        let text = match fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("lint: cannot read {}: {e}", file.display());
                return ExitCode::from(2);
            }
        };
        violations += scan_file(file, &text);
    }

    if violations == 0 {
        println!("lint: {} files clean", files.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("lint: {violations} violation(s)");
        ExitCode::FAILURE
    }
}

/// Recursively gather `*.rs` files under each crate's `src/` directory.
fn collect_sources(crates: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(crates)? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            walk(&src, out)?;
        }
    }
    Ok(())
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// True when `path` is one of the designated hot-path modules.
fn is_hot_path(path: &Path) -> bool {
    let normalized = path.to_string_lossy().replace('\\', "/");
    HOT_PATH_FILES.iter().any(|f| normalized.ends_with(f))
}

/// True when `path` bans bare slice indexing in non-test code.
fn is_no_slice_index(path: &Path) -> bool {
    let normalized = path.to_string_lossy().replace('\\', "/");
    NO_SLICE_INDEX_FILES.iter().any(|f| normalized.ends_with(f))
}

/// True when `path` may not read raw instruction encodings.
fn is_decoded_only(path: &Path) -> bool {
    let normalized = path.to_string_lossy().replace('\\', "/");
    DECODED_ONLY_FILES.iter().any(|f| normalized.ends_with(f))
}

/// Count raw-encoding reads on a stripped line: the opcode-field calls
/// anywhere, the opcode constants where an identifier starts.
fn count_raw_encoding_reads(line: &str) -> usize {
    let calls: usize = RAW_ENCODING_CALLS
        .iter()
        .map(|pat| line.matches(pat).count())
        .sum();
    let consts = RAW_ENCODING_CONSTS
        .iter()
        .flat_map(|pat| line.match_indices(pat))
        .filter(|(i, _)| {
            !line[..*i]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
        })
        .count();
    calls + consts
}

/// True when `path` must verify and run programs only through the
/// probe runtime.
fn is_runtime_client(path: &Path) -> bool {
    let normalized = path.to_string_lossy().replace('\\', "/");
    !normalized.ends_with(RUNTIME_HOME)
        && RUNTIME_CLIENT_CRATES.iter().any(|c| normalized.contains(c))
}

/// True when non-test code of `path` may name the reference tier.
fn may_name_reference_tier(path: &Path) -> bool {
    let normalized = path.to_string_lossy().replace('\\', "/");
    REFERENCE_TIER_HOMES.iter().any(|home| normalized.contains(home))
}

/// True when `path` is the file that defines `home`'s shim.
fn is_shim_home(path: &Path, home: &str) -> bool {
    path.to_string_lossy().replace('\\', "/").ends_with(home)
}

/// How many of the `PROOF_ATTACH` occurrences on the non-test `line` of
/// `path` are allowed: all of them in the verifier, the `fn` itself at
/// its definition, none elsewhere.
fn allowed_proof_attaches(path: &Path, line: &str) -> usize {
    let normalized = path.to_string_lossy().replace('\\', "/");
    if normalized.ends_with(PROOF_ATTACH_HOME) {
        usize::MAX
    } else {
        usize::from(
            normalized.ends_with(PROOF_ATTACH_DEFINITION)
                && line.contains(&format!("fn {PROOF_ATTACH}")),
        )
    }
}

/// True when the non-test `line` of `path` may name the oracle.
fn may_name_oracle(path: &Path, line: &str) -> bool {
    let normalized = path.to_string_lossy().replace('\\', "/");
    normalized.ends_with(ORACLE_HOME)
        || (normalized.ends_with(ORACLE_REEXPORT_FILE) && line.trim_start().starts_with("pub use"))
}

/// Keywords that can legally precede a `[` without forming an index
/// expression (`&mut [Insn]`, `x as [u8; 4]`, `return [0; 2]`, ...).
const PRE_BRACKET_KEYWORDS: &[&str] = &[
    "mut", "dyn", "ref", "as", "in", "return", "break", "else", "match", "if", "impl", "where",
    "const", "static",
];

/// Count bare index/slice expressions on a stripped line: a `[` whose
/// nearest preceding non-space token ends an expression (identifier,
/// literal, `)`, `]`, or `?`). Array literals/types (`[0u8; 4]`,
/// `&[u64]`, `&mut [Insn]`, `&'a [u8]`), attributes (`#[...]`), and
/// generic args are preceded by punctuation, a keyword, or a lifetime
/// and don't match.
fn count_index_exprs(line: &str) -> usize {
    let bytes = line.as_bytes();
    let mut count = 0usize;
    for (i, b) in bytes.iter().enumerate() {
        if *b != b'[' {
            continue;
        }
        let mut j = i;
        while j > 0 && bytes[j - 1].is_ascii_whitespace() {
            j -= 1;
        }
        let Some(&prev) = j.checked_sub(1).and_then(|k| bytes.get(k)) else {
            continue;
        };
        if prev == b')' || prev == b']' || prev == b'?' {
            count += 1;
            continue;
        }
        if !(prev.is_ascii_alphanumeric() || prev == b'_') {
            continue;
        }
        // Walk back over the word; keywords and `'a`-style lifetimes
        // before a `[` introduce types, not index expressions.
        let mut start = j;
        while start > 0
            && bytes
                .get(start - 1)
                .is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_')
        {
            start -= 1;
        }
        if start > 0 && bytes.get(start - 1) == Some(&b'\'') {
            continue;
        }
        let word = &line[start..j];
        if PRE_BRACKET_KEYWORDS.contains(&word) {
            continue;
        }
        count += 1;
    }
    count
}

/// Scan one file; print each violation and return how many fired.
fn scan_file(path: &Path, text: &str) -> usize {
    let stripped = strip_comments_and_strings(text);
    let hot = is_hot_path(path);
    let no_index = is_no_slice_index(path);
    let runtime_client = is_runtime_client(path);
    let reference_tier_home = may_name_reference_tier(path);
    let decoded_only = is_decoded_only(path);
    let mut count = 0usize;
    let mut in_test_item = false;
    let mut pending_cfg_test = false;
    let mut depth_at_entry = 0usize;
    let mut depth = 0usize;

    // The stripped text is matched for code patterns; the raw text is
    // consulted only for the cold-path marker, which lives in comments.
    let mut raw_lines = text.lines();

    for (lineno, line) in stripped.lines().enumerate() {
        let raw_line = raw_lines.next().unwrap_or("");
        if line.contains("#[cfg(test)]") {
            pending_cfg_test = true;
        }

        let opens = line.matches('{').count();
        let closes = line.matches('}').count();

        if pending_cfg_test && !in_test_item && opens > 0 {
            in_test_item = true;
            pending_cfg_test = false;
            depth_at_entry = depth;
        }

        let exempt = in_test_item || pending_cfg_test;
        for pat in BANNED_NON_TEST {
            if exempt {
                break;
            }
            for _ in line.matches(pat) {
                println!(
                    "{}:{}: banned `{pat}` in non-test code (use `match` + \
                     `panic!`/`unreachable!` with a reason, or propagate the error)",
                    path.display(),
                    lineno + 1
                );
                count += 1;
            }
        }
        for pat in BANNED_EVERYWHERE {
            for _ in line.matches(pat) {
                println!(
                    "{}:{}: banned `{pat}` (debugging residue)",
                    path.display(),
                    lineno + 1
                );
                count += 1;
            }
        }
        if hot && !exempt && !raw_line.contains(COLD_MARKER) {
            for pat in BANNED_HOT_PATH {
                for _ in line.matches(pat) {
                    println!(
                        "{}:{}: banned `{pat}` in a hot-path module (allocation on \
                         the per-event path; annotate `// {COLD_MARKER} ...` if this \
                         is genuinely off the hot path)",
                        path.display(),
                        lineno + 1
                    );
                    count += 1;
                }
            }
        }

        if !exempt && line.contains(ORACLE) && !may_name_oracle(path, line) {
            println!(
                "{}:{}: `{ORACLE}` in non-test code (it is the differential \
                 tests' oracle; attach `BytecodeBackend`)",
                path.display(),
                lineno + 1
            );
            count += 1;
        }

        if !exempt {
            let allowed = allowed_proof_attaches(path, line);
            for _ in line.matches(PROOF_ATTACH).skip(allowed) {
                println!(
                    "{}:{}: `{PROOF_ATTACH}` outside the verifier (attached \
                     proofs admit a program to the JIT; only a successful \
                     verification may attach them)",
                    path.display(),
                    lineno + 1
                );
                count += 1;
            }
        }

        if !exempt && !reference_tier_home {
            for pat in REFERENCE_TIER {
                for _ in line.matches(pat) {
                    println!(
                        "{}:{}: `{pat}` outside its definition and the benchmark \
                         crate (every probe runs on the JIT, which falls back \
                         to the interpreter by itself)",
                        path.display(),
                        lineno + 1
                    );
                    count += 1;
                }
            }
        }

        for (pat, home) in BENCHMARK_SHIMS {
            if is_shim_home(path, home) {
                continue;
            }
            for _ in line.matches(pat) {
                println!(
                    "{}:{}: `{pat}` names a tier shim kept only for the \
                     end-to-end benchmark (the probe always runs on the JIT)",
                    path.display(),
                    lineno + 1
                );
                count += 1;
            }
        }

        if runtime_client && !exempt {
            for pat in BANNED_OUTSIDE_RUNTIME {
                for _ in line.matches(pat) {
                    println!(
                        "{}:{}: banned `{pat}` outside the probe runtime (attach \
                         programs through `ProgramProbe` so they are verified, \
                         cost-gated and run on one path)",
                        path.display(),
                        lineno + 1
                    );
                    count += 1;
                }
            }
        }

        if decoded_only && !exempt {
            for _ in 0..count_raw_encoding_reads(line) {
                println!(
                    "{}:{}: raw-encoding read in the verifier or the JIT (match \
                     on `Decoded`, so both see the instruction `decode.rs` \
                     decodes)",
                    path.display(),
                    lineno + 1
                );
                count += 1;
            }
        }

        if no_index && !exempt {
            for _ in 0..count_index_exprs(line) {
                println!(
                    "{}:{}: banned slice indexing in the analysis module (use \
                     `.get()`/`.get_mut()`/iterators so a malformed program \
                     cannot panic the pass)",
                    path.display(),
                    lineno + 1
                );
                count += 1;
            }
        }

        depth = depth + opens - closes.min(depth + opens);
        if in_test_item && depth <= depth_at_entry && closes > 0 {
            in_test_item = false;
        }
    }
    count
}

/// Replace comments, string literals, and char literals with spaces,
/// preserving line structure so reported line numbers stay exact.
fn strip_comments_and_strings(text: &str) -> String {
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    out.push(b' ');
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut nest = 1usize;
                out.extend_from_slice(b"  ");
                i += 2;
                while i < bytes.len() && nest > 0 {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        nest += 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        nest -= 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else {
                        out.push(if bytes[i] == b'\n' { b'\n' } else { b' ' });
                        i += 1;
                    }
                }
            }
            b'"' => {
                out.push(b' ');
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => {
                            // An escaped newline (string continuation) must
                            // keep its line break, or every line number
                            // reported after it drifts.
                            out.push(b' ');
                            out.push(if bytes.get(i + 1) == Some(&b'\n') {
                                b'\n'
                            } else {
                                b' '
                            });
                            i += 2;
                        }
                        b'"' => {
                            out.push(b' ');
                            i += 1;
                            break;
                        }
                        b'\n' => {
                            out.push(b'\n');
                            i += 1;
                        }
                        _ => {
                            out.push(b' ');
                            i += 1;
                        }
                    }
                }
            }
            b'r' if is_raw_string_start(bytes, i) => {
                let hashes = count_hashes(bytes, i + 1);
                out.push(b' ');
                i += 1;
                for _ in 0..hashes {
                    out.push(b' ');
                    i += 1;
                }
                out.push(b' ');
                i += 1; // opening quote
                loop {
                    if i >= bytes.len() {
                        break;
                    }
                    if bytes[i] == b'"' && closes_raw(bytes, i, hashes) {
                        out.push(b' ');
                        i += 1;
                        for _ in 0..hashes {
                            out.push(b' ');
                            i += 1;
                        }
                        break;
                    }
                    out.push(if bytes[i] == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
            }
            b'\'' if is_char_literal(bytes, i) => {
                out.push(b' ');
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => {
                            out.extend_from_slice(b"  ");
                            i += 2;
                        }
                        b'\'' => {
                            out.push(b' ');
                            i += 1;
                            break;
                        }
                        _ => {
                            out.push(b' ');
                            i += 1;
                        }
                    }
                }
            }
            _ => {
                out.push(b);
                i += 1;
            }
        }
    }
    match String::from_utf8(out) {
        Ok(s) => s,
        // Replacement only writes ASCII over ASCII; multi-byte chars
        // pass through untouched, so this cannot happen.
        Err(_) => unreachable!("stripping preserves UTF-8"),
    }
}

/// `r"..."` / `r#"..."#` / `br"..."` starts (the `b` byte, if present,
/// was already emitted verbatim, which is harmless).
fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    let mut j = i + 1;
    while bytes.get(j) == Some(&b'#') {
        j += 1;
    }
    bytes.get(j) == Some(&b'"')
}

fn count_hashes(bytes: &[u8], mut i: usize) -> usize {
    let mut n = 0;
    while bytes.get(i) == Some(&b'#') {
        n += 1;
        i += 1;
    }
    n
}

fn closes_raw(bytes: &[u8], i: usize, hashes: usize) -> bool {
    (1..=hashes).all(|k| bytes.get(i + k) == Some(&b'#'))
}

/// Distinguish `'a'` / `'\n'` char literals from `'static` lifetimes.
fn is_char_literal(bytes: &[u8], i: usize) -> bool {
    match bytes.get(i + 1) {
        Some(&b'\\') => true,
        Some(_) => bytes.get(i + 2) == Some(&b'\''),
        None => false,
    }
}
