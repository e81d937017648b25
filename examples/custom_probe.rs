//! Custom probe: a bpftrace-style "syscall top", written in text assembly.
//!
//! The equivalent of
//!
//! ```text
//! bpftrace -e 'tracepoint:raw_syscalls:sys_exit /pid == $server/ { @[args->id] = count(); }'
//! ```
//!
//! — a user-supplied eBPF program (text-assembled, then verified, cost-gated
//! and JIT-compiled by the probe runtime) attached to the simulated kernel's
//! tracepoints via [`ProgramProbe`](kscope::core::ProgramProbe), counting
//! syscalls by id into a hash map that userspace reads afterwards.
//!
//! ```text
//! cargo run --release --example custom_probe
//! ```

use kscope::core::ProgramProbe;
use kscope::ebpf::maps::{MapDef, MapRegistry};
use kscope::ebpf::text::parse_program;
use kscope::prelude::*;

/// The counting program. Map fd 0 is `counts`: hash u64 syscall id → u64.
/// `@[args->id] = count()` compiles to: lookup; if missing insert 1;
/// otherwise increment through the returned pointer.
const SYSCALL_TOP: &str = r"
    ; key = args->id on the stack
    ldxdw r8, [r1+0]
    stxdw [r10-8], r8
    ld_map_fd r1, 0
    mov   r2, r10
    add   r2, -8
    call  bpf_map_lookup_elem
    jne   r0, 0, bump
    ; first sighting: counts[id] = 1
    stdw  [r10-16], 1
    ld_map_fd r1, 0
    mov   r2, r10
    add   r2, -8
    mov   r3, r10
    add   r3, -16
    mov   r4, 0
    call  bpf_map_update_elem
    mov   r0, 0
    exit
bump:
    ldxdw r1, [r0+0]
    add   r1, 1
    stxdw [r0+0], r1
    mov   r0, 0
    exit
";

fn main() {
    let spec = kscope::workloads::web_search();
    let config = RunConfig::new(spec.paper_failure_rps * 0.5, 99);
    println!(
        "attaching a custom text-assembled probe to `{}` for {}s of traffic\n",
        spec.name,
        config.measure.as_secs_f64()
    );

    let outcome = run_workload_with(&spec, &config, |_sim| {
        let mut maps = MapRegistry::new();
        let _counts = maps.create("counts", MapDef::hash(8, 8, 512));
        let program = parse_program("syscall_top", SYSCALL_TOP).expect("program parses");
        println!("program listing:\n{}", program.disassemble());
        let probe = ProgramProbe::new(None, Some(program), maps).expect("program passes the check");
        vec![Box::new(probe) as Box<dyn TracepointProbe>]
    });

    let mut kernel = outcome.kernel;
    let mut probe = kernel.tracing.detach(outcome.probes[0]).expect("attached");
    let custom = probe
        .as_any_mut()
        .downcast_mut::<ProgramProbe>()
        .expect("program probe");
    let counts_fd = custom.maps().fd_by_name("counts").expect("map exists");

    // Userspace readout: walk the syscall table and look each id up.
    let mut rows: Vec<(kscope::syscalls::SyscallNo, u64)> = Vec::new();
    for &no in kscope::syscalls::SyscallNo::all() {
        let key = (no.raw() as u64).to_le_bytes();
        if let Ok(Some(value)) = custom.maps().lookup(counts_fd, &key) {
            let count = u64::from_le_bytes(value.try_into().expect("u64 cell"));
            rows.push((no, count));
        }
    }
    rows.sort_by_key(|&(_, c)| std::cmp::Reverse(c));

    println!("syscall counts over the run (@[args->id] = count()):");
    for (no, count) in &rows {
        println!("    {no:<14} {count:>10}");
    }
    println!(
        "\n{} eBPF instructions executed, {} faulted runs",
        custom.insns_executed(),
        custom.faults()
    );
    println!(
        "client processed {:.0} rps; the probe never touched the application.",
        outcome.client.achieved_rps
    );
}
