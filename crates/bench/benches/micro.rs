//! Microbenchmarks of the observability primitives: per-event probe cost
//! (the quantity §VI's overhead argument rests on), eBPF interpreter
//! throughput, map operations, and the event engine itself.

use kscope_microbench::{criterion_group, criterion_main, Criterion};
use kscope_core::{MetricBackend, ProbeSet, DEFAULT_SHIFT};
use kscope_ebpf::asm::Asm;
use kscope_ebpf::insn::{R0, R1, SZ_DW};
use kscope_ebpf::interp::{ExecEnv, Vm};
use kscope_ebpf::maps::{MapDef, MapRegistry};
use kscope_ebpf::verifier::Verifier;
use kscope_simcore::{Engine, Nanos, Scheduler, Simulation};
use kscope_syscalls::{pid_tgid, NetCtx, SyscallNo, SyscallProfile, TracePhase, TracepointCtx};
use std::hint::black_box;

fn send_exit(i: u64) -> TracepointCtx {
    TracepointCtx {
        phase: TracePhase::Exit,
        no: SyscallNo::SENDMSG,
        pid_tgid: pid_tgid(1200, 1201),
        ktime: Nanos::from_micros(10 * i),
        ret: 64,
        net: NetCtx::NONE,
    }
}

fn bench_probe_event_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("probe_on_event");
    group.bench_function("bytecode", |b| {
        let mut probe = ProbeSet::new(vec![1200], SyscallProfile::data_caching(), DEFAULT_SHIFT)
            .build()
            .unwrap();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(probe.on_event(&send_exit(i)))
        })
    });
    group.finish();
}

fn bench_vm_throughput(c: &mut Criterion) {
    // A pure-ALU program: 64 instructions per invocation.
    let mut asm = Asm::new("alu_loop").mov64_imm(R0, 1);
    for _ in 0..61 {
        asm = asm.add64_imm(R0, 3);
    }
    let prog = asm.exit().assemble().unwrap();
    let mut maps = MapRegistry::new();
    Verifier::default().verify(&prog, &maps).unwrap();
    let mut vm = Vm::new();
    c.bench_function("vm_interpret_64_alu_insns", |b| {
        let mut env = ExecEnv::default();
        b.iter(|| {
            black_box(
                vm.execute(&prog, &[], &mut maps, &mut env)
                    .unwrap()
                    .ret,
            )
        })
    });
}

fn bench_verifier(c: &mut Criterion) {
    let set = ProbeSet::new(vec![1], SyscallProfile::data_caching(), DEFAULT_SHIFT);
    let probe = set.clone().build().unwrap();
    let dis_len = probe.disassembly().len();
    black_box(dis_len);
    c.bench_function("verify_observability_programs", |b| {
        b.iter(|| {
            black_box(set.clone().build().unwrap())
        })
    });
}

fn bench_map_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("map_ops");
    group.bench_function("hash_update_lookup", |b| {
        let mut maps = MapRegistry::new();
        let fd = maps.create("h", MapDef::hash(8, 8, 4096));
        let mut k = 0u64;
        b.iter(|| {
            k = (k + 1) % 1024;
            maps.update(fd, &k.to_le_bytes(), &k.to_le_bytes()).unwrap();
            black_box(maps.lookup(fd, &k.to_le_bytes()).unwrap().is_some())
        })
    });
    group.bench_function("array_u64_rmw", |b| {
        let mut maps = MapRegistry::new();
        let fd = maps.create("a", MapDef::array(8, 16));
        b.iter(|| {
            let v = maps.array_u64(fd, 3).unwrap();
            maps.set_array_u64(fd, 3, v + 1).unwrap();
            black_box(v)
        })
    });
    group.finish();
}

fn bench_engine(c: &mut Criterion) {
    struct Chain {
        left: u32,
    }
    impl Simulation for Chain {
        type Event = ();
        fn handle(&mut self, _ev: (), sched: &mut Scheduler<'_, ()>) {
            if self.left > 0 {
                self.left -= 1;
                sched.after(Nanos::from_nanos(10), ());
            }
        }
    }
    c.bench_function("engine_dispatch_10k_events", |b| {
        b.iter(|| {
            let mut engine = Engine::new();
            engine.schedule(Nanos::ZERO, ());
            let mut sim = Chain { left: 10_000 };
            engine.run(&mut sim);
            black_box(engine.processed())
        })
    });
}

fn bench_vm_map_program(c: &mut Criterion) {
    // The send-path of the real exit program: map lookup + 6 cell updates.
    let mut probe = ProbeSet::new(vec![1200], SyscallProfile::data_caching(), DEFAULT_SHIFT)
        .build()
        .unwrap();
    // Prime the delta chain so every event takes the full path.
    probe.on_event(&send_exit(1));
    c.bench_function("vm_full_send_update_path", |b| {
        let mut i = 1u64;
        b.iter(|| {
            i += 1;
            black_box(probe.on_event(&send_exit(i)))
        })
    });
}

fn bench_load_prog_asm(c: &mut Criterion) {
    c.bench_function("assemble_filter_program", |b| {
        b.iter(|| {
            let prog = Asm::new("f")
                .load(SZ_DW, R0, R1, 0)
                .jeq_imm(R0, 232, "hit")
                .mov64_imm(R0, 0)
                .exit()
                .label("hit")
                .mov64_imm(R0, 1)
                .exit()
                .assemble()
                .unwrap();
            black_box(prog.len())
        })
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(30)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = micro;
    config = config();
    targets = bench_probe_event_cost, bench_vm_throughput, bench_verifier,
              bench_map_ops, bench_engine, bench_vm_map_program, bench_load_prog_asm
}
criterion_main!(micro);
