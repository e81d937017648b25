//! End-to-end kscope benchmark with per-layer attribution.
//!
//! ```text
//! CARGO_TARGET_DIR=.bench_build cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload paper_sweep --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads:
//! - `paper_sweep`: data caching across the paper's 13 load levels
//!   (0.1–1.05 of failure RPS) on the JIT probe tier. Probe execution and
//!   the kernel model dominate, and the top levels cross the QoS knee.
//! - `netstack_impaired`: the `fig_netstack` conditions (clean, delay
//!   with jitter, loss) with the netstack probe pair: per-request
//!   in-flight map insert and lookup-delete, retransmits, softirq
//!   batching.
//! - `fleet_10k`: 10⁴ hosts on JIT probes, collected and rolled up.
//!   Per-host probe build and compile dominate; the only workload that
//!   reaches report encoding, the collector and the tree merge.
//!
//! With `--trace 0` the run repeats the workload untraced for
//! `--seconds` and reports the end-to-end metrics; with `--trace 1` it
//! pairs untraced serial runs with traced ones and reports each layer's
//! self time. The last stdout line is one JSON object carrying the
//! metrics `BENCHMARK.json` declares for the mode; the lines before it
//! repeat those numbers for people, along with the workload-specific
//! figures, the output checks and the deterministic counts.

mod adapter;
mod fleet;
mod single;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use kscope_fleet::FleetConfig;

use crate::single::{Inputs, KernelCounts, UnitOut};
use crate::trace::{Layer, LayerTimes, Tracer};

/// Worker threads of untraced runs; the traced run is serial.
const JOBS: usize = 2;

/// Input generations per `setup_s` sample, and samples taken before
/// each untraced repetition. One generation takes about a microsecond,
/// close to the clock's own cost, so a sample times a batch. A shared
/// host's speed can drift over seconds, so the samples are spread over
/// the whole run, as the repetitions behind `wall_s` are.
const SETUP_BATCH: usize = 100;
const SETUP_SAMPLES_PER_REP: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    PaperSweep,
    NetstackImpaired,
    Fleet10k,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "paper_sweep" => Some(Workload::PaperSweep),
            "netstack_impaired" => Some(Workload::NetstackImpaired),
            "fleet_10k" => Some(Workload::Fleet10k),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::NetstackImpaired => "netstack_impaired",
            Workload::Fleet10k => "fleet_10k",
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or(format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

/// A workload's generated inputs: everything built before the first
/// timed call.
enum Prepared {
    Single(Inputs),
    Fleet(FleetConfig),
}

fn prepare(workload: Workload, seed: u64) -> Prepared {
    match workload {
        Workload::PaperSweep => Prepared::Single(single::sweep_inputs(seed)),
        Workload::NetstackImpaired => Prepared::Single(single::netstack_inputs(seed)),
        Workload::Fleet10k => Prepared::Fleet(adapter::fleet_config(adapter::FLEET_HOSTS, seed)),
    }
}

/// Generates the workload's inputs [`SETUP_BATCH`] times and returns
/// the time per generation (s). The batch keeps its inputs alive until
/// it is timed, so each generation allocates afresh.
fn time_setup(args: &Args) -> f64 {
    let mut batch = Vec::with_capacity(SETUP_BATCH);
    let start = Instant::now();
    for _ in 0..SETUP_BATCH {
        batch.push(prepare(args.workload, std::hint::black_box(args.seed)));
    }
    let elapsed = start.elapsed().as_secs_f64();
    std::hint::black_box(batch);
    elapsed / SETUP_BATCH as f64
}

enum RunOut {
    Single(Vec<UnitOut>),
    Fleet(Box<fleet::FleetOut>),
}

impl RunOut {
    fn canonical(&self) -> String {
        match self {
            RunOut::Single(outs) => single::canonical(outs),
            RunOut::Fleet(out) => out.json.clone(),
        }
    }

    /// Wall time of `FleetRun::rollup` (s), for fleet runs.
    fn rollup_s(&self) -> Option<f64> {
        match self {
            RunOut::Single(_) => None,
            RunOut::Fleet(out) => Some(out.rollup_s),
        }
    }
}

fn run_untraced(prepared: &Prepared, jobs: usize) -> RunOut {
    match prepared {
        Prepared::Single(inputs) => RunOut::Single(single::run(inputs, jobs)),
        Prepared::Fleet(config) => RunOut::Fleet(Box::new(fleet::run(config, jobs))),
    }
}

fn run_traced(prepared: &Prepared) -> RunOut {
    match prepared {
        Prepared::Single(inputs) => RunOut::Single(single::run_traced(inputs)),
        Prepared::Fleet(config) => RunOut::Fleet(Box::new(fleet::run_traced(config))),
    }
}

/// A named value with its unit.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// What the output checks and the deterministic counts say about one run.
#[derive(Debug, Default)]
struct Evaluation {
    attempted: u64,
    failed: u64,
    /// One line per failed unit.
    failures: Vec<String>,
    /// Tracepoint firings over all hosts.
    tracepoints: u64,
    /// Error of the Eq. 1 estimate against ground truth (%).
    rps_err_pct: f64,
    /// Workload-specific output figures, fixed by the seed. Not every
    /// workload has them, so they ride with the per-layer metrics.
    extra: Vec<Metric>,
    /// Deterministic work counts, by per-layer metric name.
    counts: Vec<(&'static str, u64)>,
}

impl Evaluation {
    fn unit(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// Relative error `|x - truth| / truth`.
fn rel_err(x: f64, truth: f64) -> f64 {
    (x - truth).abs() / truth.abs().max(f64::MIN_POSITIVE)
}

/// The sweep tests' tolerance on a sub-knee level's Eq. 1 estimate.
const SWEEP_RPS_TOLERANCE: f64 = 0.25;
/// `fig_netstack`'s bound on RPS_obsv and poll-slack divergence from
/// the clean condition.
const NETSTACK_DIVERGENCE: f64 = 0.10;
/// Least inflation of mean time-in-stack under added delay.
const NETSTACK_MIN_INFLATION: f64 = 1.05;
/// The fleet tests' tolerance on `fleet_rps` against offered load.
const FLEET_RPS_TOLERANCE: f64 = 0.05;

fn evaluate(workload: Workload, prepared: &Prepared, out: &RunOut) -> Evaluation {
    match (prepared, out) {
        (Prepared::Single(inputs), RunOut::Single(outs)) => {
            let mut eval = if workload == Workload::PaperSweep {
                evaluate_sweep(inputs, outs)
            } else {
                evaluate_netstack(inputs, outs)
            };
            let mut total = KernelCounts::default();
            for o in outs {
                total.add(&o.counts);
            }
            eval.tracepoints = total.firings();
            eval.extra.push(metric(
                "probe.overhead_ns",
                total.probe_overhead_ns as f64 / total.firings().max(1) as f64,
                "ns",
            ));
            eval.counts = vec![
                ("probe.programs", total.programs),
                ("probe.insns", total.insns),
                ("observer.windows", total.windows),
                ("sched.queued", total.sched_queued),
                ("sched.total_wait_ns", total.sched_wait_ns),
                ("ingress.softirq_runs", total.softirq_runs),
                ("ingress.deferrals", total.deferrals),
                ("ingress.ring_drops", total.ring_drops),
                ("tracing.enters", total.enters),
                ("tracing.exits", total.exits),
                ("tracing.net_rx", total.net_rx),
                ("tracing.sock_drains", total.sock_drains),
            ];
            eval
        }
        (Prepared::Fleet(config), RunOut::Fleet(out)) => evaluate_fleet(config, out),
        _ => unreachable!("runs come from their own workload's inputs"),
    }
}

fn evaluate_sweep(inputs: &Inputs, outs: &[UnitOut]) -> Evaluation {
    let mut eval = Evaluation::default();
    let knee = outs
        .iter()
        .position(|o| o.client.p99_latency > inputs.spec.qos_p99);
    let mut errors = Vec::new();
    for (i, (unit, o)) in inputs.units.iter().zip(outs).enumerate() {
        let sub_knee = knee.is_some_and(|k| i < k);
        let err = o
            .mean_rps_obsv()
            .map(|obsv| rel_err(obsv, o.client.achieved_rps));
        if sub_knee {
            errors.extend(err);
        }
        let ok =
            !o.windows.is_empty() && (!sub_knee || err.is_some_and(|e| e < SWEEP_RPS_TOLERANCE));
        eval.unit(ok, || {
            format!(
                "level {}: {} windows, RPS_obsv error {err:?}",
                unit.label,
                o.windows.len()
            )
        });
    }
    eval.unit(knee.is_some_and(|k| k > 0), || {
        format!("QoS knee at level {knee:?}")
    });
    eval.rps_err_pct = 100.0 * errors.iter().sum::<f64>() / errors.len().max(1) as f64;
    eval
}

fn evaluate_netstack(inputs: &Inputs, outs: &[UnitOut]) -> Evaluation {
    let mut eval = Evaluation::default();
    let stack_mean = |o: &UnitOut| o.stack.as_ref().and_then(|s| s.mean_ns()).unwrap_or(0.0);
    let rps = |o: &UnitOut| adapter::rps_obsv(&o.windows).unwrap_or(0.0);
    let poll = |o: &UnitOut| o.mean_poll_ns().unwrap_or(0.0);
    let clean = &outs[0];
    let clean_delay = inputs.units[0].run.netem.delay;
    let mut errors = Vec::new();
    for (unit, o) in inputs.units.iter().zip(outs) {
        errors.push(rel_err(rps(o), o.client.achieved_rps));
        let samples = o.stack.as_ref().map_or(0, |s| s.count());
        let rps_div = rel_err(rps(o), rps(clean));
        let poll_div = rel_err(poll(o), poll(clean));
        let inflation = stack_mean(o) / stack_mean(clean).max(f64::MIN_POSITIVE);
        let delayed = unit.run.netem.delay > clean_delay;
        let ok = samples > 100
            && rps_div < NETSTACK_DIVERGENCE
            && poll_div < NETSTACK_DIVERGENCE
            && (!delayed || inflation > NETSTACK_MIN_INFLATION);
        eval.unit(ok, || {
            format!(
                "{}: {samples} stack samples, RPS_obsv divergence {rps_div:.4}, \
                 poll divergence {poll_div:.4}, time-in-stack inflation {inflation:.3}",
                unit.label
            )
        });
    }
    eval.rps_err_pct = 100.0 * errors.iter().sum::<f64>() / errors.len() as f64;
    eval
}

fn evaluate_fleet(config: &FleetConfig, out: &fleet::FleetOut) -> Evaluation {
    let mut eval = Evaluation::default();
    let slots = out.run.collector.slots();
    for (id, (truth, slot)) in out.run.truth.iter().zip(slots).enumerate() {
        let ok = truth.produced == truth.shed + truth.offered
            && truth.offered == truth.delivered + truth.dropped
            && slot.accepted + slot.stale == truth.delivered;
        eval.unit(ok, || {
            format!("host {id}: accounting {truth:?} vs {slot:?}")
        });
    }
    let acc = out.rollup.accounting;
    let offered_rps = config.per_host_rps * config.hosts as f64;
    let rps_err = rel_err(out.rollup.fleet_rps, offered_rps);
    let served_ok = out.served.is_none_or(|s| s == out.requests());
    let ok = out.run.truth.len() == config.hosts
        && acc.produced == acc.shed + acc.offered
        && acc.offered == acc.channel_delivered + acc.channel_dropped
        && acc.accepted + acc.stale == acc.channel_delivered
        && rps_err < FLEET_RPS_TOLERANCE
        && served_ok;
    eval.unit(ok, || {
        format!(
            "rollup: {acc:?}, fleet_rps error {rps_err:.4}, served {:?}",
            out.served
        )
    });

    let exact = out.run.exact_top_entities(config.top_entities);
    let found = exact
        .iter()
        .filter(|key| out.rollup.top_entities.iter().any(|e| e.entity == **key))
        .count();
    let requests = out.requests();
    eval.tracepoints = requests * fleet::TRACEPOINTS_PER_REQUEST;
    eval.rps_err_pct = 100.0 * rps_err;
    eval.extra = vec![
        metric(
            "fleet.wire_bytes_per_host_window",
            out.rollup.transport.bytes_per_host_per_window,
            "B",
        ),
        metric(
            "fleet.topk_recall",
            found as f64 / exact.len().max(1) as f64,
            "fraction",
        ),
    ];
    eval.counts = vec![
        ("tracing.enters", 3 * requests),
        ("tracing.exits", 3 * requests),
        ("tracing.net_rx", requests),
        ("tracing.sock_drains", requests),
        ("fleet.requests", requests),
        ("fleet.reports", out.reports()),
        ("fleet.dropped", acc.channel_dropped),
        ("fleet.stale", acc.stale),
        ("fleet.tree_nodes", out.tree_nodes()),
    ];
    eval
}

/// Peak resident memory of this process (MB), from `VmHWM`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

fn result_json(correct: bool, eval: &Evaluation, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        eval.attempted,
        eval.failed,
        body.join(", ")
    )
}

fn print_header(args: &Args, jobs: usize, digest: u64) {
    println!(
        "workload={} seed={} jit_supported={} jobs={jobs} cores={} digest={digest:016x}",
        args.workload.name(),
        args.seed,
        kscope_ebpf::jit::supported(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
}

fn print_checks(eval: &Evaluation, deterministic: bool) {
    for failure in &eval.failures {
        println!("check failed: {failure}");
    }
    if !deterministic {
        println!("check failed: repeated runs of one seed produced different output");
    }
    println!(
        "error_rate = {} fraction ({} of {} units failed)",
        eval.failed as f64 / eval.attempted.max(1) as f64,
        eval.failed,
        eval.attempted
    );
}

/// The end-to-end metrics every `--trace 0` run reports, in
/// `BENCHMARK.json` order.
fn end_to_end_metrics(eval: &Evaluation, setup_s: f64, wall_s: f64) -> Vec<Metric> {
    vec![
        metric("setup_s", setup_s, "s"),
        metric("wall_s", wall_s, "s"),
        metric("tracepoints_per_s", eval.tracepoints as f64 / wall_s, "1/s"),
        metric("rps_err_pct", eval.rps_err_pct, "%"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

/// The workload's output figures plus the median `FleetRun::rollup`
/// time over the untraced runs that had one.
fn figures(eval: &Evaluation, rollups: &[f64]) -> Vec<Metric> {
    let mut figures = eval.extra.clone();
    if !rollups.is_empty() {
        figures.push(metric(
            "fleet.rollup_ms",
            stats::median(rollups) * 1e3,
            "ms",
        ));
    }
    figures
}

fn print_figures(figures: &[Metric], eval: &Evaluation) {
    for m in figures {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    for (name, count) in &eval.counts {
        println!("count {name} = {count}");
    }
}

/// `--trace 0`: repeat the untraced workload for the run length and
/// report end-to-end metrics.
fn end_to_end(args: &Args, prepared: &Prepared) -> String {
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut rollups = Vec::new();
    let mut first: Option<(String, Evaluation)> = None;
    let mut deterministic = true;
    loop {
        setups.extend((0..SETUP_SAMPLES_PER_REP).map(|_| time_setup(args)));
        let rep = Instant::now();
        let out = run_untraced(prepared, JOBS);
        walls.push(rep.elapsed().as_secs_f64());
        rollups.extend(out.rollup_s());
        let canonical = out.canonical();
        match &first {
            None => first = Some((canonical, evaluate(args.workload, prepared, &out))),
            Some((reference, _)) => deterministic &= *reference == canonical,
        }
        drop(out);
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let (canonical, eval) = first.expect("the loop runs at least once");
    let wall_s = stats::median(&walls);
    let metrics = end_to_end_metrics(&eval, stats::median(&setups), wall_s);
    print_header(args, JOBS, stats::digest(canonical.as_bytes()));
    println!(
        "repetitions={} wall_s min={} p50={wall_s} max={}",
        walls.len(),
        stats::percentile(&walls, 0.0),
        stats::percentile(&walls, 1.0)
    );
    for m in &metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    print_figures(&figures(&eval, &rollups), &eval);
    print_checks(&eval, deterministic);
    let correct = eval.failed == 0 && deterministic;
    result_json(correct, &eval, &metrics)
}

/// One untraced-serial / traced pair.
struct TracedPair {
    untraced_s: f64,
    traced_s: f64,
    times: LayerTimes,
}

/// Every layer's self time (ns) and completed spans, then the wrapper's
/// calibrated cost and the wall time outside every span: parts that add
/// up to the traced wall time.
fn layer_parts(times: &LayerTimes) -> Vec<(String, f64, u64)> {
    let mut parts: Vec<(String, f64, u64)> = Layer::ALL
        .iter()
        .map(|&l| (l.name().to_string(), times.get(l), times.calls(l)))
        .collect();
    parts.push(("trace.wrapper".into(), times.wrapper_ns, 0));
    parts.push(("other".into(), times.other_ns, 0));
    parts
}

/// The per-layer metrics every `--trace 1` run reports, in
/// `BENCHMARK.json` order. A workload that never reaches a layer or has
/// no such figure reports 0 for it.
fn per_layer_metrics(
    eval: &Evaluation,
    figures: &[Metric],
    pair: &TracedPair,
    overhead_s: f64,
    span_ns: f64,
) -> Vec<Metric> {
    let times = &pair.times;
    let mut metrics = vec![
        metric("trace.wall_s", pair.traced_s, "s"),
        metric("trace.overhead_s", overhead_s, "s"),
        metric("trace.span_ns", span_ns, "ns"),
    ];
    for (name, ns, _) in layer_parts(times) {
        metrics.push(metric(&format!("{name}_s"), ns / 1e9, "s"));
    }
    let exec_calls = times.calls(Layer::ProbeExec);
    let per_event = if exec_calls > 0 {
        times.get(Layer::ProbeExec) / exec_calls as f64
    } else {
        0.0
    };
    metrics.push(metric("probe.exec_ns_per_event", per_event, "ns"));
    metrics.push(metric(
        "probe.events",
        (exec_calls + times.calls(Layer::ProbeFirstEvent)) as f64,
        "count",
    ));
    for name in COUNT_METRICS {
        let count = eval
            .counts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, c)| *c);
        metrics.push(metric(name, count as f64, "count"));
    }
    for (name, unit) in FIGURE_METRICS {
        let value = figures
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value);
        metrics.push(metric(name, value, unit));
    }
    metrics.push(metric(
        "probe.jit_supported",
        f64::from(u8::from(kscope_ebpf::jit::supported())),
        "count",
    ));
    metrics
}

/// `--trace 1`: pair untraced serial runs with traced ones and report
/// each layer's self time and share of the traced wall time.
fn layered(args: &Args, prepared: &Prepared) -> String {
    let (inner_ns, full_ns) = Tracer::calibrate(9, 100_000);
    let start = Instant::now();
    let mut pairs = Vec::new();
    let mut rollups = Vec::new();
    let mut first: Option<(String, Evaluation)> = None;
    let mut deterministic = true;
    loop {
        let rep = Instant::now();
        let plain = run_untraced(prepared, 1);
        let untraced_s = rep.elapsed().as_secs_f64();
        rollups.extend(plain.rollup_s());
        let plain = plain.canonical();

        trace::install(Tracer::calibrated(inner_ns, full_ns));
        let rep = Instant::now();
        let out = run_traced(prepared);
        let traced_s = rep.elapsed().as_secs_f64();
        let times = trace::uninstall().finish(traced_s * 1e9);

        let canonical = out.canonical();
        deterministic &= canonical == plain;
        match &first {
            None => first = Some((canonical, evaluate(args.workload, prepared, &out))),
            Some((reference, _)) => deterministic &= *reference == plain,
        }
        drop(out);
        pairs.push(TracedPair {
            untraced_s,
            traced_s,
            times,
        });
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let (canonical, eval) = first.expect("the loop runs at least once");
    let overheads: Vec<f64> = pairs.iter().map(|p| p.traced_s - p.untraced_s).collect();
    let overhead_s = stats::median(&overheads);
    pairs.sort_by(|a, b| a.traced_s.total_cmp(&b.traced_s));
    let mid = &pairs[(pairs.len() - 1) / 2];
    let figures = figures(&eval, &rollups);

    print_header(args, 1, stats::digest(canonical.as_bytes()));
    println!(
        "pairs={} traced_wall_s={} untraced_serial_wall_s={} tracing_overhead_s={overhead_s}",
        pairs.len(),
        mid.traced_s,
        mid.untraced_s,
    );
    println!("span cost: {full_ns:.1} ns per call, {inner_ns:.1} ns of it inside the span");
    let parts = layer_parts(&mid.times);
    let nanos: Vec<f64> = parts.iter().map(|p| p.1).collect();
    let shares = stats::shares(&nanos, mid.times.wall_ns);
    println!(
        "{:<20} {:>12} {:>8} {:>12}",
        "layer", "self_s", "share", "calls"
    );
    for ((name, ns, calls), share) in parts.iter().zip(&shares) {
        println!("{name:<20} {:>12.6} {:>8.4} {calls:>12}", ns / 1e9, share);
    }
    println!("shares sum to {}", shares.iter().sum::<f64>());
    let metrics = per_layer_metrics(&eval, &figures, mid, overhead_s, full_ns);
    if let Some(m) = metrics.iter().find(|m| m.name == "probe.exec_ns_per_event") {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    print_figures(&figures, &eval);
    print_checks(&eval, deterministic);
    let correct = eval.failed == 0 && deterministic;
    result_json(correct, &eval, &metrics)
}

/// The deterministic counts every traced run reports.
const COUNT_METRICS: [&str; 17] = [
    "probe.programs",
    "probe.insns",
    "observer.windows",
    "sched.queued",
    "sched.total_wait_ns",
    "ingress.softirq_runs",
    "ingress.deferrals",
    "ingress.ring_drops",
    "tracing.enters",
    "tracing.exits",
    "tracing.net_rx",
    "tracing.sock_drains",
    "fleet.requests",
    "fleet.reports",
    "fleet.dropped",
    "fleet.stale",
    "fleet.tree_nodes",
];

/// The workload figures every traced run reports, with their units.
const FIGURE_METRICS: [(&str, &str); 4] = [
    ("probe.overhead_ns", "ns"),
    ("fleet.rollup_ms", "ms"),
    ("fleet.wire_bytes_per_host_window", "B"),
    ("fleet.topk_recall", "fraction"),
];

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let prepared = prepare(args.workload, args.seed);
    let result = if args.trace {
        layered(&args, &prepared)
    } else {
        end_to_end(&args, &prepared)
    };
    println!("{result}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let args = parse(&[
            "--workload",
            "fleet_10k",
            "--seed",
            "3",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .expect("valid arguments");
        assert_eq!(args.workload, Workload::Fleet10k);
        assert_eq!(args.seed, 3);
        assert_eq!(args.seconds, 12.0);
        assert!(args.trace);
        assert!(parse(&["--workload", "nope", "--seed", "1"]).is_err());
        assert!(parse(&["--workload", "paper_sweep"]).is_err());
        assert!(parse(&["--workload", "paper_sweep", "--seed", "1", "--trace", "2"]).is_err());
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let eval = Evaluation {
            attempted: 3,
            failed: 1,
            ..Evaluation::default()
        };
        let line = result_json(false, &eval, &[metric("wall_s", 1.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \
             \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }

    const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

    /// The `(name, unit)` pairs `BENCHMARK.json` declares in `section`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let key = format!("\"{section}\"");
        let from = BENCHMARK.find(&key).expect("section is declared") + key.len();
        let body = &BENCHMARK[from..];
        let body = &body[..body.find(']').expect("section is a list")];
        let field = |entry: &str, name: &str| -> String {
            let tag = format!("\"{name}\": \"");
            let at = entry.find(&tag).expect("entry has the field") + tag.len();
            entry[at..]
                .split('"')
                .next()
                .expect("string value")
                .to_string()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    fn named(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect()
    }

    /// A seconds-scale version of `workload`.
    fn tiny(workload: Workload) -> Prepared {
        match prepare(workload, 7) {
            Prepared::Single(inputs) => Prepared::Single(single::shrink(inputs)),
            Prepared::Fleet(_) => Prepared::Fleet(adapter::fleet_config(40, 7)),
        }
    }

    #[test]
    fn every_workload_reports_the_declared_metrics() {
        for workload in [
            Workload::PaperSweep,
            Workload::NetstackImpaired,
            Workload::Fleet10k,
        ] {
            let prepared = tiny(workload);
            let plain = run_untraced(&prepared, 1);
            let eval = evaluate(workload, &prepared, &plain);
            assert!(eval.attempted > 0, "{workload:?}");
            let e2e = end_to_end_metrics(&eval, 1e-6, 0.5);
            assert_eq!(named(&e2e), declared("end_to_end"), "{workload:?}");
            assert!(e2e.iter().all(|m| m.value > 0.0), "{workload:?}: {e2e:?}");

            trace::install(Tracer::default());
            let out = run_traced(&prepared);
            let pair = TracedPair {
                untraced_s: 0.5,
                traced_s: 1.0,
                times: trace::uninstall().finish(1e9),
            };
            assert_eq!(out.canonical(), plain.canonical(), "{workload:?}");
            let rollups: Vec<f64> = plain.rollup_s().into_iter().collect();
            let figures = figures(&eval, &rollups);
            let layers = per_layer_metrics(&eval, &figures, &pair, 0.5, 40.0);
            assert_eq!(named(&layers), declared("per_layer"), "{workload:?}");
        }
    }
}
