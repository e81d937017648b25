//! Netstack figure: impairment lands in the ingress stack, not in the
//! syscall signal.
//!
//! Runs memcached-style data caching at a fixed sub-knee load under a
//! sweep of netem conditions (clean, added delay, packet loss) and
//! separates two in-kernel views of the same requests:
//!
//! - **time-in-stack** — NIC arrival to socket-queue drain, measured by
//!   the verified `kscope_net_rx`/`kscope_sock_drain` probe pair's
//!   cumulative log2 histogram. Impairment makes arrivals bursty
//!   (retransmission clumps after sender RTOs, jitter-coalesced
//!   batches), so softirq batching and socket-queue residency grow.
//! - **poll slack and RPS_obsv** — the paper's syscall-level stability
//!   signals, which stay inside their stability envelope because the
//!   server-side syscall stream never sees the retransmissions.
//!
//! Every condition is a pure function of `(condition, seed)` and the
//! conditions fan out with [`crate::parallel::map_indexed`], so the CSV
//! artifact is byte-identical at any `--jobs`.

use kscope_analysis::{AsciiChart, TextTable};
use kscope_core::{Log2Hist, ProbeSet, RpsEstimator, StackDelay, WindowMetrics, DEFAULT_SHIFT};
use kscope_netem::NetemConfig;
use kscope_simcore::{Dist, Nanos};
use kscope_workloads::{data_caching, RunConfig, WorkloadSpec};

use crate::observe::observe_run;
use crate::Scale;

/// One netem condition of the sweep (`tc netem delay D J loss L%`).
#[derive(Debug, Clone)]
pub struct NetCondition {
    /// Display label ("clean", "5ms ± 1ms", "2% loss").
    pub label: String,
    /// Added one-way delay.
    pub delay: Nanos,
    /// Mean of the exponential per-packet jitter. Real impaired paths
    /// jitter in proportion to their delay, and jitter is what reorders
    /// and coalesces arrivals into softirq batches — the mechanism that
    /// drives time-in-stack up.
    pub jitter_ns: f64,
    /// Bernoulli loss probability.
    pub loss: f64,
}

/// Measurements for one condition.
#[derive(Debug, Clone)]
pub struct ConditionResult {
    /// The condition measured.
    pub condition: NetCondition,
    /// Client-side p99 latency (ms) — what the impairment wrecks.
    pub p99_ms: f64,
    /// Mean Eq. 1 estimate over the measurement windows.
    pub rps_obsv: f64,
    /// Mean poll duration over the measurement windows (ns).
    pub poll_mean_ns: f64,
    /// Completed NIC-to-drain samples in the stack histogram.
    pub stack_samples: u64,
    /// Drain events with no matching rx entry.
    pub stack_misses: u64,
    /// Mean time-in-stack (ns).
    pub stack_mean_ns: f64,
    /// p50 time-in-stack (ns).
    pub stack_p50_ns: f64,
    /// p99 time-in-stack (ns).
    pub stack_p99_ns: f64,
}

/// Full figure result.
#[derive(Debug, Clone)]
pub struct FigNetstackResult {
    /// Per-condition measurements, clean first.
    pub conditions: Vec<ConditionResult>,
}

impl FigNetstackResult {
    /// The clean (unimpaired) baseline row.
    pub fn clean(&self) -> &ConditionResult {
        &self.conditions[0]
    }

    /// Largest relative RPS_obsv deviation of any impaired condition
    /// from the clean baseline.
    pub fn max_rps_divergence(&self) -> f64 {
        let base = self.clean().rps_obsv.max(1e-9);
        self.conditions[1..]
            .iter()
            .map(|c| (c.rps_obsv - self.clean().rps_obsv).abs() / base)
            .fold(0.0, f64::max)
    }

    /// Largest relative poll-slack deviation of any impaired condition
    /// from the clean baseline.
    pub fn max_poll_divergence(&self) -> f64 {
        let base = self.clean().poll_mean_ns.max(1e-9);
        self.conditions[1..]
            .iter()
            .map(|c| (c.poll_mean_ns - self.clean().poll_mean_ns).abs() / base)
            .fold(0.0, f64::max)
    }

    /// Largest ratio of an impaired condition's mean time-in-stack to
    /// the clean baseline's.
    pub fn max_stack_inflation(&self) -> f64 {
        let base = self.clean().stack_mean_ns.max(1e-9);
        self.conditions[1..]
            .iter()
            .map(|c| c.stack_mean_ns / base)
            .fold(0.0, f64::max)
    }
}

/// The swept conditions.
pub fn conditions(scale: Scale) -> Vec<NetCondition> {
    let cond = |label: &str, delay: Nanos, jitter_ns: f64, loss: f64| NetCondition {
        label: label.to_string(),
        delay,
        jitter_ns,
        loss,
    };
    let mut out = vec![
        cond("clean", Nanos::from_micros(30), 5_000.0, 0.0),
        cond("5ms ± 1ms", Nanos::from_millis(5), 1_000_000.0, 0.0),
        cond("2% loss", Nanos::from_micros(30), 5_000.0, 0.02),
    ];
    if scale == Scale::Full {
        out.push(cond("10ms ± 2ms", Nanos::from_millis(10), 2_000_000.0, 0.0));
        out.push(cond("5% loss", Nanos::from_micros(30), 5_000.0, 0.05));
        out.push(cond(
            "10ms ± 2ms + 2% loss",
            Nanos::from_millis(10),
            2_000_000.0,
            0.02,
        ));
    }
    out
}

/// Runs one condition at `offered` rps. Pure function of its inputs —
/// the fan-out in [`run_jobs`] relies on that.
pub fn run_condition(
    spec: &WorkloadSpec,
    condition: &NetCondition,
    offered: f64,
    measure: Nanos,
    seed: u64,
) -> ConditionResult {
    let mut run_cfg = RunConfig::new(offered, seed);
    let mut netem = NetemConfig::impaired(condition.delay, condition.loss);
    netem.jitter = Some(Dist::exponential(condition.jitter_ns));
    run_cfg.netem = netem;
    run_cfg.measure = measure;
    run_cfg.collect_trace = false;
    let window = measure / 8;

    let shift = DEFAULT_SHIFT;
    let mut run = observe_run(spec, &run_cfg, window, |sim| {
        ProbeSet::new(sim.server_pids(), spec.profile.clone(), shift)
            .with_netstack()
            .build()
    });
    let (warmup_end, end) = (run.warmup_end, run.end);
    let observer = run.observer();
    let windows: Vec<WindowMetrics> = observer
        .windows()
        .iter()
        .copied()
        .filter(|w| w.start >= warmup_end && w.end <= end)
        .collect();
    let rps_obsv = RpsEstimator::with_min_samples(64)
        .from_windows(&windows)
        .unwrap_or(0.0);
    let with_poll = windows.iter().filter(|w| w.poll_mean_ns.is_some()).count();
    let poll_mean_ns =
        windows.iter().filter_map(|w| w.poll_mean_ns).sum::<f64>() / with_poll.max(1) as f64;

    let stack = match StackDelay::from_backend(shift, observer.backend()) {
        Some(stack) => stack,
        None => unreachable!("the probe was built with_netstack"),
    };
    let q = |p: f64| Log2Hist::quantile(stack.hist().buckets(), shift, p).unwrap_or(0.0);
    ConditionResult {
        condition: condition.clone(),
        p99_ms: run.client.p99_latency.as_millis_f64(),
        rps_obsv,
        poll_mean_ns,
        stack_samples: stack.count(),
        stack_misses: stack.misses(),
        stack_mean_ns: stack.mean_ns().unwrap_or(0.0),
        stack_p50_ns: q(0.50),
        stack_p99_ns: q(0.99),
    }
}

/// Runs the figure on up to `jobs` workers. Conditions are independent
/// runs with split seeds, so the result is bitwise identical for every
/// `jobs` value.
pub fn run_jobs(scale: Scale, jobs: usize) -> FigNetstackResult {
    let spec = data_caching();
    let offered = spec.paper_failure_rps * 0.5;
    let measure = match scale {
        Scale::Full => Nanos::from_secs_f64(16_000.0 / offered),
        Scale::Quick => Nanos::from_secs_f64(3_000.0 / offered),
    };
    let conds = conditions(scale);
    let results = crate::parallel::map_indexed(&conds, jobs, |i, cond| {
        run_condition(&spec, cond, offered, measure, 97 + i as u64)
    });
    FigNetstackResult {
        conditions: results,
    }
}

/// Runs the figure with the default worker count.
pub fn run(scale: Scale) -> FigNetstackResult {
    run_jobs(scale, crate::parallel::default_jobs())
}

/// Renders the figure.
pub fn render(result: &FigNetstackResult, with_charts: bool) -> String {
    let mut table = TextTable::new(vec![
        "network",
        "p99 (ms)",
        "RPS_obsv",
        "poll (us)",
        "stack mean (us)",
        "stack p99 (us)",
        "samples",
        "misses",
    ]);
    for c in &result.conditions {
        table.row(vec![
            c.condition.label.clone(),
            format!("{:.2}", c.p99_ms),
            format!("{:.1}", c.rps_obsv),
            format!("{:.1}", c.poll_mean_ns / 1_000.0),
            format!("{:.2}", c.stack_mean_ns / 1_000.0),
            format!("{:.2}", c.stack_p99_ns / 1_000.0),
            format!("{}", c.stack_samples),
            format!("{}", c.stack_misses),
        ]);
    }
    let mut out =
        String::from("Netstack figure — time-in-stack vs the syscall signal under impairment\n\n");
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nstack-delay inflation (worst impaired / clean): {:.2}x\n\
         RPS_obsv divergence from clean (worst):         {:.2}%\n\
         poll-slack divergence from clean (worst):       {:.2}%\n",
        result.max_stack_inflation(),
        result.max_rps_divergence() * 100.0,
        result.max_poll_divergence() * 100.0,
    ));
    if with_charts {
        let idx: Vec<f64> = (0..result.conditions.len()).map(|i| i as f64).collect();
        let stack_us: Vec<f64> = result
            .conditions
            .iter()
            .map(|c| c.stack_mean_ns / 1_000.0)
            .collect();
        let mut chart = AsciiChart::new(56, 10);
        chart
            .title("mean time-in-stack per condition")
            .x_label("condition index")
            .y_label("stack delay (us)")
            .series("stack", &idx, &stack_us, '#');
        out.push('\n');
        out.push_str(&chart.render());
    }
    out
}

/// CSV rows for the artifact.
pub fn to_csv(result: &FigNetstackResult) -> String {
    let mut table = TextTable::new(vec![
        "condition",
        "delay_ns",
        "jitter_ns",
        "loss",
        "p99_ms",
        "rps_obsv",
        "poll_mean_ns",
        "stack_samples",
        "stack_misses",
        "stack_mean_ns",
        "stack_p50_ns",
        "stack_p99_ns",
    ]);
    for c in &result.conditions {
        table.row(vec![
            c.condition.label.clone(),
            format!("{}", c.condition.delay.as_nanos()),
            format!("{}", c.condition.jitter_ns),
            format!("{}", c.condition.loss),
            format!("{:.3}", c.p99_ms),
            format!("{:.2}", c.rps_obsv),
            format!("{:.1}", c.poll_mean_ns),
            format!("{}", c.stack_samples),
            format!("{}", c.stack_misses),
            format!("{:.1}", c.stack_mean_ns),
            format!("{:.1}", c.stack_p50_ns),
            format!("{:.1}", c.stack_p99_ns),
        ]);
    }
    table.to_csv()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn impairment_inflates_stack_delay_not_the_signal() {
        let result = run(Scale::Quick);
        assert_eq!(result.conditions.len(), 3);
        for c in &result.conditions {
            assert!(
                c.stack_samples > 100,
                "{}: {} samples",
                c.condition.label,
                c.stack_samples
            );
        }
        // The stack-delay figure separates: impairment inflates
        // time-in-stack while the syscall-side signals hold.
        assert!(
            result.max_stack_inflation() > 1.05,
            "stack inflation {:.3}",
            result.max_stack_inflation()
        );
        assert!(
            result.max_rps_divergence() < 0.10,
            "rps divergence {:.3}",
            result.max_rps_divergence()
        );
    }

    #[test]
    fn csv_is_jobs_invariant() {
        let a = to_csv(&run_jobs(Scale::Quick, 1));
        let b = to_csv(&run_jobs(Scale::Quick, 4));
        assert_eq!(a, b, "jobs must not change a CSV byte");
    }
}
