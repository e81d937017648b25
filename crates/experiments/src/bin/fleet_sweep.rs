//! Runs a multi-host fleet and emits the deterministic rollup JSON —
//! or, with `--scale`, sweeps the host count and records how the
//! collection plane scales.
//!
//! ```text
//! fleet_sweep [--hosts N] [--seed N] [--loss F] [--jobs N] [--quick]
//!             [--preset scale] [--out PATH]
//! fleet_sweep --scale [--max-hosts N] [--seed N] [--jobs N] [--out PATH]
//! ```
//!
//! Single-run mode: the JSON document is byte-identical for any
//! `--jobs` value and across reruns of the same seed — the property the
//! CI `fleet-smoke` and `fleet-scale-smoke` jobs check with a literal
//! `cmp`. `--preset scale` swaps in the short-window
//! [`FleetConfig::scale`] schedule so 10⁴–10⁵ hosts finish in CI-scale
//! wall time.
//!
//! Scale-sweep mode (`--scale`): runs the scale preset at 10², 10³,
//! 10⁴, 10⁵ hosts (capped by `--max-hosts`) and emits one JSON line per
//! point — wall time, wire bytes offered/delivered, the constant O(K)
//! per-report wire size, the sketch-vs-exact Top-K agreement (the
//! collector never sees per-entity ground truth; the simulation does,
//! which is the point of measuring agreement here), and the process's
//! peak resident memory so far (`VmHWM`; the points run smallest first,
//! so each line's peak is its own run's, or `null` off Linux).

use std::time::Instant;

use kscope_fleet::{report_to_json, run_fleet_jobs, FleetConfig};
use kscope_simcore::parallel::default_jobs;

fn flag_value<T: std::str::FromStr>(name: &str) -> Option<T> {
    let mut args = std::env::args().peekable();
    while let Some(arg) = args.next() {
        let value = if arg == name {
            args.peek().cloned()
        } else {
            arg.strip_prefix(&format!("{name}=")).map(str::to_string)
        };
        if let Some(v) = value.and_then(|v| v.parse().ok()) {
            return Some(v);
        }
    }
    None
}

fn write_or_print(out: Option<std::path::PathBuf>, body: &str) {
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, body) {
                eprintln!("fleet_sweep: cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
            eprintln!("fleet_sweep: written to {}", path.display());
        }
        None => print!("{body}"),
    }
}

/// Peak resident memory of this process (MB), from `VmHWM` in
/// `/proc/self/status`; `None` where that is unavailable.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

fn scale_sweep(jobs: usize) {
    let max_hosts: usize = flag_value("--max-hosts").unwrap_or(100_000);
    let seed: u64 = flag_value("--seed").unwrap_or(42);
    let mut lines = String::new();
    for hosts in [100usize, 1_000, 10_000, 100_000] {
        if hosts > max_hosts {
            break;
        }
        let mut config = FleetConfig::scale(hosts);
        config.seed = seed;
        let started = Instant::now();
        let run = match run_fleet_jobs(&config, jobs) {
            Ok(run) => run,
            Err(e) => {
                eprintln!("fleet_sweep: probe build failed at {hosts} hosts: {e:?}");
                std::process::exit(1);
            }
        };
        let rollup = run.rollup(jobs);
        let wall_ms = started.elapsed().as_millis();
        let k = config.top_entities;
        let exact = run.exact_top_entities(k);
        let matched = rollup
            .top_entities
            .iter()
            .filter(|row| exact.contains(&row.entity))
            .count();
        let agreement = matched as f64 / k.max(1) as f64;
        let t = &rollup.transport;
        let peak_rss_mb = peak_rss_mb().map_or("null".to_string(), |mb| format!("{mb:.1}"));
        eprintln!(
            "fleet_sweep: {hosts} hosts in {wall_ms} ms (jobs {jobs}): \
             {} B/report, {} B delivered, top-{k} agreement {agreement:.3}, \
             peak RSS {peak_rss_mb} MB",
            t.report_wire_bytes, t.bytes_delivered
        );
        lines.push_str(&format!(
            "{{\"hosts\":{hosts},\"jobs\":{jobs},\"wall_ms\":{wall_ms},\
             \"report_wire_bytes\":{},\"bytes_offered\":{},\"bytes_delivered\":{},\
             \"bytes_per_host_per_window\":{},\"reporting_hosts\":{},\
             \"fleet_rps\":{},\"topk_agreement\":{agreement},\"peak_rss_mb\":{peak_rss_mb}}}\n",
            t.report_wire_bytes,
            t.bytes_offered,
            t.bytes_delivered,
            t.bytes_per_host_per_window,
            rollup.reporting_hosts,
            rollup.fleet_rps,
        ));
    }
    write_or_print(flag_value("--out"), &lines);
}

fn main() {
    let jobs = default_jobs();
    if std::env::args().any(|a| a == "--scale") {
        scale_sweep(jobs);
        return;
    }

    let quick = std::env::args().any(|a| a == "--quick");
    let hosts: usize = flag_value("--hosts").unwrap_or(16);
    let preset: Option<String> = flag_value("--preset");
    let mut config = match preset.as_deref() {
        Some("scale") => FleetConfig::scale(hosts),
        Some(other) => {
            eprintln!("fleet_sweep: unknown preset {other:?} (try \"scale\")");
            std::process::exit(2);
        }
        None if quick => FleetConfig::quick(hosts),
        None => FleetConfig::new(hosts),
    };
    if let Some(seed) = flag_value::<u64>("--seed") {
        config.seed = seed;
    }
    if let Some(loss) = flag_value::<f64>("--loss") {
        config = config.with_loss(loss);
    }

    let run = match run_fleet_jobs(&config, jobs) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("fleet_sweep: probe build failed: {e:?}");
            std::process::exit(1);
        }
    };
    let rollup = run.rollup(jobs);
    eprintln!(
        "fleet_sweep: {} hosts, jobs {jobs}, fleet rps {:.1}, dropped {}, stale {}",
        config.hosts, rollup.fleet_rps, rollup.accounting.channel_dropped, rollup.accounting.stale
    );
    let json = report_to_json(&config, &rollup);
    write_or_print(flag_value("--out"), &json);
}
