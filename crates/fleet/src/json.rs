//! Deterministic JSON rendering of the fleet report.
//!
//! Hand-rolled (the workspace has no serialization dependency) with a
//! fixed key order and Rust's shortest-round-trip `f64` formatting, so
//! two rollups that are bitwise equal render to byte-identical JSON —
//! the property the CI `fleet-smoke` job compares across `--jobs`.

use std::fmt::{self, Write};

use crate::collector::{EntityRow, FleetRollup, HostRow};
use crate::config::FleetConfig;

/// An `f64` as a JSON number (Rust's shortest round-trip form), or
/// `null` when it is absent or not finite. Written straight into the
/// report buffer, with no string of its own.
struct JsonF64(Option<f64>);

impl fmt::Display for JsonF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(v) if v.is_finite() => write!(f, "{v}"),
            _ => f.write_str("null"),
        }
    }
}

/// A `u64` as a JSON number, or `null` when it is absent.
struct JsonU64(Option<u64>);

impl fmt::Display for JsonU64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(v) => write!(f, "{v}"),
            None => f.write_str("null"),
        }
    }
}

fn f64_json(v: f64) -> JsonF64 {
    JsonF64(Some(v))
}

fn opt_f64(v: Option<f64>) -> JsonF64 {
    JsonF64(v)
}

fn opt_u64(v: Option<u64>) -> JsonU64 {
    JsonU64(v)
}

fn write_rows(out: &mut String, rows: &[HostRow]) {
    out.push('[');
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"host\":{},\"seq\":{},\"windows\":{},\"rps\":{},\"headroom\":{},\"saturated\":{},\"score\":{}}}",
            row.host,
            opt_u64(row.seq),
            row.windows,
            opt_f64(row.rps),
            opt_f64(row.headroom),
            row.saturated,
            f64_json(row.score),
        );
    }
    out.push(']');
}

fn write_entity_rows(out: &mut String, rows: &[EntityRow]) {
    out.push('[');
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"entity\":{},\"estimate\":{}}}",
            r.entity, r.estimate
        );
    }
    out.push(']');
}

/// Renders a rollup (plus the configuration that produced it) as one
/// deterministic JSON document, terminated by a newline.
pub fn report_to_json(config: &FleetConfig, rollup: &FleetRollup) -> String {
    let acc = &rollup.accounting;
    let mut out = String::with_capacity(2048 + 160 * rollup.per_host.len());
    out.push_str("{\"fleet\":{");
    let _ = write!(
        out,
        "\"hosts\":{},\"seed\":{},\"windows\":{},\"window_ns\":{},\"per_host_rps\":{},\"hot_hosts\":{},\"channel_loss\":{},\"max_inflight\":{},\"fan_in\":{},\"top_k\":{},\"entities\":{},\"sketch_capacity\":{},\"top_entities\":{}",
        config.hosts,
        config.seed,
        config.windows,
        config.window.as_nanos(),
        f64_json(config.per_host_rps),
        config.hot_hosts,
        f64_json(config.channel.loss.steady_state_loss()),
        config.max_inflight,
        config.fan_in,
        config.top_k,
        config.entities,
        config.sketch_capacity,
        config.top_entities,
    );
    out.push_str("},\"rollup\":{");
    let _ = write!(
        out,
        "\"reporting_hosts\":{},\"silent_hosts\":{},\"fleet_rps\":{},\"fleet_send_count\":{},\"fleet_mean_delta_ns\":{},\"fleet_var_delta_ns2\":{},\"fleet_events\":{},\"slack_p50_ns\":{},\"slack_p90_ns\":{},\"slack_p99_ns\":{}",
        rollup.reporting_hosts,
        rollup.silent_hosts,
        f64_json(rollup.fleet_rps),
        rollup.fleet_send_count,
        opt_f64(rollup.fleet_mean_delta_ns),
        opt_f64(rollup.fleet_var_delta_ns2),
        rollup.fleet_events,
        opt_f64(rollup.slack_p50_ns),
        opt_f64(rollup.slack_p90_ns),
        opt_f64(rollup.slack_p99_ns),
    );
    let _ = write!(
        out,
        ",\"stack_delay\":{{\"samples\":{},\"misses\":{},\"mean_ns\":{},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{}}}",
        rollup.stack_samples,
        rollup.stack_misses,
        opt_f64(rollup.stack_mean_ns),
        opt_f64(rollup.stack_p50_ns),
        opt_f64(rollup.stack_p90_ns),
        opt_f64(rollup.stack_p99_ns),
    );
    let _ = write!(
        out,
        ",\"accounting\":{{\"produced\":{},\"shed\":{},\"offered\":{},\"channel_delivered\":{},\"channel_dropped\":{},\"accepted\":{},\"stale\":{},\"gaps\":{}}}",
        acc.produced,
        acc.shed,
        acc.offered,
        acc.channel_delivered,
        acc.channel_dropped,
        acc.accepted,
        acc.stale,
        acc.gaps,
    );
    let t = &rollup.transport;
    let _ = write!(
        out,
        ",\"transport\":{{\"bytes_offered\":{},\"bytes_delivered\":{},\"report_wire_bytes\":{},\"bytes_per_host_per_window\":{}}}",
        t.bytes_offered,
        t.bytes_delivered,
        t.report_wire_bytes,
        f64_json(t.bytes_per_host_per_window),
    );
    let _ = write!(
        out,
        ",\"sketch_total_weight\":{},\"top_entities\":",
        rollup.sketch_total_weight
    );
    write_entity_rows(&mut out, &rollup.top_entities);
    out.push_str(",\"top_saturated\":");
    write_rows(&mut out, &rollup.top_saturated);
    out.push_str(",\"per_host\":");
    write_rows(&mut out, &rollup.per_host);
    out.push_str("}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::run_fleet;

    #[test]
    fn json_is_deterministic_and_plausible() {
        let config = FleetConfig::quick(4).with_loss(0.1);
        let run = match run_fleet(&config) {
            Ok(r) => r,
            Err(e) => panic!("fleet build failed: {e:?}"),
        };
        let a = report_to_json(&config, &run.rollup(1));
        let b = report_to_json(&config, &run.rollup(8));
        assert_eq!(a, b, "jobs must not change a byte");
        assert!(a.starts_with("{\"fleet\":{\"hosts\":4,"));
        assert!(a.ends_with("}}\n"));
        assert!(a.contains("\"accounting\":{\"produced\":"));
        assert!(a.contains("\"channel_loss\":0.1"));
        assert!(a.contains("\"transport\":{\"bytes_offered\":"));
        assert!(a.contains("\"top_entities\":["));
        assert!(a.contains("\"fan_in\":8"));
        assert!(a.contains("\"stack_delay\":{\"samples\":"));
    }

    #[test]
    fn null_and_special_values_render() {
        assert_eq!(opt_f64(None).to_string(), "null");
        assert_eq!(opt_f64(Some(1.5)).to_string(), "1.5");
        assert_eq!(f64_json(f64::NAN).to_string(), "null");
        assert_eq!(opt_u64(None).to_string(), "null");
        assert_eq!(opt_u64(Some(3)).to_string(), "3");
    }
}
