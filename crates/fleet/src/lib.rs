//! # kscope-fleet
//!
//! A deterministic multi-host collection plane for the kscope
//! reproduction of *"Characterizing In-Kernel Observability of
//! Latency-Sensitive Request-Level Metrics with eBPF"* (ISPASS 2024).
//!
//! The paper derives its signals on a single instrumented server; the
//! production setting it argues for is a fleet, where per-host signals
//! must cross an imperfect control channel and merge centrally without
//! bias. This crate builds that layer out of the existing stack:
//!
//! * **Hosts** ([`SimHost`]): each fleet member is the single-host
//!   signal path — the `kscope-kernel` tracepoint dispatcher
//!   (`Tracing`) firing into the verified eBPF bytecode probe with the
//!   in-probe poll histogram, `WindowedObserver`, and
//!   `kscope-core::Agent` — each on its own `kscope-simcore` engine.
//!   A run verifies and compiles the probe once; every host shares
//!   those programs over maps of its own.
//! * **Mergeable state** ([`ReportEnvelope`]): hosts report *cumulative*
//!   sufficient statistics (count/Σδ/Σδ² per stream,
//!   `kscope_core::RawCounters`), cumulative histogram cells
//!   (`kscope_core::Log2Hist`), and the probe's cumulative Top-K entity
//!   sketch (`kscope_core::SketchState`, maintained in-probe by the
//!   `sketch_update` helper). Merging K per-host states is bit-for-bit
//!   equal to computing over the concatenated stream, and cumulative
//!   payloads make the channel loss-tolerant without feedback: a later
//!   report subsumes a lost one.
//! * **Control channel**: reports travel as datagrams through
//!   `kscope-netem` (`send_datagram_sized`: delay, jitter-induced
//!   reordering, loss, a byte ledger — no retransmission), under a
//!   bounded per-host inflight budget. Sequence numbers let the
//!   collector count stale and missing reports instead of silently
//!   absorbing them. Every report is O(K) bytes — sized by the sketch
//!   capacity, independent of how many distinct entities a host served
//!   ([`report_wire_bytes`]).
//! * **Collection tree** ([`Collector`]): per-host slots with
//!   accept-forward-progress semantics feed a hierarchical rollup —
//!   hosts group into leaf aggregators of `fan_in`, aggregates merge
//!   `fan_in`-at-a-time up to one root, and every tree edge carries a
//!   single O(K) [`AggregateReport`] (merged counters, merged histogram,
//!   one merged sketch, an exact host Top-K selection). A fleet run
//!   builds each first-level node on the worker that simulated its
//!   hosts and drops their reports there, so the collector holds one
//!   aggregate per node rather than one report per host. The root
//!   [`FleetRollup`] — fleet RPS from the merged stream, slack
//!   percentiles, saturated-host Top-K, heavy-entity Top-K, drop/stale
//!   accounting, the byte ledger — is bitwise identical at any `--jobs`
//!   and any fan-in.
//!
//! # Examples
//!
//! ```
//! use kscope_fleet::{report_to_json, run_fleet, FleetConfig};
//!
//! let config = FleetConfig::quick(4).with_loss(0.1);
//! let run = run_fleet(&config)?;
//! let rollup = run.rollup(2);
//! assert_eq!(rollup.hosts, 4);
//! // Drops are surfaced, never silently absorbed:
//! let acc = rollup.accounting;
//! assert_eq!(acc.offered, acc.channel_delivered + acc.channel_dropped);
//! let json = report_to_json(&config, &rollup);
//! assert!(json.contains("\"accounting\""));
//! # Ok::<(), kscope_core::BuildError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod collector;
mod config;
mod host;
mod json;
mod sim;

pub use collector::{
    Accounting, AggregateReport, Collector, EntityRow, FleetRollup, HostRow, HostSlot, Transport,
};
pub use config::FleetConfig;
pub use host::{report_wire_bytes, HostTruth, ReportEnvelope, SimHost, ENVELOPE_FIXED_BYTES};
pub use json::report_to_json;
pub use sim::{run_fleet, run_fleet_jobs, FleetRun};
