//! # kscope-analysis
//!
//! Offline analysis toolkit for the kscope experiments: the statistics and
//! rendering needed to regenerate the paper's figures and tables.
//!
//! * [`percentile`] — exact tail-latency percentiles (the paper's p99 QoS
//!   metric);
//! * [`LinearFit`] — the OLS fit + R² + residuals of Fig. 2 / Table II;
//! * [`Histogram`] — duration/delta distributions;
//! * [`AsciiChart`], [`TextTable`] — terminal renderings of
//!   each figure and table, with CSV export.
//!
//! This crate is deliberately dependency-light and simulation-agnostic: it
//! operates on plain `f64` slices so it can analyze either simulated traces
//! or data imported from a real eBPF collector.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod chart;
mod histogram;
mod percentile;
mod regress;
mod report;
mod streaming;

pub use chart::AsciiChart;
pub use histogram::Histogram;
pub use percentile::{percentile, percentile_of_sorted};
pub use regress::{r_squared, FitError, LinearFit};
pub use report::{fmt_sig, TextTable};
pub use streaming::normalize_by_max;
