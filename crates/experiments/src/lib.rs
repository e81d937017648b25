//! # kscope-experiments
//!
//! The reproduction harness: one module per table/figure of the paper's
//! evaluation, each exposing `run(scale)` + `render(..)` and a matching
//! binary target. The per-experiment index lives in `DESIGN.md`; measured
//! vs. paper numbers are recorded in `EXPERIMENTS.md`.
//!
//! | module | reproduces |
//! |---|---|
//! | [`fig1`] | Fig. 1 — syscall stream anatomy & request reconstruction |
//! | [`fig2`] | Fig. 2 — RPS_obsv vs RPS_real correlation (R²) |
//! | [`fig3`] | Fig. 3 — inter-send variance vs load |
//! | [`fig4`] | Fig. 4 — poll-duration slack vs load |
//! | [`fig5`] | Fig. 5 — loss robustness (Triton/gRPC) |
//! | [`table1`] | Table I — system specification |
//! | [`table2`] | Table II — network effect on the RPS fit |
//! | [`overhead`] | §VI — probe overhead on tail latency |
//!
//! Beyond the paper's own tables/figures, three modules quantify claims
//! its text makes in prose:
//!
//! | module | quantifies |
//! |---|---|
//! | [`iouring`] | §V-C — the io_uring syscall-bypass blind spot |
//! | [`windows`] | §IV-B — the ≥2048-sample window recommendation |
//! | [`hosts`] | §IV-A — generalization across the two testbed hosts |
//! | [`fleet`] | fleet collection plane — signal error vs report loss |

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod chart;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig_netstack;
pub mod fleet;
pub mod hosts;
pub mod iouring;
pub mod observe;
pub mod overhead;
mod percentile;
mod regress;
mod report;
pub mod sweep;
pub mod table1;
pub mod table2;
pub mod windows;

pub use observe::{observe_run, ObservedRun};
pub use sweep::{
    run_level, send_events_per_request, sweep, sweep_jobs, LevelResult, SweepConfig, SweepResult,
};

/// Experiment scale: quick smoke runs vs. paper-scale sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced levels/windows for tests and smoke checks.
    Quick,
    /// Paper-scale sweep (the default for the binaries).
    Full,
}

impl Scale {
    /// Parses process arguments: `--quick` selects [`Scale::Quick`].
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--quick") {
            Scale::Quick
        } else {
            Scale::Full
        }
    }
}

/// Writes a CSV artifact under `results/` (created on demand); returns the
/// path written, or `None` (with a warning on stderr) if writing failed.
pub fn write_artifact(name: &str, csv: &str) -> Option<std::path::PathBuf> {
    let dir = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return None;
    }
    let path = dir.join(name);
    match std::fs::write(&path, csv) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("warning: cannot write {}: {e}", path.display());
            None
        }
    }
}
