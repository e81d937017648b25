//! # kscope-simcore
//!
//! Deterministic discrete-event simulation kernel for the kscope project —
//! the reproduction of *"Characterizing In-Kernel Observability of
//! Latency-Sensitive Request-Level Metrics with eBPF"* (ISPASS 2024).
//!
//! This crate provides the three primitives every other kscope crate builds
//! on:
//!
//! * [`Nanos`] / [`NanoDelta`] — nanosecond-resolution virtual time, the
//!   simulated equivalent of `bpf_ktime_get_ns`;
//! * [`SimRng`] and [`Dist`] — a deterministic xoshiro256★★ generator and a
//!   serializable vocabulary of distributions for service times, arrivals,
//!   jitter, and loss;
//! * [`Engine`] / [`Simulation`] / [`Scheduler`] — the event loop itself,
//!   with FIFO tie-breaking so runs are bit-for-bit reproducible.
//!
//! # Examples
//!
//! A minimal Poisson arrival process:
//!
//! ```
//! use kscope_simcore::{Dist, Engine, Nanos, Scheduler, SimRng, Simulation};
//!
//! struct Arrivals {
//!     gap: Dist,
//!     rng: SimRng,
//!     count: u32,
//! }
//!
//! impl Simulation for Arrivals {
//!     type Event = ();
//!     fn handle(&mut self, _ev: (), sched: &mut Scheduler<'_, ()>) {
//!         self.count += 1;
//!         if self.count < 100 {
//!             sched.after(self.gap.sample_nanos(&mut self.rng), ());
//!         }
//!     }
//! }
//!
//! let mut model = Arrivals {
//!     gap: Dist::exponential(1_000.0), // 1us mean inter-arrival
//!     rng: SimRng::seed_from_u64(7),
//!     count: 0,
//! };
//! let mut engine = Engine::new();
//! engine.schedule(Nanos::ZERO, ());
//! engine.run(&mut model);
//! assert_eq!(model.count, 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod dist;
mod engine;
pub mod hash;
pub mod parallel;
mod rng;
mod time;

pub use dist::Dist;
pub use engine::{Engine, Scheduler, Simulation};
pub use rng::SimRng;
pub use time::{NanoDelta, Nanos};
