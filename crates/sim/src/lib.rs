//! # bypassd-sim
//!
//! Deterministic discrete-event simulation (DES) kernel used by the BypassD
//! reproduction. It provides:
//!
//! * [`time::Nanos`] — the virtual time unit (nanoseconds).
//! * [`engine::Simulation`] — a conductor that runs simulated actors
//!   exactly one at a time, always the one with the earliest virtual
//!   timestamp. Every actor runs on the OS thread that calls
//!   [`engine::Simulation::run`]: a thread actor is straight-line code
//!   on a fiber (a stack of its own that the conductor switches to), a
//!   task actor a `Send` future the conductor polls. Either way runs
//!   remain bit-for-bit reproducible. [`engine::Simulation::stats`]
//!   counts dispatches, in-place advances, fiber switches and task
//!   polls.
//! * [`hash`] — [`FixedState`], the fixed-key hasher of the hot lookup
//!   maps (cheap, and identical in every run).
//! * [`rng`] — seedable PRNG plus the YCSB zipfian/latest distributions.
//! * [`stats`] — log-bucketed latency histograms and throughput counters.
//! * [`report`] — plain-text table formatting for the benchmark harnesses.
//!
//! ## Example
//!
//! ```rust
//! use bypassd_sim::engine::Simulation;
//! use bypassd_sim::time::Nanos;
//!
//! let sim = Simulation::new();
//! sim.spawn("worker", |ctx| {
//!     ctx.delay(Nanos::from_micros(5));
//!     assert_eq!(ctx.now(), Nanos::from_micros(5));
//! });
//! sim.run();
//! assert_eq!(sim.now(), Nanos::from_micros(5));
//! ```

pub mod engine;
mod fiber;
#[cfg(test)]
mod handoff_tests;
pub mod hash;
pub mod report;
pub mod rng;
pub mod stats;
pub mod time;

pub use engine::{block_on, ActorCtx, SimStats, Simulation, Sleep};
pub use hash::FixedState;
pub use time::Nanos;
