//! # bypassd-sim
//!
//! Deterministic discrete-event simulation (DES) kernel used by the BypassD
//! reproduction. It provides:
//!
//! * [`time::Nanos`] — the virtual time unit (nanoseconds).
//! * [`engine::Simulation`] — a conductor that runs simulated actors
//!   exactly one at a time, always the one with the earliest virtual
//!   timestamp. An actor is a real OS thread running straight-line code
//!   or a task (a `Send` future polled inline by the conducting
//!   thread); either way runs remain bit-for-bit reproducible.
//!   [`engine::Simulation::stats`] counts dispatches, in-place
//!   advances, OS-thread handoffs and task polls.
//! * [`hash`] — [`FixedState`], the fixed-key hasher of the hot lookup
//!   maps (cheap, and identical in every run).
//! * [`rng`] — seedable PRNG plus the YCSB zipfian/latest distributions.
//! * [`stats`] — log-bucketed latency histograms and throughput counters.
//! * [`report`] — plain-text table formatting for the benchmark harnesses.
//! * [`port`] — named cross-machine links with their declared delay,
//!   which the fleet harness routes each hop through.
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
#[cfg(test)]
mod handoff_tests;
pub mod hash;
pub mod port;
pub mod report;
pub mod rng;
pub mod stats;
pub mod time;

pub use engine::{block_on, ActorCtx, SimStats, Simulation, Sleep};
pub use hash::FixedState;
pub use port::Port;
pub use time::Nanos;
