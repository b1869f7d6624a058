//! The conductor probe: N actors each looping `ActorCtx::delay` in one
//! `Simulation`, timed with `Instant`. A lone actor advances the clock
//! in place; eight alternating actors hand the run token to another OS
//! thread on every event, the cost every multi-actor workload pays.

use std::time::Instant;

use bypassd_sim::{Nanos, Simulation};

use crate::spans::SpanLog;
use crate::stats::median;

const HANDOFF_ACTORS: u64 = 8;
const HANDOFF_EVENTS: u64 = 5_000;
const INPLACE_EVENTS: u64 = 1_000_000;
const ROUNDS: usize = 3;

/// Host cost per conductor event, in ns (medians of three rounds).
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    pub handoff_ns: f64,
    pub inplace_ns: f64,
}

/// Wall ns per event for `actors` actors each making `events` unit
/// delays.
pub fn ns_per_event(actors: u64, events: u64) -> Result<f64, String> {
    let sim = Simulation::new();
    for a in 0..actors {
        sim.spawn(&format!("probe{a}"), move |ctx| {
            for _ in 0..events {
                ctx.delay(Nanos(1));
            }
        });
    }
    let start = Instant::now();
    sim.run();
    let wall = start.elapsed().as_nanos() as f64;
    if sim.now() != Nanos(events) {
        return Err(format!(
            "probe ended at {} instead of {events} ns",
            sim.now()
        ));
    }
    Ok(wall / (actors * events) as f64)
}

pub fn run(log: &mut SpanLog) -> Result<Probe, String> {
    let (mut handoff, mut inplace) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        handoff.push(log.time("sim.probe.handoff", || {
            ns_per_event(HANDOFF_ACTORS, HANDOFF_EVENTS)
        })?);
        inplace.push(log.time("sim.probe.inplace", || ns_per_event(1, INPLACE_EVENTS))?);
    }
    Ok(Probe {
        handoff_ns: median(&handoff),
        inplace_ns: median(&inplace),
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn probe_counts_every_event() {
        assert!(super::ns_per_event(2, 100).unwrap() > 0.0);
        assert!(super::ns_per_event(1, 100).unwrap() > 0.0);
    }
}
