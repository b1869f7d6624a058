//! Conductor handoff cost: host ns per event for N thread actors each
//! looping `ctx.delay(Nanos(1))` in one `Simulation`, and for one actor
//! that advances the clock in place.
//!
//! With N ≥ 2 every event switches from one actor's fiber to the
//! conductor and on to the next actor's: two stack switches on the
//! `run` caller's thread. Host numbers vary; the only assertion is the
//! final virtual clock, which is exact.
//!
//! Run with `cargo bench -p bypassd-bench --bench handoff`.

use std::time::Instant;

use bypassd_bench::hostinfo;
use bypassd_sim::{Nanos, Simulation};

/// Events per row (summed over actors) in quick mode.
const EVENTS: u64 = 200_000;
const INPLACE_EVENTS: u64 = 2_000_000;

fn row(actors: u64, per_actor: u64) {
    let sim = Simulation::new();
    for a in 0..actors {
        sim.spawn(&format!("probe{a}"), move |ctx| {
            for _ in 0..per_actor {
                ctx.delay(Nanos(1));
            }
        });
    }
    let start = Instant::now();
    sim.run();
    let wall = start.elapsed().as_nanos() as f64;
    assert_eq!(
        sim.now(),
        Nanos(per_actor),
        "{actors} actors ended at the wrong virtual time"
    );
    let s = sim.stats();
    let events = actors * per_actor;
    println!(
        "{actors:>6} {events:>10} {:>10.1} {:>10}",
        wall / events as f64,
        s.handoffs
    );
}

fn main() {
    let scale = bypassd_bench::ops(1, 5);
    println!("conductor handoff cost ({} cores)", hostinfo::cores());
    println!(
        "{:>6} {:>10} {:>10} {:>10}",
        "actors", "events", "ns/event", "handoffs"
    );
    row(1, INPLACE_EVENTS * scale);
    for actors in [2, 8, 64] {
        row(actors, EVENTS * scale / actors);
    }
}
