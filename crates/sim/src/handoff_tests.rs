//! The spin-then-park handoff changes only how a waiting thread actor
//! learns it holds the run token, never which actor runs next. These
//! tests run the same scenarios with polling forced on (no cap) and off
//! (cap 0, every wait parks).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::engine::Simulation;
use crate::time::Nanos;

type Log = Arc<Mutex<Vec<(u64, u64)>>>;

/// Equal-time ties, a mid-run spawn and same-instant yields: four
/// workers log `(actor, now)` after every wait.
fn scenario(sim: &Simulation, log: &Log) {
    for id in 0..4u64 {
        let l = Arc::clone(log);
        sim.spawn_at(Nanos(id % 2), &format!("w{id}"), move |ctx| {
            let mut step = 5 + id * 7;
            for i in 0..8 {
                ctx.delay(Nanos(step));
                l.lock().push((id, ctx.now().0));
                step = step * 13 % 41 + 1;
                if i == 3 && id == 0 {
                    let child = Arc::clone(&l);
                    ctx.spawn_at(ctx.now() + Nanos(2), "child", move |c| {
                        for _ in 0..4 {
                            c.yield_now();
                            child.lock().push((100, c.now().0));
                            c.delay(Nanos(3));
                        }
                    });
                }
                if i % 3 == 1 {
                    ctx.yield_now();
                    l.lock().push((id, ctx.now().0));
                }
            }
        });
    }
}

/// Runs the scenario with waiters polling while at most `spin_cap`
/// thread actors are live.
fn run(spin_cap: usize) -> (Vec<(u64, u64)>, Nanos) {
    let sim = Simulation::with_spin_cap(spin_cap);
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    scenario(&sim, &log);
    sim.run();
    let s = sim.stats();
    assert_eq!(s.spun + s.parked, s.handoffs, "{s:?}");
    let v = log.lock().clone();
    (v, sim.now())
}

#[test]
fn polling_and_parking_dispatch_identically() {
    let reference = run(0);
    assert_eq!(reference.0.len(), 4 * 8 + 4 * 3 + 4);
    assert_eq!(run(0), reference, "parking");
    assert_eq!(run(usize::MAX), reference, "polling");
}

#[test]
fn panic_while_others_poll_propagates() {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let sim = Simulation::with_spin_cap(usize::MAX);
        for id in 0..8u64 {
            sim.spawn(&format!("p{id}"), move |ctx| {
                for i in 0..200 {
                    ctx.delay(Nanos(1));
                    if id == 3 && i == 50 {
                        panic!("intentional");
                    }
                }
            });
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| sim.run()));
        let _ =
            tx.send(outcome.map_err(|p| p.downcast_ref::<String>().cloned().unwrap_or_default()));
    });
    let outcome = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("run hung after an actor panicked");
    let msg = outcome.expect_err("the panic did not propagate");
    assert!(msg.contains("'p3' panicked"), "{msg}");
}
