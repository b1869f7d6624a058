//! Thread actors run on fibers. The stack-switch backend and the baton
//! backend (one OS thread per fiber, passing one baton) change only how
//! the conductor resumes an actor, never which actor runs next. These
//! tests run the same scenario on both, and check that a panic or a
//! stack overflow on a fiber cannot hang or corrupt the run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::engine::{SimStats, Simulation};
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

/// Runs the scenario with thread actors on stack fibers, or on baton
/// fibers.
fn run(baton: bool) -> (Vec<(u64, u64)>, Nanos, SimStats) {
    let sim = if baton {
        Simulation::with_baton_fibers()
    } else {
        Simulation::new()
    };
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    scenario(&sim, &log);
    sim.run();
    let v = log.lock().clone();
    (v, sim.now(), sim.stats())
}

#[test]
fn stack_and_baton_fibers_dispatch_identically() {
    let reference = run(false);
    assert_eq!(reference.0.len(), 4 * 8 + 4 * 3 + 4);
    let s = reference.2;
    assert_eq!((s.thread_spawns, s.task_polls), (5, 0), "{s:?}");
    assert_eq!(s.handoffs, s.events, "{s:?}");
    assert_eq!(run(false), reference, "stack fibers");
    assert_eq!(run(true), reference, "baton fibers");
}

#[test]
fn panic_while_others_are_suspended_propagates() {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let sim = Simulation::new();
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
    assert!(msg.contains("'p3' panicked: intentional"), "{msg}");
}

#[test]
fn unstarted_fibers_drop_their_closures() {
    for baton in [false, true] {
        let held = Arc::new(());
        let sim = if baton {
            Simulation::with_baton_fibers()
        } else {
            Simulation::new()
        };
        let h = Arc::clone(&held);
        sim.spawn("never-run", move |_ctx| drop(h));
        assert_eq!(Arc::strong_count(&held), 2);
        drop(sim);
        assert_eq!(Arc::strong_count(&held), 1, "baton: {baton}");
    }
}

/// Set only in the child process of the overflow test.
#[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
const OVERFLOW_CHILD: &str = "BYPASSD_SIM_OVERFLOW_CHILD";

/// An actor that recurses without bound must fault on its fiber's guard
/// page (SIGSEGV), not run on into the stack mapped below it. The
/// overflow kills its process, so the test re-runs itself as a child
/// and checks how the child died. The child's actor recurses until it
/// is 3 MiB below where it started, then exits cleanly: that is reached
/// only if the overflow ran past its 2 MiB stack into the next
/// fiber's.
#[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
#[test]
fn stack_overflow_faults_on_the_guard_page() {
    use std::hint::black_box;
    use std::os::unix::process::ExitStatusExt;
    use std::process::Command;

    fn recurse(top: usize, limit: usize) {
        let frame = black_box([0u8; 4096]);
        if top - (&raw const frame as usize) >= limit {
            std::process::exit(0);
        }
        recurse(top, limit);
        black_box(&frame);
    }

    if std::env::var_os(OVERFLOW_CHILD).is_some() {
        let sim = Simulation::new();
        sim.spawn("deep", |_ctx| {
            let top = black_box(0u8);
            recurse(&raw const top as usize, 3 << 20);
        });
        // Spawned later, their stacks are mapped below the first one.
        for i in 0..2 {
            sim.spawn(&format!("below{i}"), |ctx| ctx.delay(Nanos(10)));
        }
        let _ = catch_unwind(AssertUnwindSafe(|| sim.run()));
        std::process::exit(0);
    }
    let out = Command::new(std::env::current_exe().expect("test binary path"))
        .args([
            "--exact",
            "handoff_tests::stack_overflow_faults_on_the_guard_page",
            "--test-threads=1",
        ])
        .env(OVERFLOW_CHILD, "1")
        .output()
        .expect("re-run the test binary");
    const SIGSEGV: i32 = 11;
    assert_eq!(
        out.status.signal(),
        Some(SIGSEGV),
        "{:?}; stderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}
