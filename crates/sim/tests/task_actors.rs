//! Task actors against thread actors: one async body, spawned either
//! way, must produce the same event order and the same final clock.
//! Also pins the engine self-counters and the task failure modes.

use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};

use bypassd_sim::{block_on, ActorCtx, Nanos, SimStats, Simulation};
use parking_lot::Mutex;

type Log = Arc<Mutex<Vec<(u64, u64)>>>;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Threads,
    Tasks,
    /// Even actors as threads, odd ones as tasks.
    Mixed,
}

/// One worker body: irregular sleeps with equal-time ties, a mid-run
/// child spawn, logging `(actor, now)` after every wait.
async fn worker(ctx: &mut ActorCtx, id: u64, kind: Kind, log: Log) {
    let mut step = 5 + id * 7;
    for i in 0..6 {
        ctx.sleep(Nanos(step)).await;
        log.lock().push((id, ctx.now().0));
        step = step * 13 % 41 + 1;
        if i == 2 && id == 0 {
            let at = ctx.now() + Nanos(3);
            spawn(&Spawner::Ctx(ctx), kind, 100, at, Arc::clone(&log));
        }
    }
    // Same-instant yield: must queue behind actors already due now.
    let now = ctx.now();
    ctx.sleep_until(now).await;
    log.lock().push((id, ctx.now().0));
}

/// Spawns through the actor's own handle (mid-run spawns go through
/// `ActorCtx`), so both kinds can be spawned from inside a body.
enum Spawner<'a> {
    Ctx(&'a ActorCtx),
    Sim(&'a Simulation),
}

fn spawn(sp: &Spawner<'_>, kind: Kind, id: u64, at: Nanos, log: Log) {
    let thread = match kind {
        Kind::Threads => true,
        Kind::Tasks => false,
        Kind::Mixed => id.is_multiple_of(2),
    };
    let name = format!("w{id}");
    let body_log = Arc::clone(&log);
    if thread {
        let f = move |ctx: &mut ActorCtx| block_on(worker(ctx, id, kind, body_log));
        match sp {
            Spawner::Ctx(c) => c.spawn_at(at, &name, f),
            Spawner::Sim(s) => s.spawn_at(at, &name, f),
        };
    } else {
        let f = move |mut ctx: ActorCtx| async move { worker(&mut ctx, id, kind, body_log).await };
        match sp {
            Spawner::Ctx(c) => c.spawn_task_at(at, &name, f),
            Spawner::Sim(s) => s.spawn_task_at(at, &name, f),
        };
    }
}

fn scenario(kind: Kind) -> (Simulation, Log) {
    let sim = Simulation::new();
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    for id in 0..4 {
        spawn(
            &Spawner::Sim(&sim),
            kind,
            id,
            Nanos(id % 2),
            Arc::clone(&log),
        );
    }
    (sim, log)
}

fn run_whole(kind: Kind) -> (Vec<(u64, u64)>, Nanos, SimStats) {
    let (sim, log) = scenario(kind);
    sim.run();
    let v = log.lock().clone();
    (v, sim.now(), sim.stats())
}

#[test]
fn threads_and_tasks_produce_the_same_event_log() {
    let (threads, t_end, t_stats) = run_whole(Kind::Threads);
    let (tasks, k_end, k_stats) = run_whole(Kind::Tasks);
    let (mixed, m_end, _) = run_whole(Kind::Mixed);
    assert_eq!(threads.len(), 5 * 7);
    assert_eq!(threads, tasks, "task actors reordered events");
    assert_eq!(threads, mixed, "mixing actor kinds reordered events");
    assert_eq!(t_end, k_end);
    assert_eq!(t_end, m_end);
    // Same dispatch decisions, whichever kind resumes.
    assert_eq!(t_stats.events, k_stats.events);
    assert_eq!(t_stats.inplace, k_stats.inplace);
}

#[test]
fn task_runs_use_no_threads_and_no_handoffs() {
    let (_, _, s) = run_whole(Kind::Tasks);
    assert_eq!(s.thread_spawns, 0);
    assert_eq!(s.handoffs, 0);
    assert_eq!((s.spun, s.parked), (0, 0));
    assert_eq!(s.task_spawns, 5);
    assert_eq!(s.task_polls, s.events, "every dispatch polls one task");
    assert!(s.inplace > 0);

    let (_, _, s) = run_whole(Kind::Threads);
    assert_eq!(s.thread_spawns, 5);
    assert_eq!(s.task_spawns, 0);
    assert_eq!(s.task_polls, 0);
    assert!(s.handoffs > 0 && s.handoffs <= s.events);
    // Host-timing split: every handoff either found its successor
    // polling or woke it from its condvar.
    assert_eq!(s.spun + s.parked, s.handoffs);

    let (_, _, s) = run_whole(Kind::Mixed);
    assert_eq!(s.spun + s.parked, s.handoffs);
}

#[test]
#[should_panic(expected = "simulation actor 'boom' panicked: intentional")]
fn task_panic_propagates() {
    let sim = Simulation::new();
    sim.spawn_task("boom", |mut ctx| async move {
        ctx.sleep(Nanos(5)).await;
        panic!("intentional");
    });
    sim.spawn_task("bystander", |mut ctx| async move {
        ctx.sleep(Nanos(50)).await;
    });
    sim.run();
}

#[test]
#[should_panic(expected = "blocking ActorCtx wait called from task actor 'sync'")]
fn blocking_delay_inside_a_task_panics() {
    let sim = Simulation::new();
    sim.spawn_task("sync", |mut ctx| async move {
        ctx.delay(Nanos(5));
    });
    sim.run();
}

#[test]
#[should_panic(expected = "a blocking simulation call suspended")]
fn block_on_inside_a_task_panics() {
    let sim = Simulation::new();
    sim.spawn_task("wrapped", |mut ctx| async move {
        // Another actor is due first, so the sleep must park.
        block_on(ctx.sleep(Nanos(10)));
    });
    sim.spawn_task("first", |mut ctx| async move {
        ctx.sleep(Nanos(1)).await;
    });
    sim.run();
}

/// A future that is never ready and never parks in the run queue.
struct Forever;

impl Future for Forever {
    type Output = ();
    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        Poll::Pending
    }
}

#[test]
#[should_panic(expected = "suspended on a future that is not a simulation sleep")]
fn foreign_future_inside_a_task_is_reported() {
    let sim = Simulation::new();
    sim.spawn_task("stuck", |_ctx| Forever);
    sim.run();
}
