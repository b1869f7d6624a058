//! The discrete-event conductor.
//!
//! The conductor admits exactly one actor at a time: whenever an actor
//! waits (via [`ActorCtx::delay`] / [`ActorCtx::wait_until`], or by
//! awaiting [`ActorCtx::sleep`] / [`ActorCtx::sleep_until`]) or
//! finishes, the conductor advances virtual time to the earliest
//! pending wakeup and resumes that actor. Ties are broken FIFO by a
//! global sequence number, so a run is fully deterministic for a fixed
//! set of actors and seeds.
//!
//! ## Thread actors and task actors
//!
//! The caller of [`Simulation::run`] is the only conductor, and every
//! actor runs on its OS thread. An actor is one of two kinds, sharing
//! one `(wake, seq, id)` run queue and one dispatch order:
//!
//! * A **thread actor** ([`Simulation::spawn`]) runs straight-line code
//!   on a fiber, a stack of its own (2 MiB, with a guard page below
//!   it). A wait suspends the fiber back to the conductor, and resuming
//!   it is a stack switch, not a wake of another OS thread.
//! * A **task actor** ([`Simulation::spawn_task`]) is a `Send` future
//!   that the conductor polls. Resuming it costs one poll.
//!
//! Both kinds share the in-place fast path: a wait that no other actor
//! could interleave with just advances the clock and keeps running.
//!
//! Blocking code and async code share one body per operation: an
//! `async fn` that awaits [`ActorCtx::sleep`]. On a thread actor the
//! sleep suspends the fiber inside `poll` and always completes, so a
//! synchronous wrapper is just [`block_on`]. On a task actor the sleep
//! parks the task in the run queue and returns `Pending` to the
//! conductor.
//!
//! Shared simulation state (the SSD model, the kernel, …) can be protected
//! by ordinary mutexes — they are never contended because only one actor
//! executes at any moment — as long as no guard is held across a wait.
//! All actors share the conductor's OS thread, so an actor that waits
//! holding a guard deadlocks the run as soon as another actor takes
//! that lock, as it did when thread actors had threads of their own.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::{pin, Pin};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

use parking_lot::Mutex;

use crate::fiber::{self, Fiber, Resumed};
use crate::time::Nanos;

/// Identifies an actor within one [`Simulation`].
pub type ActorId = u64;

type TaskFuture = Pin<Box<dyn Future<Output = ()> + Send>>;

/// What the conductor resumes.
enum Actor {
    /// A thread actor's fiber.
    Fiber(Fiber),
    /// A task actor's future.
    Task(TaskFuture),
}

/// One actor's entry in `SimState::actors`.
enum Slot {
    /// A live actor. `actor` is `None` while the conductor runs it
    /// (it owns the actor outside the state lock).
    Live { actor: Option<Actor>, name: String },
    /// A finished actor, already dropped.
    Done,
}

/// Engine self-counters, read with [`Simulation::stats`]. Every
/// increment happens under the state lock the engine already holds,
/// and every count is fixed by the scenario.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Run-queue entries dispatched (each resumes one actor).
    pub events: u64,
    /// Waits satisfied by advancing the clock in place, with no
    /// dispatch.
    pub inplace: u64,
    /// Dispatches that switched to a thread actor's fiber.
    pub handoffs: u64,
    /// Polls of task-actor futures.
    pub task_polls: u64,
    /// Thread actors spawned.
    pub thread_spawns: u64,
    /// Task actors spawned.
    pub task_spawns: u64,
}

struct SimState {
    /// Current virtual time.
    now: Nanos,
    /// Min-heap of (wake time, sequence, actor) — the actor run queue.
    waiting: BinaryHeap<Reverse<(Nanos, u64, ActorId)>>,
    /// The actor the conductor is running, if any.
    current: Option<ActorId>,
    /// Number of spawned actors that have not finished.
    live: usize,
    /// Monotone tie-breaker for FIFO ordering of equal wake times.
    next_seq: u64,
    /// Why the run failed (an actor panicked), if it did.
    failure: Option<String>,
    /// Per-actor slots, indexed by `ActorId`.
    actors: Vec<Slot>,
    /// Set by a wait that parks its actor in the run queue; cleared by
    /// the conductor after every turn.
    parked: bool,
    stats: SimStats,
}

impl SimState {
    /// The shared half of every wait at `t`. Advances the clock in place
    /// and returns `None` when the conductor would hand the turn
    /// straight back to `id`; otherwise parks `id` in the run queue and
    /// returns its wake time.
    ///
    /// The in-place comparison must be inclusive: an actor already
    /// waiting at exactly that time has an earlier FIFO sequence number
    /// and must run first.
    fn advance_or_park(&mut self, id: ActorId, t: Nanos) -> Option<Nanos> {
        debug_assert_eq!(self.current, Some(id));
        let eff = t.max(self.now);
        let blocked = self.waiting.peek().is_some_and(|e| e.0 .0 <= eff);
        if !blocked {
            self.now = eff;
            self.stats.inplace += 1;
            return None;
        }
        self.enqueue(eff, id);
        self.parked = true;
        Some(eff)
    }

    /// Enqueue `id` to wake at `t` (clamped to `now` for determinism).
    fn enqueue(&mut self, t: Nanos, id: ActorId) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.waiting.push(Reverse((t.max(self.now), seq, id)));
    }

    /// Registers a new actor that will run at `start`, built by `actor`
    /// from its id; returns the id.
    fn admit(
        &mut self,
        start: Nanos,
        name: &str,
        actor: impl FnOnce(ActorId) -> Option<Actor>,
    ) -> ActorId {
        if start < self.now {
            panic!(
                "spawn_at schedules actor '{name}' in the past: start {start} < now {} \
                 (events at {start} have already been dispatched; spawning behind the \
                 clock would reorder the run queue)",
                self.now
            );
        }
        let id = self.actors.len() as ActorId;
        self.actors.push(Slot::Live {
            actor: actor(id),
            name: name.to_string(),
        });
        self.live += 1;
        id
    }

    /// One dispatch: pops the earliest waiting actor, advances time,
    /// and hands the actor out for the conductor to run with the lock
    /// released and then settle with [`SimState::end_turn`]. `None`
    /// once nothing is left to run.
    fn next_turn(&mut self) -> Option<Turn> {
        loop {
            debug_assert!(self.current.is_none());
            let Some(&Reverse((t, _, id))) = self.waiting.peek() else {
                if self.live > 0 {
                    panic!(
                        "simulation deadlock: {} live actor(s) but none runnable \
                         (an actor blocked outside the simulation primitives?)",
                        self.live
                    );
                }
                return None;
            };
            self.waiting.pop();
            let Slot::Live { actor, .. } = &mut self.actors[id as usize] else {
                // A task that parked and then panicked out of a
                // `block_on` left this entry behind; it no longer runs.
                continue;
            };
            let actor = actor.take().expect("actor dispatched while running");
            self.now = self.now.max(t);
            self.current = Some(id);
            self.stats.events += 1;
            match actor {
                Actor::Fiber(_) => self.stats.handoffs += 1,
                Actor::Task(_) => self.stats.task_polls += 1,
            }
            return Some(Turn { id, actor });
        }
    }

    /// Settles a turn handed out by [`SimState::next_turn`]: puts a
    /// parked actor back in its slot, or retires it.
    fn end_turn(&mut self, id: ActorId, outcome: Outcome) {
        self.current = None;
        let parked = std::mem::take(&mut self.parked);
        let Slot::Live { actor, name } = &mut self.actors[id as usize] else {
            unreachable!("actor {id} ran from a retired slot");
        };
        let failure = match outcome {
            Outcome::Suspended(a) if parked => {
                *actor = Some(a);
                return;
            }
            Outcome::Suspended(_) => Some(format!(
                "simulation task '{name}' suspended on a future that is not a \
                 simulation sleep"
            )),
            Outcome::Finished => None,
            Outcome::Panicked(msg) => Some(format!("simulation actor '{name}' panicked: {msg}")),
        };
        self.actors[id as usize] = Slot::Done;
        self.live -= 1;
        if let Some(f) = failure {
            self.failure.get_or_insert(f);
        }
    }
}

struct Inner {
    state: Mutex<SimState>,
    /// Thread actors run on baton fibers (OS threads) even where stack
    /// fibers exist.
    #[cfg(test)]
    baton: bool,
}

/// An actor taken out of its slot, to run with the state lock
/// released.
struct Turn {
    id: ActorId,
    actor: Actor,
}

/// How one turn of an actor ended.
enum Outcome {
    /// The actor waits; it is handed back.
    Suspended(Actor),
    /// The actor finished (and is already dropped).
    Finished,
    /// The actor panicked, with this message.
    Panicked(String),
}

impl Turn {
    /// Runs the actor until it waits or finishes. Must be called without
    /// the state lock: the actor locks it in every wait. A finished
    /// actor is dropped here too, still outside the lock: it owns actor
    /// state (user threads, DMA buffers) whose drops may lock.
    fn run(self) -> Outcome {
        match self.actor {
            Actor::Fiber(mut fiber) => match fiber.resume() {
                Resumed::Suspended => Outcome::Suspended(Actor::Fiber(fiber)),
                Resumed::Finished(Ok(())) => Outcome::Finished,
                Resumed::Finished(Err(payload)) => {
                    Outcome::Panicked(panic_message(payload.as_ref()).to_string())
                }
            },
            Actor::Task(mut fut) => {
                let polled = catch_unwind(AssertUnwindSafe(|| {
                    fut.as_mut().poll(&mut Context::from_waker(Waker::noop()))
                }));
                match polled {
                    Ok(Poll::Pending) => Outcome::Suspended(Actor::Task(fut)),
                    Ok(Poll::Ready(())) => Outcome::Finished,
                    Err(payload) => Outcome::Panicked(panic_message(payload.as_ref()).to_string()),
                }
            }
        }
    }
}

impl Inner {
    /// Conducts until the run quiesces: runs each popped actor's turn
    /// with the state lock released, then settles it.
    fn drive(&self) {
        let mut state = self.state.lock();
        assert!(
            state.current.is_none(),
            "Simulation::run called while the simulation is running"
        );
        while let Some(turn) = state.next_turn() {
            drop(state);
            let id = turn.id;
            let outcome = turn.run();
            state = self.state.lock();
            state.end_turn(id, outcome);
        }
    }

    /// A fiber that runs `body`.
    fn fiber(&self, body: fiber::Body) -> Fiber {
        #[cfg(test)]
        if self.baton {
            return Fiber::baton(body);
        }
        Fiber::new(body)
    }

    /// Panics with the recorded failure, if any actor failed.
    fn check_failure(&self) {
        let failure = self.state.lock().failure.clone();
        if let Some(f) = failure {
            panic!("{f}");
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    match payload.downcast_ref::<&str>() {
        Some(s) => s,
        None => payload
            .downcast_ref::<String>()
            .map_or("<non-string payload>", String::as_str),
    }
}

/// A deterministic discrete-event simulation.
///
/// Spawn actors with [`Simulation::spawn`] / [`Simulation::spawn_task`]
/// (and their `_at` forms), then call [`Simulation::run`] to execute
/// them to completion. After `run` returns, [`Simulation::now`] reports
/// the final virtual time.
///
/// ```rust
/// use bypassd_sim::{Simulation, Nanos};
/// let sim = Simulation::new();
/// sim.spawn("a", |ctx| ctx.delay(Nanos(10)));
/// sim.spawn_task("b", |mut ctx| async move { ctx.sleep(Nanos(5)).await });
/// sim.run();
/// assert_eq!(sim.now(), Nanos(10));
/// ```
pub struct Simulation {
    inner: Arc<Inner>,
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for Simulation {
    /// Clones the *handle*: both values drive the same simulation.
    /// Lets long-lived helpers (e.g. a router that spawns actors
    /// mid-run) hold the engine without threading `&Simulation` through
    /// every call site.
    fn clone(&self) -> Self {
        Simulation {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl Simulation {
    /// Creates an empty simulation at virtual time zero.
    pub fn new() -> Self {
        Simulation {
            inner: Arc::new(Inner {
                state: Mutex::new(SimState {
                    now: Nanos::ZERO,
                    waiting: BinaryHeap::new(),
                    current: None,
                    live: 0,
                    next_seq: 0,
                    failure: None,
                    actors: Vec::new(),
                    parked: false,
                    stats: SimStats::default(),
                }),
                #[cfg(test)]
                baton: false,
            }),
        }
    }

    /// A simulation whose thread actors run on baton fibers (one OS
    /// thread each), whatever the target.
    #[cfg(test)]
    pub(crate) fn with_baton_fibers() -> Self {
        let mut sim = Self::new();
        Arc::get_mut(&mut sim.inner)
            .expect("fresh simulation")
            .baton = true;
        sim
    }

    /// Spawns a thread actor that becomes runnable at virtual time zero.
    ///
    /// # Panics
    /// Panics if the simulation clock has already advanced past zero; see
    /// [`Simulation::spawn_at`].
    pub fn spawn<F>(&self, name: &str, f: F) -> ActorId
    where
        F: FnOnce(&mut ActorCtx) + Send + 'static,
    {
        self.spawn_at(Nanos::ZERO, name, f)
    }

    /// Spawns a thread actor that becomes runnable at virtual time
    /// `start`. Its fiber is made now and first runs when the
    /// conductor dispatches it.
    ///
    /// May be called before [`Simulation::run`] or from inside another
    /// actor (see [`ActorCtx::spawn_at`]).
    ///
    /// # Panics
    /// Panics if `start` is earlier than the current virtual time:
    /// admitting an actor into the past would silently reorder events
    /// that have already been dispatched, so it traps instead.
    pub fn spawn_at<F>(&self, start: Nanos, name: &str, f: F) -> ActorId
    where
        F: FnOnce(&mut ActorCtx) + Send + 'static,
    {
        // Weak: a fiber that never starts must not keep the simulation
        // (which owns the fiber) alive.
        let inner = Arc::downgrade(&self.inner);
        let ctx_name = name.to_string();
        let mut state = self.inner.state.lock();
        let id = state.admit(start, name, |id| {
            let body = Box::new(move || {
                let mut ctx = ActorCtx {
                    inner: inner.upgrade().expect("a running simulation is alive"),
                    id,
                    name: ctx_name,
                    now: start,
                    task: false,
                };
                f(&mut ctx);
            });
            Some(Actor::Fiber(self.inner.fiber(body)))
        });
        state.enqueue(start, id);
        state.stats.thread_spawns += 1;
        id
    }

    /// Spawns a task actor that becomes runnable at virtual time zero.
    ///
    /// # Panics
    /// As [`Simulation::spawn_task_at`].
    pub fn spawn_task<F, Fut>(&self, name: &str, f: F) -> ActorId
    where
        F: FnOnce(ActorCtx) -> Fut,
        Fut: Future<Output = ()> + Send + 'static,
    {
        self.spawn_task_at(Nanos::ZERO, name, f)
    }

    /// Spawns a task actor that becomes runnable at virtual time
    /// `start`. `f` receives the task's context and returns its body
    /// (typically an `async move` block); the body runs only when the
    /// conductor first dispatches the task. Inside it, wait with
    /// `ctx.sleep(d).await`: the blocking [`ActorCtx::delay`] panics on
    /// a task.
    ///
    /// # Panics
    /// Panics if `start` is earlier than the current virtual time (see
    /// [`Simulation::spawn_at`]).
    pub fn spawn_task_at<F, Fut>(&self, start: Nanos, name: &str, f: F) -> ActorId
    where
        F: FnOnce(ActorCtx) -> Fut,
        Fut: Future<Output = ()> + Send + 'static,
    {
        let id = self.inner.state.lock().admit(start, name, |_| None);
        let fut: TaskFuture = Box::pin(f(ActorCtx {
            inner: Arc::clone(&self.inner),
            id,
            name: name.to_string(),
            now: start,
            task: true,
        }));
        let mut state = self.inner.state.lock();
        if let Slot::Live { actor, .. } = &mut state.actors[id as usize] {
            *actor = Some(Actor::Task(fut));
        }
        state.enqueue(start, id);
        state.stats.task_spawns += 1;
        id
    }

    /// Runs the simulation until every actor has finished, resuming
    /// each on the calling OS thread.
    ///
    /// # Panics
    /// Panics if any actor panicked, on deadlock (an actor blocked
    /// outside the simulation primitives), or if the simulation is
    /// already running.
    pub fn run(&self) {
        self.inner.drive();
        self.inner.check_failure();
    }

    /// The current virtual time (final time, once [`Simulation::run`] has
    /// returned).
    pub fn now(&self) -> Nanos {
        self.inner.state.lock().now
    }

    /// Number of actors that have not finished.
    pub fn live(&self) -> usize {
        self.inner.state.lock().live
    }

    /// The engine's self-counters so far.
    pub fn stats(&self) -> SimStats {
        self.inner.state.lock().stats
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.inner.state.lock();
        f.debug_struct("Simulation")
            .field("now", &state.now)
            .field("live", &state.live)
            .finish()
    }
}

/// Drives `fut` to completion on the calling thread actor: the
/// synchronous shell around an operation's single `async` body. Every
/// simulation wait completes inside `poll` on a thread actor, so one
/// poll suffices.
///
/// # Panics
/// Panics if the future suspends, which means a blocking call was made
/// from a task actor (await the operation's async form instead).
pub fn block_on<F: Future>(fut: F) -> F::Output {
    match pin!(fut).poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(v) => v,
        Poll::Pending => panic!(
            "a blocking simulation call suspended: it was made from a task actor \
             (await the operation's async form instead)"
        ),
    }
}

/// Handle through which an actor interacts with virtual time.
///
/// A thread actor's closure borrows one; a task actor's body owns one.
/// It must not be sent to other actors.
pub struct ActorCtx {
    inner: Arc<Inner>,
    id: ActorId,
    name: String,
    /// Cache of the conductor's clock. Valid whenever this actor runs:
    /// virtual time only advances in the conductor (while no actor
    /// runs) or in this actor's own in-place fast path, so nothing else
    /// can move the clock while we execute.
    now: Nanos,
    /// Task actor (polled by the conductor) rather than thread actor.
    task: bool,
}

impl ActorCtx {
    /// The current virtual time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// This actor's identifier.
    pub fn id(&self) -> ActorId {
        self.id
    }

    /// This actor's name (for diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Advances this actor's virtual time by `d`, yielding to any actor
    /// scheduled earlier.
    ///
    /// # Panics
    /// Panics on a task actor (see [`ActorCtx::wait_until`]).
    pub fn delay(&mut self, d: Nanos) {
        let t = self.now() + d;
        self.wait_until(t);
    }

    /// Blocks this thread actor until virtual time `t` (no-op if `t`
    /// has passed, but still yields to equal-time actors queued
    /// earlier). A wait that must yield suspends the actor's fiber
    /// until the conductor pops its entry.
    ///
    /// # Panics
    /// Panics on a task actor: a task has no fiber to suspend, and must
    /// not block the conductor. Tasks await [`ActorCtx::sleep_until`].
    pub fn wait_until(&mut self, t: Nanos) {
        assert!(
            !self.task,
            "blocking ActorCtx wait called from task actor '{}': \
             await `ctx.sleep(..)` / `ctx.sleep_until(..)` instead",
            self.name
        );
        let wake = {
            let mut state = self.inner.state.lock();
            match state.advance_or_park(self.id, t) {
                Some(wake) => wake,
                None => {
                    self.now = state.now;
                    return;
                }
            }
        };
        Fiber::suspend();
        // The conductor resumed us by popping our entry, so the clock
        // reads `wake` (nothing moves it past a queued entry).
        self.now = wake;
    }

    /// Yields to any other actor scheduled at the current time.
    pub fn yield_now(&mut self) {
        let now = self.now();
        self.wait_until(now);
    }

    /// Waits `d` of virtual time: the awaitable form of
    /// [`ActorCtx::delay`], usable from both actor kinds.
    pub fn sleep(&mut self, d: Nanos) -> Sleep<'_> {
        let t = self.now + d;
        self.sleep_until(t)
    }

    /// Waits until virtual time `t`: the awaitable form of
    /// [`ActorCtx::wait_until`]. On a thread actor the wait suspends
    /// the fiber inside `poll`; on a task actor it parks the task in
    /// the run queue until the conductor resumes it.
    pub fn sleep_until(&mut self, t: Nanos) -> Sleep<'_> {
        Sleep {
            ctx: self,
            until: t,
            wake: None,
        }
    }

    /// Spawns a new thread actor runnable at time `start`.
    ///
    /// # Panics
    /// Panics if `start` is earlier than the current virtual time (see
    /// [`Simulation::spawn_at`]).
    pub fn spawn_at<F>(&self, start: Nanos, name: &str, f: F) -> ActorId
    where
        F: FnOnce(&mut ActorCtx) + Send + 'static,
    {
        self.sim().spawn_at(start, name, f)
    }

    /// Spawns a new task actor runnable at time `start` (see
    /// [`Simulation::spawn_task_at`]).
    ///
    /// # Panics
    /// Panics if `start` is earlier than the current virtual time.
    pub fn spawn_task_at<F, Fut>(&self, start: Nanos, name: &str, f: F) -> ActorId
    where
        F: FnOnce(ActorCtx) -> Fut,
        Fut: Future<Output = ()> + Send + 'static,
    {
        self.sim().spawn_task_at(start, name, f)
    }

    fn sim(&self) -> Simulation {
        Simulation {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl std::fmt::Debug for ActorCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActorCtx")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("task", &self.task)
            .finish()
    }
}

/// Future returned by [`ActorCtx::sleep`] / [`ActorCtx::sleep_until`].
#[must_use = "a sleep does nothing unless awaited"]
#[derive(Debug)]
pub struct Sleep<'a> {
    ctx: &'a mut ActorCtx,
    until: Nanos,
    /// Set once a task parked itself: its resume time.
    wake: Option<Nanos>,
}

impl Future for Sleep<'_> {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let this = &mut *self;
        if let Some(wake) = this.wake {
            // Only the conductor polls a parked task, and only when it
            // pops the task's entry: the clock now reads `wake` (nothing
            // earlier was left in the queue, and nothing moves the clock
            // past a queued entry).
            this.ctx.now = wake;
            return Poll::Ready(());
        }
        if !this.ctx.task {
            this.ctx.wait_until(this.until);
            return Poll::Ready(());
        }
        let mut state = this.ctx.inner.state.lock();
        match state.advance_or_park(this.ctx.id, this.until) {
            None => {
                this.ctx.now = state.now;
                Poll::Ready(())
            }
            Some(wake) => {
                this.wake = Some(wake);
                Poll::Pending
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn single_actor_advances_time() {
        let sim = Simulation::new();
        sim.spawn("a", |ctx| {
            assert_eq!(ctx.now(), Nanos::ZERO);
            ctx.delay(Nanos(100));
            assert_eq!(ctx.now(), Nanos(100));
            ctx.delay(Nanos(50));
            assert_eq!(ctx.now(), Nanos(150));
        });
        sim.run();
        assert_eq!(sim.now(), Nanos(150));
    }

    #[test]
    fn actors_interleave_in_time_order() {
        let sim = Simulation::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let l1 = Arc::clone(&log);
        sim.spawn("fast", move |ctx| {
            for i in 0..3 {
                ctx.delay(Nanos(10));
                l1.lock().push(("fast", i, ctx.now()));
            }
        });
        let l2 = Arc::clone(&log);
        sim.spawn("slow", move |ctx| {
            for i in 0..2 {
                ctx.delay(Nanos(15));
                l2.lock().push(("slow", i, ctx.now()));
            }
        });
        sim.run();
        let log = log.lock();
        let order: Vec<_> = log.iter().map(|(n, i, t)| (*n, *i, t.0)).collect();
        assert_eq!(
            order,
            vec![
                ("fast", 0, 10),
                ("slow", 0, 15),
                ("fast", 1, 20),
                // Both wake at 30; "slow" enqueued its wait earlier (at
                // t=15 vs t=20), so FIFO ordering runs it first.
                ("slow", 1, 30),
                ("fast", 2, 30),
            ]
        );
    }

    #[test]
    fn equal_times_run_fifo() {
        let sim = Simulation::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for name in ["a", "b", "c"] {
            let l = Arc::clone(&log);
            sim.spawn(name, move |ctx| {
                ctx.delay(Nanos(5));
                l.lock().push(name);
            });
        }
        sim.run();
        assert_eq!(*log.lock(), vec!["a", "b", "c"]);
    }

    #[test]
    fn spawn_at_delays_start() {
        let sim = Simulation::new();
        let started_at = Arc::new(AtomicU64::new(0));
        let s = Arc::clone(&started_at);
        sim.spawn_at(Nanos(500), "late", move |ctx| {
            s.store(ctx.now().0, Ordering::SeqCst);
        });
        sim.run();
        assert_eq!(started_at.load(Ordering::SeqCst), 500);
    }

    #[test]
    fn actor_can_spawn_actor() {
        let sim = Simulation::new();
        let result = Arc::new(AtomicU64::new(0));
        let r = Arc::clone(&result);
        sim.spawn("parent", move |ctx| {
            ctx.delay(Nanos(10));
            let r2 = Arc::clone(&r);
            ctx.spawn_at(Nanos(25), "child", move |cctx| {
                r2.store(cctx.now().0, Ordering::SeqCst);
            });
            ctx.delay(Nanos(100));
        });
        sim.run();
        assert_eq!(result.load(Ordering::SeqCst), 25);
        assert_eq!(sim.now(), Nanos(110));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn spawn_into_the_past_traps() {
        let sim = Simulation::new();
        sim.spawn("clock-mover", |ctx| ctx.delay(Nanos(100)));
        sim.run();
        // The clock is at 100; scheduling an actor at 50 must trap
        // rather than silently reorder already-dispatched events.
        sim.spawn_at(Nanos(50), "ghost", |_ctx| {});
    }

    #[test]
    #[should_panic(expected = "panicked")]
    fn actor_spawning_into_the_past_traps_and_propagates() {
        let sim = Simulation::new();
        sim.spawn("late-spawner", move |ctx| {
            ctx.delay(Nanos(100));
            ctx.spawn_at(Nanos(50), "ghost", |_ctx| {});
        });
        sim.run();
    }

    #[test]
    fn wait_until_past_time_does_not_go_backwards() {
        let sim = Simulation::new();
        sim.spawn("a", |ctx| {
            ctx.delay(Nanos(100));
            ctx.wait_until(Nanos(10));
            assert_eq!(ctx.now(), Nanos(100));
        });
        sim.run();
    }

    #[test]
    fn deterministic_across_runs() {
        fn run_once() -> Vec<(u64, u64)> {
            let sim = Simulation::new();
            let log = Arc::new(Mutex::new(Vec::new()));
            for id in 0..4u64 {
                let l = Arc::clone(&log);
                sim.spawn(&format!("w{id}"), move |ctx| {
                    let mut step = 7 + id * 3;
                    for _ in 0..5 {
                        ctx.delay(Nanos(step));
                        l.lock().push((id, ctx.now().0));
                        step = step * 31 % 97 + 1;
                    }
                });
            }
            sim.run();
            let v = log.lock().clone();
            v
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    #[should_panic(expected = "panicked")]
    fn actor_panic_propagates() {
        let sim = Simulation::new();
        sim.spawn("boom", |_ctx| panic!("intentional"));
        sim.run();
    }

    #[test]
    fn yield_now_lets_same_time_actor_run() {
        let sim = Simulation::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let l1 = Arc::clone(&log);
        sim.spawn("first", move |ctx| {
            l1.lock().push("first-before");
            ctx.yield_now();
            l1.lock().push("first-after");
        });
        let l2 = Arc::clone(&log);
        sim.spawn("second", move |_ctx| {
            l2.lock().push("second");
        });
        sim.run();
        assert_eq!(*log.lock(), vec!["first-before", "second", "first-after"]);
    }
}
