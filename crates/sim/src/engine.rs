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
//! An actor is one of two kinds, sharing one `(wake, seq, id)` run
//! queue and one dispatch order:
//!
//! * A **thread actor** ([`Simulation::spawn`]) is a real OS thread
//!   running straight-line code. Resuming it is a targeted handoff: a
//!   waiting actor polls a lock-free mirror of the run token, yielding
//!   its CPU between loads, for a few ms (`SPIN_ROUNDS`), then parks on
//!   its own condvar; the conductor wakes exactly that one, and only if
//!   it parked. Waiters poll only while at most
//!   8 × `available_parallelism()` thread actors are live.
//! * A **task actor** ([`Simulation::spawn_task`]) is a `Send` future.
//!   Whichever thread is conducting polls it inline: the caller of
//!   [`Simulation::run`], or a thread actor that is handing off.
//!   Resuming it costs one poll, not an OS wake.
//!
//! Both kinds share the in-place fast path: a wait that no other actor
//! could interleave with just advances the clock and keeps running.
//!
//! Blocking code and async code share one body per operation: an
//! `async fn` that awaits [`ActorCtx::sleep`]. On a thread actor the
//! sleep blocks inside `poll` and always completes, so a synchronous
//! wrapper is just [`block_on`]. On a task actor the sleep parks the
//! task in the run queue and returns `Pending` to the conductor.
//!
//! Shared simulation state (the SSD model, the kernel, …) can be protected
//! by ordinary mutexes — they are never contended because only one actor
//! executes at any moment — as long as no guard is held across a wait.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::{pin, Pin};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::task::{Context, Poll, Waker};
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

use crate::time::Nanos;

/// Identifies an actor within one [`Simulation`].
pub type ActorId = u64;

type TaskFuture = Pin<Box<dyn Future<Output = ()> + Send>>;

/// Polls of the run-token mirror before a waiting thread actor parks
/// (a few ms of `yield_now`).
const SPIN_ROUNDS: u32 = 4_000;
/// `Inner::token` while no actor holds the run token.
const NOBODY: u64 = u64::MAX;
/// `Inner::token` while the run has quiesced: pollers park.
const QUIESCED: u64 = u64::MAX - 1;

/// How the conductor resumes one actor.
enum Slot {
    /// An OS-thread actor and its condvar; the flag is set while it is
    /// parked there (not polling).
    Thread(Arc<Condvar>, bool),
    /// A task actor. `fut` is `None` while the task is being polled
    /// (the conductor owns it outside the state lock).
    Task {
        fut: Option<TaskFuture>,
        name: String,
    },
    /// A finished task whose future has been dropped.
    Done,
}

/// Engine self-counters, read with [`Simulation::stats`]. Every
/// increment happens under the state lock the engine already holds.
/// All but two are fixed by the scenario: `spun` and `parked` split
/// `handoffs` by host timing, so they differ from run to run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Run-queue entries dispatched (each resumes one actor).
    pub events: u64,
    /// Waits satisfied by advancing the clock in place, with no
    /// dispatch.
    pub inplace: u64,
    /// Dispatches that woke a different OS thread.
    pub handoffs: u64,
    /// Handoffs whose successor had not parked (still polling, or not
    /// yet waiting): no futex wake.
    pub spun: u64,
    /// Handoffs whose successor had parked and needed a futex wake.
    pub parked: u64,
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
    /// The actor currently holding the run token, if any.
    current: Option<ActorId>,
    /// Number of spawned actors that have not finished.
    live: usize,
    /// How many of them are thread actors.
    live_threads: usize,
    /// Monotone tie-breaker for FIFO ordering of equal wake times.
    next_seq: u64,
    /// Why the run failed (an actor panicked), if it did.
    failure: Option<String>,
    /// Per-actor resume handles, indexed by `ActorId`.
    actors: Vec<Slot>,
    /// Set by a task's sleep when it parks itself in the run queue;
    /// cleared by the conductor after every poll.
    task_parked: bool,
    /// True while `drive` sleeps on the control condvar. Quiescence
    /// signals the condvar only then: a notify costs a futex syscall
    /// even with no waiter, and a run the caller conducts to the end
    /// itself has none.
    driver_waiting: bool,
    stats: SimStats,
}

impl SimState {
    /// The shared half of every wait at `t`. Advances the clock in place
    /// and returns `None` when the conductor would hand the token
    /// straight back to `id`; otherwise enqueues `id` and returns its
    /// wake time.
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
        Some(eff)
    }

    /// Enqueue `id` to wake at `t` (clamped to `now` for determinism).
    fn enqueue(&mut self, t: Nanos, id: ActorId) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.waiting.push(Reverse((t.max(self.now), seq, id)));
    }

    /// Settles a task turn handed out by [`Inner::next_turn`]: releases
    /// the run token and re-parks the task, or retires it.
    fn end_turn(&mut self, token: &AtomicU64, turn: PolledTurn) {
        self.set_current(token, None);
        let parked = std::mem::take(&mut self.task_parked);
        let PolledTurn { id, name, outcome } = turn;
        let failure = match outcome {
            TaskOutcome::Pending(fut) if parked => {
                self.actors[id as usize] = Slot::Task {
                    fut: Some(fut),
                    name,
                };
                return;
            }
            TaskOutcome::Pending(_) => Some(format!(
                "simulation task '{name}' suspended on a future that is not a \
                 simulation sleep"
            )),
            TaskOutcome::Finished => None,
            TaskOutcome::Panicked(f) => Some(f),
        };
        self.actors[id as usize] = Slot::Done;
        self.live -= 1;
        if let Some(f) = failure {
            self.failure.get_or_insert(f);
        }
    }

    /// Hands the run token to `id` (or to nobody), mirroring it in
    /// `token` for polling waiters.
    fn set_current(&mut self, token: &AtomicU64, id: Option<ActorId>) {
        self.current = id;
        // ordering: a hint; waiters re-read `current` under the lock.
        token.store(id.unwrap_or(NOBODY), Ordering::Relaxed);
    }

    /// Registers a new actor that will run at `start`; returns its id.
    fn admit(&mut self, start: Nanos, name: &str, slot: Slot) -> ActorId {
        if start < self.now {
            panic!(
                "spawn_at schedules actor '{name}' in the past: start {start} < now {} \
                 (events at {start} have already been dispatched; spawning behind the \
                 clock would reorder the run queue)",
                self.now
            );
        }
        let id = self.actors.len() as ActorId;
        self.actors.push(slot);
        self.live += 1;
        id
    }
}

struct Inner {
    state: Mutex<SimState>,
    /// Control condvar: signalled when the simulation quiesces while
    /// `run` is waiting on it (`SimState::driver_waiting`).
    cond: Condvar,
    threads: Mutex<Vec<JoinHandle<()>>>,
    /// Lock-free mirror of `SimState::current`: the actor id, [`NOBODY`]
    /// or [`QUIESCED`]. Waiting thread actors poll it.
    token: AtomicU64,
    /// Waiters poll only while live thread actors are at most this.
    spin_cap: usize,
}

/// A task actor taken out of its slot, to be polled with the state
/// lock released.
struct TaskTurn {
    id: ActorId,
    fut: TaskFuture,
    name: String,
}

/// A task actor after one poll, to be settled under the state lock by
/// [`SimState::end_turn`].
struct PolledTurn {
    id: ActorId,
    name: String,
    outcome: TaskOutcome,
}

/// How one poll of a task actor ended.
enum TaskOutcome {
    /// The task returned `Pending`; its future is handed back.
    Pending(TaskFuture),
    /// The task finished (its future is already dropped).
    Finished,
    /// The task panicked, with this failure message.
    Panicked(String),
}

impl TaskTurn {
    /// Polls the task once. Must be called without the state lock: the
    /// task locks it in every sleep. A finished future is dropped here
    /// too, still outside the lock: it owns actor state (user threads,
    /// DMA buffers) whose drops may lock.
    fn poll_once(mut self) -> PolledTurn {
        let polled = catch_unwind(AssertUnwindSafe(|| {
            self.fut
                .as_mut()
                .poll(&mut Context::from_waker(Waker::noop()))
        }));
        let outcome = match polled {
            Ok(Poll::Pending) => TaskOutcome::Pending(self.fut),
            Ok(Poll::Ready(())) => {
                drop(self.fut);
                TaskOutcome::Finished
            }
            Err(payload) => {
                drop(self.fut);
                TaskOutcome::Panicked(format!(
                    "simulation actor '{}' panicked: {}",
                    self.name,
                    panic_message(payload.as_ref())
                ))
            }
        };
        PolledTurn {
            id: self.id,
            name: self.name,
            outcome,
        }
    }
}

impl Inner {
    /// One dispatch, run under the state lock by whichever thread holds
    /// the free run token (`current == None`): pops the earliest waiting
    /// actor, advances time, and resumes it.
    ///
    /// * A thread actor is woken (unless it is `me`, which keeps the
    ///   token); returns `None`.
    /// * Nothing left to run: signals the control condvar; returns
    ///   `None`.
    /// * A task actor is returned, for the caller to poll with the lock
    ///   released and then settle with [`SimState::end_turn`].
    ///
    /// Every conducting thread runs the same loop:
    ///
    /// ```text
    /// while let Some(turn) = inner.next_turn(&mut state, me) {
    ///     drop(state);
    ///     let polled = turn.poll_once();
    ///     state = inner.state.lock();
    ///     state.end_turn(&inner.token, polled);
    /// }
    /// ```
    ///
    /// The loop is spelled out at each call site, not wrapped in a
    /// helper taking the guard, so no guard is ever passed into a
    /// function that locks the state again.
    fn next_turn(&self, state: &mut SimState, me: Option<ActorId>) -> Option<TaskTurn> {
        loop {
            debug_assert!(state.current.is_none());
            let Some(&Reverse((t, _, id))) = state.waiting.peek() else {
                if state.live > 0 {
                    panic!(
                        "simulation deadlock: {} live actor(s) but none runnable \
                         (an actor blocked outside the simulation primitives?)",
                        state.live
                    );
                }
                // All done: pollers park, and `run` wakes.
                // ordering: a hint, as in `set_current`.
                self.token.store(QUIESCED, Ordering::Relaxed);
                if state.driver_waiting {
                    self.cond.notify_all();
                }
                return None;
            };
            state.waiting.pop();
            if matches!(state.actors[id as usize], Slot::Done) {
                // A task that parked and then panicked out of a
                // `block_on` left this entry behind; it no longer runs.
                continue;
            }
            state.now = state.now.max(t);
            state.set_current(&self.token, Some(id));
            state.stats.events += 1;
            match &mut state.actors[id as usize] {
                Slot::Thread(parker, parked) => {
                    if me != Some(id) {
                        state.stats.handoffs += 1;
                        if std::mem::take(parked) {
                            parker.notify_one();
                            state.stats.parked += 1;
                        } else {
                            state.stats.spun += 1;
                        }
                    }
                    return None;
                }
                Slot::Task { fut, name } => {
                    let turn = TaskTurn {
                        id,
                        fut: fut.take().expect("task actor resumed while being polled"),
                        name: std::mem::take(name),
                    };
                    state.stats.task_polls += 1;
                    return Some(turn);
                }
                Slot::Done => unreachable!("skipped above"),
            }
        }
    }

    /// Conducts until the run quiesces, sleeping on the control condvar
    /// while a thread actor holds the token.
    fn drive(&self) {
        let mut state = self.state.lock();
        loop {
            if state.current.is_none() {
                while let Some(turn) = self.next_turn(&mut state, None) {
                    drop(state);
                    let polled = turn.poll_once();
                    state = self.state.lock();
                    state.end_turn(&self.token, polled);
                }
                if state.current.is_none() {
                    return;
                }
            }
            state.driver_waiting = true;
            self.cond.wait(&mut state);
            state.driver_waiting = false;
        }
    }

    /// Block the calling thread actor until it holds the run token;
    /// returns the virtual time at which it resumes (so the actor can
    /// cache it). With `spin`, first polls the token mirror without the
    /// state lock, yielding the CPU between loads, then parks.
    fn wait_for_token(&self, id: ActorId, spin: bool) -> Nanos {
        let rounds = if spin { SPIN_ROUNDS } else { 0 };
        for _ in 0..rounds {
            // ordering: a hint; `current` is re-read under the lock.
            let t = self.token.load(Ordering::Relaxed);
            if t == id || t == QUIESCED {
                break;
            }
            std::thread::yield_now();
        }
        let mut state = self.state.lock();
        while state.current != Some(id) {
            let Slot::Thread(parker, parked) = &mut state.actors[id as usize] else {
                unreachable!("actor {id} is not a thread actor");
            };
            *parked = true;
            let parker = Arc::clone(parker);
            parker.wait(&mut state);
        }
        state.now
    }

    /// Panics with the recorded failure, if any actor failed.
    fn check_failure(&self) {
        let failure = self.state.lock().failure.clone();
        if let Some(f) = failure {
            panic!("{f}");
        }
    }

    fn join_threads(&self) {
        let handles: Vec<_> = std::mem::take(&mut *self.threads.lock());
        for h in handles {
            let _ = h.join();
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

/// Passes the run token on when a thread actor finishes, even if it
/// panicked.
struct FinishGuard {
    inner: Arc<Inner>,
    id: ActorId,
    name: String,
}

impl Drop for FinishGuard {
    fn drop(&mut self) {
        let mut state = self.inner.state.lock();
        debug_assert_eq!(state.current, Some(self.id));
        state.set_current(&self.inner.token, None);
        state.live -= 1;
        state.live_threads -= 1;
        if std::thread::panicking() {
            let f = format!("simulation actor '{}' panicked", self.name);
            state.failure.get_or_insert(f);
            // Polling tasks while unwinding would turn a task panic into
            // an abort; the `run` caller conducts instead.
            if state.driver_waiting {
                self.inner.cond.notify_all();
            }
        } else {
            // Conduct on this thread until another actor holds the token.
            while let Some(turn) = self.inner.next_turn(&mut state, None) {
                drop(state);
                let polled = turn.poll_once();
                state = self.inner.state.lock();
                state.end_turn(&self.inner.token, polled);
            }
        }
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
        // Read once per process: `available_parallelism` reads cgroup
        // files, far too slow for the handoff path.
        static SPIN_CAP: OnceLock<usize> = OnceLock::new();
        let spin_cap = *SPIN_CAP
            .get_or_init(|| 8 * std::thread::available_parallelism().map_or(1, |n| n.get()));
        Simulation {
            inner: Arc::new(Inner {
                state: Mutex::new(SimState {
                    now: Nanos::ZERO,
                    waiting: BinaryHeap::new(),
                    current: None,
                    live: 0,
                    live_threads: 0,
                    next_seq: 0,
                    failure: None,
                    actors: Vec::new(),
                    task_parked: false,
                    driver_waiting: false,
                    stats: SimStats::default(),
                }),
                cond: Condvar::new(),
                threads: Mutex::new(Vec::new()),
                token: AtomicU64::new(NOBODY),
                spin_cap,
            }),
        }
    }

    /// A simulation whose waiters poll while at most `spin_cap` thread
    /// actors are live (0: always park).
    #[cfg(test)]
    pub(crate) fn with_spin_cap(spin_cap: usize) -> Self {
        let mut sim = Self::new();
        Arc::get_mut(&mut sim.inner)
            .expect("fresh simulation")
            .spin_cap = spin_cap;
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
    /// `start`.
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
        let id = {
            let mut state = self.inner.state.lock();
            let id = state.admit(start, name, Slot::Thread(Arc::new(Condvar::new()), false));
            state.enqueue(start, id);
            state.live_threads += 1;
            state.stats.thread_spawns += 1;
            id
        };
        let name = name.to_string();
        let thread_inner = Arc::clone(&self.inner);
        let handle = std::thread::Builder::new()
            .name(format!("sim-{name}"))
            .spawn(move || {
                let now = thread_inner.wait_for_token(id, false);
                let mut ctx = ActorCtx {
                    inner: Arc::clone(&thread_inner),
                    id,
                    name: name.clone(),
                    now,
                    task: false,
                };
                let _guard = FinishGuard {
                    inner: thread_inner,
                    id,
                    name,
                };
                f(&mut ctx);
            })
            .expect("failed to spawn simulation actor thread");
        self.inner.threads.lock().push(handle);
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
        let placeholder = Slot::Task {
            fut: None,
            name: name.to_string(),
        };
        let id = self.inner.state.lock().admit(start, name, placeholder);
        let fut: TaskFuture = Box::pin(f(ActorCtx {
            inner: Arc::clone(&self.inner),
            id,
            name: name.to_string(),
            now: start,
            task: true,
        }));
        let mut state = self.inner.state.lock();
        if let Slot::Task { fut: slot, .. } = &mut state.actors[id as usize] {
            *slot = Some(fut);
        }
        state.enqueue(start, id);
        state.stats.task_spawns += 1;
        id
    }

    /// Runs the simulation until every actor has finished.
    ///
    /// # Panics
    /// Panics if any actor panicked, or on deadlock (an actor blocked
    /// outside the simulation primitives).
    pub fn run(&self) {
        self.inner.drive();
        // Join threads so panics/resources are fully settled.
        self.inner.join_threads();
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
    /// Cache of the conductor's clock. Valid whenever this actor holds the
    /// run token: virtual time only advances in the conductor (while no
    /// actor runs) or in this actor's own in-place fast path, so no
    /// other thread can move the clock while we execute.
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
    /// earlier).
    ///
    /// # Panics
    /// Panics on a task actor: blocking would stall the thread that
    /// conducts every other actor. Tasks await [`ActorCtx::sleep_until`].
    pub fn wait_until(&mut self, t: Nanos) {
        assert!(
            !self.task,
            "blocking ActorCtx wait called from task actor '{}': \
             await `ctx.sleep(..)` / `ctx.sleep_until(..)` instead",
            self.name
        );
        let spin = {
            let mut state = self.inner.state.lock();
            if state.advance_or_park(self.id, t).is_none() {
                self.now = state.now;
                return;
            }
            state.set_current(&self.inner.token, None);
            while let Some(turn) = self.inner.next_turn(&mut state, Some(self.id)) {
                drop(state);
                let polled = turn.poll_once();
                state = self.inner.state.lock();
                state.end_turn(&self.inner.token, polled);
            }
            if state.current == Some(self.id) {
                self.now = state.now;
                return;
            }
            state.live_threads <= self.inner.spin_cap
        };
        self.now = self.inner.wait_for_token(self.id, spin);
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
    /// [`ActorCtx::wait_until`]. On a thread actor the wait blocks
    /// inside `poll`; on a task actor it parks the task in the run
    /// queue until the conductor resumes it.
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
                state.task_parked = true;
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
