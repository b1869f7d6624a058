//! Shared machinery for the table/figure harnesses.
//!
//! Every `cargo bench` target in this crate regenerates one table or
//! figure from the paper's evaluation (§6), printing measured values next
//! to the paper's reported ones. Absolute magnitudes are calibrated (the
//! latency constants come from the paper itself); the claim under test is
//! the *shape*: orderings, ratios, crossovers.
//!
//! Set `BYPASSD_BENCH=full` for larger sweeps (more ops, more threads,
//! the 16 GB fmap point); the default quick mode finishes each figure in
//! seconds.

pub mod hostinfo;

use std::sync::Arc;

use parking_lot::Mutex;

use bypassd::System;
use bypassd_backends::{BackendKind, BackendProcess};
use bypassd_kv::{BtreeStore, YcsbGen, YcsbWorkload};
use bypassd_sim::stats::Throughput;
use bypassd_sim::time::Nanos;
use bypassd_sim::Simulation;
use bypassd_trace::Histogram;

/// True when `BYPASSD_BENCH=full`.
pub fn full_mode() -> bool {
    std::env::var("BYPASSD_BENCH").is_ok_and(|v| v == "full")
}

/// Scales an op count by mode.
pub fn ops(quick: u64, full: u64) -> u64 {
    if full_mode() {
        full
    } else {
        quick
    }
}

/// A standard 8 GB system (64 GB in full mode, for the 16 GB fmap row).
pub fn std_system() -> System {
    let cap = if full_mode() { 64u64 << 30 } else { 8u64 << 30 };
    System::builder().capacity(cap).build()
}

/// Runs a closure as a single simulated actor, returning its value.
pub fn run_one<T: Send + 'static>(
    f: impl FnOnce(&mut bypassd_sim::ActorCtx) -> T + Send + 'static,
) -> T {
    let sim = Simulation::new();
    let out = Arc::new(Mutex::new(None));
    let o2 = Arc::clone(&out);
    sim.spawn("bench", move |ctx| {
        *o2.lock() = Some(f(ctx));
    });
    sim.run();
    let mut g = out.lock();
    g.take().expect("actor produced no result")
}

/// Aggregate of a multi-threaded KV run.
#[derive(Debug, Clone)]
pub struct KvRunResult {
    /// Completed operations.
    pub ops: u64,
    /// Virtual duration.
    pub elapsed: Nanos,
    /// Per-op latency.
    pub latency: Histogram,
}

impl KvRunResult {
    /// Throughput in kops/s.
    pub fn kops(&self) -> f64 {
        let mut t = Throughput::new();
        t.ops = self.ops;
        t.kops_per_sec(self.elapsed)
    }
}

/// Runs `threads` workers over a shared B-tree store, each executing
/// `ops_per_thread` YCSB ops through its own backend thread.
#[allow(clippy::too_many_arguments)]
pub fn run_btree_ycsb(
    system: &System,
    store: &Arc<BtreeStore>,
    kind: BackendKind,
    workload: YcsbWorkload,
    n_keys: u64,
    threads: usize,
    ops_per_thread: u64,
    seed: u64,
) -> KvRunResult {
    system.reset_virtual_time();
    // Fairness: identical cache state per cell — cold, then warmed with a
    // fixed op stream (untimed) so every backend measures steady state.
    store.clear_cache();
    let warm_ops = (ops_per_thread * 4).max(1_500);
    let proc = BackendProcess::new(kind, system, 0, 0);
    {
        let store = Arc::clone(store);
        let proc = proc.clone();
        let sim = Simulation::new();
        sim.spawn("warm", move |ctx| {
            let mut backend = proc.thread();
            let h = backend.open(ctx, store.file(), true).expect("open store");
            let mut gen = YcsbGen::new(workload, n_keys, n_keys + n_keys / 4, 0xDEAD);
            for _ in 0..warm_ops {
                let op = gen.next_op();
                store.execute(ctx, &mut backend, h, op).expect("warm op");
            }
            let _ = backend.close(ctx, h);
        });
        sim.run();
    }
    system.reset_virtual_time();
    let sim = Simulation::new();
    let sink: Arc<Mutex<Vec<(Histogram, Nanos)>>> = Arc::new(Mutex::new(Vec::new()));
    for tid in 0..threads {
        let proc = proc.clone();
        let store = Arc::clone(store);
        let sink = Arc::clone(&sink);
        sim.spawn(&format!("kv{tid}"), move |ctx| {
            let mut backend = proc.thread();
            let h = backend.open(ctx, store.file(), true).expect("open store");
            let mut gen = YcsbGen::new(
                workload,
                n_keys,
                n_keys + n_keys / 4,
                seed ^ (tid as u64 * 7919),
            );
            let mut hist = Histogram::new();
            for _ in 0..ops_per_thread {
                let op = gen.next_op();
                let t0 = ctx.now();
                store.execute(ctx, &mut backend, h, op).expect("op failed");
                hist.record(ctx.now() - t0);
            }
            let end = ctx.now();
            let _ = backend.close(ctx, h);
            sink.lock().push((hist, end));
        });
    }
    sim.run();
    let data = sink.lock();
    let mut latency = Histogram::new();
    let mut last = Nanos::ZERO;
    for (h, end) in data.iter() {
        latency.merge(h);
        last = last.max(*end);
    }
    KvRunResult {
        ops: threads as u64 * ops_per_thread,
        elapsed: last,
        latency,
    }
}

/// Formats a nanosecond value as microseconds with 2 decimals.
pub fn us(t: Nanos) -> String {
    format!("{:.2}", t.as_micros_f64())
}

/// Formats a float with 1 decimal.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

/// Formats a float with 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}
