//! The flight recorder: lock-light, sharded ring buffers of trace
//! records.
//!
//! Design goals, in order:
//!
//! 1. **Free when off.** The only cost a stamp site pays with tracing
//!    disabled is one relaxed atomic load ([`Recorder::on`]); record
//!    construction happens inside a closure that is never invoked.
//! 2. **Timing-neutral when on.** Recording never touches the
//!    simulation clock (`ctx.delay`/`wait_until`), so virtual-time
//!    results are bit-identical with tracing on or off — the recorder
//!    is a passive observer.
//! 3. **Bounded memory.** Records land in fixed-capacity rings sharded
//!    by queue/pid; when a ring fills, the oldest record is dropped
//!    (flight-recorder semantics) and a drop counter ticks. The rings are
//!    reserved when tracing turns on, so a recorder that never records
//!    holds no ring memory.
//!
//! A sampling knob (`sample_every = n` keeps every n-th record per
//! record kind) bounds overhead for long runs without biasing stage
//! attribution, since records are sampled whole — a kept record still
//! carries its full, exact stage decomposition.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::record::{DeviceRecord, OpRecord};

/// Ring shards per record kind; stamp sites hash queue/pid into a
/// shard so concurrent actors rarely contend on one mutex.
const SHARDS: usize = 16;

/// Configuration for a [`Recorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch. Off by default: the recorder accepts no records
    /// and stamp sites cost one atomic load.
    pub enabled: bool,
    /// Keep every n-th record (1 = keep all). Must be ≥ 1.
    pub sample_every: u32,
    /// Per-kind total ring capacity in records, split across shards.
    pub ring_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            enabled: false,
            sample_every: 1,
            ring_capacity: 1 << 16,
        }
    }
}

impl TraceConfig {
    /// Tracing on, keep everything, default capacity.
    pub fn on() -> Self {
        TraceConfig {
            enabled: true,
            ..Default::default()
        }
    }

    /// Tracing on with k-of-n sampling — the recommended production
    /// configuration: a stamp site costs one relaxed load plus one
    /// relaxed fetch-add, keeping overhead within the trace budget while
    /// still capturing exact stage decompositions for kept records.
    pub fn sampled(every: u32) -> Self {
        TraceConfig {
            enabled: true,
            sample_every: every.max(1),
            ..Default::default()
        }
    }

    /// Applies environment overrides: `BYPASSD_TRACE` (non-empty,
    /// non-"0" forces tracing on), `BYPASSD_TRACE_SAMPLE` (sampling
    /// period), `BYPASSD_TRACE_RING` (ring capacity). Unset variables
    /// leave the builder-provided values untouched.
    pub fn apply_env(mut self) -> Self {
        if let Ok(v) = std::env::var("BYPASSD_TRACE") {
            if !v.is_empty() && v != "0" {
                self.enabled = true;
            }
        }
        if let Ok(v) = std::env::var("BYPASSD_TRACE_SAMPLE") {
            if let Ok(n) = v.parse::<u32>() {
                self.sample_every = n.max(1);
            }
        }
        if let Ok(v) = std::env::var("BYPASSD_TRACE_RING") {
            if let Ok(n) = v.parse::<usize>() {
                self.ring_capacity = n.max(SHARDS);
            }
        }
        self
    }
}

/// A fixed-capacity ring that drops the oldest record when full.
struct Ring<T> {
    buf: VecDeque<T>,
    cap: usize,
    dropped: u64,
}

impl<T> Ring<T> {
    /// An empty ring holding no memory until [`Ring::reserve`].
    fn new(cap: usize) -> Self {
        Ring {
            buf: VecDeque::new(),
            cap: cap.max(1),
            dropped: 0,
        }
    }

    /// Allocates every slot up front so stamp sites never grow the ring
    /// on the hot path — a full ring recycles its slots forever.
    fn reserve(&mut self) {
        self.buf.reserve_exact(self.cap - self.buf.len());
    }

    fn push(&mut self, value: T) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(value);
    }
}

/// Counters summarizing recorder activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecorderCounts {
    /// Device records currently buffered.
    pub device: u64,
    /// Op records currently buffered.
    pub ops: u64,
    /// Records evicted by ring overflow (both kinds).
    pub dropped: u64,
    /// Records skipped by sampling (both kinds).
    pub sampled_out: u64,
}

/// The flight recorder. Shared as an `Arc` by every instrumented layer.
pub struct Recorder {
    enabled: AtomicBool,
    sample_every: u32,
    dev_tick: AtomicU64,
    op_tick: AtomicU64,
    dev_rings: Vec<Mutex<Ring<DeviceRecord>>>,
    op_rings: Vec<Mutex<Ring<OpRecord>>>,
}

impl Recorder {
    /// Creates a recorder from `config`; its rings are reserved only if
    /// the config is enabled.
    pub fn new(config: TraceConfig) -> Arc<Recorder> {
        let shard_cap = (config.ring_capacity / SHARDS).max(1);
        let rec = Arc::new(Recorder {
            enabled: AtomicBool::new(false),
            sample_every: config.sample_every.max(1),
            dev_tick: AtomicU64::new(0),
            op_tick: AtomicU64::new(0),
            dev_rings: (0..SHARDS)
                .map(|_| Mutex::new(Ring::new(shard_cap)))
                .collect(),
            op_rings: (0..SHARDS)
                .map(|_| Mutex::new(Ring::new(shard_cap)))
                .collect(),
        });
        if config.enabled {
            rec.set_enabled(true);
        }
        rec
    }

    /// A permanently-off recorder (the default-system configuration).
    pub fn disabled() -> Arc<Recorder> {
        Recorder::new(TraceConfig::default())
    }

    /// Whether tracing is live. This is the entire fast-path cost of a
    /// stamp site when tracing is off: one relaxed load.
    #[inline]
    pub fn on(&self) -> bool {
        // ordering: Relaxed — independent on/off flag; a stale read only delays observing a toggle, and all record data is published via the shard mutexes.
        self.enabled.load(Ordering::Relaxed)
    }

    /// Flips the master switch at runtime. Turning tracing on first
    /// reserves every ring slot (once; the rings keep their memory when
    /// tracing turns off again).
    pub fn set_enabled(&self, on: bool) {
        if on {
            for ring in &self.dev_rings {
                ring.lock().reserve();
            }
            for ring in &self.op_rings {
                ring.lock().reserve();
            }
        }
        // ordering: Relaxed — independent on/off flag; a stale read only delays observing a toggle, and all record data is published via the shard mutexes.
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// The configured sampling period.
    pub fn sample_every(&self) -> u32 {
        self.sample_every
    }

    /// One relaxed fetch-add per stamp — the skip count is derived
    /// arithmetically from the tick in [`Recorder::counts`] rather than
    /// maintained as a second counter on the hot path.
    fn sample(&self, tick: &AtomicU64) -> bool {
        if self.sample_every == 1 {
            return true;
        }
        // ordering: Relaxed — sampling tick; only k-of-n decimation depends on it, no memory is published.
        let n = tick.fetch_add(1, Ordering::Relaxed);
        n.is_multiple_of(u64::from(self.sample_every))
    }

    /// Records skipped by sampling out of `ticks` stamps (ticks only
    /// advance when `sample_every > 1`; stamp `n` is kept iff `n % s == 0`).
    fn skipped(&self, ticks: u64) -> u64 {
        let s = u64::from(self.sample_every);
        if s <= 1 {
            0
        } else {
            ticks - ticks.div_ceil(s)
        }
    }

    /// Records a device-side command decomposition. `make` runs only if
    /// tracing is on and the sampler keeps this record.
    #[inline]
    pub fn record_device(&self, make: impl FnOnce() -> DeviceRecord) {
        if !self.on() || !self.sample(&self.dev_tick) {
            return;
        }
        let rec = make();
        let shard = rec.queue as usize % SHARDS;
        self.dev_rings[shard].lock().push(rec);
    }

    /// Records a syscall-layer operation. `make` runs only if tracing is
    /// on and the sampler keeps this record.
    #[inline]
    pub fn record_op(&self, make: impl FnOnce() -> OpRecord) {
        if !self.on() || !self.sample(&self.op_tick) {
            return;
        }
        let rec = make();
        let shard = rec.pid as usize % SHARDS;
        self.op_rings[shard].lock().push(rec);
    }

    /// Drains all buffered device records, sorted by submission time.
    pub fn take_device(&self) -> Vec<DeviceRecord> {
        let mut out = Vec::new();
        for ring in &self.dev_rings {
            out.extend(ring.lock().buf.drain(..));
        }
        out.sort_by_key(|r| r.submit);
        out
    }

    /// Drains all buffered op records, sorted by start time.
    pub fn take_ops(&self) -> Vec<OpRecord> {
        let mut out = Vec::new();
        for ring in &self.op_rings {
            out.extend(ring.lock().buf.drain(..));
        }
        out.sort_by_key(|r| r.start);
        out
    }

    /// Current buffer/drop/sampling counters.
    pub fn counts(&self) -> RecorderCounts {
        let mut c = RecorderCounts {
            // ordering: Relaxed — monotonic stats counters; read only for reporting, publish no other memory.
            sampled_out: self.skipped(self.dev_tick.load(Ordering::Relaxed))
                + self.skipped(self.op_tick.load(Ordering::Relaxed)),
            ..Default::default()
        };
        for ring in &self.dev_rings {
            let g = ring.lock();
            c.device += g.buf.len() as u64;
            c.dropped += g.dropped;
        }
        for ring in &self.op_rings {
            let g = ring.lock();
            c.ops += g.buf.len() as u64;
            c.dropped += g.dropped;
        }
        c
    }
}

impl crate::registry::MetricSource for Recorder {
    fn collect(&self, out: &mut Vec<crate::registry::Metric>) {
        use crate::registry::Metric;
        let c = self.counts();
        out.push(Metric::gauge("enabled", i64::from(self.on())));
        out.push(Metric::counter("device_records", c.device));
        out.push(Metric::counter("op_records", c.ops));
        out.push(Metric::counter("dropped", c.dropped));
        out.push(Metric::counter("sampled_out", c.sampled_out));
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("on", &self.on())
            .field("sample_every", &self.sample_every)
            .field("counts", &self.counts())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{IoPath, TraceOp};
    use bypassd_sim::time::Nanos;

    fn dev_rec(queue: u32, submit: u64) -> DeviceRecord {
        DeviceRecord {
            queue,
            tenant: 1,
            op: TraceOp::Read,
            bytes: 4096,
            submit: Nanos(submit),
            qos_delay: Nanos::ZERO,
            throttled: false,
            deferred: false,
            walk: None,
            translate: Nanos(500),
            channel_wait: Nanos::ZERO,
            service: Nanos(3000),
            complete: Nanos(submit + 3500),
            ok: true,
        }
    }

    fn op_rec(pid: u64, start: u64) -> OpRecord {
        OpRecord {
            pid,
            path: IoPath::Direct,
            write: false,
            bytes: 4096,
            start: Nanos(start),
            end: Nanos(start + 4000),
            userlib: Nanos(200),
            device_span: Nanos(3500),
            user_copy: Nanos(300),
            kernel: Nanos::ZERO,
            faults: 0,
        }
    }

    #[test]
    fn disabled_recorder_drops_everything_without_building() {
        let rec = Recorder::disabled();
        let mut built = false;
        rec.record_device(|| {
            built = true;
            dev_rec(0, 0)
        });
        assert!(!built, "closure must not run when tracing is off");
        assert!(rec.take_device().is_empty());
    }

    #[test]
    fn enabled_recorder_keeps_and_sorts_records() {
        let rec = Recorder::new(TraceConfig::on());
        rec.record_device(|| dev_rec(3, 200));
        rec.record_device(|| dev_rec(1, 100));
        rec.record_op(|| op_rec(7, 50));
        let dev = rec.take_device();
        assert_eq!(dev.len(), 2);
        assert!(dev[0].submit <= dev[1].submit, "sorted by submit time");
        assert_eq!(rec.take_ops().len(), 1);
        // Drained.
        assert!(rec.take_device().is_empty());
    }

    #[test]
    fn ring_overflow_drops_oldest() {
        let cfg = TraceConfig {
            enabled: true,
            sample_every: 1,
            ring_capacity: SHARDS, // 1 slot per shard
        };
        let rec = Recorder::new(cfg);
        // Same queue → same shard → second push evicts the first.
        rec.record_device(|| dev_rec(2, 100));
        rec.record_device(|| dev_rec(2, 200));
        let dev = rec.take_device();
        assert_eq!(dev.len(), 1);
        assert_eq!(dev[0].submit, Nanos(200), "newest survives");
        assert_eq!(rec.counts().dropped, 1);
    }

    #[test]
    fn sampling_keeps_every_nth() {
        let cfg = TraceConfig {
            enabled: true,
            sample_every: 4,
            ring_capacity: 1 << 12,
        };
        let rec = Recorder::new(cfg);
        for i in 0..100 {
            rec.record_op(|| op_rec(1, i * 10));
        }
        let kept = rec.take_ops().len();
        assert_eq!(kept, 25, "every 4th of 100");
        assert_eq!(rec.counts().sampled_out, 75);
    }

    #[test]
    fn runtime_toggle() {
        let rec = Recorder::disabled();
        rec.set_enabled(true);
        rec.record_op(|| op_rec(1, 0));
        rec.set_enabled(false);
        rec.record_op(|| op_rec(1, 10));
        assert_eq!(rec.take_ops().len(), 1);
    }

    /// Ring slots reserved across both kinds and every shard.
    fn reserved(rec: &Recorder) -> usize {
        let dev: usize = rec.dev_rings.iter().map(|r| r.lock().buf.capacity()).sum();
        let ops: usize = rec.op_rings.iter().map(|r| r.lock().buf.capacity()).sum();
        dev + ops
    }

    #[test]
    fn disabled_recorder_reserves_no_ring_slots() {
        let rec = Recorder::disabled();
        rec.record_device(|| dev_rec(0, 0));
        rec.record_op(|| op_rec(0, 0));
        assert_eq!(reserved(&rec), 0);
        rec.set_enabled(true);
        let cap = TraceConfig::default().ring_capacity;
        assert!(reserved(&rec) >= 2 * cap, "enabling reserves every slot");
        let built_on = Recorder::new(TraceConfig::on());
        assert_eq!(reserved(&rec), reserved(&built_on));
        rec.set_enabled(false);
        rec.set_enabled(true);
        assert_eq!(
            reserved(&rec),
            reserved(&built_on),
            "re-enabling reserves once"
        );
    }

    #[test]
    fn recorder_enabled_late_matches_one_built_enabled() {
        for sample_every in [1, 3] {
            let cfg = TraceConfig {
                enabled: true,
                sample_every,
                // Two slots per shard, so the records below overflow.
                ring_capacity: 2 * SHARDS,
            };
            let late = Recorder::new(TraceConfig {
                enabled: false,
                ..cfg
            });
            late.set_enabled(true);
            let built = Recorder::new(cfg);
            for rec in [&late, &built] {
                for i in 0..200u64 {
                    rec.record_device(|| dev_rec((i % 37) as u32, i * 7 % 1_000));
                    rec.record_op(|| op_rec(i % 23, i * 11 % 1_000));
                }
            }
            assert_eq!(late.counts(), built.counts());
            assert!(built.counts().dropped > 0, "the rings overflowed");
            // The record types carry no `PartialEq`; their `Debug` shows
            // every field.
            let dump = |rec: &Recorder| format!("{:?}{:?}", rec.take_device(), rec.take_ops());
            assert_eq!(dump(&late), dump(&built));
        }
    }

    #[test]
    fn config_env_defaults_are_sane() {
        let cfg = TraceConfig::default();
        assert!(!cfg.enabled);
        assert_eq!(cfg.sample_every, 1);
        assert!(cfg.ring_capacity >= SHARDS);
    }
}
