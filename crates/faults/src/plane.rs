//! The fault plane: a deterministic interposer on a device's media writes.
//!
//! A [`FaultPlane`] sits between the NVMe command processor and the backing
//! sector store. Every write — timed queue I/O, maintenance `write_raw`,
//! zeroing — passes through [`FaultPlane::on_write`], which assigns it a
//! monotone **sequence number**, tracks the virtual-time high-water mark,
//! optionally records it into a schedule, and returns a verdict: persist,
//! drop (power already out), or persist only a subset of its sectors (a
//! torn write).
//!
//! ## Crash model
//!
//! A [`Cut`] describes one power-loss scenario relative to the global write
//! sequence:
//!
//! * every write with `seq >= cut_seq` is lost (power is out from there on);
//! * `drop_before` lists additional earlier writes that were still sitting
//!   in the device's volatile write cache and are lost too (reordering) —
//!   the campaign enumerator only picks seqs after the last flush barrier,
//!   matching a cache that is empty after every FLUSH completes;
//! * `tear` optionally tears one write at sector granularity: a prefix, or
//!   a seeded scatter of its sectors, persists.
//!
//! The **durable horizon** of a cut is the sequence number below which every
//! write persisted. Workloads record [`FaultPlane::mark`] checkpoints (e.g.
//! after each `fsync` returns) and recovery checks may assert exactly the
//! marks below the horizon — the fsync contract under power loss.

use std::sync::atomic::{AtomicBool, Ordering};

use bypassd_hw::types::Lba;
use bypassd_sim::rng::fnv1a_64;
use bypassd_sim::time::Nanos;
use parking_lot::Mutex;

/// Which device path issued a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    /// A timed queue command (Write / WriteZeroes data path).
    Timed,
    /// Maintenance path (`write_raw`): journal, superblock, inode table.
    Raw,
    /// Maintenance zeroing (`zero_raw`): newly allocated blocks.
    Zeroes,
    /// A FLUSH barrier (no data; bounds reorder windows).
    Flush,
}

/// One observed write, as recorded into a campaign schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteEvent {
    /// Global sequence number (all kinds share one counter).
    pub seq: u64,
    /// First sector written (zero for [`WriteKind::Flush`]).
    pub lba: Lba,
    /// Sector count (zero for [`WriteKind::Flush`]).
    pub sectors: u32,
    /// Virtual-time high-water mark when the write was observed. Raw
    /// writes carry no time of their own; they inherit the mark.
    pub time: Nanos,
    /// Issuing path.
    pub kind: WriteKind,
}

/// Partial-persistence plan for a single torn write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tear {
    /// Sequence number of the write to tear.
    pub seq: u64,
    /// How many of its sectors persist.
    pub keep_sectors: u32,
    /// Zero: the persisted sectors are a prefix (head made it to media).
    /// Non-zero: a seeded scatter — `keep_sectors` sectors chosen by
    /// hashing `(salt, sector_index)` persist, modelling out-of-order
    /// media programming within one command.
    pub scatter_salt: u64,
}

impl Tear {
    /// True if sector `i` of an `n`-sector write survives this tear.
    pub fn keeps(&self, i: u32, n: u32) -> bool {
        if self.scatter_salt == 0 {
            return i < self.keep_sectors;
        }
        // Rank sectors by hash; the `keep_sectors` smallest survive. O(n²)
        // over at most a few hundred sectors, on the cold failure path.
        let h = |j: u32| fnv1a_64(self.scatter_salt ^ (u64::from(j) << 32));
        let mine = h(i);
        let mut rank = 0u32;
        for j in 0..n {
            let hj = h(j);
            if hj < mine || (hj == mine && j < i) {
                rank += 1;
            }
        }
        rank < self.keep_sectors
    }
}

/// A fully-specified power-loss scenario.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cut {
    /// First sequence number that does NOT persist; power is out from here.
    pub cut_seq: u64,
    /// Additional earlier seqs (sorted) lost from the volatile write cache.
    pub drop_before: Vec<u64>,
    /// At most one torn write.
    pub tear: Option<Tear>,
}

impl Cut {
    /// A clean prefix cut: everything before `seq` persists, nothing after.
    pub fn at_seq(seq: u64) -> Cut {
        Cut {
            cut_seq: seq,
            ..Cut::default()
        }
    }

    /// The durable horizon: all writes with `seq < horizon` persisted
    /// completely.
    pub fn horizon(&self) -> u64 {
        let mut h = self.cut_seq;
        if let Some(&d) = self.drop_before.first() {
            h = h.min(d);
        }
        if let Some(t) = &self.tear {
            h = h.min(t.seq);
        }
        h
    }
}

/// Verdict for one write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteVerdict {
    /// Apply all sectors.
    Persist,
    /// Apply nothing.
    Drop,
    /// Apply exactly the sectors whose mask bit is `true`.
    Partial(Vec<bool>),
}

/// Counters describing what the plane did, for reports and assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Writes observed (all kinds, including flush barriers).
    pub writes_seen: u64,
    /// Writes fully dropped.
    pub writes_dropped: u64,
    /// Writes partially persisted.
    pub writes_torn: u64,
    /// Transient media errors injected into reads.
    pub read_errors: u64,
    /// Transient media errors injected into writes.
    pub write_errors: u64,
    /// Completions swallowed.
    pub completions_dropped: u64,
    /// True once a cut has fired (power went out at least once).
    pub cut_fired: bool,
}

#[derive(Debug, Default)]
struct PlaneInner {
    seq: u64,
    vtime: Nanos,
    powered_off: bool,
    cut: Option<Cut>,
    cut_at_time: Option<Nanos>,
    recording: bool,
    schedule: Vec<WriteEvent>,
    marks: Vec<(u64, u64)>, // (value, seq at mark time)
    horizon: Option<u64>,
    // Media-error / completion-drop injection: sorted nth-occurrence lists
    // against the matching counters.
    fail_reads: Vec<u64>,
    fail_writes: Vec<u64>,
    drop_completions: Vec<u64>,
    reads_seen: u64,
    timed_writes_seen: u64,
    completions_seen: u64,
    stats: FaultStats,
}

impl PlaneInner {
    fn fire_cut(&mut self) {
        self.powered_off = true;
        self.stats.cut_fired = true;
    }
}

/// Deterministic fault interposer for one device. See the module docs.
///
/// Cheap when idle: an inactive plane costs one relaxed atomic load per
/// write and takes no locks, so the default configuration perturbs neither
/// timing nor allocation behaviour of the hot path.
#[derive(Debug, Default)]
pub struct FaultPlane {
    active: AtomicBool,
    inner: Mutex<PlaneInner>,
}

impl FaultPlane {
    /// Creates an idle plane.
    pub fn new() -> FaultPlane {
        FaultPlane::default()
    }

    /// True if any fault machinery is engaged. The device checks this
    /// before taking the plane lock.
    #[inline]
    pub fn is_active(&self) -> bool {
        // ordering: Relaxed — gates an optional observation path only;
        // guarded state sits behind `inner`'s mutex, activation precedes I/O.
        self.active.load(Ordering::Relaxed)
    }

    /// Engages the plane: writes are sequence-numbered and verdicts apply.
    pub fn activate(&self) {
        // ordering: Relaxed — see `is_active`.
        self.active.store(true, Ordering::Relaxed);
    }

    /// Clears all state (sequence counter, schedule, marks, cut, injection
    /// plans, stats) and leaves the plane active. Campaign iterations call
    /// this before rebuilding the system so sequence numbers align across
    /// the record and replay passes.
    pub fn reset(&self) {
        *self.inner.lock() = PlaneInner::default();
        self.activate();
    }

    // ---------------------------------------------------------------- cuts

    /// Arms a cut. Panics if `drop_before` is unsorted (campaign code
    /// builds it sorted; determinism depends on a canonical form).
    pub fn arm(&self, cut: Cut) {
        assert!(
            cut.drop_before.windows(2).all(|w| w[0] < w[1]),
            "drop_before must be strictly sorted"
        );
        self.activate();
        let mut g = self.inner.lock();
        g.horizon = Some(cut.horizon());
        g.cut = Some(cut);
    }

    /// Cuts power the next time the virtual-time high-water mark reaches
    /// `t`. Everything from that write on is lost.
    pub fn cut_at_time(&self, t: Nanos) {
        self.activate();
        let mut g = self.inner.lock();
        g.cut_at_time = Some(t);
        if g.vtime >= t {
            g.horizon = Some(g.seq);
            g.fire_cut();
        }
    }

    /// Restores power: disarms any cut and lets writes persist again.
    /// Recording, marks, the horizon, the schedule, and stats survive so
    /// recovery checks can still interrogate the crash. `Ext4::mount`
    /// calls this — remounting implies a power cycle.
    pub fn power_restore(&self) {
        if !self.is_active() {
            return;
        }
        let mut g = self.inner.lock();
        g.powered_off = false;
        g.cut = None;
        g.cut_at_time = None;
    }

    /// True once a cut actually dropped power.
    pub fn cut_fired(&self) -> bool {
        self.inner.lock().stats.cut_fired
    }

    /// The armed/fired cut's durable horizon, if any.
    pub fn horizon(&self) -> Option<u64> {
        self.inner.lock().horizon
    }

    // ----------------------------------------------------------- recording

    /// Starts recording the write schedule (from the current seq).
    pub fn start_recording(&self) {
        self.activate();
        let mut g = self.inner.lock();
        g.recording = true;
        g.schedule.clear();
    }

    /// Stops recording and returns the schedule.
    pub fn take_schedule(&self) -> Vec<WriteEvent> {
        let mut g = self.inner.lock();
        g.recording = false;
        std::mem::take(&mut g.schedule)
    }

    /// Records a workload checkpoint (e.g. "fsync #k returned"). A mark is
    /// durable under a cut iff every write issued before it persisted,
    /// i.e. its recorded seq is at or below the durable horizon.
    pub fn mark(&self, value: u64) {
        let mut g = self.inner.lock();
        let seq = g.seq;
        g.marks.push((value, seq));
    }

    /// Mark values whose preceding writes all persisted. With no cut
    /// armed, every mark is durable.
    pub fn durable_marks(&self) -> Vec<u64> {
        let g = self.inner.lock();
        match g.horizon {
            None => g.marks.iter().map(|&(v, _)| v).collect(),
            Some(h) => g
                .marks
                .iter()
                .filter(|&&(_, s)| s <= h)
                .map(|&(v, _)| v)
                .collect(),
        }
    }

    /// Current global write sequence number.
    pub fn seq(&self) -> u64 {
        self.inner.lock().seq
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> FaultStats {
        self.inner.lock().stats
    }

    // ------------------------------------------------------- device hooks

    /// Observes one write and decides its fate. `now` is `Some` for timed
    /// queue commands and `None` for maintenance writes (which inherit the
    /// virtual-time high-water mark).
    pub fn on_write(
        &self,
        lba: Lba,
        sectors: u32,
        now: Option<Nanos>,
        kind: WriteKind,
    ) -> WriteVerdict {
        let mut g = self.inner.lock();
        let seq = g.seq;
        g.seq += 1;
        if let Some(t) = now {
            g.vtime = g.vtime.max(t);
        }
        let time = g.vtime;
        if g.recording {
            g.schedule.push(WriteEvent {
                seq,
                lba,
                sectors,
                time,
                kind,
            });
        }
        g.stats.writes_seen += 1;

        // A time-armed cut converts to a seq cut at the first write at or
        // past the deadline.
        if let Some(t) = g.cut_at_time {
            if g.vtime >= t && !g.powered_off {
                g.horizon = Some(seq);
                g.fire_cut();
                g.cut_at_time = None;
                g.cut = Some(Cut::at_seq(seq));
            }
        }

        if kind == WriteKind::Flush {
            return WriteVerdict::Persist; // no data; barrier only
        }

        let verdict = match &g.cut {
            None => {
                if g.powered_off {
                    WriteVerdict::Drop
                } else {
                    WriteVerdict::Persist
                }
            }
            Some(cut) => {
                if seq >= cut.cut_seq {
                    if !g.powered_off {
                        g.fire_cut();
                    }
                    WriteVerdict::Drop
                } else if cut.drop_before.binary_search(&seq).is_ok() {
                    WriteVerdict::Drop
                } else if let Some(t) = cut.tear.filter(|t| t.seq == seq) {
                    let mask: Vec<bool> = (0..sectors).map(|i| t.keeps(i, sectors)).collect();
                    WriteVerdict::Partial(mask)
                } else {
                    WriteVerdict::Persist
                }
            }
        };
        match &verdict {
            WriteVerdict::Drop => g.stats.writes_dropped += 1,
            WriteVerdict::Partial(_) => g.stats.writes_torn += 1,
            WriteVerdict::Persist => {}
        }
        verdict
    }

    /// Observes a FLUSH barrier: everything issued before it is on media
    /// (unless a cut already intervened), so reorder windows close here.
    pub fn note_flush(&self, now: Nanos) {
        // Recorded as a zero-length event so campaign enumeration can see
        // barrier positions in the schedule.
        let _ = self.on_write(Lba(0), 0, Some(now), WriteKind::Flush);
    }

    /// Observes an untimed ordering barrier (e.g. the journal's
    /// commit→checkpoint wait): closes the reorder window like
    /// [`FaultPlane::note_flush`] but without advancing the virtual-time
    /// high-water mark.
    pub fn note_barrier(&self) {
        let _ = self.on_write(Lba(0), 0, None, WriteKind::Flush);
    }

    // --------------------------------------------- media errors and drops

    /// Arms transient media errors on the nth, mth, … timed **read**
    /// commands (0-based, counted from now). Must be sorted.
    pub fn fail_reads(&self, nths: Vec<u64>) {
        self.activate();
        let mut g = self.inner.lock();
        g.reads_seen = 0;
        g.fail_reads = nths;
    }

    /// Arms transient media errors on timed **write** commands.
    pub fn fail_writes(&self, nths: Vec<u64>) {
        self.activate();
        let mut g = self.inner.lock();
        g.timed_writes_seen = 0;
        g.fail_writes = nths;
    }

    /// Arms completion drops on the nth, … queue submissions. A dropped
    /// command still executes, but its completion is never posted and
    /// its queue slot is freed at once (the host's timeout abort).
    pub fn drop_completions(&self, nths: Vec<u64>) {
        self.activate();
        let mut g = self.inner.lock();
        g.completions_seen = 0;
        g.drop_completions = nths;
    }

    /// Called per timed data command; true if this one fails with a media
    /// error.
    pub fn take_io_error(&self, is_write: bool) -> bool {
        let mut g = self.inner.lock();
        let (n, plan) = if is_write {
            g.timed_writes_seen += 1;
            (g.timed_writes_seen - 1, &g.fail_writes)
        } else {
            g.reads_seen += 1;
            (g.reads_seen - 1, &g.fail_reads)
        };
        let hit = plan.binary_search(&n).is_ok();
        if hit {
            if is_write {
                g.stats.write_errors += 1;
            } else {
                g.stats.read_errors += 1;
            }
        }
        hit
    }

    /// Called per queue submission after processing; true if the
    /// completion should be swallowed: never posted, its slot freed.
    pub fn take_completion_drop(&self) -> bool {
        let mut g = self.inner.lock();
        g.completions_seen += 1;
        let hit = g
            .drop_completions
            .binary_search(&(g.completions_seen - 1))
            .is_ok();
        if hit {
            g.stats.completions_dropped += 1;
        }
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(plane: &FaultPlane, lba: u64, sectors: u32) -> WriteVerdict {
        plane.on_write(Lba(lba), sectors, None, WriteKind::Raw)
    }

    #[test]
    fn inactive_plane_persists_everything() {
        let p = FaultPlane::new();
        assert!(!p.is_active());
        assert_eq!(ev(&p, 0, 8), WriteVerdict::Persist);
    }

    #[test]
    fn clean_cut_drops_suffix() {
        let p = FaultPlane::new();
        p.reset();
        p.arm(Cut::at_seq(2));
        assert_eq!(ev(&p, 0, 8), WriteVerdict::Persist); // seq 0
        assert_eq!(ev(&p, 8, 8), WriteVerdict::Persist); // seq 1
        assert_eq!(ev(&p, 16, 8), WriteVerdict::Drop); // seq 2: power out
        assert_eq!(ev(&p, 0, 8), WriteVerdict::Drop); // still out
        assert!(p.cut_fired());
        assert_eq!(p.horizon(), Some(2));
    }

    #[test]
    fn tear_prefix_masks_sectors() {
        let p = FaultPlane::new();
        p.reset();
        p.arm(Cut {
            cut_seq: 1,
            drop_before: Vec::new(),
            tear: Some(Tear {
                seq: 0,
                keep_sectors: 3,
                scatter_salt: 0,
            }),
        });
        match ev(&p, 0, 8) {
            WriteVerdict::Partial(mask) => {
                assert_eq!(
                    mask,
                    vec![true, true, true, false, false, false, false, false]
                );
            }
            other => panic!("expected partial, got {other:?}"),
        }
        assert_eq!(p.horizon(), Some(0));
    }

    #[test]
    fn tear_scatter_keeps_exactly_k_deterministically() {
        let t = Tear {
            seq: 0,
            keep_sectors: 5,
            scatter_salt: 0xDEAD,
        };
        let kept: Vec<u32> = (0..16).filter(|&i| t.keeps(i, 16)).collect();
        assert_eq!(kept.len(), 5);
        let kept2: Vec<u32> = (0..16).filter(|&i| t.keeps(i, 16)).collect();
        assert_eq!(kept, kept2);
        // Not a plain prefix for this salt.
        assert_ne!(kept, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn reorder_drops_selected_earlier_writes() {
        let p = FaultPlane::new();
        p.reset();
        p.arm(Cut {
            cut_seq: 4,
            drop_before: vec![1, 3],
            tear: None,
        });
        assert_eq!(ev(&p, 0, 8), WriteVerdict::Persist); // 0
        assert_eq!(ev(&p, 8, 8), WriteVerdict::Drop); // 1 in cache
        assert_eq!(ev(&p, 16, 8), WriteVerdict::Persist); // 2
        assert_eq!(ev(&p, 24, 8), WriteVerdict::Drop); // 3 in cache
        assert_eq!(ev(&p, 32, 8), WriteVerdict::Drop); // 4: cut
        assert_eq!(p.horizon(), Some(1));
    }

    #[test]
    fn power_restore_resumes_persistence_and_keeps_marks() {
        let p = FaultPlane::new();
        p.reset();
        let _ = ev(&p, 0, 8);
        p.mark(1);
        p.arm(Cut::at_seq(1));
        let _ = ev(&p, 8, 8); // dropped
        p.mark(2);
        p.power_restore();
        assert_eq!(ev(&p, 16, 8), WriteVerdict::Persist);
        assert_eq!(p.durable_marks(), vec![1]);
        assert!(p.cut_fired());
    }

    #[test]
    fn time_cut_fires_on_high_water_mark() {
        let p = FaultPlane::new();
        p.reset();
        p.cut_at_time(Nanos(1000));
        assert_eq!(
            p.on_write(Lba(0), 8, Some(Nanos(500)), WriteKind::Timed),
            WriteVerdict::Persist
        );
        // Raw write inherits the 500 ns mark: still before the cut.
        assert_eq!(ev(&p, 8, 8), WriteVerdict::Persist);
        assert_eq!(
            p.on_write(Lba(16), 8, Some(Nanos(1200)), WriteKind::Timed),
            WriteVerdict::Drop
        );
        // All later writes, raw included, are gone.
        assert_eq!(ev(&p, 24, 8), WriteVerdict::Drop);
        assert!(p.cut_fired());
    }

    #[test]
    fn recording_captures_schedule_and_flush_barriers() {
        let p = FaultPlane::new();
        p.reset();
        p.start_recording();
        let _ = p.on_write(Lba(0), 8, Some(Nanos(10)), WriteKind::Timed);
        p.note_flush(Nanos(20));
        let _ = ev(&p, 8, 8);
        let sched = p.take_schedule();
        assert_eq!(sched.len(), 3);
        assert_eq!(sched[0].kind, WriteKind::Timed);
        assert_eq!(sched[1].kind, WriteKind::Flush);
        assert_eq!(sched[2].kind, WriteKind::Raw);
        assert_eq!(sched[2].time, Nanos(20), "raw write inherits hwm");
        assert_eq!(
            sched.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn media_error_plan_is_counted_per_kind() {
        let p = FaultPlane::new();
        p.reset();
        p.fail_reads(vec![1]);
        assert!(!p.take_io_error(false)); // read 0
        assert!(p.take_io_error(false)); // read 1 fails
        assert!(!p.take_io_error(false));
        assert!(!p.take_io_error(true)); // writes unaffected
        assert_eq!(p.stats().read_errors, 1);
    }

    #[test]
    fn completion_drop_plan() {
        let p = FaultPlane::new();
        p.reset();
        p.drop_completions(vec![0, 2]);
        assert!(p.take_completion_drop());
        assert!(!p.take_completion_drop());
        assert!(p.take_completion_drop());
        assert_eq!(p.stats().completions_dropped, 2);
    }

    #[test]
    fn reset_realigns_sequence_numbers() {
        let p = FaultPlane::new();
        p.reset();
        let _ = ev(&p, 0, 8);
        let _ = ev(&p, 8, 8);
        assert_eq!(p.seq(), 2);
        p.reset();
        assert_eq!(p.seq(), 0);
        assert!(p.is_active());
    }
}
