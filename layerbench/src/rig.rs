//! The measurement rig the single-System workloads share: how a
//! repetition builds its System, the meter every simulated call goes
//! through, and what one repetition records.

use std::fmt::Debug;
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::Instant;

use bypassd::{System, TraceConfig, UserProcess};
use bypassd_sim::{ActorCtx, Simulation};
use bypassd_trace::{DeviceRecord, MetricValue, OpRecord};

use crate::host;
use crate::model::BLOCK;
use crate::spans::{ns_since, Span, SpanLog};
use crate::stats::Ratio;

/// Every pass makes at least this many repetitions, whatever
/// `--seconds` says, so each host median has three values behind it.
pub const MIN_REPS: usize = 3;

/// Recorder ring capacity per record kind in traced repetitions. The
/// recorder splits it over 16 shards, by queue for device records and
/// by pid for op records.
const RING: usize = 1 << 18;
const SHARD_CAP: u64 = (RING / 16) as u64;

/// Smallest power-of-two sampling period that keeps `records` per
/// recorder shard within three quarters of the shard's ring.
pub fn sample_every_for(records: u64) -> u32 {
    let period = records
        .div_ceil(SHARD_CAP * 3 / 4)
        .max(1)
        .next_power_of_two();
    u32::try_from(period).unwrap_or(u32::MAX)
}

/// Application call classes; each keeps its own virtual latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Read,
    Flight,
    Write,
    Append,
    Fsync,
}

impl Class {
    pub const ALL: [Class; 5] = [
        Class::Read,
        Class::Flight,
        Class::Write,
        Class::Append,
        Class::Fsync,
    ];

    /// Host span name of a call in this class.
    pub fn span(self) -> &'static str {
        match self {
            Class::Read => "core.pread",
            Class::Flight => "core.pread_batch",
            Class::Write => "core.pwrite",
            Class::Append => "core.append",
            Class::Fsync => "core.fsync",
        }
    }
}

/// How a repetition runs.
#[derive(Debug, Clone, Copy)]
pub struct Mode {
    /// Recorder sampling period; `None` leaves the recorder off.
    pub sample_every: Option<u32>,
    /// Epoch of the pass's host spans; `None` records no spans.
    pub epoch: Option<Instant>,
}

impl Mode {
    /// Untraced and without spans: how end-to-end numbers are taken.
    pub const PLAIN: Mode = Mode {
        sample_every: None,
        epoch: None,
    };

    /// A fresh System for this mode.
    ///
    /// # Errors
    /// If the flight recorder is on in an untraced repetition.
    pub fn system(self) -> Result<System, String> {
        let mut builder = System::builder();
        if let Some(k) = self.sample_every {
            builder = builder.trace(TraceConfig {
                ring_capacity: RING,
                ..TraceConfig::sampled(k)
            });
        }
        let sys = builder.build();
        if self.sample_every.is_none() && sys.recorder().on() {
            return Err("the flight recorder is on in an untraced repetition".into());
        }
        Ok(sys)
    }
}

/// What one simulated actor measured.
#[derive(Debug)]
pub struct Meter {
    actor: u64,
    epoch: Option<Instant>,
    parent: Option<usize>,
    spans: Vec<Span>,
    calls: u64,
    cpu_start: u64,
    /// Virtual latency of each successful call, per [`Class`].
    pub lat: [Vec<u64>; 5],
    /// Virtual `(start, end)` of each single `pread`, in ns.
    pub read_windows: Vec<(u64, u64)>,
    /// Reads issued inside `pread_batch` flights.
    pub flight_reads: u64,
    /// Application operations attempted (a flight counts its reads).
    pub attempted: u64,
    pub failed: u64,
    /// Reads whose bytes differ from the flat model.
    pub mismatches: u64,
    /// CPU time of the actor's thread, in ns.
    pub cpu_ns: u64,
}

impl Meter {
    /// A meter for actor `actor`; with an epoch, each call becomes a
    /// span under `parent`.
    pub fn new(actor: u64, epoch: Option<Instant>, parent: Option<usize>) -> Meter {
        Meter {
            actor,
            epoch,
            parent,
            spans: Vec::new(),
            calls: 0,
            cpu_start: 0,
            lat: Default::default(),
            read_windows: Vec::new(),
            flight_reads: 0,
            attempted: 0,
            failed: 0,
            mismatches: 0,
            cpu_ns: 0,
        }
    }

    /// Call first thing on the actor's thread.
    pub fn start(&mut self) {
        self.cpu_start = host::thread_cpu_ns();
    }

    /// Call last thing on the actor's thread.
    pub fn finish(&mut self) {
        self.cpu_ns = host::thread_cpu_ns().saturating_sub(self.cpu_start);
    }

    fn stamp(&self) -> u64 {
        self.epoch.map_or(0, ns_since)
    }

    fn close(&mut self, name: &'static str, start_ns: u64) {
        if let Some(epoch) = self.epoch {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: ns_since(epoch),
                parent: self.parent,
                op: (self.actor << 32) | self.calls,
            });
        }
        self.calls += 1;
    }

    /// Times one application call of `class` that counts as `weight`
    /// operations; `None` if it failed.
    pub fn op<T, E>(
        &mut self,
        ctx: &mut ActorCtx,
        class: Class,
        weight: u64,
        call: impl FnOnce(&mut ActorCtx) -> Result<T, E>,
    ) -> Option<T> {
        let host_start = self.stamp();
        let start = ctx.now();
        let out = call(ctx);
        let end = ctx.now();
        self.close(class.span(), host_start);
        self.attempted += weight;
        match out {
            Ok(v) => {
                self.lat[class as usize].push(end.saturating_sub(start).as_nanos());
                match class {
                    Class::Read => self.read_windows.push((start.as_nanos(), end.as_nanos())),
                    Class::Flight => self.flight_reads += weight,
                    _ => {}
                }
                Some(v)
            }
            Err(_) => {
                self.failed += weight;
                None
            }
        }
    }

    /// Times a set-up call (`open`, `close`). It is not an application
    /// operation, and its failure breaks the run.
    pub fn meta<T, E: Debug>(
        &mut self,
        ctx: &mut ActorCtx,
        name: &'static str,
        call: impl FnOnce(&mut ActorCtx) -> Result<T, E>,
    ) -> T {
        let host_start = self.stamp();
        let out = call(ctx);
        self.close(name, host_start);
        out.unwrap_or_else(|e| panic!("{name} failed: {e:?}"))
    }

    /// Counts a read whose bytes differ from the model.
    pub fn check(&mut self, ok: bool) {
        self.mismatches += u64::from(!ok);
    }

    pub fn take_spans(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// Counters and trace records read from a System right after its timed
/// run, before output checks add I/O of their own.
#[derive(Debug)]
pub struct Snapshot {
    pub dev_reads: u64,
    pub dev_writes: u64,
    pub dev_written_bytes: u64,
    pub dev_flushes: u64,
    pub qos_throttled: u64,
    pub qos_deferred: u64,
    iommu: Vec<(String, u64)>,
    pub direct_ops: u64,
    pub fallback_ops: u64,
    pub dropped: u64,
    pub sample_every: u32,
    pub device: Vec<DeviceRecord>,
    pub ops: Vec<OpRecord>,
}

impl Snapshot {
    pub fn take(sys: &System, procs: &[Arc<UserProcess>]) -> Snapshot {
        let dev = sys.device().stats();
        let iommu = sys
            .metrics()
            .gather()
            .into_iter()
            .filter_map(|m| match m.value {
                MetricValue::Counter(v) => {
                    m.name.strip_prefix("iommu.").map(|n| (n.to_string(), v))
                }
                _ => None,
            })
            .collect();
        let (direct_ops, fallback_ops) = procs
            .iter()
            .map(|p| p.op_counts())
            .fold((0, 0), |(d, f), (pd, pf)| (d + pd, f + pf));
        let rec = sys.recorder();
        Snapshot {
            dev_reads: dev.reads,
            dev_writes: dev.writes,
            dev_written_bytes: dev.written_bytes,
            dev_flushes: dev.flushes,
            qos_throttled: dev.qos_throttled,
            qos_deferred: dev.qos_deferred,
            iommu,
            direct_ops,
            fallback_ops,
            dropped: rec.counts().dropped,
            sample_every: rec.sample_every(),
            device: rec.take_device(),
            ops: rec.take_ops(),
        }
    }

    /// An IOMMU counter (`ats_requests`, `pwc_hits`, ...); 0 if absent.
    pub fn iommu(&self, name: &str) -> u64 {
        self.iommu
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }
}

/// Everything a repetition measured on the virtual clock. One seed must
/// give equal values in every repetition, traced or not.
#[derive(Debug, PartialEq, Eq)]
pub struct Virt {
    lat: Vec<Vec<u64>>,
    end_ns: u64,
}

/// One repetition: a fresh System, the seeded program, output checks.
#[derive(Debug)]
pub struct Rep {
    pub setup_s: f64,
    pub populate_s: f64,
    pub run_s: f64,
    pub virt_end_ns: u64,
    pub meters: Vec<Meter>,
    pub snap: Snapshot,
    pub spans: SpanLog,
}

impl Rep {
    /// Fails the repetition if any read disagreed with the model.
    pub fn checked(self) -> Result<Rep, String> {
        let bad: u64 = self.meters.iter().map(|m| m.mismatches).sum();
        if bad > 0 {
            return Err(format!(
                "{bad} reads returned bytes that differ from the flat model"
            ));
        }
        Ok(self)
    }

    pub fn ops(&self) -> u64 {
        self.meters.iter().map(|m| m.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.meters.iter().map(|m| m.failed).sum()
    }

    /// Virtual latencies of one class, in actor order.
    pub fn class(&self, class: Class) -> Vec<u64> {
        self.meters
            .iter()
            .flat_map(|m| m.lat[class as usize].iter().copied())
            .collect()
    }

    pub fn virt(&self) -> Virt {
        Virt {
            lat: Class::ALL.iter().map(|&c| self.class(c)).collect(),
            end_ns: self.virt_end_ns,
        }
    }

    pub fn ops_per_s(&self) -> f64 {
        Ratio::new(self.ops() as f64, self.run_s).value()
    }

    pub fn virt_iops(&self) -> f64 {
        Ratio::new(self.ops() as f64 * 1e9, self.virt_end_ns as f64).value()
    }

    /// Actor-thread CPU time over the run's wall time; 1 − share is the
    /// time the actors spent waiting for the run token.
    pub fn actor_cpu_share(&self) -> f64 {
        let cpu: u64 = self.meters.iter().map(|m| m.cpu_ns).sum();
        Ratio::new(cpu as f64, self.run_s * 1e9).value()
    }

    pub fn user_bytes_written(&self) -> u64 {
        let blocks = self.class(Class::Write).len() + self.class(Class::Append).len();
        (blocks * BLOCK) as u64
    }
}

/// Collects what `n` actors sent back, in actor order.
pub fn gather<T>(rx: &Receiver<(usize, T)>, n: usize) -> Result<Vec<T>, String> {
    let mut got: Vec<(usize, T)> = rx.try_iter().collect();
    if got.len() != n {
        return Err(format!("{} of {n} actors reported back", got.len()));
    }
    got.sort_by_key(|(i, _)| *i);
    Ok(got.into_iter().map(|(_, t)| t).collect())
}

/// Runs `sim` to completion, closes its `sim.run` span and returns the
/// wall seconds of `Simulation::run`.
pub fn run(sim: &Simulation, log: &mut SpanLog, span: Option<usize>) -> f64 {
    let start = Instant::now();
    sim.run();
    let wall = start.elapsed().as_secs_f64();
    log.close(span);
    wall
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_period_keeps_shards_from_dropping() {
        assert_eq!(sample_every_for(0), 1);
        assert_eq!(sample_every_for(SHARD_CAP * 3 / 4), 1);
        assert_eq!(sample_every_for(SHARD_CAP * 3 / 4 + 1), 2);
        let k = u64::from(sample_every_for(65_536));
        assert!(65_536u64.div_ceil(k) <= SHARD_CAP * 3 / 4);
    }
}
