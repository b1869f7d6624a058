//! # bypassd-fio
//!
//! A fio-style workload generator (the paper uses fio \[8\] for all of
//! §6.3's microbenchmarks): synchronous jobs at queue depth 1, random or
//! sequential, read/write/mixed, with per-op latency histograms and
//! aggregate throughput. Multiple jobs — possibly different backends and
//! processes — run in **one** simulation so they contend for the device,
//! which is what the sharing experiments (Figs. 10–12) measure.

use std::sync::Arc;

use parking_lot::Mutex;

use bypassd::System;
use bypassd_backends::BackendProcess;
use bypassd_sim::rng::Rng;
use bypassd_sim::stats::Throughput;
use bypassd_sim::time::Nanos;
use bypassd_sim::Simulation;
use bypassd_trace::Histogram;

/// Access pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RwMode {
    /// Sequential reads.
    Read,
    /// Sequential writes.
    Write,
    /// Uniform-random reads.
    RandRead,
    /// Uniform-random writes.
    RandWrite,
    /// Random mix; the field is the read fraction.
    RandRw(f64),
}

impl RwMode {
    fn is_read(self, rng: &mut Rng) -> bool {
        match self {
            RwMode::Read | RwMode::RandRead => true,
            RwMode::Write | RwMode::RandWrite => false,
            RwMode::RandRw(p) => rng.gen_bool(p),
        }
    }

    fn is_random(self) -> bool {
        matches!(
            self,
            RwMode::RandRead | RwMode::RandWrite | RwMode::RandRw(_)
        )
    }
}

/// One fio job (one process; `threads` workers inside it).
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Label for reports.
    pub name: String,
    /// Access pattern.
    pub mode: RwMode,
    /// Block size in bytes.
    pub block_size: u64,
    /// File path; with `per_thread_files`, `-<tid>` is appended.
    pub file: String,
    /// File size in bytes.
    pub file_size: u64,
    /// Worker threads.
    pub threads: usize,
    /// Measured operations per thread.
    pub ops_per_thread: u64,
    /// Unmeasured warm-up operations per thread.
    pub warmup_ops: u64,
    /// Give each thread its own file (the paper's multi-writer setup).
    pub per_thread_files: bool,
    /// RNG seed.
    pub seed: u64,
    /// Start offset into virtual time (staggered arrivals).
    pub start_at: Nanos,
}

/// Aggregated result of one job.
#[derive(Debug)]
pub struct JobResult {
    /// The job's label plus backend name.
    pub label: String,
    /// Per-op completion latency.
    pub latency: Histogram,
    /// Ops/bytes completed (measured ops only).
    pub throughput: Throughput,
    /// Wall (virtual) time of the measured phase across threads.
    pub elapsed: Nanos,
}

impl JobResult {
    /// Mean latency.
    pub fn mean_latency(&self) -> Nanos {
        self.latency.mean()
    }

    /// Bandwidth in GB/s.
    pub fn gbps(&self) -> f64 {
        self.throughput.gb_per_sec(self.elapsed)
    }

    /// Bandwidth in MB/s.
    pub fn mbps(&self) -> f64 {
        self.throughput.mb_per_sec(self.elapsed)
    }

    /// Thousands of IOPS.
    pub fn kiops(&self) -> f64 {
        self.throughput.kops_per_sec(self.elapsed)
    }
}

struct ThreadOutcome {
    hist: Histogram,
    tp: Throughput,
    start: Nanos,
    end: Nanos,
}

/// Runs several jobs concurrently in one simulation. Files are created
/// and populated (untimed) before the clock starts.
pub fn run_jobs(system: &System, jobs: Vec<(BackendProcess, JobSpec)>) -> Vec<JobResult> {
    // A fresh simulation starts at t=0: drop any previous run's device
    // backlog.
    system.reset_virtual_time();
    // Setup: populate every file.
    for (_, spec) in &jobs {
        let paths: Vec<String> = if spec.per_thread_files {
            (0..spec.threads)
                .map(|t| format!("{}-{t}", spec.file))
                .collect()
        } else {
            vec![spec.file.clone()]
        };
        for p in paths {
            system
                .fs()
                .populate(&p, spec.file_size, 0x5A)
                .expect("populate failed");
        }
    }

    let sim = Simulation::new();
    let mut collectors: Vec<(String, Arc<Mutex<Vec<ThreadOutcome>>>)> = Vec::new();
    for (job_idx, (proc, spec)) in jobs.into_iter().enumerate() {
        let label = format!("{}/{}", proc.kind().label(), spec.name);
        let sink: Arc<Mutex<Vec<ThreadOutcome>>> = Arc::new(Mutex::new(Vec::new()));
        collectors.push((label, Arc::clone(&sink)));
        for tid in 0..spec.threads {
            let proc = proc.clone();
            let spec = spec.clone();
            let sink = Arc::clone(&sink);
            let name = format!("j{job_idx}t{tid}");
            sim.spawn_at(spec.start_at, &name, move |ctx| {
                let mut backend = proc.thread();
                let path = if spec.per_thread_files {
                    format!("{}-{tid}", spec.file)
                } else {
                    spec.file.clone()
                };
                let writable = !matches!(spec.mode, RwMode::Read | RwMode::RandRead);
                let h = backend
                    .open(ctx, &path, writable)
                    .expect("backend open failed");
                let mut rng = Rng::new(spec.seed ^ (0x9E3779B9 * (tid as u64 + 1)));
                let blocks = (spec.file_size / spec.block_size).max(1);
                let mut buf = vec![0u8; spec.block_size as usize];
                let mut hist = Histogram::new();
                let mut tp = Throughput::new();
                let mut seq = 0u64;
                let mut start = Nanos::ZERO;
                for op in 0..spec.warmup_ops + spec.ops_per_thread {
                    if op == spec.warmup_ops {
                        start = ctx.now();
                    }
                    let idx = if spec.mode.is_random() {
                        rng.gen_range(blocks)
                    } else {
                        let i = seq % blocks;
                        seq += 1;
                        i
                    };
                    let offset = idx * spec.block_size;
                    let t0 = ctx.now();
                    if spec.mode.is_read(&mut rng) {
                        backend
                            .pread(ctx, h, &mut buf, offset)
                            .expect("pread failed");
                    } else {
                        buf.fill(op as u8);
                        backend.pwrite(ctx, h, &buf, offset).expect("pwrite failed");
                    }
                    if op >= spec.warmup_ops {
                        hist.record(ctx.now() - t0);
                        tp.record(spec.block_size);
                    }
                }
                let end = ctx.now();
                let _ = backend.close(ctx, h);
                sink.lock().push(ThreadOutcome {
                    hist,
                    tp,
                    start,
                    end,
                });
            });
        }
    }
    sim.run();

    collectors
        .into_iter()
        .map(|(label, sink)| {
            let outcomes = sink.lock();
            let mut latency = Histogram::new();
            let mut throughput = Throughput::new();
            let mut first = Nanos::MAX;
            let mut last = Nanos::ZERO;
            for o in outcomes.iter() {
                latency.merge(&o.hist);
                throughput.merge(&o.tp);
                first = first.min(o.start);
                last = last.max(o.end);
            }
            JobResult {
                label,
                latency,
                throughput,
                elapsed: last.saturating_sub(first),
            }
        })
        .collect()
}

/// Convenience: one job, one backend.
pub fn run_job(system: &System, proc: BackendProcess, spec: JobSpec) -> JobResult {
    run_jobs(system, vec![(proc, spec)])
        .into_iter()
        .next()
        .expect("job produced no result")
}

#[cfg(test)]
mod tests {
    use super::*;
    use bypassd_backends::{BackendKind, BackendProcess};

    fn sys() -> System {
        System::builder().capacity(2 << 30).build()
    }

    fn spec(mode: RwMode, bs: u64, threads: usize, ops: u64) -> JobSpec {
        JobSpec {
            name: "t".into(),
            mode,
            block_size: bs,
            file: "/fio".into(),
            file_size: 64 << 20,
            threads,
            ops_per_thread: ops,
            warmup_ops: 8,
            per_thread_files: false,
            seed: 7,
            start_at: Nanos::ZERO,
        }
    }

    #[test]
    fn op_counts_and_bytes_add_up() {
        let s = sys();
        let f = BackendProcess::new(BackendKind::Bypassd, &s, 0, 0);
        let r = run_job(&s, f, spec(RwMode::RandRead, 4096, 2, 50));
        assert_eq!(r.throughput.ops, 100);
        assert_eq!(r.throughput.bytes, 100 * 4096);
        assert_eq!(r.latency.count(), 100);
        assert!(r.elapsed > Nanos::ZERO);
    }

    #[test]
    fn bypassd_faster_than_sync_in_one_run() {
        let s = sys();
        let r_sync = run_job(
            &s,
            BackendProcess::new(BackendKind::Sync, &s, 0, 0),
            spec(RwMode::RandRead, 4096, 1, 200),
        );
        let r_byp = run_job(
            &s,
            BackendProcess::new(BackendKind::Bypassd, &s, 0, 0),
            spec(RwMode::RandRead, 4096, 1, 200),
        );
        assert!(r_byp.mean_latency() < r_sync.mean_latency());
        assert!(r_byp.kiops() > r_sync.kiops());
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let s = sys();
            let f = BackendProcess::new(BackendKind::Bypassd, &s, 0, 0);
            let r = run_job(&s, f, spec(RwMode::RandRw(0.5), 4096, 2, 64));
            (r.throughput.ops, r.mean_latency(), r.elapsed)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn multi_process_sharing_is_fair() {
        let s = sys();
        let mut jobs = Vec::new();
        for i in 0..4 {
            let mut sp = spec(RwMode::RandWrite, 4096, 1, 150);
            sp.file = format!("/w{i}");
            sp.name = format!("w{i}");
            jobs.push((BackendProcess::new(BackendKind::Bypassd, &s, 0, 0), sp));
        }
        let results = run_jobs(&s, jobs);
        let rates: Vec<f64> = results.iter().map(|r| r.kiops()).collect();
        let max = rates.iter().cloned().fold(0.0, f64::max);
        let min = rates.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            max / min < 1.3,
            "unfair sharing across processes: {rates:?}"
        );
    }

    #[test]
    fn sequential_mode_walks_the_file() {
        let s = sys();
        let f = BackendProcess::new(BackendKind::Sync, &s, 0, 0);
        let r = run_job(&s, f, spec(RwMode::Read, 131_072, 1, 64));
        assert_eq!(r.throughput.ops, 64);
        // 128KB sequential reads: bandwidth should be well above the 4KB
        // point.
        assert!(r.gbps() > 1.0, "seq 128KB bandwidth = {}", r.gbps());
    }

    #[test]
    fn per_thread_files_created() {
        let s = sys();
        let mut sp = spec(RwMode::RandWrite, 4096, 3, 20);
        sp.per_thread_files = true;
        sp.file = "/ptf".into();
        let f = BackendProcess::new(BackendKind::Sync, &s, 0, 0);
        let r = run_job(&s, f, sp);
        assert_eq!(r.throughput.ops, 60);
        assert!(s.fs().lookup("/ptf-0").is_ok());
        assert!(s.fs().lookup("/ptf-2").is_ok());
    }
}
