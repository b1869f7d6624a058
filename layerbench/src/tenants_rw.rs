//! `tenants_rw`: 8 processes, each with its own uid and one actor, on
//! one SSD. Each does 7,000 operations: 70% 4 KB `pread` of a shared
//! 64 MB file, 20% 4 KB overwrites of a private 8 MB file, 8% 4 KB
//! appends to a private log and 2% `fsync` of that log. The counts per
//! class are exact and the seed shuffles them, so every class keeps at
//! least 1,000 samples (ten beyond its p99) on every seed.
//!
//! Every operation hands the run token to another actor, so the
//! conductor dominates host cost. Appends and fsync drive the kernel
//! cost model, ext4 allocation and journal, and device writes and
//! flushes alongside the reads, so a read-path gain that costs writes
//! shows. The 17 files and 8 PASIDs outgrow the page-walk cache.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

use bypassd::{System, UserProcess};
use bypassd_sim::rng::Rng;
use bypassd_sim::Simulation;

use crate::model::{self, BLOCK, SHARED};
use crate::rig::{self, Class, Meter, Mode, Rep, Snapshot};
use crate::spans::SpanLog;

const TENANTS: usize = 8;
const SHARED_BLOCKS: u64 = 16 * 1024; // 64 MB
const PRIVATE_BLOCKS: u64 = 2 * 1024; // 8 MB
const MIX: [(Class, usize); 4] = [
    (Class::Read, 4900),
    (Class::Write, 1400),
    (Class::Append, 560),
    (Class::Fsync, 140),
];
/// Each pid's op records and each queue's device records share a
/// recorder shard: at most about one record per operation of one tenant.
pub const SHARD_RECORDS: u64 = 7000;

fn private_path(p: usize) -> String {
    format!("/private-{p}")
}

fn log_path(p: usize) -> String {
    format!("/log-{p}")
}

fn actor_seed(seed: u64, p: usize) -> u64 {
    seed ^ (p as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// What one tenant's private files should hold: the last version
/// written to each private block, and the blocks appended to its log.
#[derive(Debug)]
struct Files {
    versions: Vec<u64>,
    appends: u64,
}

pub fn rep(seed: u64, mode: Mode) -> Result<Rep, String> {
    let mut log = SpanLog::new(mode.epoch);
    let setup = Instant::now();
    let sys = log.time("system.build", || mode.system())?;
    let mut populate_s = model::make_file(&sys, &mut log, "/shared", SHARED_BLOCKS, SHARED)?;
    for p in 0..TENANTS {
        let private = model::private_file(p);
        populate_s += model::make_file(&sys, &mut log, &private_path(p), PRIVATE_BLOCKS, private)?;
        sys.fs()
            .create(&log_path(p), 0o666, 0, 0)
            .map_err(|e| format!("create {}: {e:?}", log_path(p)))?;
    }
    let procs: Vec<Arc<UserProcess>> = (0..TENANTS as u32)
        .map(|p| UserProcess::start(&sys, 1000 + p, 1000 + p))
        .collect();
    let setup_s = setup.elapsed().as_secs_f64();

    let sim = Simulation::new();
    let run_span = log.open("sim.run", None);
    let (tx, rx) = mpsc::channel();
    for (p, proc_) in procs.iter().enumerate() {
        let mut meter = Meter::new(p as u64, mode.epoch, run_span);
        let proc_ = Arc::clone(proc_);
        let tx = tx.clone();
        let mut rng = Rng::new(actor_seed(seed, p));
        sim.spawn(&format!("tenant{p}"), move |ctx| {
            meter.start();
            let mut t = proc_.thread();
            let shared = meter.meta(ctx, "core.open", |ctx| t.open(ctx, "/shared", false));
            let private = meter.meta(ctx, "core.open", |ctx| t.open(ctx, &private_path(p), true));
            let logfd = meter.meta(ctx, "core.open", |ctx| t.open(ctx, &log_path(p), true));
            let mut plan: Vec<Class> = MIX
                .iter()
                .flat_map(|&(c, n)| std::iter::repeat_n(c, n))
                .collect();
            rng.shuffle(&mut plan);
            let mut files = Files {
                versions: vec![0; PRIVATE_BLOCKS as usize],
                appends: 0,
            };
            let mut buf = vec![0u8; BLOCK];
            for class in plan {
                match class {
                    Class::Read => {
                        let b = rng.gen_range(SHARED_BLOCKS);
                        let n = meter.op(ctx, class, 1, |ctx| {
                            t.pread(ctx, shared, &mut buf, b * BLOCK as u64)
                        });
                        if let Some(n) = n {
                            meter.check(n == BLOCK && model::holds(&buf, model::tag(SHARED, b, 0)));
                        }
                    }
                    Class::Write => {
                        let b = rng.gen_range(PRIVATE_BLOCKS);
                        let v = files.versions[b as usize] + 1;
                        model::fill(&mut buf, model::tag(model::private_file(p), b, v));
                        let off = b * BLOCK as u64;
                        if meter
                            .op(ctx, class, 1, |ctx| t.pwrite(ctx, private, &buf, off))
                            .is_some()
                        {
                            files.versions[b as usize] = v;
                        }
                    }
                    Class::Append => {
                        let k = files.appends;
                        model::fill(&mut buf, model::tag(model::log_file(p), k, 0));
                        let off = k * BLOCK as u64;
                        if meter
                            .op(ctx, class, 1, |ctx| t.pwrite(ctx, logfd, &buf, off))
                            .is_some()
                        {
                            files.appends += 1;
                        }
                    }
                    Class::Fsync => {
                        meter.op(ctx, class, 1, |ctx| t.fsync(ctx, logfd));
                    }
                    Class::Flight => unreachable!("tenants issue no flights"),
                }
            }
            for fd in [shared, private, logfd] {
                meter.meta(ctx, "core.close", |ctx| t.close(ctx, fd));
            }
            meter.finish();
            tx.send((p, (meter, files)))
                .expect("the collector outlives the run");
        });
    }
    drop(tx);
    let run_s = rig::run(&sim, &mut log, run_span);
    let virt_end_ns = sim.now().as_nanos();
    let snap = Snapshot::take(&sys, &procs);
    let (mut meters, files): (Vec<Meter>, Vec<Files>) =
        rig::gather(&rx, TENANTS)?.into_iter().unzip();
    for m in &mut meters {
        log.adopt(m.take_spans());
    }
    log.time("verify", || read_back(&sys, &procs, files))?;
    Rep {
        setup_s,
        populate_s,
        run_s,
        virt_end_ns,
        meters,
        snap,
        spans: log,
    }
    .checked()
}

/// After the timed run, reads every private block and every log block
/// back through UserLib and checks them against the model.
fn read_back(sys: &System, procs: &[Arc<UserProcess>], files: Vec<Files>) -> Result<(), String> {
    sys.reset_virtual_time();
    let sim = Simulation::new();
    let bad = Arc::new(AtomicU64::new(0));
    let procs = procs.to_vec();
    let count = Arc::clone(&bad);
    sim.spawn("read_back", move |ctx| {
        // ordering: Relaxed — a tally read after `Simulation::run` joins this thread.
        let check = |ok: bool| count.fetch_add(u64::from(!ok), Ordering::Relaxed);
        let mut buf = vec![0u8; BLOCK];
        for (p, (proc_, f)) in procs.iter().zip(&files).enumerate() {
            let mut t = proc_.thread();
            let fd = t
                .open(ctx, &private_path(p), false)
                .expect("reopen private file");
            for (b, &v) in (0u64..).zip(&f.versions) {
                let n = t.pread(ctx, fd, &mut buf, b * BLOCK as u64);
                let want = model::tag(model::private_file(p), b, v);
                check(matches!(n, Ok(BLOCK)) && model::holds(&buf, want));
            }
            t.close(ctx, fd).expect("close private file");
            let fd = t.open(ctx, &log_path(p), false).expect("reopen log");
            check(matches!(t.size(fd), Ok(s) if s == f.appends * BLOCK as u64));
            for k in 0..f.appends {
                let n = t.pread(ctx, fd, &mut buf, k * BLOCK as u64);
                check(
                    matches!(n, Ok(BLOCK))
                        && model::holds(&buf, model::tag(model::log_file(p), k, 0)),
                );
            }
            t.close(ctx, fd).expect("close log");
        }
    });
    sim.run();
    // ordering: Relaxed — the writer thread was joined by `run`.
    match bad.load(Ordering::Relaxed) {
        0 => Ok(()),
        n => Err(format!("{n} blocks read back differ from the flat model")),
    }
}
