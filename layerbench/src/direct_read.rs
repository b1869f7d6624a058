//! `direct_read`: one process, one thread, 4 KB uniform-random reads of
//! a 64 MB file. Half the reads are single `pread` calls and half travel
//! in 32-read `pread_batch` flights, in an order drawn from the seed.
//!
//! This is the paper's direct data path (UserLib → IOMMU → device) with
//! the conductor out of the picture: a lone actor only ever advances its
//! clock in place. The file spans 32 2 MB regions, well inside the
//! 64-entry page-walk cache. Prediction: a conductor-handoff or fleet
//! change moves nothing here.

use std::sync::{mpsc, Arc};
use std::time::Instant;

use bypassd::{ReadReq, UserProcess};
use bypassd_sim::rng::Rng;
use bypassd_sim::Simulation;

use crate::model::{self, BLOCK, SHARED};
use crate::rig::{self, Class, Meter, Mode, Rep, Snapshot};
use crate::spans::SpanLog;

const FILE_BLOCKS: u64 = 16 * 1024; // 64 MB
const FLIGHT: usize = 32;
/// At least 1,000 flights, so the flight p99 keeps ten samples beyond it.
const FLIGHTS: usize = 1024;
const PREADS: usize = FLIGHT * FLIGHTS;
/// One queue and one pid carry every record, so the busiest recorder
/// shard sees one record per read.
pub const SHARD_RECORDS: u64 = 2 * PREADS as u64;

pub fn rep(seed: u64, mode: Mode) -> Result<Rep, String> {
    let mut log = SpanLog::new(mode.epoch);
    let setup = Instant::now();
    let sys = log.time("system.build", || mode.system())?;
    let populate_s = model::make_file(&sys, &mut log, "/shared", FILE_BLOCKS, SHARED)?;
    let proc_ = UserProcess::start(&sys, 1000, 1000);
    let setup_s = setup.elapsed().as_secs_f64();

    let sim = Simulation::new();
    let run_span = log.open("sim.run", None);
    let (tx, rx) = mpsc::channel();
    let mut meter = Meter::new(0, mode.epoch, run_span);
    let p = Arc::clone(&proc_);
    let mut rng = Rng::new(seed);
    sim.spawn("direct_read", move |ctx| {
        meter.start();
        let mut t = p.thread();
        let fd = meter.meta(ctx, "core.open", |ctx| t.open(ctx, "/shared", false));
        // `true` marks a flight; the seed fixes how the halves interleave.
        let mut steps: Vec<bool> = (0..PREADS + FLIGHTS).map(|i| i < FLIGHTS).collect();
        rng.shuffle(&mut steps);
        let mut buf = vec![0u8; BLOCK];
        let mut bufs = vec![vec![0u8; BLOCK]; FLIGHT];
        let mut blocks = [0u64; FLIGHT];
        for flight in steps {
            if flight {
                for b in &mut blocks {
                    *b = rng.gen_range(FILE_BLOCKS);
                }
                let mut reqs: Vec<ReadReq<'_>> = bufs
                    .iter_mut()
                    .zip(&blocks)
                    .map(|(buf, &b)| ReadReq {
                        offset: b * BLOCK as u64,
                        buf,
                    })
                    .collect();
                let n = meter.op(ctx, Class::Flight, FLIGHT as u64, |ctx| {
                    t.pread_batch(ctx, fd, &mut reqs)
                });
                drop(reqs);
                if let Some(n) = n {
                    meter.check(n == FLIGHT * BLOCK);
                    for (buf, &b) in bufs.iter().zip(&blocks) {
                        meter.check(model::holds(buf, model::tag(SHARED, b, 0)));
                    }
                }
            } else {
                let b = rng.gen_range(FILE_BLOCKS);
                let n = meter.op(ctx, Class::Read, 1, |ctx| {
                    t.pread(ctx, fd, &mut buf, b * BLOCK as u64)
                });
                if let Some(n) = n {
                    meter.check(n == BLOCK && model::holds(&buf, model::tag(SHARED, b, 0)));
                }
            }
        }
        meter.meta(ctx, "core.close", |ctx| t.close(ctx, fd));
        meter.finish();
        tx.send((0, meter)).expect("the collector outlives the run");
    });
    let run_s = rig::run(&sim, &mut log, run_span);
    let snap = Snapshot::take(&sys, &[proc_]);
    let mut meters = rig::gather(&rx, 1)?;
    for m in &mut meters {
        log.adopt(m.take_spans());
    }
    Rep {
        setup_s,
        populate_s,
        run_s,
        virt_end_ns: sim.now().as_nanos(),
        meters,
        snap,
        spans: log,
    }
    .checked()
}
