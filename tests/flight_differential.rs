//! Flight differential: batched reads (`pread_batch`) from several actors
//! at once, each on its own process and `thread_with` queue, must return
//! exactly the bytes of a flat model of the file, whose every sector
//! holds distinct bytes. Faults vary per case:
//!
//! * armed media errors demote the faulted slots of a flight to the
//!   sequential path mid-flight;
//! * dropped completions send un-reaped slots through the lost-CQ
//!   re-issue loop.
//!
//! A flight may fail with `EIO` only while read errors are armed (a
//! re-issued read ran out of retries). A flight that returns `Ok` must
//! hold the model's bytes in every slot.
//!
//! `reissued_slots_never_overwrite_slot_zero` is the case that caught a
//! re-issued slot's sequential read landing in slot 0's DMA bytes before
//! slot 0 was copied out: with several actors sharing the device, slot 0
//! can complete after a faulted slot. CI runs this file in release mode
//! with a raised `PROPTEST_CASES`.

use std::sync::Arc;

use bypassd::{ReadReq, System, UserProcess};
use bypassd_faults::plane::{FaultPlane, FaultStats};
use bypassd_os::Errno;
use bypassd_sim::rng::Rng;
use bypassd_sim::Simulation;
use parking_lot::Mutex;
use proptest::prelude::*;

const SECTOR: u64 = 512;
const BLOCK: u64 = 4096;
const BLOCKS: u64 = 64;
const FILE: u64 = BLOCKS * BLOCK;

/// Byte `pos` of the file: each sector's bytes differ from every other
/// sector's, so a slot that returns another slot's block fails.
fn model_byte(pos: u64) -> u8 {
    let sector = (pos / SECTOR).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56;
    sector as u8 ^ (pos % 251) as u8
}

/// One run: `actors` actors, each on `thread_with(depth, dma_len)`,
/// issuing `flights` batches; actor 0 re-arms the faults every third
/// flight.
#[derive(Debug, Clone, Copy)]
struct Case {
    seed: u64,
    actors: usize,
    depth: usize,
    dma_len: usize,
    flights: usize,
    read_errors: bool,
    drops: bool,
}

/// What a run saw: wrong slots (as messages), flights that failed, and
/// the faults that fired.
#[derive(Default)]
struct Outcome {
    wrong: Vec<String>,
    eio: usize,
    faults: FaultStats,
}

fn run(case: Case) -> Outcome {
    let plane = Arc::new(FaultPlane::new());
    let sys = System::builder()
        .capacity(1 << 30)
        .fault_plane(Arc::clone(&plane))
        .build();
    let ino = sys.fs().populate("/f", FILE, 0).unwrap();
    for b in 0..BLOCKS {
        let (segs, _) = sys.fs().resolve(ino, b * BLOCK, BLOCK).unwrap();
        let data: Vec<u8> = (b * BLOCK..(b + 1) * BLOCK).map(model_byte).collect();
        sys.device().write_raw(segs[0].0.unwrap(), &data);
    }
    let out = Arc::new(Mutex::new(Outcome::default()));
    let sim = Simulation::new();
    for a in 0..case.actors {
        let (sys, plane, out) = (sys.clone(), Arc::clone(&plane), Arc::clone(&out));
        sim.spawn(&format!("reader{a}"), move |ctx| {
            let proc = UserProcess::start(&sys, 0, 0);
            let mut t = proc.thread_with(case.depth, case.dma_len);
            let fd = t.open(ctx, "/f", false).unwrap();
            let slot = (case.dma_len / case.depth) as u64;
            let mut rng = Rng::new(case.seed ^ ((a as u64) << 32));
            let mut bufs = vec![vec![0u8; slot as usize]; 2 * case.depth];
            for f in 0..case.flights {
                if a == 0 && f % 3 == 0 {
                    let mut nths = |span: u64| {
                        let mut v: Vec<u64> = (0..1 + rng.gen_range(3))
                            .map(|_| rng.gen_range(span))
                            .collect();
                        v.sort_unstable();
                        v.dedup();
                        v
                    };
                    if case.read_errors {
                        plane.fail_reads(nths(3 * case.depth as u64));
                    }
                    if case.drops {
                        plane.drop_completions(nths(2 * case.depth as u64));
                    }
                }
                let width = 1 + rng.gen_range(2 * case.depth as u64) as usize;
                let mut reqs: Vec<ReadReq<'_>> = bufs[..width]
                    .iter_mut()
                    .map(|buf| {
                        let len = SECTOR * (1 + rng.gen_range(slot / SECTOR));
                        let offset = SECTOR * rng.gen_range((FILE - len) / SECTOR + 1);
                        buf.fill(0xEE);
                        ReadReq {
                            offset,
                            buf: &mut buf[..len as usize],
                        }
                    })
                    .collect();
                let want: usize = reqs.iter().map(|r| r.buf.len()).sum();
                let got = t.pread_batch(ctx, fd, &mut reqs);
                let mut out = out.lock();
                match got {
                    Ok(n) if n == want => {}
                    Err(Errno::Io) if case.read_errors => {
                        out.eio += 1;
                        continue;
                    }
                    other => {
                        out.wrong
                            .push(format!("actor {a} flight {f}: {other:?}, want Ok({want})"));
                        continue;
                    }
                }
                for (i, r) in reqs.iter().enumerate() {
                    let at = (r.offset..r.offset + r.buf.len() as u64)
                        .position(|pos| r.buf[(pos - r.offset) as usize] != model_byte(pos));
                    if let Some(k) = at {
                        out.wrong.push(format!(
                            "actor {a} flight {f} slot {i} (offset {}, {} B): byte {k} differs",
                            r.offset,
                            r.buf.len()
                        ));
                    }
                }
            }
        });
    }
    sim.run();
    let mut out = Arc::try_unwrap(out).ok().unwrap().into_inner();
    out.faults = plane.stats();
    out
}

#[test]
fn reissued_slots_never_overwrite_slot_zero() {
    for seed in 0..24 {
        let case = Case {
            seed,
            actors: 3,
            depth: 8,
            dma_len: 32 << 10,
            flights: 30,
            read_errors: true,
            drops: false,
        };
        let out = run(case);
        assert!(out.faults.read_errors > 0, "{case:?}: no read error fired");
        assert!(
            out.wrong.is_empty(),
            "{case:?}: {} wrong slots, first {:?}",
            out.wrong.len(),
            &out.wrong[..out.wrong.len().min(4)]
        );
    }
}

proptest! {
    #[test]
    fn flights_match_the_flat_model(
        seed: u64,
        actors in 1usize..5,
        depth_log in 0u32..5,
        dma_pages in 1usize..9,
        read_errors: bool,
        drops: bool,
    ) {
        let depth = 1 << depth_log;
        // At least one sector per slot.
        let dma_len = (dma_pages * BLOCK as usize).max(depth * SECTOR as usize);
        let case = Case { seed, actors, depth, dma_len, flights: 12, read_errors, drops };
        let out = run(case);
        prop_assert!(
            out.wrong.is_empty(),
            "{:?}: {} wrong slots, first {:?}",
            case,
            out.wrong.len(),
            &out.wrong[..out.wrong.len().min(4)]
        );
        prop_assert!(read_errors || out.eio == 0, "{:?}: EIO with no read error armed", case);
        prop_assert!(!read_errors || out.faults.read_errors > 0, "{:?}: no read error fired", case);
        prop_assert!(!drops || out.faults.completions_dropped > 0, "{:?}: no completion dropped", case);
    }
}
