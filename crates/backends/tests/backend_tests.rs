//! Cross-backend behaviour: bytes round-trip on every path, media
//! errors surface as `EIO`, latency ordering (the heart of Fig. 6),
//! chained-read advantage (XRP), async overlap (libaio), and the
//! SPDK-vs-BypassD protection story.

use std::sync::Arc;

use parking_lot::Mutex;

use bypassd::System;
use bypassd_backends::{BackendKind, BackendProcess, ChainDecider, OffloadProg, SpdkBackend};
use bypassd_hw::types::Lba;
use bypassd_offload::{Cond, Op, Width, NUM_REGS};
use bypassd_os::Errno;
use bypassd_sim::{Nanos, Simulation};

fn system() -> System {
    System::builder().build()
}

fn measure_4k_read(sys: &System, kind: BackendKind) -> Nanos {
    sys.fs().populate("/bench", 1 << 20, 0x42).unwrap();
    let proc = BackendProcess::new(kind, sys, 0, 0);
    let out = Arc::new(Mutex::new(Nanos::ZERO));
    let o2 = Arc::clone(&out);
    let sim = Simulation::new();
    sim.spawn("t", move |ctx| {
        let mut b = proc.thread();
        let h = b.open(ctx, "/bench", false).unwrap();
        let mut buf = vec![0u8; 4096];
        b.pread(ctx, h, &mut buf, 0).unwrap(); // warm
        let t0 = ctx.now();
        b.pread(ctx, h, &mut buf, 4096).unwrap();
        *o2.lock() = ctx.now() - t0;
        assert!(buf.iter().all(|&x| x == 0x42), "{kind}: wrong data");
    });
    sim.run();
    let v = *out.lock();
    v
}

/// A 3-block chain image: block 0 points at block 2, block 2 at block
/// 1, and block 1 ends the chain. Each block's first 8 bytes hold the
/// next offset (`u64::MAX` for none); the rest is the block's index.
fn chain_image() -> Vec<u8> {
    let mut image = vec![0u8; 3 * 4096];
    for (block, next) in [(0, 8192u64), (1, u64::MAX), (2, 4096)] {
        let b = &mut image[block * 4096..(block + 1) * 4096];
        b.fill(block as u8 + 1);
        b[..8].copy_from_slice(&next.to_le_bytes());
    }
    image
}

/// The chain rule of [`chain_image`] as an IR program.
fn chain_ops() -> Vec<Op> {
    vec![
        Op::Imm { dst: 1, imm: 0 },
        Op::Load {
            dst: 0,
            width: Width::U64,
            base: 1,
            disp: 0,
        },
        Op::Imm {
            dst: 2,
            imm: u64::MAX,
        },
        Op::Jmp {
            cond: Cond::Eq,
            a: 0,
            b: 2,
            skip: 1,
        },
        Op::Resubmit { addr: 0 },
        Op::Return,
    ]
}

/// Every kind through the one `Backend` type: open → pwrite → pread of
/// the same bytes → fsync → a 3-hop chained read decided by a closure
/// and by a loaded program → close. An engine handle runs only on XRP's
/// driver hook and BypassD+offload's device; elsewhere it is `Inval`.
#[test]
fn every_kind_round_trips_bytes_and_chains() {
    let sys = system();
    let image = chain_image();
    let last_block = image[4096..4096 + 512].to_vec();
    let engines = [BackendKind::Xrp, BackendKind::BypassdOffload];
    for (i, kind) in BackendKind::all().into_iter().enumerate() {
        let path = format!("/rt{i}");
        sys.fs().populate(&path, 4 * 4096, 0).unwrap();
        let proc = BackendProcess::new(kind, &sys, 0, 0);
        let (image, last_block) = (image.clone(), last_block.clone());
        let sim = Simulation::new();
        let sys2 = sys.clone();
        sim.spawn("t", move |ctx| {
            let mut b = proc.thread();
            let h = b.open(ctx, &path, true).unwrap();
            assert_eq!(b.pwrite(ctx, h, &image, 0), Ok(image.len()), "{kind}");
            let mut back = vec![0u8; image.len()];
            assert_eq!(b.pread(ctx, h, &mut back, 0), Ok(image.len()), "{kind}");
            assert!(back == image, "{kind}: pread returned other bytes");
            b.fsync(ctx, h).unwrap();

            let mut hops = 0;
            let mut next = |block: &[u8]| {
                hops += 1;
                let next = u64::from_le_bytes(block[..8].try_into().unwrap());
                (next != u64::MAX).then_some(next)
            };
            let got = b.chained_read(ctx, h, 0, 512, ChainDecider::Host(&mut next));
            assert_eq!(got.as_ref(), Ok(&last_block), "{kind}: closure chain");
            assert_eq!(hops, 3, "{kind}: closure chain hops");

            let prog = b.prog_load(ctx, &chain_ops()).unwrap();
            let has_engine = matches!(prog, OffloadProg::Engine(_));
            assert_eq!(has_engine, engines.contains(&kind), "{kind}: prog_load");
            let regs = [0u64; NUM_REGS];
            let got = b.chained_read(ctx, h, 0, 512, ChainDecider::Prog(&prog, regs));
            assert_eq!(got.as_ref(), Ok(&last_block), "{kind}: program chain");
            if !has_engine {
                let pid = sys2.kernel().spawn_process(0, 0);
                let handle = sys2.kernel().sys_prog_load(ctx, pid, chain_ops()).unwrap();
                let engine = OffloadProg::Engine(handle);
                let got = b.chained_read(ctx, h, 0, 512, ChainDecider::Prog(&engine, regs));
                assert_eq!(got, Err(Errno::Inval), "{kind}: engine handle");
            }
            b.close(ctx, h).unwrap();
        });
        sim.run();
    }
}

/// Under a plan that fails reads 0 and 1 (so a path that retries once
/// still fails) and drops the third queue completion, every read returns
/// the file's true bytes or `Io`: never other bytes, and no panic.
#[test]
fn media_errors_surface_as_eio_on_every_path() {
    for kind in BackendKind::all() {
        let sys = system();
        sys.fs().populate("/m", 16 * 4096, 0x5A).unwrap();
        let proc = BackendProcess::new(kind, &sys, 0, 0);
        let plane = sys.device().fault_plane();
        let outcomes = Arc::new(Mutex::new(Vec::new()));
        let out = Arc::clone(&outcomes);
        let sim = Simulation::new();
        sim.spawn("t", move |ctx| {
            let mut b = proc.thread();
            let h = b.open(ctx, "/m", false).unwrap();
            plane.fail_reads(vec![0, 1, 4, 9]);
            plane.drop_completions(vec![2]);
            for i in 0..8u64 {
                let mut buf = vec![0u8; 4096];
                let res = b.pread(ctx, h, &mut buf, i * 4096);
                if res.is_ok() {
                    assert!(
                        buf.iter().all(|&x| x == 0x5A),
                        "{kind}: read {i} wrong bytes"
                    );
                }
                out.lock().push(res);
            }
            assert!(
                plane.stats().read_errors > 0,
                "{kind}: the plan never fired"
            );
        });
        sim.run();
        for (i, res) in outcomes.lock().iter().enumerate() {
            assert!(
                matches!(res, Ok(4096) | Err(Errno::Io)),
                "{kind}: read {i} returned {res:?}"
            );
        }
    }
}

#[test]
fn fig6_latency_ordering_4k_read() {
    // Paper Fig. 6 ordering at 4KB: spdk < bypassd < io_uring < sync≈libaio.
    let lat: Vec<(BackendKind, Nanos)> = [
        BackendKind::Spdk,
        BackendKind::Bypassd,
        BackendKind::IoUring,
        BackendKind::Sync,
        BackendKind::Libaio,
    ]
    .into_iter()
    .map(|k| (k, measure_4k_read(&system(), k)))
    .collect();
    let get = |k: BackendKind| lat.iter().find(|(x, _)| *x == k).unwrap().1;
    let (spdk, byp, uring, sync, aio) = (
        get(BackendKind::Spdk),
        get(BackendKind::Bypassd),
        get(BackendKind::IoUring),
        get(BackendKind::Sync),
        get(BackendKind::Libaio),
    );
    assert!(spdk < byp, "spdk {spdk} !< bypassd {byp}");
    assert!(byp < uring, "bypassd {byp} !< io_uring {uring}");
    assert!(uring < sync, "io_uring {uring} !< sync {sync}");
    assert!(sync <= aio, "sync {sync} > libaio {aio}");
    // BypassD ≈ SPDK + one VBA translation (~550ns, §6.5).
    let delta = (byp - spdk).as_nanos();
    assert!(
        (300..900).contains(&delta),
        "bypassd-spdk gap = {delta}ns (expected ~550ns translation)"
    );
    // And ~25-45% below sync (the paper reports 42% for 4KB).
    let improvement = 1.0 - byp.as_nanos() as f64 / sync.as_nanos() as f64;
    assert!(
        (0.25..0.50).contains(&improvement),
        "bypassd improvement over sync = {improvement:.2}"
    );
}

#[test]
fn xrp_chained_read_beats_sync_loses_to_bypassd() {
    // 7 dependent I/Os (BPF-KV's lookup shape, Fig. 15).
    let sys = system();
    sys.fs().populate("/chain", 1 << 20, 0).unwrap();
    let chain_time = |kind: BackendKind| {
        sys.reset_virtual_time();
        let proc = BackendProcess::new(kind, &sys, 0, 0);
        let out = Arc::new(Mutex::new(Nanos::ZERO));
        let o2 = Arc::clone(&out);
        let sim = Simulation::new();
        sim.spawn("t", move |ctx| {
            let mut b = proc.thread();
            let h = b.open(ctx, "/chain", false).unwrap();
            let mut buf = vec![0u8; 512];
            b.pread(ctx, h, &mut buf, 0).unwrap(); // warm
            let t0 = ctx.now();
            let mut hops = 0;
            let mut next = |_: &[u8]| {
                hops += 1;
                (hops < 7).then(|| hops * 4096)
            };
            b.chained_read(ctx, h, 0, 512, ChainDecider::Host(&mut next))
                .unwrap();
            *o2.lock() = ctx.now() - t0;
            // Release the open so later backends can fmap the same file
            // (a lingering kernel-interface open denies fmap, §4.5.2).
            b.close(ctx, h).unwrap();
        });
        sim.run();
        let v = *out.lock();
        v
    };
    let sync = chain_time(BackendKind::Sync);
    let xrp = chain_time(BackendKind::Xrp);
    let byp = chain_time(BackendKind::Bypassd);
    let spdk = chain_time(BackendKind::Spdk);
    assert!(xrp < sync, "xrp {xrp} !< sync {sync}");
    assert!(byp < xrp, "bypassd {byp} !< xrp {xrp} (paper §6.5)");
    assert!(spdk < byp, "spdk {spdk} !< bypassd {byp}");
    // BypassD pays ~550ns × 7 ≈ 4µs more than SPDK (paper §6.5).
    let gap = (byp - spdk).as_micros_f64();
    assert!(
        (2.0..6.0).contains(&gap),
        "bypassd-spdk chain gap = {gap}us"
    );
}

#[test]
fn libaio_overlaps_with_submit_poll() {
    let sys = system();
    sys.fs().populate("/a", 1 << 20, 1).unwrap();
    let proc = bypassd_backends::BackendProcess::libaio(&sys, 0, 0, 64);
    let out = Arc::new(Mutex::new((Nanos::ZERO, Nanos::ZERO)));
    let o2 = Arc::clone(&out);
    let sim = Simulation::new();
    sim.spawn("t", move |ctx| {
        let mut b = proc.thread();
        let h = b.open(ctx, "/a", false).unwrap();
        // Sequential: 8 preads.
        let t0 = ctx.now();
        let mut buf = vec![0u8; 4096];
        for i in 0..8 {
            b.pread(ctx, h, &mut buf, i * 4096).unwrap();
        }
        let seq = ctx.now() - t0;
        // Batched: 8 submits + poll.
        let t1 = ctx.now();
        for i in 0..8u64 {
            b.submit(ctx, h, false, i * 4096, Ok(4096), i).unwrap();
        }
        let mut got = 0;
        while got < 8 {
            let evs = b.poll(ctx, 8 - got).unwrap();
            for (_, data) in &evs {
                assert!(data.iter().all(|&x| x == 1));
            }
            got += evs.len();
        }
        let batched = ctx.now() - t1;
        *o2.lock() = (seq, batched);
    });
    sim.run();
    let (seq, batched) = *out.lock();
    // Per-iocb kernel work (~3.8µs) stays serial on the submitting core,
    // so the win is bounded: device time overlaps, CPU time does not.
    assert!(
        batched < seq * 2 / 3,
        "batched ({batched}) should overlap device time vs sequential ({seq})"
    );
    assert!(
        batched > Nanos(8 * 3_000),
        "batched ({batched}) cannot beat the serial CPU floor"
    );
}

#[test]
fn default_submit_poll_is_synchronous_but_correct() {
    let sys = system();
    sys.fs().populate("/s", 64 * 1024, 9).unwrap();
    let proc = BackendProcess::new(BackendKind::Bypassd, &sys, 0, 0);
    let sim = Simulation::new();
    sim.spawn("t", move |ctx| {
        let mut b = proc.thread();
        let h = b.open(ctx, "/s", false).unwrap();
        for i in 0..4u64 {
            b.submit(ctx, h, false, i * 4096, Ok(4096), 100 + i)
                .unwrap();
        }
        let evs = b.poll(ctx, 4).unwrap();
        assert_eq!(evs.len(), 4);
        let mut tokens: Vec<u64> = evs.iter().map(|(t, _)| *t).collect();
        tokens.sort_unstable();
        assert_eq!(tokens, vec![100, 101, 102, 103]);
        assert!(evs.iter().all(|(_, d)| d.iter().all(|&x| x == 9)));
    });
    sim.run();
}

#[test]
fn spdk_reads_foreign_blocks_bypassd_cannot() {
    // The protection story (§5.3): a secret 0600 file owned by uid 1 is
    // readable by any SPDK process (no checks exist); a BypassD process
    // with the wrong uid cannot open it, and even with a stolen LBA its
    // user queues reject raw-LBA commands.
    let sys = system();
    let fs = sys.fs();
    fs.create("/secret", 0o600, 1, 1).unwrap();
    let ino = fs.lookup("/secret").unwrap();
    fs.allocate(ino, 0, 4096).unwrap();
    let (segs, _) = fs.resolve(ino, 0, 4096).unwrap();
    let secret_lba: Lba = segs[0].0.unwrap();
    sys.device().write_raw(secret_lba, &[0x53u8; 4096]);

    // SPDK process (uid irrelevant — there are no checks) reads it.
    let sim = Simulation::new();
    let sys2 = sys.clone();
    sim.spawn("spdk", move |ctx| {
        let mut raw = SpdkBackend::new(&sys2);
        let mut out = vec![0u8; 4096];
        raw.read_lba(ctx, secret_lba, 8, &mut out).unwrap();
        assert!(
            out.iter().all(|&b| b == 0x53),
            "SPDK must be able to read any block (the hole BypassD closes)"
        );
    });
    sim.run();

    // The BypassD process with uid 1000: open is refused by the kernel,
    // and the device refuses raw LBA commands on its PASID-bound queue.
    let sim = Simulation::new();
    let sys3 = sys.clone();
    sim.spawn("bypassd", move |ctx| {
        let proc = bypassd::UserProcess::start(&sys3, 1000, 1000);
        let mut t = proc.thread();
        let err = t.open(ctx, "/secret", false).unwrap_err();
        assert_eq!(err, bypassd_os::Errno::Perm);

        // Even issuing a raw LBA command on a user queue fails.
        use bypassd_ssd::device::{BlockAddr, Command};
        use bypassd_ssd::dma::DmaBuffer;
        use bypassd_ssd::queue::NvmeStatus;
        let pasid = sys3.kernel().pasid_of(proc.pid());
        let q = sys3.device().create_queue(Some(pasid), 8);
        let dma = DmaBuffer::alloc(sys3.mem(), 4096);
        let (st, _) = sys3.device().execute(
            q,
            Command::read(BlockAddr::Lba(secret_lba), 8, &dma),
            ctx.now(),
        );
        assert_eq!(
            st,
            NvmeStatus::InvalidField,
            "user queues must reject raw LBA addressing"
        );
    });
    sim.run();
}
