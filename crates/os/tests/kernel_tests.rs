//! Kernel syscall-path tests: Table 1 calibration, data integrity,
//! buffered vs direct, aio, io_uring, fmap plumbing.

use std::sync::Arc;

use parking_lot::Mutex;

use bypassd_ext4::{Ext4, Ext4Options};
use bypassd_hw::iommu::Iommu;
use bypassd_hw::types::DevId;
use bypassd_hw::PhysMem;
use bypassd_os::aio::{AioData, AioOp};
use bypassd_os::{CostModel, Errno, Kernel, OpenFlags};
use bypassd_sim::{Nanos, Simulation};
use bypassd_ssd::device::NvmeDevice;
use bypassd_ssd::timing::MediaTiming;

fn kernel() -> Arc<Kernel> {
    let mem = PhysMem::new();
    let iommu = Arc::new(Mutex::new(Iommu::new(&mem)));
    let dev = NvmeDevice::new(DevId(1), 8 << 20, MediaTiming::default(), iommu); // 4 GB
    let fs = Arc::new(Ext4::format(&dev, &mem, Ext4Options::default()));
    Kernel::new(&mem, fs, CostModel::default(), 4096)
}

/// Runs `f` as a single simulated actor and returns the elapsed virtual
/// time.
fn run_actor(
    k: &Arc<Kernel>,
    f: impl FnOnce(&mut bypassd_sim::ActorCtx, &Kernel) + Send + 'static,
) -> Nanos {
    let sim = Simulation::new();
    let k2 = Arc::clone(k);
    sim.spawn("test", move |ctx| f(ctx, &k2));
    sim.run();
    sim.now()
}

#[test]
fn table1_sync_4k_read_latency() {
    let k = kernel();
    k.fs().populate("/data", 1 << 20, 0x11).unwrap();
    let elapsed = Arc::new(Mutex::new(Nanos::ZERO));
    let e = Arc::clone(&elapsed);
    run_actor(&k, move |ctx, k| {
        let pid = k.spawn_process(1000, 1000);
        let fd = k
            .sys_open(ctx, pid, "/data", OpenFlags::rdonly_direct(), 0)
            .unwrap();
        let mut buf = vec![0u8; 4096];
        // Warm the extent cache with one read, then measure.
        k.sys_pread(ctx, pid, fd, &mut buf, 0).unwrap();
        let t0 = ctx.now();
        k.sys_pread(ctx, pid, fd, &mut buf, 4096).unwrap();
        *e.lock() = ctx.now() - t0;
    });
    let ns = elapsed.lock().as_nanos();
    // Table 1: 7850ns end to end for a 4KB O_DIRECT read.
    assert!((7600..8200).contains(&ns), "sync 4KB read = {ns}ns");
}

#[test]
fn pread_returns_populated_data() {
    let k = kernel();
    k.fs().populate("/data", 64 * 1024, 0xAB).unwrap();
    run_actor(&k, |ctx, k| {
        let pid = k.spawn_process(0, 0);
        let fd = k
            .sys_open(ctx, pid, "/data", OpenFlags::rdonly_direct(), 0)
            .unwrap();
        let mut buf = vec![0u8; 8192];
        let n = k.sys_pread(ctx, pid, fd, &mut buf, 4096).unwrap();
        assert_eq!(n, 8192);
        assert!(buf.iter().all(|&b| b == 0xAB));
    });
}

#[test]
fn pwrite_then_pread_roundtrip() {
    let k = kernel();
    k.fs().populate("/f", 1 << 20, 0).unwrap();
    run_actor(&k, |ctx, k| {
        let pid = k.spawn_process(0, 0);
        let fd = k
            .sys_open(ctx, pid, "/f", OpenFlags::rdwr_direct(), 0)
            .unwrap();
        // An empty write is the first block-layer call: no buffer to lend.
        assert_eq!(k.sys_pwrite(ctx, pid, fd, &[], 0), Ok(0));
        let data = vec![0x5Au8; 4096];
        k.sys_pwrite(ctx, pid, fd, &data, 8192).unwrap();
        let mut buf = vec![0u8; 4096];
        k.sys_pread(ctx, pid, fd, &mut buf, 8192).unwrap();
        assert_eq!(buf, data);
    });
}

#[test]
fn append_extends_file() {
    let k = kernel();
    run_actor(&k, |ctx, k| {
        let pid = k.spawn_process(0, 0);
        let fd = k
            .sys_open(ctx, pid, "/log", OpenFlags::rdwr_direct().creat(), 0o644)
            .unwrap();
        for i in 0..4u8 {
            let chunk = vec![i + 1; 512];
            k.sys_append(ctx, pid, fd, &chunk).unwrap();
        }
        let st = k.sys_fstat(ctx, pid, fd).unwrap();
        assert_eq!(st.size, 2048);
        let mut buf = vec![0u8; 2048];
        k.sys_pread(ctx, pid, fd, &mut buf, 0).unwrap();
        assert!(buf[..512].iter().all(|&b| b == 1));
        assert!(buf[1536..].iter().all(|&b| b == 4));
    });
}

#[test]
fn read_past_eof_returns_zero() {
    let k = kernel();
    k.fs().populate("/small", 4096, 1).unwrap();
    run_actor(&k, |ctx, k| {
        let pid = k.spawn_process(0, 0);
        let fd = k
            .sys_open(ctx, pid, "/small", OpenFlags::rdonly_direct(), 0)
            .unwrap();
        let mut buf = vec![0u8; 4096];
        assert_eq!(k.sys_pread(ctx, pid, fd, &mut buf, 4096).unwrap(), 0);
        // Short read at the boundary.
        assert_eq!(k.sys_pread(ctx, pid, fd, &mut buf, 3584).unwrap(), 512);
    });
}

#[test]
fn write_on_readonly_fd_fails() {
    let k = kernel();
    k.fs().populate("/ro", 4096, 0).unwrap();
    run_actor(&k, |ctx, k| {
        let pid = k.spawn_process(0, 0);
        let fd = k
            .sys_open(ctx, pid, "/ro", OpenFlags::rdonly_direct(), 0)
            .unwrap();
        let e = k.sys_pwrite(ctx, pid, fd, &[0u8; 512], 0).unwrap_err();
        assert_eq!(e, Errno::Perm);
    });
}

#[test]
fn permission_denied_for_other_user() {
    let k = kernel();
    run_actor(&k, |ctx, k| {
        let owner = k.spawn_process(100, 100);
        let fd = k
            .sys_open(
                ctx,
                owner,
                "/private",
                OpenFlags::rdwr_direct().creat(),
                0o600,
            )
            .unwrap();
        k.sys_close(ctx, owner, fd).unwrap();
        let intruder = k.spawn_process(200, 200);
        let e = k
            .sys_open(ctx, intruder, "/private", OpenFlags::rdonly_direct(), 0)
            .unwrap_err();
        assert_eq!(e, Errno::Perm);
    });
}

#[test]
fn unaligned_direct_io_bounces_correctly() {
    // The simulated kernel degrades unaligned O_DIRECT requests to a
    // bounce-buffer RMW (as Linux does on most file systems) instead of
    // failing them — required for transparent UserLib fallback.
    let k = kernel();
    k.fs().populate("/f", 8192, 0x44).unwrap();
    run_actor(&k, |ctx, k| {
        let pid = k.spawn_process(0, 0);
        let fd = k
            .sys_open(ctx, pid, "/f", OpenFlags::rdwr_direct(), 0)
            .unwrap();
        let mut buf = vec![0u8; 100];
        assert_eq!(k.sys_pread(ctx, pid, fd, &mut buf, 37).unwrap(), 100);
        assert!(buf.iter().all(|&b| b == 0x44));
        assert_eq!(k.sys_pwrite(ctx, pid, fd, &[9u8; 512], 100).unwrap(), 512);
        let mut check = vec![0u8; 1024];
        k.sys_pread(ctx, pid, fd, &mut check, 0).unwrap();
        assert!(check[..100].iter().all(|&b| b == 0x44));
        assert!(check[100..612].iter().all(|&b| b == 9));
        assert!(check[612..].iter().all(|&b| b == 0x44));
    });
}

#[test]
fn buffered_reads_hit_cache_and_are_faster() {
    let k = kernel();
    k.fs().populate("/buf", 1 << 20, 7).unwrap();
    let times = Arc::new(Mutex::new((Nanos::ZERO, Nanos::ZERO)));
    let t2 = Arc::clone(&times);
    run_actor(&k, move |ctx, k| {
        let pid = k.spawn_process(0, 0);
        let fd = k
            .sys_open(ctx, pid, "/buf", OpenFlags::rdwr_buffered(), 0)
            .unwrap();
        let mut buf = vec![0u8; 4096];
        let t0 = ctx.now();
        k.sys_pread(ctx, pid, fd, &mut buf, 0).unwrap();
        let miss = ctx.now() - t0;
        let t1 = ctx.now();
        k.sys_pread(ctx, pid, fd, &mut buf, 0).unwrap();
        let hit = ctx.now() - t1;
        *t2.lock() = (miss, hit);
        assert!(buf.iter().all(|&b| b == 7));
    });
    let (miss, hit) = *times.lock();
    assert!(
        hit < miss / 2,
        "cache hit {hit} not faster than miss {miss}"
    );
    let (h, m) = k.cache_stats();
    assert!(h >= 1 && m >= 1);
}

#[test]
fn buffered_write_visible_after_fsync_via_direct_reader() {
    let k = kernel();
    k.fs().populate("/wb", 8192, 0).unwrap();
    run_actor(&k, |ctx, k| {
        let pid = k.spawn_process(0, 0);
        let fd = k
            .sys_open(ctx, pid, "/wb", OpenFlags::rdwr_buffered(), 0)
            .unwrap();
        k.sys_pwrite(ctx, pid, fd, &[9u8; 1000], 100).unwrap();
        // Not yet durable: raw device read shows zeros.
        k.sys_fsync(ctx, pid, fd).unwrap();
        let (segs, _) = k
            .fs()
            .resolve(k.fs().lookup("/wb").unwrap(), 0, 4096)
            .unwrap();
        let mut raw = vec![0u8; 4096];
        k.device().read_raw(segs[0].0.unwrap(), &mut raw);
        assert!(
            raw[100..1100].iter().all(|&b| b == 9),
            "fsync did not write back"
        );
    });
}

#[test]
fn fmap_syscall_returns_vba_and_denies_after_kernel_open() {
    let k = kernel();
    k.fs().populate("/m", 1 << 20, 0).unwrap();
    run_actor(&k, |ctx, k| {
        let p1 = k.spawn_process(0, 0);
        let fd1 = k
            .sys_open(ctx, p1, "/m", OpenFlags::rdwr_direct().bypassd(), 0)
            .unwrap();
        let vba = k.sys_fmap(ctx, p1, fd1, true).unwrap();
        assert!(!vba.is_null());
        // Another process opens via the kernel interface → revocation.
        let p2 = k.spawn_process(0, 0);
        let _fd2 = k
            .sys_open(ctx, p2, "/m", OpenFlags::rdwr_buffered(), 0)
            .unwrap();
        // p1 re-fmaps (as UserLib would after an I/O failure): denied.
        let vba2 = k.sys_fmap(ctx, p1, fd1, true).unwrap();
        assert!(
            vba2.is_null(),
            "fmap must deny while kernel interface is open"
        );
    });
}

#[test]
fn fmap_write_requires_writable_fd() {
    let k = kernel();
    k.fs().populate("/m", 4096, 0).unwrap();
    run_actor(&k, |ctx, k| {
        let pid = k.spawn_process(0, 0);
        let fd = k
            .sys_open(ctx, pid, "/m", OpenFlags::rdonly_direct().bypassd(), 0)
            .unwrap();
        assert_eq!(k.sys_fmap(ctx, pid, fd, true).unwrap_err(), Errno::Perm);
        assert!(!k.sys_fmap(ctx, pid, fd, false).unwrap().is_null());
    });
}

#[test]
fn aio_qd4_overlaps_device_time() {
    let k = kernel();
    k.fs().populate("/aio", 1 << 20, 3).unwrap();
    let elapsed = Arc::new(Mutex::new(Nanos::ZERO));
    let e = Arc::clone(&elapsed);
    run_actor(&k, move |ctx, k| {
        let pid = k.spawn_process(0, 0);
        let fd = k
            .sys_open(ctx, pid, "/aio", OpenFlags::rdonly_direct(), 0)
            .unwrap();
        let mut aio = k.io_setup(ctx, 8);
        let t0 = ctx.now();
        let ops = (0..4)
            .map(|i| AioOp {
                fd,
                offset: i * 4096,
                user_data: i,
                data: AioData::Read(4096),
            })
            .collect();
        assert_eq!(k.io_submit(ctx, pid, &mut aio, ops).unwrap(), 4);
        let events = k.io_getevents(ctx, &mut aio, 4, 4);
        assert_eq!(events.len(), 4);
        for ev in &events {
            assert_eq!(ev.res, Ok(4096));
            assert!(ev.data.iter().all(|&b| b == 3));
        }
        *e.lock() = ctx.now() - t0;
    });
    // 4 overlapped reads must take well under 4 sequential latencies
    // (4 × 7.85µs ≈ 31µs) but at least one device time.
    let us = elapsed.lock().as_micros_f64();
    assert!((4.0..25.0).contains(&us), "aio batch latency = {us}us");
}

#[test]
fn aio_read_iocbs_reuse_pooled_dma_buffers() {
    let k = kernel();
    k.fs().populate("/pool", 1 << 20, 0x5A).unwrap();
    run_actor(&k, |ctx, k| {
        let pid = k.spawn_process(0, 0);
        let fd = k
            .sys_open(ctx, pid, "/pool", OpenFlags::rdonly_direct(), 0)
            .unwrap();
        let mut aio = k.io_setup(ctx, 1);
        let read = |i: u64| AioOp {
            fd,
            offset: (i % 256) * 4096,
            user_data: i,
            data: AioData::Read(4096),
        };
        let mut run = |i: u64| -> u64 {
            assert_eq!(k.io_submit(ctx, pid, &mut aio, vec![read(i)]).unwrap(), 1);
            // A read's buffer is in flight here: a fresh one per iocb
            // would show as one more allocated frame.
            let in_flight = k.mem().allocated_frames();
            let events = k.io_getevents(ctx, &mut aio, 1, 1);
            assert_eq!(events.len(), 1);
            assert_eq!(events[0].res, Ok(4096));
            assert!(events[0].data.iter().all(|&b| b == 0x5A));
            in_flight
        };
        run(0);
        let frames = k.mem().allocated_frames();
        for i in 1..=1_000 {
            assert_eq!(run(i), frames, "iocb {i} allocated a frame");
            assert_eq!(k.mem().allocated_frames(), frames);
        }
    });
}

#[test]
fn aio_iocb_is_all_or_nothing_on_a_full_context() {
    // A 2-extent file: one populated block, another file's block after
    // it, then an appended block that must land in a second extent.
    let k = kernel();
    k.fs().populate("/split", 4096, 0x11).unwrap();
    k.fs().populate("/between", 4096, 0x22).unwrap();
    run_actor(&k, |ctx, k| {
        let pid = k.spawn_process(0, 0);
        let fd = k
            .sys_open(ctx, pid, "/split", OpenFlags::rdwr_direct(), 0)
            .unwrap();
        k.sys_append(ctx, pid, fd, &[0x33; 4096]).unwrap();
        k.sys_fsync(ctx, pid, fd).unwrap();
        let ino = k.fs().lookup("/split").unwrap();
        let (segs, _) = k.fs().resolve(ino, 0, 8192).unwrap();
        assert_eq!(segs.len(), 2, "file must span two extents: {segs:?}");
        let write = |user_data| AioOp {
            fd,
            offset: 0,
            user_data,
            data: AioData::Write(vec![0x77; 8192]),
        };
        let media = |fills: [u8; 2]| {
            let mut block = vec![0u8; 4096];
            for ((lba, _), fill) in segs.iter().zip(fills) {
                k.device().read_raw(lba.unwrap(), &mut block);
                assert!(
                    block.iter().all(|&b| b == fill),
                    "the block expected to hold {fill:#x} changed"
                );
            }
        };
        // A one-iocb context, made full by a pending read: the 2-extent
        // write is refused whole, so neither segment reaches the media.
        let mut aio = k.io_setup(ctx, 1);
        let read = AioOp {
            fd,
            offset: 0,
            user_data: 1,
            data: AioData::Read(4096),
        };
        assert_eq!(k.io_submit(ctx, pid, &mut aio, vec![read]).unwrap(), 1);
        let err = k.io_submit(ctx, pid, &mut aio, vec![write(2)]).unwrap_err();
        assert_eq!(err, Errno::Again);
        assert_eq!(k.io_pending(&aio), 1);
        media([0x11, 0x33]);
        // Once the read is reaped, the context is sized in iocbs: the
        // same 2-extent iocb runs on it, both segments at once.
        let events = k.io_getevents(ctx, &mut aio, 1, 1);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].user_data, 1);
        assert!(events[0].data.iter().all(|&b| b == 0x11));
        assert_eq!(k.io_submit(ctx, pid, &mut aio, vec![write(2)]).unwrap(), 1);
        let events = k.io_getevents(ctx, &mut aio, 1, 1);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].user_data, 2);
        assert_eq!(k.io_pending(&aio), 0);
        media([0x77, 0x77]);
    });
}

#[test]
fn aio_rejects_append() {
    let k = kernel();
    k.fs().populate("/aio2", 4096, 0).unwrap();
    run_actor(&k, |ctx, k| {
        let pid = k.spawn_process(0, 0);
        let fd = k
            .sys_open(ctx, pid, "/aio2", OpenFlags::rdwr_direct(), 0)
            .unwrap();
        let mut aio = k.io_setup(ctx, 4);
        let err = k
            .io_submit(
                ctx,
                pid,
                &mut aio,
                vec![AioOp {
                    fd,
                    offset: 4096,
                    user_data: 0,
                    data: AioData::Write(vec![1u8; 512]),
                }],
            )
            .unwrap_err();
        assert_eq!(err, Errno::Inval);
    });
}

#[test]
fn uring_read_latency_between_sync_and_userspace() {
    let k = kernel();
    k.fs().populate("/ur", 1 << 20, 0x42).unwrap();
    let times = Arc::new(Mutex::new(Nanos::ZERO));
    let t2 = Arc::clone(&times);
    run_actor(&k, move |ctx, k| {
        let pid = k.spawn_process(0, 0);
        let fd = k
            .sys_open(ctx, pid, "/ur", OpenFlags::rdonly_direct(), 0)
            .unwrap();
        let ring = k.uring_setup(ctx, 64);
        let mut buf = vec![0u8; 4096];
        k.uring_read(ctx, pid, &ring, fd, &mut buf, 0).unwrap(); // warm
        let t0 = ctx.now();
        k.uring_read(ctx, pid, &ring, fd, &mut buf, 4096).unwrap();
        *t2.lock() = ctx.now() - t0;
        assert!(buf.iter().all(|&b| b == 0x42));
    });
    let ns = times.lock().as_nanos();
    // Paper Fig. 6: io_uring 4KB sits between sync (~7.9µs) and
    // SPDK/BypassD (~4.3-4.9µs).
    assert!((5_500..7_500).contains(&ns), "io_uring 4KB read = {ns}ns");
}

#[test]
fn uring_collapses_past_core_budget() {
    let k = kernel();
    k.fs().populate("/ur2", 1 << 20, 0).unwrap();
    let times = Arc::new(Mutex::new(Vec::new()));
    let t2 = Arc::clone(&times);
    run_actor(&k, move |ctx, k| {
        let pid = k.spawn_process(0, 0);
        let fd = k
            .sys_open(ctx, pid, "/ur2", OpenFlags::rdonly_direct(), 0)
            .unwrap();
        let mut rings = Vec::new();
        let mut buf = vec![0u8; 4096];
        for jobs in [1usize, 12, 16] {
            while rings.len() < jobs {
                rings.push(k.uring_setup(ctx, 64));
            }
            let t0 = ctx.now();
            k.uring_read(ctx, pid, &rings[0], fd, &mut buf, 0).unwrap();
            t2.lock().push(ctx.now() - t0);
        }
    });
    let v = times.lock().clone();
    assert!(
        v[1] <= v[0] + Nanos(100),
        "12 jobs should not contend: {v:?}"
    );
    assert!(v[2] > v[1] * 2, "16 jobs must collapse: {v:?}");
}

#[test]
fn close_updates_timestamps_deferred() {
    let k = kernel();
    k.fs().populate("/ts", 4096, 0).unwrap();
    run_actor(&k, |ctx, k| {
        let pid = k.spawn_process(0, 0);
        let ino = k.fs().lookup("/ts").unwrap();
        let before = k.fs().stat(ino).unwrap().atime;
        let fd = k
            .sys_open(ctx, pid, "/ts", OpenFlags::rdonly_direct(), 0)
            .unwrap();
        let mut buf = vec![0u8; 512];
        k.sys_pread(ctx, pid, fd, &mut buf, 0).unwrap();
        // §4.4: not updated at read time…
        assert_eq!(k.fs().stat(ino).unwrap().atime, before);
        k.sys_close(ctx, pid, fd).unwrap();
        // …but at close.
        assert!(k.fs().stat(ino).unwrap().atime > before || ctx.now().is_zero());
        assert!(k.fs().stat(ino).unwrap().atime > 0);
    });
}

#[test]
fn fallocate_and_ftruncate() {
    let k = kernel();
    run_actor(&k, |ctx, k| {
        let pid = k.spawn_process(0, 0);
        let fd = k
            .sys_open(ctx, pid, "/fa", OpenFlags::rdwr_direct().creat(), 0o644)
            .unwrap();
        k.sys_fallocate(ctx, pid, fd, 0, 1 << 20).unwrap();
        assert_eq!(k.sys_fstat(ctx, pid, fd).unwrap().size, 1 << 20);
        k.sys_ftruncate(ctx, pid, fd, 4096).unwrap();
        assert_eq!(k.sys_fstat(ctx, pid, fd).unwrap().size, 4096);
    });
}

#[test]
fn uring_and_aio_reads_need_a_readable_fd() {
    let k = kernel();
    k.fs().populate("/wo", 4096, 0x42).unwrap();
    run_actor(&k, |ctx, k| {
        let pid = k.spawn_process(0, 0);
        let write_only = OpenFlags {
            read: false,
            ..OpenFlags::rdwr_direct()
        };
        let fd = k.sys_open(ctx, pid, "/wo", write_only, 0).unwrap();
        let mut buf = vec![0u8; 4096];
        assert_eq!(k.sys_pread(ctx, pid, fd, &mut buf, 0), Err(Errno::Perm));
        let ring = k.uring_setup(ctx, 4);
        assert_eq!(
            k.uring_read(ctx, pid, &ring, fd, &mut buf, 0),
            Err(Errno::Perm)
        );
        let mut aio = k.io_setup(ctx, 4);
        let read = AioOp {
            fd,
            offset: 0,
            user_data: 0,
            data: AioData::Read(4096),
        };
        assert_eq!(
            k.io_submit(ctx, pid, &mut aio, vec![read]),
            Err(Errno::Perm)
        );
        assert!(buf.iter().all(|&b| b == 0), "a refused read moved bytes");
    });
}

#[test]
fn uring_reads_a_hole_as_zeros_like_pread() {
    // Block 0 holds data, block 1 is a hole (truncate up).
    let k = kernel();
    k.fs().populate("/hole", 4096, 0x42).unwrap();
    run_actor(&k, |ctx, k| {
        let pid = k.spawn_process(0, 0);
        let fd = k
            .sys_open(ctx, pid, "/hole", OpenFlags::rdwr_direct(), 0)
            .unwrap();
        k.sys_ftruncate(ctx, pid, fd, 8192).unwrap();
        let ring = k.uring_setup(ctx, 4);
        let mut want = vec![0x42u8; 8192];
        want[4096..].fill(0);
        // The pooled buffer the block layer lends already holds data.
        let mut sync = vec![0xEEu8; 8192];
        assert_eq!(k.sys_pread(ctx, pid, fd, &mut sync, 0), Ok(8192));
        assert!(sync == want, "pread over the hole");
        let mut ring_buf = vec![0xEEu8; 8192];
        assert_eq!(
            k.uring_read(ctx, pid, &ring, fd, &mut ring_buf, 0),
            Ok(8192)
        );
        assert!(ring_buf == want, "uring_read over the hole");
        let mut tail = vec![0xEEu8; 4096];
        assert_eq!(k.uring_read(ctx, pid, &ring, fd, &mut tail, 4096), Ok(4096));
        assert!(tail.iter().all(|&b| b == 0), "uring_read of the hole alone");
    });
}

#[test]
fn uring_read_retries_a_media_error_once() {
    let k = kernel();
    k.fs().populate("/flaky", 4096, 0x5A).unwrap();
    run_actor(&k, |ctx, k| {
        let pid = k.spawn_process(0, 0);
        let fd = k
            .sys_open(ctx, pid, "/flaky", OpenFlags::rdonly_direct(), 0)
            .unwrap();
        let ring = k.uring_setup(ctx, 4);
        let plane = k.device().fault_plane();
        plane.fail_reads(vec![0]);
        let mut buf = vec![0u8; 4096];
        assert_eq!(k.uring_read(ctx, pid, &ring, fd, &mut buf, 0), Ok(4096));
        assert!(buf.iter().all(|&b| b == 0x5A), "retried read's bytes");
        assert_eq!(plane.stats().read_errors, 1, "the plan fired once");
        // Two failures in a row exhaust the one retry.
        plane.fail_reads(vec![0, 1]);
        assert_eq!(
            k.uring_read(ctx, pid, &ring, fd, &mut buf, 0),
            Err(Errno::Io)
        );
    });
}
