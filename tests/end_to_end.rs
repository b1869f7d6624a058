//! Full-stack scenarios: every layer exercised together — UserLib over
//! NVMe queues, IOMMU translation through real page tables, ext4
//! metadata, the kernel fallback path, and multi-process interleavings.

use std::sync::Arc;

use bypassd::{System, UserProcess};
use bypassd_backends::{BackendKind, BackendProcess};
use bypassd_os::OpenFlags;
use bypassd_sim::time::Nanos;
use bypassd_sim::Simulation;
use parking_lot::Mutex;

fn system() -> System {
    System::builder().capacity(4 << 30).build()
}

#[test]
fn mixed_interface_workload_stays_coherent() {
    // One process uses BypassD, another the kernel sync path, writing to
    // *different* files; a third validates both files afterwards.
    let sys = system();
    sys.fs().populate("/m1", 16 << 20, 0).unwrap();
    sys.fs().populate("/m2", 16 << 20, 0).unwrap();

    let sim = Simulation::new();
    let s1 = sys.clone();
    sim.spawn("bypassd-writer", move |ctx| {
        let proc = UserProcess::start(&s1, 0, 0);
        let mut t = proc.thread();
        let fd = t.open(ctx, "/m1", true).unwrap();
        for i in 0..32u64 {
            t.pwrite(ctx, fd, &vec![(i + 1) as u8; 4096], i * 4096)
                .unwrap();
        }
        t.close(ctx, fd).unwrap();
    });
    let s2 = sys.clone();
    sim.spawn("kernel-writer", move |ctx| {
        let pid = s2.kernel().spawn_process(0, 0);
        let fd = s2
            .kernel()
            .sys_open(ctx, pid, "/m2", OpenFlags::rdwr_direct(), 0)
            .unwrap();
        for i in 0..32u64 {
            s2.kernel()
                .sys_pwrite(ctx, pid, fd, &vec![(100 + i) as u8; 4096], i * 4096)
                .unwrap();
        }
        s2.kernel().sys_close(ctx, pid, fd).unwrap();
    });
    sim.run();

    let sim = Simulation::new();
    let s3 = sys.clone();
    sim.spawn("validator", move |ctx| {
        let proc = UserProcess::start(&s3, 0, 0);
        let mut t = proc.thread();
        let f1 = t.open(ctx, "/m1", false).unwrap();
        let f2 = t.open(ctx, "/m2", false).unwrap();
        let mut buf = vec![0u8; 4096];
        for i in 0..32u64 {
            t.pread(ctx, f1, &mut buf, i * 4096).unwrap();
            assert!(buf.iter().all(|&b| b == (i + 1) as u8), "m1 block {i}");
            t.pread(ctx, f2, &mut buf, i * 4096).unwrap();
            assert!(buf.iter().all(|&b| b == (100 + i) as u8), "m2 block {i}");
        }
    });
    sim.run();
}

#[test]
fn file_grows_while_other_process_reads_it() {
    // Appender extends the file via the kernel; the mapped reader sees
    // new blocks appear through the *shared* file-table fragments without
    // re-fmapping (§4.1).
    let sys = system();
    sys.fs().populate("/grow", 4096, 1).unwrap();

    let sim = Simulation::new();
    let s1 = sys.clone();
    sim.spawn("appender", move |ctx| {
        let proc = UserProcess::start(&s1, 0, 0);
        let mut t = proc.thread();
        let fd = t.open(ctx, "/grow", true).unwrap();
        for i in 1..=16u64 {
            ctx.delay(Nanos::from_micros(50));
            t.pwrite(ctx, fd, &vec![(i + 1) as u8; 4096], i * 4096)
                .unwrap();
        }
        t.close(ctx, fd).unwrap();
    });
    let s2 = sys.clone();
    sim.spawn_at(Nanos::from_micros(400), "tail-reader", move |ctx| {
        let proc = UserProcess::start(&s2, 0, 0);
        let mut t = proc.thread();
        let fd = t.open(ctx, "/grow", false).unwrap();
        let mut buf = vec![0u8; 4096];
        let mut seen_blocks = 0u64;
        for _ in 0..40 {
            ctx.delay(Nanos::from_micros(25));
            // Re-stat via the kernel to learn the current size.
            let size = s2.fs().size_of(s2.fs().lookup("/grow").unwrap()).unwrap();
            let blocks = size / 4096;
            while seen_blocks < blocks {
                let n = t.pread(ctx, fd, &mut buf, seen_blocks * 4096).unwrap();
                assert_eq!(n, 4096);
                assert!(
                    buf.iter().all(|&b| b == (seen_blocks + 1) as u8),
                    "stale data in appended block {seen_blocks}"
                );
                seen_blocks += 1;
            }
        }
        assert!(seen_blocks >= 8, "reader never observed growth");
        let (direct, _) = proc.op_counts();
        assert!(
            direct >= seen_blocks,
            "appended blocks must be readable directly"
        );
    });
    sim.run();
}

#[test]
fn every_backend_reads_the_same_bytes() {
    let sys = system();
    sys.fs().populate("/same", 8 << 20, 0x77).unwrap();
    for kind in BackendKind::all() {
        let sys2 = sys.clone();
        sys.reset_virtual_time();
        let proc = BackendProcess::new(kind, &sys2, 0, 0);
        let sim = Simulation::new();
        sim.spawn("t", move |ctx| {
            let mut b = proc.thread();
            let h = b.open(ctx, "/same", false).unwrap();
            let mut buf = vec![0u8; 16384];
            b.pread(ctx, h, &mut buf, 1 << 20).unwrap();
            assert!(buf.iter().all(|&x| x == 0x77), "{kind} returned wrong data");
            b.close(ctx, h).unwrap();
        });
        sim.run();
    }
}

#[test]
fn saturating_the_device_from_sixteen_threads() {
    // The full stack under load: 16 threads of one process, ~1.5M IOPS
    // ceiling, latency grows but nothing breaks and data stays right.
    let sys = system();
    sys.fs().populate("/sat", 64 << 20, 0x31).unwrap();
    let proc = UserProcess::start(&sys, 0, 0);
    let sim = Simulation::new();
    let done: Arc<Mutex<u64>> = Arc::new(Mutex::new(0));
    for tid in 0..16 {
        let p = Arc::clone(&proc);
        let d = Arc::clone(&done);
        sim.spawn(&format!("w{tid}"), move |ctx| {
            let mut t = p.thread();
            let fd = if tid == 0 {
                t.open(ctx, "/sat", false).unwrap()
            } else {
                // fds are process-wide; wait (in virtual time!) until the
                // first thread's open has completed, then reuse fd 3.
                loop {
                    if let Ok(sz) = t.size(3) {
                        assert!(sz > 0);
                        break 3;
                    }
                    ctx.delay(bypassd_sim::Nanos::from_micros(1));
                }
            };
            let mut rng = bypassd_sim::rng::Rng::new(tid as u64);
            let mut buf = vec![0u8; 4096];
            for _ in 0..200 {
                let off = rng.gen_range(16_000) * 4096;
                t.pread(ctx, fd, &mut buf, off).unwrap();
                assert_eq!(buf[0], 0x31);
            }
            *d.lock() += 200;
        });
    }
    sim.run();
    assert_eq!(*done.lock(), 3200);
    let elapsed = sim.now();
    let iops = 3200.0 / elapsed.as_secs_f64();
    assert!(
        iops > 400_000.0,
        "16 threads should push serious IOPS, got {iops:.0}"
    );
}

#[test]
fn unlink_blocks_while_mapped_then_succeeds() {
    let sys = system();
    sys.fs().populate("/tmpfile", 4096, 1).unwrap();
    let sim = Simulation::new();
    let s = sys.clone();
    sim.spawn("life", move |ctx| {
        let proc = UserProcess::start(&s, 0, 0);
        let mut t = proc.thread();
        let fd = t.open(ctx, "/tmpfile", true).unwrap();
        assert_eq!(
            s.fs().unlink("/tmpfile", 0, 0),
            Err(bypassd_ext4::Ext4Error::Busy),
            "unlink must fail while mapped"
        );
        t.close(ctx, fd).unwrap();
        s.fs().unlink("/tmpfile", 0, 0).unwrap();
        assert!(s.fs().lookup("/tmpfile").is_err());
    });
    sim.run();
}

#[test]
fn fmap_memory_overhead_is_small() {
    // §6.3: every 2MB of file costs one 4KB file-table frame (~0.2%).
    let sys = system();
    let before = sys.mem().allocated_frames();
    sys.fs().populate("/big", 256 << 20, 0).unwrap();
    let after_populate = sys.mem().allocated_frames();
    let sim = Simulation::new();
    let s = sys.clone();
    sim.spawn("m", move |ctx| {
        let proc = UserProcess::start(&s, 0, 0);
        let mut t = proc.thread();
        let fd = t.open(ctx, "/big", false).unwrap();
        let mut buf = vec![0u8; 4096];
        t.pread(ctx, fd, &mut buf, 0).unwrap();
    });
    sim.run();
    let frames_added = sys.mem().allocated_frames() - after_populate;
    // 256MB file = 128 fragments + process tables + queues/DMA (~300
    // frames for the 1MB DMA buffer etc). Overhead must stay ~small.
    assert!(
        frames_added < 512,
        "mapping 256MB cost {frames_added} frames (expected ~128 + fixed)"
    );
    let _ = before;
}

#[test]
fn pread_batch_matches_sequential_reads() {
    // Same offsets through pread_batch and pread must yield identical
    // bytes; a single unaligned request must route the whole batch down
    // the sequential path with identical semantics.
    use bypassd::ReadReq;
    let sys = system();
    let file = 4u64 << 20;
    sys.fs().populate("/b", file, 0).unwrap();

    let sim = Simulation::new();
    let s = sys.clone();
    sim.spawn("writer", move |ctx| {
        let proc = UserProcess::start(&s, 0, 0);
        let mut t = proc.thread();
        let fd = t.open(ctx, "/b", true).unwrap();
        for i in 0..64u64 {
            t.pwrite(ctx, fd, &vec![(i + 1) as u8; 4096], i * 4096)
                .unwrap();
        }
        t.close(ctx, fd).unwrap();
    });
    sim.run();

    let sim = Simulation::new();
    let s = sys.clone();
    sim.spawn("reader", move |ctx| {
        let proc = UserProcess::start(&s, 0, 0);
        let mut t = proc.thread();
        let fd = t.open(ctx, "/b", false).unwrap();
        let offsets: Vec<u64> = (0..64u64).rev().map(|i| i * 4096).collect();
        let mut batched = vec![0u8; 64 * 4096];
        {
            let mut reqs: Vec<ReadReq<'_>> = batched
                .chunks_mut(4096)
                .zip(offsets.iter())
                .map(|(buf, &offset)| ReadReq { offset, buf })
                .collect();
            let n = t.pread_batch(ctx, fd, &mut reqs).unwrap();
            assert_eq!(n, 64 * 4096);
        }
        let mut seq = vec![0u8; 4096];
        for (k, &off) in offsets.iter().enumerate() {
            t.pread(ctx, fd, &mut seq, off).unwrap();
            assert_eq!(
                &batched[k * 4096..(k + 1) * 4096],
                &seq[..],
                "batched read {k} (offset {off}) diverged from sequential"
            );
        }
        // Unaligned request: the whole batch takes the sequential path.
        let mut a = vec![0u8; 4096];
        let mut b = vec![0u8; 100];
        let mut reqs = [
            ReadReq {
                offset: 0,
                buf: &mut a,
            },
            ReadReq {
                offset: 123,
                buf: &mut b,
            },
        ];
        let n = t.pread_batch(ctx, fd, &mut reqs).unwrap();
        assert_eq!(n, 4096 + 100);
        assert_eq!(a[0], 1);
        assert_eq!(b[0], 1, "offset 123 still inside page 0's 0x01 fill");
        let (_, fallback) = proc.op_counts();
        assert_eq!(fallback, 0, "all reads stayed on the direct path");
    });
    sim.run();
}

#[test]
fn batched_reads_multithreaded_under_qos_and_trace() {
    // Smoke test for the batched submit/reap path under adversarial
    // conditions: two reader threads on private queues, a non-blocking
    // writer filling the overlay, QoS arbitration emitting pressure
    // signals, and sampled tracing recording throughout.
    use bypassd::{QosConfig, ReadReq, TraceConfig};
    use bypassd_sim::rng::Rng;
    const FILE: u64 = 8 << 20;
    const WRITER_REGION: u64 = 1 << 20;
    let sys = System::builder()
        .capacity(4 << 30)
        .qos(QosConfig::enabled())
        .trace(TraceConfig::sampled(4))
        .build();
    sys.fs().populate("/shared", FILE, 0x5a).unwrap();

    let sim = Simulation::new();
    let proc = UserProcess::start(&sys, 0, 0);
    for (name, seed) in [("reader-1", 11u64), ("reader-2", 22u64)] {
        let p = Arc::clone(&proc);
        sim.spawn(name, move |ctx| {
            let mut t = p.thread();
            // Writable like the writer: mixed-permission fmaps of one
            // file share fragments and would thrash the write FTEs.
            let fd = t.open(ctx, "/shared", true).unwrap();
            let mut buf = vec![0u8; 16 * 4096];
            let mut rng = Rng::new(seed);
            for _ in 0..50 {
                let mut reqs: Vec<ReadReq<'_>> = buf
                    .chunks_mut(4096)
                    .map(|b| ReadReq {
                        // Stay clear of the writer's region so content
                        // is deterministic.
                        offset: WRITER_REGION + rng.gen_range((FILE - WRITER_REGION) / 4096) * 4096,
                        buf: b,
                    })
                    .collect();
                let n = t.pread_batch(ctx, fd, &mut reqs).unwrap();
                assert_eq!(n, 16 * 4096);
                assert!(buf.iter().all(|&x| x == 0x5a), "payload corrupted");
            }
            t.close(ctx, fd).unwrap();
        });
    }
    let p = Arc::clone(&proc);
    sim.spawn("async-writer", move |ctx| {
        let mut t = p.thread();
        let fd = t.open(ctx, "/shared", true).unwrap();
        let mut back = vec![0u8; 16 * 4096];
        for round in 0..10u64 {
            for i in 0..16u64 {
                t.pwrite_async(ctx, fd, &[0x77u8; 4096], i * 4096).unwrap();
            }
            // Batched read-back sees the overlay (or landed) data.
            let mut reqs: Vec<ReadReq<'_>> = back
                .chunks_mut(4096)
                .enumerate()
                .map(|(i, b)| ReadReq {
                    offset: i as u64 * 4096,
                    buf: b,
                })
                .collect();
            let n = t.pread_batch(ctx, fd, &mut reqs).unwrap();
            assert_eq!(n, 16 * 4096);
            assert!(
                back.iter().all(|&x| x == 0x77),
                "round {round}: read-after-write broke under batching"
            );
            t.flush_writes(ctx, fd).unwrap();
        }
        t.close(ctx, fd).unwrap();
    });
    sim.run();

    let (direct, fallback) = proc.op_counts();
    assert_eq!(fallback, 0, "no op fell back to the kernel");
    // 2 readers x 50 flights x 16 + writer 10 x (16 writes + 16 reads).
    assert_eq!(direct, 2 * 50 * 16 + 10 * 32);
    let counts = sys.recorder().counts();
    assert!(counts.ops > 0, "sampled tracing captured no op records");
    assert!(
        counts.sampled_out > 0,
        "sampling period 4 must skip some records"
    );
}
