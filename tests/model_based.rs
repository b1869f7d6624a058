//! Model-based testing: UserLib (the whole stack under it — queues,
//! IOMMU translation, ext4, device) must behave exactly like a flat byte
//! array under arbitrary interleavings of reads, writes (sync, async,
//! partial), appends, fsyncs and revocations, on a default thread or on
//! a small-buffer thread whose fd has optimized append on.

use std::sync::Arc;

use bypassd::{System, UserProcess};
use bypassd_os::OpenFlags;
use bypassd_sim::rng::Rng;
use bypassd_sim::Simulation;
use parking_lot::Mutex;

/// One step of the generated workload.
#[derive(Debug, Clone)]
enum Op {
    Read { offset: u64, len: usize },
    Write { offset: u64, len: usize, byte: u8 },
    WriteAsync { offset: u64, len: usize, byte: u8 },
    PartialWrite { offset: u64, len: usize, byte: u8 },
    Append { len: usize, byte: u8 },
    Fsync,
    Revoke,
}

fn generate_ops(seed: u64, n: usize, max_size: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed);
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        let op = match rng.gen_range(20) {
            0..=7 => Op::Read {
                offset: rng.gen_range(max_size),
                len: 1 + rng.gen_range(16_384) as usize,
            },
            8..=11 => Op::Write {
                offset: rng.gen_range(max_size / 4096 / 2) * 4096,
                len: 4096 * (1 + rng.gen_range(3) as usize),
                byte: rng.gen_range(255) as u8 + 1,
            },
            12..=14 => Op::WriteAsync {
                offset: rng.gen_range(max_size / 4096 / 2) * 4096,
                len: 4096,
                byte: rng.gen_range(255) as u8 + 1,
            },
            15..=16 => Op::PartialWrite {
                offset: rng.gen_range(max_size / 2),
                len: 1 + rng.gen_range(9_000) as usize,
                byte: rng.gen_range(255) as u8 + 1,
            },
            17..=18 => Op::Append {
                len: 512 * (1 + rng.gen_range(4) as usize),
                byte: rng.gen_range(255) as u8 + 1,
            },
            19 => {
                if rng.gen_bool(0.7) {
                    Op::Fsync
                } else {
                    Op::Revoke
                }
            }
            _ => unreachable!(),
        };
        ops.push(op);
    }
    ops
}

/// Seed budget under a slow interpreter: `BYPASSD_MODEL_CASES=n` (set by
/// `cargo xtask miri`) caps the seed sweep at `n` seeds and shrinks
/// per-case op counts 8x so the suite fits Miri's CI budget. Unset means
/// full scale.
fn model_budget() -> Option<usize> {
    std::env::var("BYPASSD_MODEL_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
}

fn case_ops(full: usize) -> usize {
    if model_budget().is_some() {
        (full / 8).max(20)
    } else {
        full
    }
}

/// The thread and fd a case runs on.
#[derive(Clone, Copy)]
struct Shape {
    queue_depth: usize,
    dma_len: usize,
    /// Optimized-append chunk for the fd (0 = off).
    append_chunk: u64,
}

/// What [`UserProcess::thread`] builds, with appends through the kernel.
const DEFAULT_SHAPE: Shape = Shape {
    queue_depth: 64,
    dma_len: 1 << 20,
    append_chunk: 0,
};

fn run_model_case(seed: u64, n_ops: usize, shape: Shape) {
    const INITIAL: u64 = 256 * 1024;
    const MAX: u64 = 512 * 1024;
    let sys = System::builder().capacity(1 << 30).build();
    sys.fs().populate("/model", INITIAL, 0xA5).unwrap();
    let ops = generate_ops(seed, n_ops, MAX);

    let sim = Simulation::new();
    let failures: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let f2 = Arc::clone(&failures);
    let sys2 = sys.clone();
    sim.spawn("model", move |ctx| {
        let proc = UserProcess::start(&sys2, 0, 0);
        let mut t = proc.thread_with(shape.queue_depth, shape.dma_len);
        let fd = t.open(ctx, "/model", true).unwrap();
        if shape.append_chunk > 0 {
            proc.enable_optimized_append(fd, shape.append_chunk);
        }
        // The model: a plain in-memory byte vector.
        let mut model = vec![0xA5u8; INITIAL as usize];
        let mut revokes = 0;
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Read { offset, len } => {
                    let mut buf = vec![0u8; *len];
                    let n = t.pread(ctx, fd, &mut buf, *offset).unwrap();
                    let expect_n = (model.len() as u64)
                        .saturating_sub(*offset)
                        .min(*len as u64);
                    if n as u64 != expect_n {
                        f2.lock()
                            .push(format!("op {i}: read len {n} != model {expect_n} ({op:?})"));
                        return;
                    }
                    if n > 0 {
                        let expect = &model[*offset as usize..*offset as usize + n];
                        if &buf[..n] != expect {
                            f2.lock()
                                .push(format!("op {i}: read data mismatch ({op:?})"));
                            return;
                        }
                    }
                }
                Op::Write { offset, len, byte }
                | Op::WriteAsync { offset, len, byte }
                | Op::PartialWrite { offset, len, byte } => {
                    let data = vec![*byte; *len];
                    let is_async = matches!(op, Op::WriteAsync { .. });
                    let n = if is_async {
                        t.pwrite_async(ctx, fd, &data, *offset).unwrap()
                    } else {
                        t.pwrite(ctx, fd, &data, *offset).unwrap()
                    };
                    assert_eq!(n, *len);
                    let end = *offset as usize + *len;
                    if end > model.len() {
                        model.resize(end, 0);
                    }
                    model[*offset as usize..end].fill(*byte);
                }
                Op::Append { len, byte } => {
                    let data = vec![*byte; *len];
                    let at = model.len() as u64;
                    let n = t.pwrite(ctx, fd, &data, at).unwrap();
                    assert_eq!(n, *len);
                    model.extend_from_slice(&data);
                }
                Op::Fsync => {
                    t.fsync(ctx, fd).unwrap();
                }
                Op::Revoke => {
                    // A kernel-interface open forces revocation; close it
                    // again so direct access can come back later.
                    revokes += 1;
                    let pid = sys2.kernel().spawn_process(0, 0);
                    let flags = OpenFlags {
                        read: true,
                        write: false,
                        direct: false,
                        create: false,
                        truncate: false,
                        bypassd_intent: false,
                    };
                    let kfd = sys2
                        .kernel()
                        .sys_open(ctx, pid, "/model", flags, 0)
                        .unwrap();
                    // One read through the kernel interface too.
                    let mut kb = vec![0u8; 512];
                    let kn = sys2.kernel().sys_pread(ctx, pid, kfd, &mut kb, 0).unwrap();
                    if kb[..kn] != model[..kn] {
                        f2.lock().push(format!("op {i}: kernel view diverged"));
                        return;
                    }
                    sys2.kernel().sys_close(ctx, pid, kfd).unwrap();
                }
            }
        }
        t.fsync(ctx, fd).unwrap();
        // Final sweep: whole file must equal the model.
        let mut buf = vec![0u8; model.len()];
        let n = t.pread(ctx, fd, &mut buf, 0).unwrap();
        if n != model.len() || buf != model {
            f2.lock().push("final sweep mismatch".to_string());
        }
        let _ = revokes;
        t.close(ctx, fd).unwrap();
    });
    sim.run();
    let fails = failures.lock();
    assert!(fails.is_empty(), "seed {seed}: {fails:?}");
}

#[test]
fn userlib_matches_flat_file_model_seed_a() {
    run_model_case(0xB17A55D, case_ops(300), DEFAULT_SHAPE);
}

#[test]
fn userlib_matches_flat_file_model_seed_b() {
    run_model_case(0xCAFE, case_ops(300), DEFAULT_SHAPE);
}

#[test]
fn userlib_matches_flat_file_model_seed_c() {
    run_model_case(7, case_ops(300), DEFAULT_SHAPE);
}

#[test]
fn userlib_matches_flat_file_model_small_dma_optimized_append() {
    // A 4 KiB DMA buffer: multi-sector writes and partial writes span
    // several chunks, and appends overwrite preallocated blocks directly.
    let shape = Shape {
        queue_depth: 8,
        dma_len: 4096,
        append_chunk: 64 << 10,
    };
    run_model_case(0xD1A, case_ops(300), shape);
}

#[test]
fn userlib_matches_flat_file_model_many_short_seeds() {
    let seeds = model_budget().unwrap_or(16).min(16) as u64;
    for seed in 100..100 + seeds {
        run_model_case(seed, case_ops(60), DEFAULT_SHAPE);
    }
}

#[test]
fn two_threads_disjoint_regions_match_model() {
    // Concurrency: two threads of one process write disjoint halves;
    // the final file equals the deterministic union.
    let sys = System::builder().capacity(1 << 30).build();
    sys.fs().populate("/model2", 512 * 1024, 0).unwrap();
    let proc_holder: Arc<Mutex<Option<Arc<UserProcess>>>> = Arc::new(Mutex::new(None));
    {
        let sim = Simulation::new();
        let sys2 = sys.clone();
        let ph = Arc::clone(&proc_holder);
        sim.spawn("setup", move |ctx| {
            let proc = UserProcess::start(&sys2, 0, 0);
            let mut t = proc.thread();
            let fd = t.open(ctx, "/model2", true).unwrap();
            assert_eq!(fd, 3);
            *ph.lock() = Some(proc);
        });
        sim.run();
    }
    let proc = proc_holder.lock().take().unwrap();
    let sim = Simulation::new();
    for half in 0..2u64 {
        let p = Arc::clone(&proc);
        sim.spawn(&format!("h{half}"), move |ctx| {
            let mut t = p.thread();
            let base = half * 256 * 1024;
            let mut rng = Rng::new(half + 1);
            let iters = if model_budget().is_some() { 8 } else { 64 };
            for i in 0..iters {
                let off = base + (i % 64) * 4096;
                let byte = (rng.gen_range(255) + 1) as u8;
                if rng.gen_bool(0.5) {
                    t.pwrite(ctx, 3, &vec![byte; 4096], off).unwrap();
                } else {
                    t.pwrite_async(ctx, 3, &vec![byte; 4096], off).unwrap();
                }
                // Immediately verify our own region.
                let mut buf = vec![0u8; 4096];
                t.pread(ctx, 3, &mut buf, off).unwrap();
                assert!(
                    buf.iter().all(|&b| b == byte),
                    "thread {half} lost its write"
                );
            }
            t.flush_writes(ctx, 3).unwrap();
        });
    }
    sim.run();
}
