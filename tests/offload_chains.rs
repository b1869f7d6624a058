//! End-to-end contracts for the offload engine (§offload): one
//! submission per chain, identical results across engines, and
//! bit-identical virtual time across runs.

use std::sync::Arc;

use parking_lot::Mutex;

use bypassd::{System, TraceConfig, UserProcess};
use bypassd_backends::{make_factory, BackendKind};
use bypassd_kv::{BpfKv, BpfKvConfig};
use bypassd_sim::{Nanos, Simulation};

fn run<T: Send + 'static>(
    sys: &System,
    f: impl FnOnce(&mut bypassd_sim::ActorCtx, &System) -> T + Send + 'static,
) -> T {
    let sim = Simulation::new();
    let out = Arc::new(Mutex::new(None));
    let o2 = Arc::clone(&out);
    let s2 = sys.clone();
    sim.spawn("t", move |ctx| {
        *o2.lock() = Some(f(ctx, &s2));
    });
    sim.run();
    let mut g = out.lock();
    g.take().unwrap()
}

fn store(sys: &System, file: &str) -> Arc<BpfKv> {
    let kv = BpfKv::build(sys, BpfKvConfig::new(file, 4096)).unwrap();
    assert_eq!(kv.ios_per_lookup(), 7, "6-level index + data");
    Arc::new(kv)
}

/// The headline contract: a 6-level BPF-KV point lookup through
/// BypassD+offload is **one** UserLib submission (one op record) whose
/// chain the device walks itself (seven per-hop device records), while
/// plain BypassD issues seven top-level submissions for the same key.
#[test]
fn offload_lookup_is_one_submission_vs_seven() {
    let sys = System::builder().trace(TraceConfig::on()).build();
    let kv = store(&sys, "/bpfkv");

    for (kind, want_ops) in [(BackendKind::BypassdOffload, 1), (BackendKind::Bypassd, 7)] {
        let factory = make_factory(kind, &sys, 0, 0);
        let kv2 = Arc::clone(&kv);
        let value = run(&sys, move |ctx, sys| {
            let mut b = factory.make_thread();
            let h = b.open(ctx, kv2.file(), false).unwrap();
            let prog = b.prog_load(ctx, &kv2.lookup_ops()).unwrap();
            sys.recorder().take_ops(); // drain open/load records
            sys.recorder().take_device();
            let v = kv2.get_offload(ctx, &mut *b, h, &prog, 1234).unwrap();
            let ops = sys.recorder().take_ops();
            let device = sys.recorder().take_device();
            assert_eq!(
                ops.len(),
                want_ops,
                "{kind}: a 7-hop lookup must be {want_ops} UserLib submission(s)"
            );
            assert_eq!(
                device.len(),
                7,
                "{kind}: the device still performs all seven dependent reads"
            );
            assert!(ops.iter().all(|op| op.faults == 0));
            v
        });
        // The store fills value byte i with (key + i).
        assert!(value
            .iter()
            .enumerate()
            .all(|(i, &b)| b == (1234 + i) as u8));
    }
}

/// The same IR program produces identical values on every engine: the
/// device (BypassD+offload), the kernel hook (XRP), and host-side
/// interpretation (plain BypassD and io_uring).
#[test]
fn offload_value_identical_across_engines() {
    let sys = System::builder().build();
    let kv = store(&sys, "/bpfkv");
    let keys = [0u64, 1, 7, 8, 63, 64, 511, 512, 4095];

    let mut per_kind = Vec::new();
    for kind in [
        BackendKind::BypassdOffload,
        BackendKind::Xrp,
        BackendKind::Bypassd,
        BackendKind::IoUring,
    ] {
        let factory = make_factory(kind, &sys, 0, 0);
        let kv2 = Arc::clone(&kv);
        let values = run(&sys, move |ctx, _| {
            let mut b = factory.make_thread();
            let h = b.open(ctx, kv2.file(), false).unwrap();
            let prog = b.prog_load(ctx, &kv2.lookup_ops()).unwrap();
            keys.map(|k| kv2.get_offload(ctx, &mut *b, h, &prog, k).unwrap())
        });
        for (k, v) in keys.iter().zip(values.iter()) {
            assert!(
                v.iter()
                    .enumerate()
                    .all(|(i, &b)| b == (*k as usize + i) as u8),
                "{kind}: wrong object for key {k}"
            );
        }
        per_kind.push((kind, values));
    }
    let (_, reference) = &per_kind[0];
    for (kind, values) in &per_kind[1..] {
        assert_eq!(values, reference, "{kind} diverged from the device engine");
    }
}

/// Charged in virtual time only (no wall clock anywhere in the
/// interpreter), the offloaded path is bit-identical across runs.
#[test]
fn offload_virtual_time_is_deterministic() {
    let one_run = || {
        let sys = System::builder().build();
        let kv = store(&sys, "/bpfkv");
        let factory = make_factory(BackendKind::BypassdOffload, &sys, 0, 0);
        run(&sys, move |ctx, _| {
            let mut b = factory.make_thread();
            let h = b.open(ctx, kv.file(), false).unwrap();
            let prog = b.prog_load(ctx, &kv.lookup_ops()).unwrap();
            let mut sum = 0u64;
            for k in (0..4096u64).step_by(17) {
                let v = kv.get_offload(ctx, &mut *b, h, &prog, k).unwrap();
                sum = sum.wrapping_add(u64::from_le_bytes(v[..8].try_into().unwrap()));
            }
            (ctx.now(), sum)
        })
    };
    let (t1, s1): (Nanos, u64) = one_run();
    let (t2, s2) = one_run();
    assert_eq!(s1, s2, "lookup results must be identical");
    assert_eq!(t1, t2, "virtual time must be bit-identical across runs");
}

/// Batched chains: many lookups in flight per thread through
/// `pread_chain_batch`, overlapping chains across the device's channels
/// — results identical to one-at-a-time chains.
#[test]
fn batched_chains_match_sequential_chains() {
    use bypassd::ChainReq;
    let sys = System::builder().build();
    let kv = store(&sys, "/bpfkv");
    let kv2 = Arc::clone(&kv);
    run(&sys, move |ctx, sys| {
        let proc = UserProcess::start(sys, 0, 0);
        let mut t = proc.thread();
        let fd = t.open(ctx, kv2.file(), false).unwrap();
        let kernel = sys.kernel();
        let handle = kernel
            .sys_prog_load(ctx, proc.pid(), kv2.lookup_ops())
            .unwrap();
        let keys: Vec<u64> = (0..64u64).map(|i| i * 61 % 4096).collect();
        let mut bufs: Vec<Vec<u8>> = (0..keys.len()).map(|_| vec![0u8; 512]).collect();
        {
            let mut reqs: Vec<ChainReq<'_>> = bufs
                .iter_mut()
                .zip(keys.iter())
                .map(|(buf, &k)| {
                    let mut regs = [0u64; bypassd_offload::NUM_REGS];
                    regs[0] = k;
                    regs[1] = 6;
                    ChainReq {
                        start: 0,
                        regs,
                        buf,
                    }
                })
                .collect();
            let n = t.pread_chain_batch(ctx, fd, handle, &mut reqs).unwrap();
            assert_eq!(n, keys.len() * 512);
        }
        let mut seq = vec![0u8; 512];
        for (i, &k) in keys.iter().enumerate() {
            let mut regs = [0u64; bypassd_offload::NUM_REGS];
            regs[0] = k;
            regs[1] = 6;
            t.pread_chain(ctx, fd, handle, regs, 0, &mut seq).unwrap();
            assert_eq!(&bufs[i], &seq, "batched chain {i} (key {k}) diverged");
            assert_eq!(u64::from_le_bytes(seq[..8].try_into().unwrap()), k);
        }
        let (_, fallback) = proc.op_counts();
        assert_eq!(fallback, 0, "all chains ran on the device engine");
        t.close(ctx, fd).unwrap();
    });
}

/// Chains under faults take the same fault paths batched as one at a
/// time: a mapping revoked after the flight was planned (every slot
/// demotes to the host-interpreted fallback), one lost CQ entry (the
/// slot is re-issued), and media errors — transient ones retried, a
/// persistent one surfacing as `EIO`. The device engine does not inject
/// media errors into chains, so they reach chains through the fallback's
/// kernel reads. Values and op counts must match sequential
/// `pread_chain`; virtual time is not compared.
#[test]
fn batched_chains_under_faults_match_sequential_chains() {
    use bypassd::ChainReq;
    use bypassd_faults::plane::FaultPlane;
    use bypassd_os::Errno;

    type Arm = fn(&FaultPlane, &System, &str);
    let scenarios: [(&str, Arm); 4] = [
        ("revoked", |_, sys, file| {
            sys.kernel().revoke_path(file).unwrap();
        }),
        ("dropped completion", |plane, _, _| {
            plane.drop_completions(vec![3]);
        }),
        ("transient media errors", |plane, sys, file| {
            sys.kernel().revoke_path(file).unwrap();
            plane.fail_reads(vec![0, 5, 17]);
        }),
        ("persistent media error", |plane, sys, file| {
            sys.kernel().revoke_path(file).unwrap();
            plane.fail_reads((0..1024).collect());
        }),
    ];
    let keys: Vec<u64> = (0..12u64).map(|i| i * 331 % 4096).collect();
    let one_run = |arm: Arm, batched: bool| {
        let plane = Arc::new(FaultPlane::new());
        let sys = System::builder().fault_plane(Arc::clone(&plane)).build();
        let kv = store(&sys, "/bpfkv");
        let keys = keys.clone();
        run(&sys, move |ctx, sys| {
            let proc = UserProcess::start(sys, 0, 0);
            let mut t = proc.thread();
            let fd = t.open(ctx, kv.file(), false).unwrap();
            let handle = sys
                .kernel()
                .sys_prog_load(ctx, proc.pid(), kv.lookup_ops())
                .unwrap();
            arm(&plane, sys, kv.file());
            let regs = |k: u64| {
                let mut regs = [0u64; bypassd_offload::NUM_REGS];
                regs[0] = k;
                regs[1] = 6;
                regs
            };
            let mut bufs = vec![vec![0u8; 512]; keys.len()];
            let result = if batched {
                let mut reqs: Vec<ChainReq<'_>> = bufs
                    .iter_mut()
                    .zip(&keys)
                    .map(|(buf, &k)| ChainReq {
                        start: 0,
                        regs: regs(k),
                        buf,
                    })
                    .collect();
                t.pread_chain_batch(ctx, fd, handle, &mut reqs)
            } else {
                bufs.iter_mut().zip(&keys).try_fold(0, |n, (buf, &k)| {
                    Ok::<_, Errno>(n + t.pread_chain(ctx, fd, handle, regs(k), 0, buf)?)
                })
            };
            (result.map(|_| bufs), proc.op_counts(), plane.stats())
        })
    };
    for (name, arm) in scenarios {
        let (batched, batched_ops, stats) = one_run(arm, true);
        let (sequential, sequential_ops, _) = one_run(arm, false);
        assert_eq!(batched, sequential, "{name}: batched values diverged");
        assert_eq!(batched_ops, sequential_ops, "{name}: op counts diverged");
        match name {
            "persistent media error" => assert_eq!(batched, Err(Errno::Io)),
            _ => {
                let values = batched.unwrap();
                for (v, &k) in values.iter().zip(&keys) {
                    assert_eq!(u64::from_le_bytes(v[..8].try_into().unwrap()), k, "{name}");
                }
            }
        }
        let (direct, fallback) = batched_ops;
        if name == "dropped completion" {
            assert_eq!(stats.completions_dropped, 1, "drop never fired");
            assert_eq!((direct, fallback), (keys.len() as u64, 0));
        } else {
            assert_eq!(
                direct, 0,
                "{name}: a revoked mapping serves no chain directly"
            );
            assert!(fallback > 0, "{name}: chains never fell back");
        }
        if name == "transient media errors" {
            assert_eq!(stats.read_errors, 3, "injected media errors never fired");
        }
    }
}
