//! The paper's application story in miniature: run the three storage
//! engines (§6.4–6.5) over the I/O paths they were evaluated with and
//! print per-op latencies.
//!
//! Run with: `cargo run --release --example kv_store_comparison`

use std::sync::Arc;

use bypassd::System;
use bypassd_backends::{BackendKind, BackendProcess};
use bypassd_kv::{
    BpfKv, BpfKvConfig, BtreeConfig, BtreeStore, Kvell, KvellConfig, YcsbGen, YcsbWorkload,
};
use bypassd_sim::time::Nanos;
use bypassd_sim::Simulation;
use parking_lot::Mutex;

fn timed<T: Send + 'static>(f: impl FnOnce(&mut bypassd_sim::ActorCtx) -> T + Send + 'static) -> T {
    let sim = Simulation::new();
    let out = Arc::new(Mutex::new(None));
    let o2 = Arc::clone(&out);
    sim.spawn("engine", move |ctx| {
        *o2.lock() = Some(f(ctx));
    });
    sim.run();
    let mut g = out.lock();
    g.take().unwrap()
}

fn main() {
    let system = System::builder().capacity(4 << 30).build();

    // --- WiredTiger-like B-tree (Fig. 13) ---
    println!("== B-tree store (WiredTiger-like), YCSB C, 200 ops ==");
    let store = Arc::new(
        BtreeStore::build(&system, BtreeConfig::new("/wt.db", 100_000, 256 << 10)).unwrap(),
    );
    for kind in [BackendKind::Sync, BackendKind::Xrp, BackendKind::Bypassd] {
        system.reset_virtual_time();
        store.clear_cache();
        let st = Arc::clone(&store);
        let f = BackendProcess::new(kind, &system, 0, 0);
        let per_op: Nanos = timed(move |ctx| {
            let mut b = f.thread();
            let h = b.open(ctx, st.file(), true).unwrap();
            let mut gen = YcsbGen::new(YcsbWorkload::C, 100_000, 100_000, 1);
            let t0 = ctx.now();
            for _ in 0..200 {
                let op = gen.next_op();
                st.execute(ctx, &mut b, h, op).unwrap();
            }
            let dt = (ctx.now() - t0) / 200;
            b.close(ctx, h).unwrap();
            dt
        });
        println!("  {kind:>8}: {per_op}/op");
    }

    // --- BPF-KV (Fig. 15): 7 dependent I/Os per lookup ---
    println!("== BPF-KV (6-level index + log), 100 lookups ==");
    let store = Arc::new(BpfKv::build(&system, BpfKvConfig::new("/bpf.db", 50_000)).unwrap());
    for kind in [
        BackendKind::Sync,
        BackendKind::Xrp,
        BackendKind::Spdk,
        BackendKind::Bypassd,
    ] {
        system.reset_virtual_time();
        let st = Arc::clone(&store);
        let f = BackendProcess::new(kind, &system, 0, 0);
        let per_op: Nanos = timed(move |ctx| {
            let mut b = f.thread();
            let h = b.open(ctx, st.file(), false).unwrap();
            let mut gen = YcsbGen::new(YcsbWorkload::C, 50_000, 50_000, 2);
            let t0 = ctx.now();
            for _ in 0..100 {
                if let bypassd_kv::YcsbOp::Read(k) = gen.next_op() {
                    st.get(ctx, &mut b, h, k).unwrap();
                }
            }
            let dt = (ctx.now() - t0) / 100;
            b.close(ctx, h).unwrap();
            dt
        });
        println!("  {kind:>8}: {per_op}/lookup (7 I/Os each)");
    }

    // --- KVell (Fig. 16): batching vs latency ---
    println!("== KVell (in-memory index, 1KB slots), YCSB C, 200 ops ==");
    let store = Arc::new(Kvell::build(&system, KvellConfig::new("/kvell.db", 50_000)).unwrap());
    for (label, qd) in [("KVell_1", 1usize), ("KVell_64", 64)] {
        system.reset_virtual_time();
        let st = Arc::clone(&store);
        let f = bypassd_backends::BackendProcess::libaio(&system, 0, 0, qd);
        let (kops, lat) = timed(move |ctx| {
            let mut b = f.thread();
            let h = b.open(ctx, st.file(), true).unwrap();
            let mut gen = YcsbGen::new(YcsbWorkload::C, 50_000, 50_000, 3);
            let r = st.run_ycsb(ctx, &mut b, h, &mut gen, 200, qd).unwrap();
            (r.throughput.kops_per_sec(r.elapsed), r.latency.mean())
        });
        println!("  {label:>8}: {kops:.0} kops/s at {lat}/request");
    }
    {
        system.reset_virtual_time();
        let st = Arc::clone(&store);
        let f = BackendProcess::new(BackendKind::Bypassd, &system, 0, 0);
        let (kops, lat) = timed(move |ctx| {
            let mut b = f.thread();
            let h = b.open(ctx, st.file(), true).unwrap();
            let mut gen = YcsbGen::new(YcsbWorkload::C, 50_000, 50_000, 3);
            let r = st.run_ycsb(ctx, &mut b, h, &mut gen, 200, 1).unwrap();
            (r.throughput.kops_per_sec(r.elapsed), r.latency.mean())
        });
        println!(
            "  {:>8}: {kops:.0} kops/s at {lat}/request (sync interface)",
            "bypassd"
        );
    }
}
