//! Figure 15: BPF-KV average and p99.9 lookup latency with increasing
//! thread count — sync, XRP, SPDK, BypassD. Every lookup is 7 dependent
//! 512 B I/Os (6-level index + data), no caching.

use std::collections::HashMap;
use std::sync::Arc;

use bypassd_backends::{BackendKind, BackendProcess};
use bypassd_bench::{ops, std_system, us};
use bypassd_kv::{BpfKv, BpfKvConfig, YcsbGen, YcsbOp, YcsbWorkload};
use bypassd_sim::report::Table;
use bypassd_sim::time::Nanos;
use bypassd_sim::Simulation;
use bypassd_trace::Histogram;
use parking_lot::Mutex;

fn main() {
    let n: u64 = 100_000;
    let threads = [1usize, 2, 4, 8, 16, 24];
    let systems = [
        BackendKind::Sync,
        BackendKind::Xrp,
        BackendKind::Spdk,
        BackendKind::Bypassd,
    ];
    let lookups = ops(120, 800);

    let system = std_system();
    let store = Arc::new(BpfKv::build(&system, BpfKvConfig::new("/bpfkv", n)).unwrap());
    assert_eq!(store.ios_per_lookup(), 7);

    let mut t = Table::new(
        "Figure 15: BPF-KV lookup latency avg/p99.9 (µs) vs threads",
        &["threads", "sync", "xrp", "spdk", "bypassd"],
    );
    let mut avg: HashMap<(BackendKind, usize), Nanos> = HashMap::new();
    for nt in threads {
        let mut cells = vec![nt.to_string()];
        for kind in systems {
            system.reset_virtual_time();
            let proc = BackendProcess::new(kind, &system, 0, 0);
            let sink: Arc<Mutex<Histogram>> = Arc::new(Mutex::new(Histogram::new()));
            let sim = Simulation::new();
            for tid in 0..nt {
                let proc = proc.clone();
                let store = Arc::clone(&store);
                let sink = Arc::clone(&sink);
                sim.spawn(&format!("l{tid}"), move |ctx| {
                    let mut b = proc.thread();
                    let h = b.open(ctx, store.file(), false).expect("open");
                    let mut gen = YcsbGen::new(YcsbWorkload::C, n, n, 13 + tid as u64);
                    let mut hist = Histogram::new();
                    for _ in 0..lookups {
                        let key = match gen.next_op() {
                            YcsbOp::Read(k) => k,
                            _ => unreachable!("workload C is read-only"),
                        };
                        let t0 = ctx.now();
                        store.get(ctx, &mut b, h, key).expect("lookup");
                        hist.record(ctx.now() - t0);
                    }
                    let _ = b.close(ctx, h);
                    sink.lock().merge(&hist);
                });
            }
            sim.run();
            let hist = sink.lock();
            avg.insert((kind, nt), hist.mean());
            cells.push(format!(
                "{}/{}",
                us(hist.mean()),
                us(hist.percentile(0.999))
            ));
        }
        t.row_owned(cells);
    }
    t.print();

    // Single-thread ordering and gaps (§6.5).
    let a = |k| avg[&(k, 1usize)];
    assert!(a(BackendKind::Sync) > a(BackendKind::Xrp));
    assert!(a(BackendKind::Xrp) > a(BackendKind::Bypassd));
    assert!(a(BackendKind::Bypassd) > a(BackendKind::Spdk));
    let gap = (a(BackendKind::Bypassd) - a(BackendKind::Spdk)).as_micros_f64();
    assert!(
        (2.0..6.5).contains(&gap),
        "bypassd-spdk gap = {gap:.1}µs (paper: ~4µs for 7 translations)"
    );
    // Throughput improvement over baseline at 1 thread (paper: +72%).
    let speedup =
        a(BackendKind::Sync).as_nanos() as f64 / a(BackendKind::Bypassd).as_nanos() as f64;
    println!(
        "1-thread lookup speedup over sync: {speedup:.2}x (paper throughput: +72%); \
         bypassd-spdk gap {gap:.1}µs (paper ~4µs)"
    );
    assert!(speedup > 1.4, "speedup over sync too small: {speedup:.2}");
    println!("OK: Figure 15 shape reproduced");
}
