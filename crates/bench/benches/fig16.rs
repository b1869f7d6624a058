//! Figure 16: KVell throughput and request latency for YCSB A/B/C with
//! increasing threads — KVell at QD 1, KVell at QD 64 (libaio), and
//! BypassD with a synchronous interface. The trade the figure shows:
//! KVell_64 buys throughput with ~100× the latency; BypassD's sync path
//! beats KVell_1 and keeps microsecond latencies.

use std::sync::Arc;

use bypassd_backends::{BackendKind, BackendProcess};
use bypassd_bench::{f1, ops, std_system, us};
use bypassd_kv::{Kvell, KvellConfig, YcsbGen, YcsbWorkload};
use bypassd_sim::report::Table;
use bypassd_sim::stats::Throughput;
use bypassd_sim::time::Nanos;
use bypassd_sim::Simulation;
use bypassd_trace::Histogram;
use parking_lot::Mutex;

#[allow(clippy::too_many_arguments)]
fn run_variant(
    system: &bypassd::System,
    store: &Arc<Kvell>,
    proc: BackendProcess,
    w: YcsbWorkload,
    n: u64,
    threads: usize,
    ops_per_thread: u64,
    qd: usize,
) -> (f64, Nanos) {
    system.reset_virtual_time();
    let sink: Arc<Mutex<(Histogram, Throughput, Nanos)>> = Arc::new(Mutex::new((
        Histogram::new(),
        Throughput::new(),
        Nanos::ZERO,
    )));
    let sim = Simulation::new();
    for tid in 0..threads {
        let proc = proc.clone();
        let store = Arc::clone(store);
        let sink = Arc::clone(&sink);
        sim.spawn(&format!("kv{tid}"), move |ctx| {
            let mut b = proc.thread();
            let h = b.open(ctx, store.file(), true).expect("open slab");
            let mut gen = YcsbGen::new(w, n, n, 19 + tid as u64);
            let r = store
                .run_ycsb(ctx, &mut b, h, &mut gen, ops_per_thread, qd)
                .expect("kvell run");
            let _ = b.close(ctx, h);
            let mut s = sink.lock();
            s.0.merge(&r.latency);
            s.1.merge(&r.throughput);
            s.2 = s.2.max(ctx.now());
        });
    }
    sim.run();
    let s = sink.lock();
    (s.1.kops_per_sec(s.2), s.0.mean())
}

fn main() {
    let n: u64 = 100_000;
    let threads = [1usize, 2, 4, 8];
    let ops_per_thread = ops(200, 1200);
    let system = std_system();
    let store = Arc::new(Kvell::build(&system, KvellConfig::new("/kvell", n)).unwrap());

    for w in [YcsbWorkload::A, YcsbWorkload::B, YcsbWorkload::C] {
        let mut t = Table::new(
            &format!("Figure 16 — {w}: throughput (kops/s) / mean latency (µs)"),
            &["threads", "kvell_1", "kvell_64", "bypassd"],
        );
        let mut last_row = (
            0.0f64,
            Nanos::ZERO,
            0.0f64,
            Nanos::ZERO,
            0.0f64,
            Nanos::ZERO,
        );
        for nt in threads {
            let k1 = run_variant(
                &system,
                &store,
                BackendProcess::libaio(&system, 0, 0, 1),
                w,
                n,
                nt,
                ops_per_thread,
                1,
            );
            let k64 = run_variant(
                &system,
                &store,
                BackendProcess::libaio(&system, 0, 0, 64),
                w,
                n,
                nt,
                ops_per_thread,
                64,
            );
            let byp = run_variant(
                &system,
                &store,
                BackendProcess::new(BackendKind::Bypassd, &system, 0, 0),
                w,
                n,
                nt,
                ops_per_thread,
                1, // BypassD uses the synchronous interface (§6.5)
            );
            t.row(&[
                &nt.to_string(),
                &format!("{}/{}", f1(k1.0), us(k1.1)),
                &format!("{}/{}", f1(k64.0), us(k64.1)),
                &format!("{}/{}", f1(byp.0), us(byp.1)),
            ]);
            last_row = (k1.0, k1.1, k64.0, k64.1, byp.0, byp.1);
        }
        t.print();

        let (k1_tp, _k1_lat, k64_tp, k64_lat, byp_tp, byp_lat) = last_row;
        // BypassD beats KVell_1 on throughput but not KVell_64 (§6.5).
        assert!(
            byp_tp > k1_tp,
            "{w}: bypassd {byp_tp:.0} !> kvell_1 {k1_tp:.0}"
        );
        assert!(
            k64_tp > byp_tp * 0.9,
            "{w}: kvell_64 should stay competitive: {k64_tp:.0} vs {byp_tp:.0}"
        );
        // Latency: KVell_64 is 1-2 orders of magnitude above BypassD.
        let ratio = k64_lat.as_nanos() as f64 / byp_lat.as_nanos() as f64;
        assert!(
            ratio > 10.0,
            "{w}: kvell_64/bypassd latency ratio = {ratio:.0}x (paper: ~100x)"
        );
        println!("{w}: kvell_64 latency = {ratio:.0}x bypassd's\n");
    }
    println!("OK: Figure 16 shape reproduced");
}
