//! Figure 6: fio single-threaded random-access latency vs bandwidth for
//! block sizes 4 KB–128 KB, reads and writes, across the five systems.

use bypassd_backends::{BackendKind, BackendProcess};
use bypassd_bench::{f2, ops, std_system, us};
use bypassd_fio::{run_job, JobSpec, RwMode};
use bypassd_sim::report::Table;
use bypassd_sim::time::Nanos;

fn main() {
    let systems = [
        BackendKind::Sync,
        BackendKind::Libaio,
        BackendKind::IoUring,
        BackendKind::Spdk,
        BackendKind::Bypassd,
    ];
    let sizes = [4u64, 8, 16, 32, 64, 128];
    let n_ops = ops(300, 2000);

    for (mode, title) in [
        (
            RwMode::RandRead,
            "Figure 6a: random read latency(µs)/bandwidth(GB/s)",
        ),
        (
            RwMode::RandWrite,
            "Figure 6b: random write latency(µs)/bandwidth(GB/s)",
        ),
    ] {
        let mut t = Table::new(
            title,
            &["bs", "sync", "libaio", "io_uring", "spdk", "bypassd"],
        );
        let mut byp_vs_sync = Vec::new();
        for bs_kb in sizes {
            let mut cells = vec![format!("{bs_kb}KB")];
            let mut lat = std::collections::HashMap::new();
            for kind in systems {
                let system = std_system();
                let proc = BackendProcess::new(kind, &system, 0, 0);
                let spec = JobSpec {
                    name: format!("{bs_kb}k"),
                    mode,
                    block_size: bs_kb << 10,
                    file: "/fio".into(),
                    file_size: 256 << 20,
                    threads: 1,
                    ops_per_thread: n_ops,
                    warmup_ops: 16,
                    per_thread_files: false,
                    seed: 11,
                    start_at: Nanos::ZERO,
                };
                let r = run_job(&system, proc, spec);
                lat.insert(kind, r.mean_latency());
                cells.push(format!("{}/{}", us(r.mean_latency()), f2(r.gbps())));
            }
            byp_vs_sync.push((
                bs_kb,
                lat[&BackendKind::Bypassd].as_nanos() as f64
                    / lat[&BackendKind::Sync].as_nanos() as f64,
            ));
            // Orderings the figure shows, at every block size.
            assert!(lat[&BackendKind::Spdk] <= lat[&BackendKind::Bypassd]);
            assert!(lat[&BackendKind::Bypassd] < lat[&BackendKind::IoUring]);
            assert!(lat[&BackendKind::IoUring] < lat[&BackendKind::Sync]);
            t.row_owned(cells);
        }
        t.print();
        let (small_bs, small_ratio) = byp_vs_sync[0];
        let (big_bs, big_ratio) = byp_vs_sync[byp_vs_sync.len() - 1];
        println!(
            "bypassd/sync latency ratio: {:.2} at {small_bs}KB, {:.2} at {big_bs}KB \
             (paper: ~0.6 at 4KB; gap narrows as device time dominates)\n",
            small_ratio, big_ratio
        );
        assert!(
            small_ratio < 0.75,
            "no speedup at small blocks: {small_ratio}"
        );
        assert!(big_ratio > small_ratio, "gap should narrow at large blocks");
    }
    println!("OK: Figure 6 shape reproduced");
}
