//! Figure 10: aggregate write bandwidth when the device is shared
//! between multiple writer *processes*, each writing a private file.
//! SPDK has no bars in the paper — it cannot share the device at all.

use bypassd_backends::{BackendKind, BackendProcess};
use bypassd_bench::{f1, ops, std_system};
use bypassd_fio::{run_jobs, JobSpec, RwMode};
use bypassd_sim::report::Table;
use bypassd_sim::time::Nanos;

fn main() {
    let process_counts = [1usize, 2, 4, 8, 12, 16];
    let systems = [
        BackendKind::Sync,
        BackendKind::Libaio,
        BackendKind::IoUring,
        BackendKind::Bypassd,
    ];
    let n_ops = ops(200, 1200);

    let mut t = Table::new(
        "Figure 10: aggregate 4KB write bandwidth (MB/s), private file per process",
        &["processes", "sync", "libaio", "io_uring", "bypassd", "spdk"],
    );
    let mut byp_by_n = Vec::new();
    let mut sync_by_n = Vec::new();
    for n in process_counts {
        let mut cells = vec![n.to_string()];
        for kind in systems {
            let system = std_system();
            // One `BackendProcess` per *process*, each with a private file.
            let jobs = (0..n)
                .map(|p| {
                    (
                        // All files are created root-owned by the
                        // populate step; run the writers as root too.
                        BackendProcess::new(kind, &system, 0, 0),
                        JobSpec {
                            name: format!("w{p}"),
                            mode: RwMode::RandWrite,
                            block_size: 4096,
                            file: format!("/w{p}"),
                            file_size: 64 << 20,
                            threads: 1,
                            ops_per_thread: n_ops,
                            warmup_ops: 8,
                            per_thread_files: false,
                            seed: 23 + p as u64,
                            start_at: Nanos::ZERO,
                        },
                    )
                })
                .collect();
            let results = run_jobs(&system, jobs);
            // Aggregate: total bytes over the overall window.
            let total_bytes: u64 = results.iter().map(|r| r.throughput.bytes).sum();
            let window = results
                .iter()
                .map(|r| r.elapsed)
                .fold(Nanos::ZERO, Nanos::max);
            let mbps = total_bytes as f64 / 1e6 / window.as_secs_f64();
            if kind == BackendKind::Bypassd {
                byp_by_n.push(mbps);
                // Fairness: per-process rates within 35%.
                let rates: Vec<f64> = results.iter().map(|r| r.mbps()).collect();
                let max = rates.iter().cloned().fold(0.0, f64::max);
                let min = rates.iter().cloned().fold(f64::MAX, f64::min);
                assert!(max / min < 1.35, "unfair at {n} procs: {rates:?}");
            }
            if kind == BackendKind::Sync {
                sync_by_n.push(mbps);
            }
            cells.push(f1(mbps));
        }
        cells.push("n/a (no sharing)".into());
        t.row_owned(cells);
    }
    t.print();

    // BypassD leads at low process counts and scales up to the device
    // write limit (~4.4 GB/s).
    assert!(
        byp_by_n[0] > sync_by_n[0] * 1.2,
        "1-process bypassd lead missing"
    );
    assert!(
        byp_by_n[5] > byp_by_n[0] * 3.0,
        "aggregate bw must scale with processes"
    );
    assert!(byp_by_n[5] < 5_000.0, "exceeded device write bandwidth");
    println!("OK: Figure 10 shape reproduced (scales with processes, fair, SPDK absent)");
}
