//! Figure 9: 4 KB random-read latency and IOPS with increasing thread
//! count, across the five systems. Expected shape: SPDK/BypassD flat and
//! low until the device saturates (~1.5 M IOPS); kernel paths higher;
//! io_uring collapses past 12 threads (SQPOLL needs a core per job).

use bypassd_backends::{BackendKind, BackendProcess};
use bypassd_bench::{f1, ops, std_system, us};
use bypassd_fio::{run_job, JobSpec, RwMode};
use bypassd_sim::report::Table;
use bypassd_sim::time::Nanos;
use std::collections::HashMap;

fn main() {
    let threads = [1usize, 2, 4, 8, 12, 16, 20, 24];
    let systems = [
        BackendKind::Sync,
        BackendKind::Libaio,
        BackendKind::IoUring,
        BackendKind::Spdk,
        BackendKind::Bypassd,
    ];
    let n_ops = ops(250, 1500);

    let mut t = Table::new(
        "Figure 9: 4KB randread — latency(µs)/KIOPS per thread count",
        &["threads", "sync", "libaio", "io_uring", "spdk", "bypassd"],
    );
    let mut data: HashMap<(BackendKind, usize), (Nanos, f64)> = HashMap::new();
    for n in threads {
        let mut cells = vec![n.to_string()];
        for kind in systems {
            let system = std_system();
            let r = run_job(
                &system,
                BackendProcess::new(kind, &system, 0, 0),
                JobSpec {
                    name: "f9".into(),
                    mode: RwMode::RandRead,
                    block_size: 4096,
                    file: "/fio9".into(),
                    file_size: 512 << 20,
                    threads: n,
                    ops_per_thread: n_ops,
                    warmup_ops: 16,
                    per_thread_files: false,
                    seed: 17,
                    start_at: Nanos::ZERO,
                },
            );
            data.insert((kind, n), (r.mean_latency(), r.kiops()));
            cells.push(format!("{}/{}", us(r.mean_latency()), f1(r.kiops())));
        }
        t.row_owned(cells);
    }
    t.print();

    // Shape assertions.
    let lat = |k, n| data[&(k, n)].0;
    let iops = |k, n| data[&(k, n)].1;
    // BypassD latency stays ~flat until saturation (paper: constant to
    // ~8 threads).
    let flat = lat(BackendKind::Bypassd, 8).as_nanos() as f64
        / lat(BackendKind::Bypassd, 1).as_nanos() as f64;
    assert!(flat < 1.4, "bypassd latency grew {flat:.2}x by 8 threads");
    // Device saturation: ~1.2-1.8M IOPS at high thread counts.
    let sat = iops(BackendKind::Bypassd, 24);
    assert!(
        (1_100.0..1_900.0).contains(&sat),
        "saturation = {sat:.0} KIOPS"
    );
    // At saturation the gap between systems closes (device-bound).
    let gap = iops(BackendKind::Bypassd, 24) / iops(BackendKind::Sync, 24);
    assert!(
        gap < 1.25,
        "systems should converge at saturation: {gap:.2}"
    );
    // At low thread counts BypassD leads the kernel paths.
    assert!(iops(BackendKind::Bypassd, 1) > iops(BackendKind::Sync, 1) * 1.3);
    // io_uring collapses past 12 threads.
    let uring_drop = lat(BackendKind::IoUring, 16).as_nanos() as f64
        / lat(BackendKind::IoUring, 12).as_nanos() as f64;
    assert!(
        uring_drop > 1.5,
        "io_uring should collapse past 12 threads: {uring_drop:.2}"
    );
    println!(
        "OK: Figure 9 shape reproduced (flat bypassd, ~1.5M IOPS saturation, io_uring collapse)"
    );
}
