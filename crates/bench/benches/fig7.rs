//! Figure 7: random-read latency breakdown (user / kernel / device) per
//! block size, sync baseline vs BypassD.
//!
//! Device time is known from the media model; everything above it is
//! software. For sync, software is kernel time; for BypassD it is
//! UserLib time (mostly the user↔DMA copy, as the paper observes).

use bypassd_backends::{BackendKind, BackendProcess};
use bypassd_bench::{ops, std_system, us};
use bypassd_fio::{run_job, JobSpec, RwMode};
use bypassd_sim::report::Table;
use bypassd_sim::time::Nanos;

fn main() {
    let sizes = [4u64, 8, 16, 32, 64, 128];
    let n_ops = ops(300, 2000);
    let mut t = Table::new(
        "Figure 7: random read latency breakdown (µs)",
        &["bs", "system", "software", "device", "total"],
    );
    for bs_kb in sizes {
        let bs = bs_kb << 10;
        for kind in [BackendKind::Sync, BackendKind::Bypassd] {
            let system = std_system();
            let device = system.device().timing().service(false, bs);
            let proc = BackendProcess::new(kind, &system, 0, 0);
            let r = run_job(
                &system,
                proc,
                JobSpec {
                    name: "bd".into(),
                    mode: RwMode::RandRead,
                    block_size: bs,
                    file: "/fio7".into(),
                    file_size: 128 << 20,
                    threads: 1,
                    ops_per_thread: n_ops,
                    warmup_ops: 16,
                    per_thread_files: false,
                    seed: 3,
                    start_at: Nanos::ZERO,
                },
            );
            let total = r.mean_latency();
            // BypassD's VBA translation happens device-side of the queue;
            // attribute it to software for the figure's purposes.
            let device_part = device.min(total);
            let software = total.saturating_sub(device_part);
            t.row(&[
                &format!("{bs_kb}KB"),
                kind.label(),
                &us(software),
                &us(device_part),
                &us(total),
            ]);
            if kind == BackendKind::Sync && bs_kb == 4 {
                // Paper: kernel part ≈ 3.8µs of 7.85µs at 4KB.
                let sw = software.as_nanos();
                assert!((3_400..4_400).contains(&sw), "sync 4KB software = {sw}ns");
            }
            if kind == BackendKind::Bypassd && bs_kb == 4 {
                // Paper: "very little time is spent in the UserLib" —
                // software (incl. translation + copy) ≈ 1µs.
                let sw = software.as_nanos();
                assert!(sw < 1_500, "bypassd 4KB software = {sw}ns");
            }
        }
    }
    t.print();
    println!(
        "OK: sync software stays ~3.8-8µs across sizes; BypassD software is \
         translation + copy and grows only with the copy (Fig. 7's story)"
    );
}
