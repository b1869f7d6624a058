//! Figure 8: effect of VBA translation latency on single-thread read
//! bandwidth. The paper sweeps the emulated delay {none, 350, 550, 950,
//! 1350 ns} and finds even 1.35 µs translations leave BypassD well above
//! the sync baseline; 350 vs 550 ns (FTE caching in the IOTLB vs not)
//! barely matters — the justification for not polluting the IOTLB.

use bypassd::System;
use bypassd_backends::{BackendKind, BackendProcess};
use bypassd_bench::{f2, ops};
use bypassd_fio::{run_job, JobSpec, RwMode};
use bypassd_hw::iommu::IommuTiming;
use bypassd_sim::report::Table;
use bypassd_sim::time::Nanos;

fn timing_with_total(total_ns: u64) -> IommuTiming {
    // Collapse the model to a flat per-request translation cost, exactly
    // as the paper's emulation injects a fixed delay.
    IommuTiming {
        pcie_rtt: Nanos(total_ns),
        iotlb_hit: Nanos::ZERO,
        walk_miss: Nanos::ZERO,
        multi_translation: Nanos::ZERO,
        extra_cacheline: Nanos::ZERO,
        pwc_miss: Nanos::ZERO,
    }
}

fn bw(system: &System, kind: BackendKind, bs: u64, n_ops: u64) -> f64 {
    let proc = BackendProcess::new(kind, system, 0, 0);
    run_job(
        system,
        proc,
        JobSpec {
            name: "f8".into(),
            mode: RwMode::RandRead,
            block_size: bs,
            file: "/fio8".into(),
            file_size: 128 << 20,
            threads: 1,
            ops_per_thread: n_ops,
            warmup_ops: 16,
            per_thread_files: false,
            seed: 5,
            start_at: Nanos::ZERO,
        },
    )
    .gbps()
}

fn main() {
    let delays: [(&str, u64); 5] = [
        ("no delay", 0),
        ("350ns", 350),
        ("550ns", 550),
        ("950ns", 950),
        ("1350ns", 1350),
    ];
    let sizes = [4u64, 16, 64, 128];
    let n_ops = ops(250, 1500);

    let mut t = Table::new(
        "Figure 8: single-thread read bandwidth (GB/s) vs VBA translation latency",
        &[
            "bs", "no delay", "350ns", "550ns", "950ns", "1350ns", "sync",
        ],
    );
    for bs_kb in sizes {
        let bs = bs_kb << 10;
        let mut cells = vec![format!("{bs_kb}KB")];
        let mut series = Vec::new();
        for (_, delay) in delays {
            let system = System::builder()
                .capacity(8 << 30)
                .iommu_timing(timing_with_total(delay))
                .build();
            let v = bw(&system, BackendKind::Bypassd, bs, n_ops);
            series.push(v);
            cells.push(f2(v));
        }
        let system = System::builder().capacity(8 << 30).build();
        let sync_bw = bw(&system, BackendKind::Sync, bs, n_ops);
        cells.push(f2(sync_bw));
        t.row_owned(cells);

        // Monotone slight decrease with slower translation…
        for w in series.windows(2) {
            assert!(
                w[1] <= w[0] + 0.02,
                "bandwidth rose with slower translation"
            );
        }
        // …350 vs 550 nearly identical (IOTLB caching of FTEs unneeded)…
        let rel = (series[1] - series[2]) / series[1];
        assert!(rel < 0.06, "350ns vs 550ns differ by {:.1}%", rel * 100.0);
        // …and even 1350ns stays clearly above sync.
        assert!(
            series[4] > sync_bw * 1.05,
            "{bs_kb}KB: 1350ns bypassd {} !>> sync {}",
            series[4],
            sync_bw
        );
    }
    t.print();
    println!("OK: Figure 8 shape reproduced (gentle slope; 350≈550ns; all above sync)");
}
