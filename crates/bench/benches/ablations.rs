//! Ablations of BypassD design choices beyond the paper's figures
//! (DESIGN.md §5):
//!
//! 1. **FTE caching in the IOTLB** — the paper keeps FTEs *out* of the
//!    IOTLB to avoid pollution, arguing the saved walk barely matters
//!    (§4.3, Fig. 8). Measured here directly.
//! 2. **Shared pre-populated file tables** — vs every process building
//!    private tables (cold fmap per process).
//! 3. **Optimized append** (§5.1) — preallocate + direct overwrite vs
//!    routing every append through the kernel.
//! 4. **File fragmentation** — contiguous extents let the IOMMU coalesce
//!    translations and the kernel issue single commands; a fragmented
//!    layout stresses both.

use bypassd::{System, UserProcess};
use bypassd_backends::{BackendKind, BackendProcess};
use bypassd_bench::{ops, run_one, us};
use bypassd_ext4::Ext4Options;
use bypassd_fio::{run_job, JobSpec, RwMode};
use bypassd_os::OpenFlags;
use bypassd_sim::report::Table;
use bypassd_sim::time::Nanos;

fn mean_4k_read(system: &System, n_ops: u64) -> Nanos {
    let r = run_job(
        system,
        BackendProcess::new(BackendKind::Bypassd, system, 0, 0),
        JobSpec {
            name: "abl".into(),
            mode: RwMode::RandRead,
            block_size: 4096,
            file: "/abl".into(),
            file_size: 64 << 20,
            threads: 1,
            ops_per_thread: n_ops,
            warmup_ops: 16,
            per_thread_files: false,
            seed: 3,
            start_at: Nanos::ZERO,
        },
    );
    r.mean_latency()
}

fn main() {
    let n_ops = ops(300, 2000);

    // 1. FTE caching in the IOTLB.
    let off = mean_4k_read(&System::builder().capacity(4 << 30).build(), n_ops);
    let on = mean_4k_read(
        &System::builder().capacity(4 << 30).cache_ftes(true).build(),
        n_ops,
    );
    let mut t = Table::new(
        "Ablation 1: caching FTEs in the IOTLB (4KB randread mean latency)",
        &["config", "latency (µs)"],
    );
    t.row(&["no FTE caching (paper default)", &us(off)]);
    t.row(&["FTE caching enabled", &us(on)]);
    t.print();
    let saved = off.saturating_sub(on).as_nanos();
    println!("caching saves {saved}ns/op — marginal, as the paper argues (§4.3)\n");
    assert!(on <= off);
    assert!(saved < 600, "FTE caching saved implausibly much: {saved}ns");

    // 2. Shared vs private file tables: 8 processes mapping one 1GB file.
    let system = System::builder().capacity(4 << 30).build();
    system.fs().populate("/shared-ft", 1 << 30, 0).unwrap();
    let sys2 = system.clone();
    let (shared_total, first_cold): (Nanos, Nanos) = run_one(move |ctx| {
        let k = sys2.kernel();
        let mut total = Nanos::ZERO;
        let mut first = Nanos::ZERO;
        for p in 0..8 {
            let pid = k.spawn_process(0, 0);
            let t0 = ctx.now();
            let fd = k
                .sys_open(
                    ctx,
                    pid,
                    "/shared-ft",
                    OpenFlags::rdonly_direct().bypassd(),
                    0,
                )
                .unwrap();
            let vba = k.sys_fmap(ctx, pid, fd, false).unwrap();
            assert!(!vba.is_null());
            let dt = ctx.now() - t0;
            total += dt;
            if p == 0 {
                first = dt;
            }
        }
        (total, first)
    });
    let private_total = Nanos(first_cold.as_nanos() * 8); // every process cold
    let mut t = Table::new(
        "Ablation 2: shared pre-populated file tables, 8 processes × 1GB file",
        &["design", "total fmap cost (µs)"],
    );
    t.row(&["shared fragments (BypassD)", &us(shared_total)]);
    t.row(&["private tables (1 cold fmap each)", &us(private_total)]);
    t.print();
    println!(
        "sharing saves {:.0}% of mapping cost\n",
        (1.0 - shared_total.as_nanos() as f64 / private_total.as_nanos() as f64) * 100.0
    );
    assert!(shared_total.as_nanos() * 3 < private_total.as_nanos());

    // 3. Optimized append.
    let system = System::builder().capacity(4 << 30).build();
    let sys3 = system.clone();
    let appends = ops(64, 512);
    let (plain, optimized): (Nanos, Nanos) = run_one(move |ctx| {
        let proc = UserProcess::start(&sys3, 0, 0);
        let mut th = proc.thread();
        let chunk = vec![7u8; 4096];
        let fd1 = th.open_with(ctx, "/app-plain", true, true).unwrap();
        let t0 = ctx.now();
        for i in 0..appends {
            th.pwrite(ctx, fd1, &chunk, i * 4096).unwrap();
        }
        let plain = ctx.now() - t0;
        th.close(ctx, fd1).unwrap();
        let fd2 = th.open_with(ctx, "/app-opt", true, true).unwrap();
        proc.enable_optimized_append(fd2, 4 << 20);
        let t1 = ctx.now();
        for i in 0..appends {
            th.pwrite(ctx, fd2, &chunk, i * 4096).unwrap();
        }
        let optimized = ctx.now() - t1;
        th.fsync(ctx, fd2).unwrap();
        th.close(ctx, fd2).unwrap();
        (plain, optimized)
    });
    let mut t = Table::new(
        &format!("Ablation 3: optimized append (§5.1), {appends} × 4KB appends"),
        &["design", "total (µs)", "per append (µs)"],
    );
    t.row(&["kernel appends (default)", &us(plain), &us(plain / appends)]);
    t.row(&[
        "preallocate + overwrite",
        &us(optimized),
        &us(optimized / appends),
    ]);
    t.print();
    println!(
        "optimized append is {:.2}x faster\n",
        plain.as_nanos() as f64 / optimized.as_nanos() as f64
    );
    assert!(optimized < plain);

    // 4. Fragmentation: contiguous vs forced single-block extents.
    let frag_lat = |max_run: Option<u64>| {
        let opts = Ext4Options {
            max_run,
            ..Ext4Options::default()
        };
        let system = System::builder().capacity(4 << 30).fs_options(opts).build();
        let r = run_job(
            &system,
            BackendProcess::new(BackendKind::Bypassd, &system, 0, 0),
            JobSpec {
                name: "frag".into(),
                mode: RwMode::RandRead,
                block_size: 128 << 10,
                file: "/frag".into(),
                file_size: 64 << 20,
                threads: 1,
                ops_per_thread: ops(150, 1000),
                warmup_ops: 8,
                per_thread_files: false,
                seed: 21,
                start_at: Nanos::ZERO,
            },
        );
        r.mean_latency()
    };
    let contiguous = frag_lat(None);
    let fragmented = frag_lat(Some(1)); // every block its own extent
    let mut t = Table::new(
        "Ablation 4: file layout vs 128KB read latency (translation coalescing)",
        &["layout", "latency (µs)"],
    );
    t.row(&["contiguous extents", &us(contiguous)]);
    t.row(&["fully fragmented (1-block extents)", &us(fragmented)]);
    t.print();
    assert!(fragmented >= contiguous);
    println!(
        "fragmentation costs {}ns per 128KB read — BypassD degrades gracefully \
         (unlike MonetaD, which the paper notes suffers under fragmentation)",
        fragmented.saturating_sub(contiguous).as_nanos()
    );
    // 5. Page-walk cache size: a working set spanning many 2MB regions
    // stresses the IOMMU's upper-level caches; the paper predicts larger
    // translation caches help where a larger IOTLB would not (§4.3).
    let pwc_lat = |entries: usize| {
        let system = System::builder()
            .capacity(4 << 30)
            .pwc_capacity(entries)
            .build();
        let r = run_job(
            &system,
            BackendProcess::new(BackendKind::Bypassd, &system, 0, 0),
            JobSpec {
                name: "pwc".into(),
                mode: RwMode::RandRead,
                block_size: 4096,
                file: "/pwc".into(),
                file_size: 1 << 30, // 512 distinct 2MB regions
                threads: 1,
                ops_per_thread: ops(300, 2000),
                warmup_ops: 32,
                per_thread_files: false,
                seed: 29,
                start_at: Nanos::ZERO,
            },
        );
        r.mean_latency()
    };
    let small = pwc_lat(4);
    let large = pwc_lat(1024);
    let mut t = Table::new(
        "Ablation 5: page-walk cache size, 4KB randread over a 1GB file",
        &["PWC entries", "latency (µs)"],
    );
    t.row(&["4 (tiny)", &us(small)]);
    t.row(&["1024 (large)", &us(large)]);
    t.print();
    assert!(large <= small);
    println!(
        "a large translation cache saves {}ns/op on a wide working set — \
         'BypassD would benefit from larger translation caches' (§4.3)\n",
        small.saturating_sub(large).as_nanos()
    );

    // 6. Non-blocking writes (§5.1): submit-and-continue vs synchronous.
    let system = System::builder().capacity(4 << 30).build();
    system.fs().populate("/nbw", 16 << 20, 0).unwrap();
    let sys6 = system.clone();
    let writes = ops(128, 1024);
    let (sync_w, async_w): (Nanos, Nanos) = run_one(move |ctx| {
        let proc = UserProcess::start(&sys6, 0, 0);
        let mut th = proc.thread();
        let fd = th.open(ctx, "/nbw", true).unwrap();
        let data = vec![5u8; 4096];
        let t0 = ctx.now();
        for i in 0..writes {
            th.pwrite(ctx, fd, &data, (i % 4000) * 4096).unwrap();
        }
        let sync_w = ctx.now() - t0;
        let t1 = ctx.now();
        for i in 0..writes {
            th.pwrite_async(ctx, fd, &data, ((i + 7) % 4000) * 4096)
                .unwrap();
        }
        th.flush_writes(ctx, fd).unwrap();
        let async_w = ctx.now() - t1;
        (sync_w, async_w)
    });
    let mut t = Table::new(
        &format!("Ablation 6: non-blocking writes (§5.1), {writes} × 4KB overwrites"),
        &["interface", "total (µs)", "per write (µs)"],
    );
    t.row(&[
        "synchronous (paper default)",
        &us(sync_w),
        &us(sync_w / writes),
    ]);
    t.row(&["non-blocking (§5.1)", &us(async_w), &us(async_w / writes)]);
    t.print();
    assert!(async_w < sync_w);
    println!(
        "non-blocking writes are {:.2}x faster at the cost of deferred \
         durability (drained at fsync)\n",
        sync_w.as_nanos() as f64 / async_w.as_nanos() as f64
    );

    // 7. Device-side ATS cache: with the ATC on, repeat translations for
    // hot pages are answered on-device (SRAM lookup) instead of crossing
    // PCIe to the IOMMU. Hot set well inside the 1024-entry ATC (64
    // pages = 256KB) and fully warmed, so the steady state is all hits.
    let atc_read = |enabled: bool| {
        let system = System::builder()
            .capacity(4 << 30)
            .device_atc(enabled)
            .build();
        let r = run_job(
            &system,
            BackendProcess::new(BackendKind::Bypassd, &system, 0, 0),
            JobSpec {
                name: "atc".into(),
                mode: RwMode::RandRead,
                block_size: 4096,
                file: "/atc".into(),
                file_size: 256 << 10,
                threads: 1,
                ops_per_thread: ops(300, 2000),
                warmup_ops: 128,
                per_thread_files: false,
                seed: 31,
                start_at: Nanos::ZERO,
            },
        );
        (r.mean_latency(), system.device().atc_stats())
    };
    let (atc_off, off_stats) = atc_read(false);
    let (atc_on, on_stats) = atc_read(true);
    let mut t = Table::new(
        "Ablation 7: device-side ATS cache, 4KB randread over a 256KB hot set",
        &["config", "latency (µs)", "ATC hits", "ATC misses"],
    );
    t.row(&[
        "ATC off (paper model)",
        &us(atc_off),
        &off_stats.hits.to_string(),
        &off_stats.misses.to_string(),
    ]);
    t.row(&[
        "ATC on",
        &us(atc_on),
        &on_stats.hits.to_string(),
        &on_stats.misses.to_string(),
    ]);
    t.print();
    assert_eq!(off_stats.hits + off_stats.misses, 0, "disabled ATC counted");
    assert!(on_stats.hits > on_stats.misses, "hot set should mostly hit");
    assert!(atc_on <= atc_off);
    println!(
        "the ATC saves {}ns/op by skipping the PCIe ATS round trip on hits\n",
        atc_off.saturating_sub(atc_on).as_nanos()
    );

    // 8. Multi-tenant QoS: a misbehaving 16-deep tenant vs a QD1
    // foreground. Without the fair-share arbiter the antagonist's
    // backlog queues in front of every foreground request.
    let shared_read = |qos: bool| {
        let mut b = System::builder();
        if qos {
            b = b.qos(bypassd::QosConfig::enabled());
        }
        let system = b.build();
        let fg_ops = ops(200, 1200);
        let results = bypassd_fio::run_jobs(
            &system,
            vec![
                (
                    BackendProcess::new(BackendKind::Bypassd, &system, 1000, 1000),
                    JobSpec {
                        name: "fg".into(),
                        mode: RwMode::RandRead,
                        block_size: 4096,
                        file: "/fg".into(),
                        file_size: 64 << 20,
                        threads: 1,
                        ops_per_thread: fg_ops,
                        warmup_ops: 16,
                        per_thread_files: false,
                        seed: 7,
                        start_at: Nanos::ZERO,
                    },
                ),
                (
                    BackendProcess::new(BackendKind::Bypassd, &system, 2000, 2000),
                    JobSpec {
                        name: "antagonist".into(),
                        mode: RwMode::RandRead,
                        block_size: 4096,
                        file: "/bg".into(),
                        file_size: 64 << 20,
                        threads: 16,
                        ops_per_thread: fg_ops * 2,
                        warmup_ops: 0,
                        per_thread_files: false,
                        seed: 11,
                        start_at: Nanos::ZERO,
                    },
                ),
            ],
        );
        (results[0].latency.percentile(0.99), results[1].kiops())
    };
    let (p99_off, bg_off) = shared_read(false);
    let (p99_on, bg_on) = shared_read(true);
    let mut t = Table::new(
        "Ablation 8: QoS fair sharing, QD1 foreground vs 16-deep antagonist",
        &["config", "fg p99 (µs)", "antagonist kIOPS"],
    );
    t.row(&[
        "QoS off (implicit FIFO)",
        &us(p99_off),
        &format!("{bg_off:.0}"),
    ]);
    t.row(&["QoS on (fair share)", &us(p99_on), &format!("{bg_on:.0}")]);
    t.print();
    assert!(
        p99_on * 2 <= p99_off,
        "QoS must at least halve foreground p99: {p99_on} vs {p99_off}"
    );
    assert!(
        bg_on >= 0.45 * bg_off,
        "antagonist must keep its fair share: {bg_on:.0} vs {bg_off:.0} kIOPS"
    );
    println!(
        "fair-share pacing cuts the foreground tail {:.1}x while the antagonist keeps {:.0}% of its throughput\n",
        p99_off.as_nanos() as f64 / p99_on.as_nanos().max(1) as f64,
        100.0 * bg_on / bg_off
    );

    println!("\nOK: all ablations completed");
}
