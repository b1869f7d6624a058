//! Fairness: multi-tenant QoS (Ablation 8 companion bench).
//!
//! A QD1 foreground process shares the SSD with a misbehaving
//! antagonist — one process, 16 sync threads, so 16 requests deep from
//! a single PASID. Without QoS the device's implicit FIFO lets the
//! antagonist's backlog sit in front of every foreground request; with
//! the fair-share arbiter the foreground keeps its lane allocation and
//! its tail latency collapses back toward the uncontended number, while
//! the antagonist still receives its configured share. A third config
//! adds a hard IOPS cap on the antagonist's uid.
//!
//! Run with `--smoke` for a CI-sized sweep.

use bypassd::{
    write_chrome_trace, Breakdown, QosConfig, RateLimit, System, TenantShare, TraceConfig,
};
use bypassd_backends::{BackendKind, BackendProcess};
use bypassd_fio::{run_jobs, JobSpec, RwMode};
use bypassd_sim::report::{f, Table};
use bypassd_sim::time::Nanos;

const FG_UID: u32 = 1000;
const BG_UID: u32 = 2000;
const BG_THREADS: usize = 16;
const BG_IOPS_CAP: u64 = 150_000;

struct Outcome {
    fg_p50: Nanos,
    fg_p99: Nanos,
    fg_mean: Nanos,
    bg_kiops: f64,
    throttled: u64,
}

fn run_scenario(qos: Option<QosConfig>, fg_ops: u64) -> (Outcome, System) {
    // The flight recorder rides along on every scenario: tracing is
    // passive (it never advances the clock), so the measured latencies
    // are identical to an untraced run.
    let mut builder = System::builder().trace(TraceConfig::on());
    if let Some(config) = qos {
        builder = builder.qos(config);
    }
    let system = builder.build();
    let jobs = vec![
        (
            BackendProcess::new(BackendKind::Bypassd, &system, FG_UID, FG_UID),
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
                seed: 71,
                start_at: Nanos::ZERO,
            },
        ),
        (
            BackendProcess::new(BackendKind::Bypassd, &system, BG_UID, BG_UID),
            JobSpec {
                name: "antagonist".into(),
                mode: RwMode::RandRead,
                block_size: 4096,
                file: "/bg".into(),
                file_size: 64 << 20,
                threads: BG_THREADS,
                // Enough work per thread to stay busy for the whole
                // foreground measurement window.
                ops_per_thread: fg_ops * 2,
                warmup_ops: 0,
                per_thread_files: false,
                seed: 97,
                start_at: Nanos::ZERO,
            },
        ),
    ];
    let results = run_jobs(&system, jobs);
    let fg = &results[0];
    let bg = &results[1];

    // Per-tenant accounting must balance: every submitted command ends
    // up completed, failed or rejected, for every tenant the arbiter saw.
    let snapshot = system.device().qos_snapshot();
    assert!(!snapshot.is_empty(), "arbiter saw no tenants");
    let mut total_completed = 0u64;
    for (tenant, stats) in &snapshot {
        assert!(
            stats.accounted(),
            "{tenant:?}: {} submitted but {} completed + {} failed + {} rejected",
            stats.submitted,
            stats.completed,
            stats.failed,
            stats.rejected
        );
        total_completed += stats.completed;
    }
    let measured = fg.latency.count() + bg.latency.count();
    assert!(
        total_completed >= measured,
        "tenant counters ({total_completed}) must cover all measured ops ({measured})"
    );

    let outcome = Outcome {
        fg_p50: fg.latency.percentile(0.50),
        fg_p99: fg.latency.percentile(0.99),
        fg_mean: fg.mean_latency(),
        bg_kiops: bg.kiops(),
        throttled: system.device().stats().qos_throttled,
    };
    (outcome, system)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let fg_ops = if smoke {
        80
    } else {
        bypassd_bench::ops(300, 1500)
    };

    let configs: Vec<(&str, Option<QosConfig>)> = vec![
        ("no qos", None),
        ("qos fair", Some(QosConfig::enabled())),
        (
            "qos + cap",
            Some(QosConfig::enabled().uid_share(BG_UID, {
                // Tight burst so the cap binds even in a smoke-sized run.
                let mut cap = RateLimit::iops(BG_IOPS_CAP);
                cap.burst_ops = 16;
                TenantShare::weight(1).with_limit(cap)
            })),
        ),
    ];

    let mut t = Table::new(
        "Fairness: QD1 foreground vs 16-deep antagonist (4KB randread)",
        &[
            "config",
            "fg p50 (µs)",
            "fg p99 (µs)",
            "fg mean (µs)",
            "antag kIOPS",
            "throttled",
        ],
    );
    let mut outcomes = Vec::new();
    let mut fair_system = None;
    for (label, qos) in configs {
        let (o, system) = run_scenario(qos, fg_ops);
        t.row_owned(vec![
            label.to_string(),
            f(o.fg_p50.0 as f64 / 1000.0, 2),
            f(o.fg_p99.0 as f64 / 1000.0, 2),
            f(o.fg_mean.0 as f64 / 1000.0, 2),
            f(o.bg_kiops, 0),
            o.throttled.to_string(),
        ]);
        if label == "qos fair" {
            fair_system = Some(system);
        }
        outcomes.push((label, o));
    }
    t.print();

    // Observability: export the fair-share scenario's flight-recorder
    // contents — the QoS admission stage is visible per command here.
    let fair_sys = fair_system.expect("fair scenario ran");
    let device = fair_sys.recorder().take_device();
    let op_recs = fair_sys.recorder().take_ops();
    let breakdown = Breakdown::build(&device, &op_recs);
    println!("{}", breakdown.render());
    let trace_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/trace/fairness_trace.json");
    write_chrome_trace(&trace_path, &device, &op_recs).expect("write chrome trace");
    // Workspace-relative, so the golden stdout is the same in any checkout.
    println!("chrome trace: target/trace/fairness_trace.json");

    let no_qos = &outcomes[0].1;
    let fair = &outcomes[1].1;
    let capped = &outcomes[2].1;

    // The headline claim: fair-share pacing recovers at least 2x of the
    // foreground's tail latency under a misbehaving deep-queue tenant.
    assert!(
        fair.fg_p99 * 2 <= no_qos.fg_p99,
        "QoS must at least halve foreground p99: {} vs {}",
        fair.fg_p99,
        no_qos.fg_p99
    );
    assert!(
        no_qos.throttled == 0,
        "no-QoS run must not throttle anything"
    );
    // Work is still conserved for the antagonist: with equal weights it
    // keeps at least ~45% of its unconstrained throughput (its fair
    // share is half the device, and the QD1 foreground barely uses its
    // own half).
    assert!(
        fair.bg_kiops >= 0.45 * no_qos.bg_kiops,
        "antagonist must retain its fair share: {:.0} vs {:.0} kIOPS",
        fair.bg_kiops,
        no_qos.bg_kiops
    );
    // The hard cap binds: the antagonist lands at or below its
    // configured rate (small burst slack allowed), the limiter actually
    // fired, and the foreground does no worse than under fair sharing.
    assert!(
        capped.bg_kiops <= BG_IOPS_CAP as f64 / 1000.0 * 1.10,
        "rate cap must bind: {:.0} kIOPS vs cap {}",
        capped.bg_kiops,
        BG_IOPS_CAP / 1000
    );
    assert!(capped.throttled > 0, "rate limiter never engaged");
    assert!(
        capped.fg_p99 <= fair.fg_p99 * 3 / 2,
        "capped antagonist must not hurt the foreground: {} vs {}",
        capped.fg_p99,
        fair.fg_p99
    );
    println!(
        "OK: fairness reproduced (fg p99 {} -> {} with QoS, antagonist {:.0} -> {:.0} kIOPS)",
        no_qos.fg_p99, fair.fg_p99, no_qos.bg_kiops, fair.bg_kiops
    );
}
