//! Figure 11: device-side I/O scheduling — 4 KB random-read latency of a
//! foreground process while N background reader processes hammer the
//! device. BypassD relies on the device's round-robin across queues
//! instead of a kernel I/O scheduler, and still beats the baseline.

use bypassd::{direct_read_check, write_chrome_trace, Breakdown, System, TraceConfig};
use bypassd_backends::{BackendKind, BackendProcess};
use bypassd_bench::{ops, std_system, us};
use bypassd_fio::{run_jobs, JobSpec, RwMode};
use bypassd_sim::report::{f, Table};
use bypassd_sim::time::Nanos;

fn main() {
    let background = [0usize, 1, 2, 4, 8, 12, 16];
    // Approximate series read off the figure.
    let paper_sync = [8.0, 8.0, 8.5, 8.5, 9.0, 12.0, 14.0];
    let paper_byp = [5.0, 5.0, 5.0, 5.5, 6.0, 9.0, 11.0];
    let n_ops = ops(200, 1200);
    let mut t = Table::new(
        "Figure 11: foreground 4KB randread latency (µs) with background readers",
        &[
            "bg readers",
            "paper sync",
            "sync",
            "paper bypassd",
            "bypassd",
        ],
    );
    let mut rows = Vec::new();
    for (load, n_bg) in background.into_iter().enumerate() {
        let mut cells = vec![n_bg.to_string()];
        let mut pair = Vec::new();
        for kind in [BackendKind::Sync, BackendKind::Bypassd] {
            let system = std_system();
            let mut jobs = vec![(
                BackendProcess::new(kind, &system, 1000, 1000),
                JobSpec {
                    name: "fg".into(),
                    mode: RwMode::RandRead,
                    block_size: 4096,
                    file: "/fg".into(),
                    file_size: 128 << 20,
                    threads: 1,
                    ops_per_thread: n_ops,
                    warmup_ops: 16,
                    per_thread_files: false,
                    seed: 31,
                    start_at: Nanos::ZERO,
                },
            )];
            for b in 0..n_bg {
                jobs.push((
                    // Background readers always use the same (bypassd)
                    // interface so only the foreground path varies.
                    BackendProcess::new(BackendKind::Bypassd, &system, 2000 + b as u32, 2000),
                    JobSpec {
                        name: format!("bg{b}"),
                        mode: RwMode::RandRead,
                        block_size: 4096,
                        file: format!("/bg{b}"),
                        file_size: 64 << 20,
                        threads: 1,
                        ops_per_thread: n_ops * 2,
                        warmup_ops: 0,
                        per_thread_files: false,
                        seed: 41 + b as u64,
                        start_at: Nanos::ZERO,
                    },
                ));
            }
            let results = run_jobs(&system, jobs);
            let fg = &results[0];
            pair.push(fg.mean_latency());
        }
        cells.push(f(paper_sync[load], 1));
        cells.push(us(pair[0]));
        cells.push(f(paper_byp[load], 1));
        cells.push(us(pair[1]));
        rows.push((n_bg, pair[0], pair[1]));
        t.row_owned(cells);
    }
    t.print();

    for (n_bg, sync, byp) in &rows {
        assert!(
            byp < sync,
            "bypassd ({byp}) must stay below sync ({sync}) with {n_bg} bg readers"
        );
    }
    // Latency grows with load for both (device queueing), but stays
    // bounded thanks to round-robin across queues.
    let (_, _, byp0) = rows[0];
    let (_, _, byp16) = rows[rows.len() - 1];
    assert!(byp16 > byp0, "no queueing effect visible");
    assert!(
        byp16 < byp0 * 20,
        "round-robin should bound the foreground latency: {byp16} vs {byp0}"
    );

    // The flip side of relying on device round-robin alone: a *single*
    // misbehaving tenant with a deep queue (one process, 16 sync
    // threads) still inflates an innocent QD1 foreground, because the
    // device has no notion of per-tenant shares. This is the unfairness
    // the QoS arbiter removes (see the `fairness` bench / Ablation 8).
    let system = std_system();
    let results = run_jobs(
        &system,
        vec![
            (
                BackendProcess::new(BackendKind::Bypassd, &system, 1000, 1000),
                JobSpec {
                    name: "fg".into(),
                    mode: RwMode::RandRead,
                    block_size: 4096,
                    file: "/fg".into(),
                    file_size: 128 << 20,
                    threads: 1,
                    ops_per_thread: n_ops,
                    warmup_ops: 16,
                    per_thread_files: false,
                    seed: 31,
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
                    ops_per_thread: n_ops * 2,
                    warmup_ops: 0,
                    per_thread_files: false,
                    seed: 41,
                    start_at: Nanos::ZERO,
                },
            ),
        ],
    );
    let solo = rows[0].2;
    let contended = results[0].mean_latency();
    let mut t = Table::new(
        "Figure 11 addendum: QD1 foreground vs one 16-deep tenant (no QoS)",
        &["scenario", "fg latency (µs)"],
    );
    t.row(&["foreground alone", &us(solo)]);
    t.row(&["with 16-deep antagonist", &us(contended)]);
    t.print();
    assert!(
        contended.as_nanos() as f64 >= 1.8 * solo.as_nanos() as f64,
        "a deep-queue tenant must visibly hurt the no-QoS foreground: {contended} vs {solo}"
    );

    // Observability addendum (bypassd-trace): repeat the uncontended
    // bypassd point with the flight recorder on and attribute the
    // latency to pipeline stages. Tracing is passive — it never advances
    // the simulation clock — so the per-stage means must close to the
    // measured end-to-end direct-read latency within 10%.
    let system = System::builder().trace(TraceConfig::on()).build();
    run_jobs(
        &system,
        vec![(
            BackendProcess::new(BackendKind::Bypassd, &system, 1000, 1000),
            JobSpec {
                name: "fg".into(),
                mode: RwMode::RandRead,
                block_size: 4096,
                file: "/fg".into(),
                file_size: 128 << 20,
                threads: 1,
                ops_per_thread: n_ops,
                warmup_ops: 16,
                per_thread_files: false,
                seed: 31,
                start_at: Nanos::ZERO,
            },
        )],
    );
    let device = system.recorder().take_device();
    let op_recs = system.recorder().take_ops();
    println!("{}", Breakdown::build(&device, &op_recs).render());
    let check = direct_read_check(&device, &op_recs);
    assert!(
        check.ops > 0 && check.commands > 0,
        "recorder captured nothing"
    );
    let err = check.relative_error();
    println!(
        "trace closure: e2e mean {} vs stage sum {} over {} ops / {} cmds ({:.2}% error)",
        check.e2e_mean,
        check.stage_sum,
        check.ops,
        check.commands,
        err * 100.0,
    );
    assert!(
        err <= 0.10,
        "stage attribution must close within 10% of end-to-end latency: {err:.3}"
    );
    let trace_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/trace/fig11_trace.json");
    write_chrome_trace(&trace_path, &device, &op_recs).expect("write chrome trace");
    // Workspace-relative, so the golden stdout is the same in any checkout.
    println!("chrome trace: target/trace/fig11_trace.json");
    println!("OK: Figure 11 shape reproduced (bypassd < sync at every load)");
}
