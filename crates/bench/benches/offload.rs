//! BPF-KV point lookups through the offload engine: BypassD+offload
//! (device-side chains, one submission per lookup) against plain
//! BypassD (host-interpreted, 7 round trips), XRP (kernel-hook chains,
//! one syscall) and io_uring — every path running the *same* verified
//! IR program (§6.5 apples-to-apples).
//!
//! All numbers are **modeled virtual time**, so this bench is exactly
//! deterministic: the interpreter is charged per step, never by wall
//! clock. It writes `BENCH_offload.json` at the repo root.
//!
//! **CI perf contract:** `cargo bench --bench offload -- --smoke` reruns
//! the identical workload and fails (non-zero exit) if any metric
//! deviates from the committed report — determinism means *equality*,
//! not a tolerance band — or if chained lookups fall below 2x the
//! per-hop BypassD throughput. Smoke mode never rewrites the report.

use std::sync::Arc;

use bypassd::{ChainReq, System, UserProcess};
use bypassd_backends::{BackendKind, BackendProcess};
use bypassd_bench::{hostinfo, run_one, std_system};
use bypassd_kv::{BpfKv, BpfKvConfig};
use bypassd_sim::report::Table;
use bypassd_sim::time::Nanos;

/// Objects in the store (6-level index, fanout 8).
const N: u64 = 100_000;
/// QD1 lookups per backend for the latency section.
const LOOKUPS: u64 = 600;
/// Chains in flight per batched flight (offload throughput section).
const CHAIN_BATCH: usize = 24;
/// The headline contract: batched device chains must deliver at least
/// this multiple of plain BypassD's per-hop lookup throughput.
const MIN_CHAIN_SPEEDUP: f64 = 2.0;

/// Deterministic key stream (coprime stride walk over the key space).
fn key(i: u64) -> u64 {
    (i * 7919) % N
}

/// Mean QD1 lookup latency (integer ns — exact, not sampled).
fn lookup_latency(system: &System, store: &Arc<BpfKv>, kind: BackendKind) -> u64 {
    system.reset_virtual_time();
    let proc = BackendProcess::new(kind, system, 0, 0);
    let store = Arc::clone(store);
    run_one(move |ctx| {
        let mut b = proc.thread();
        let h = b.open(ctx, store.file(), false).expect("open");
        let prog = b.prog_load(ctx, &store.lookup_ops()).expect("load");
        let mut total = Nanos::ZERO;
        for i in 0..LOOKUPS {
            let t0 = ctx.now();
            store
                .get_offload(ctx, &mut b, h, &prog, key(i))
                .expect("lookup");
            total += ctx.now() - t0;
        }
        // A lingering kernel open would force later direct runs into
        // fallback (§3.6 coherence), so every run closes its handle.
        b.close(ctx, h).expect("close");
        total.as_nanos() / LOOKUPS
    })
}

/// Plain-BypassD per-hop throughput: one thread, dependent reads, QD1 —
/// hops can't overlap, so throughput is 1/latency.
fn per_hop_kops(system: &System, store: &Arc<BpfKv>) -> f64 {
    system.reset_virtual_time();
    let proc = BackendProcess::new(BackendKind::Bypassd, system, 0, 0);
    let store = Arc::clone(store);
    run_one(move |ctx| {
        let mut b = proc.thread();
        let h = b.open(ctx, store.file(), false).expect("open");
        let prog = b.prog_load(ctx, &store.lookup_ops()).expect("load");
        let t0 = ctx.now();
        for i in 0..LOOKUPS {
            store
                .get_offload(ctx, &mut b, h, &prog, key(i))
                .expect("lookup");
        }
        let r = kops(LOOKUPS, ctx.now() - t0);
        b.close(ctx, h).expect("close");
        r
    })
}

/// Offloaded chain throughput: the same lookups as whole-chain device
/// commands, [`CHAIN_BATCH`] in flight per `pread_chain_batch` flight —
/// independent chains overlap across the device's channels even though
/// each chain's hops are dependent.
fn chained_kops(system: &System, store: &Arc<BpfKv>) -> f64 {
    system.reset_virtual_time();
    let store = Arc::clone(store);
    let sys = system.clone();
    run_one(move |ctx| {
        let proc = UserProcess::start(&sys, 0, 0);
        let mut t = proc.thread();
        let fd = t.open(ctx, store.file(), false).expect("open");
        let handle = sys
            .kernel()
            .sys_prog_load(ctx, proc.pid(), store.lookup_ops())
            .expect("load");
        let mut bufs: Vec<Vec<u8>> = (0..CHAIN_BATCH).map(|_| vec![0u8; 512]).collect();
        let t0 = ctx.now();
        let flights = LOOKUPS / CHAIN_BATCH as u64;
        for f in 0..flights {
            let mut reqs: Vec<ChainReq<'_>> = bufs
                .iter_mut()
                .enumerate()
                .map(|(j, buf)| {
                    let mut regs = [0u64; bypassd_offload::NUM_REGS];
                    regs[0] = key(f * CHAIN_BATCH as u64 + j as u64);
                    regs[1] = 6;
                    ChainReq {
                        start: 0,
                        regs,
                        buf,
                    }
                })
                .collect();
            let n = t
                .pread_chain_batch(ctx, fd, handle, &mut reqs)
                .expect("batch");
            assert_eq!(n, CHAIN_BATCH * 512);
        }
        let r = kops(flights * CHAIN_BATCH as u64, ctx.now() - t0);
        let (_, fallback) = proc.op_counts();
        assert_eq!(fallback, 0, "chains must stay on the device engine");
        t.close(ctx, fd).expect("close");
        r
    })
}

fn kops(ops: u64, elapsed: Nanos) -> f64 {
    ops as f64 / elapsed.as_nanos() as f64 * 1_000_000.0
}

struct Results {
    latency_ns: Vec<(&'static str, u64)>,
    per_hop: f64,
    chained: f64,
}

fn measure() -> Results {
    let system = std_system();
    let store = Arc::new(BpfKv::build(&system, BpfKvConfig::new("/bpfkv", N)).unwrap());
    assert_eq!(store.ios_per_lookup(), 7);
    let kinds = [
        (BackendKind::IoUring, "io_uring"),
        (BackendKind::Xrp, "xrp"),
        (BackendKind::Bypassd, "bypassd"),
        (BackendKind::BypassdOffload, "bypassd_offload"),
    ];
    let latency_ns = kinds
        .map(|(kind, name)| (name, lookup_latency(&system, &store, kind)))
        .to_vec();
    let per_hop = round3(per_hop_kops(&system, &store));
    let chained = round3(chained_kops(&system, &store));
    Results {
        latency_ns,
        per_hop,
        chained,
    }
}

/// Rounds to the report's printed precision so regenerated and
/// re-parsed values compare exactly.
fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

fn repo_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../{name}"))
}

/// Smoke mode: the deterministic rerun must reproduce the committed
/// report exactly and hold the chain-speedup floor.
fn smoke(r: &Results) {
    let committed = std::fs::read_to_string(repo_path("BENCH_offload.json"))
        .expect("smoke mode needs the committed BENCH_offload.json");
    let mut failed = false;
    let mut check = |section: &str, name: &str, measured: f64| {
        let reference = hostinfo::json_number(&committed, section, name)
            .unwrap_or_else(|| panic!("committed BENCH_offload.json lacks {section}.{name}"));
        let ok = (measured - reference).abs() < 1e-9;
        failed |= !ok;
        println!(
            "{} {section}.{name:<24} {measured:>12.3}  (committed {reference:.3})",
            if ok { "PASS" } else { "FAIL" },
        );
    };
    for (name, ns) in &r.latency_ns {
        check("latency_ns", name, *ns as f64);
    }
    check("throughput_kops", "bypassd_per_hop", r.per_hop);
    check("throughput_kops", "bypassd_offload_chained", r.chained);
    let speedup = r.chained / r.per_hop;
    if speedup < MIN_CHAIN_SPEEDUP {
        failed = true;
        println!("FAIL chain speedup {speedup:.2}x < required {MIN_CHAIN_SPEEDUP}x");
    } else {
        println!("PASS chain speedup {speedup:.2}x (floor {MIN_CHAIN_SPEEDUP}x)");
    }
    if failed {
        eprintln!(
            "offload perf contract violated: modeled results diverged from the committed \
             BENCH_offload.json (they are deterministic — a divergence is a cost-model or \
             engine change) or the chain speedup fell below {MIN_CHAIN_SPEEDUP}x; if intended, \
             regenerate with `cargo bench --bench offload`"
        );
        std::process::exit(1);
    }
    println!("offload perf contract holds");
}

fn main() {
    let r = measure();
    let speedup = r.chained / r.per_hop;
    let mut t = Table::new(
        "BPF-KV 6-level point lookup, one IR program on every engine",
        &["metric", "value"],
    );
    for (name, ns) in &r.latency_ns {
        t.row_owned(vec![format!("{name} QD1 latency"), format!("{ns} ns")]);
    }
    t.row_owned(vec![
        "bypassd per-hop throughput".into(),
        format!("{:.3} kops/s", r.per_hop),
    ]);
    t.row_owned(vec![
        format!("offload chained throughput (QD{CHAIN_BATCH})"),
        format!("{:.3} kops/s", r.chained),
    ]);
    t.row_owned(vec!["chain speedup".into(), format!("{speedup:.2}x")]);
    t.print();

    if std::env::args().any(|a| a == "--smoke") {
        smoke(&r);
        return;
    }
    assert!(
        speedup >= MIN_CHAIN_SPEEDUP,
        "chained lookups only {speedup:.2}x per-hop BypassD (contract: {MIN_CHAIN_SPEEDUP}x)"
    );
    let mut json = String::from(
        "{\n  \"workload\": \"BPF-KV point lookups (100k objects, 6-level index, fanout 8): \
         the same verified IR program on the device engine (bypassd+offload), the kernel hook \
         (xrp), and host interpretation (bypassd, io_uring); throughput compares QD1 per-hop \
         lookups against 24-deep batched device chains\",\n  \"units\": \"modeled virtual time \
         (deterministic): latency in ns, throughput in kops/s\",\n  ",
    );
    json.push_str(&hostinfo::host_json());
    json.push_str(",\n  \"latency_ns\": {\n");
    for (i, (name, ns)) in r.latency_ns.iter().enumerate() {
        let sep = if i + 1 < r.latency_ns.len() { "," } else { "" };
        json.push_str(&format!("    \"{name}\": {ns}{sep}\n"));
    }
    json.push_str("  },\n  \"throughput_kops\": {\n");
    json.push_str(&format!("    \"bypassd_per_hop\": {:.3},\n", r.per_hop));
    json.push_str(&format!(
        "    \"bypassd_offload_chained\": {:.3}\n",
        r.chained
    ));
    json.push_str("  },\n  \"speedup\": {\n");
    json.push_str(&format!(
        "    \"chained_over_per_hop\": {:.2}\n",
        round3(speedup)
    ));
    json.push_str("  }\n}\n");
    std::fs::write(repo_path("BENCH_offload.json"), &json).expect("write BENCH_offload.json");
    println!("{json}");
}
