//! Fleet benchmark: host wall-clock per full fleet scenario, with every
//! machine, driver and control actor on one simulation timeline, at the
//! smoke, 1 000- and 10 000-process sizes.
//!
//! Full mode times each scenario and writes `BENCH_fleet.json` at the
//! repo root with host metadata. Along the way it checks that a rerun
//! of each scenario reaches the bit-identical fingerprint, which is what
//! makes the wall-clock numbers comparable across commits.
//!
//! **CI perf contract:** `cargo bench --bench fleet -- --smoke` runs the
//! smoke-sized fleet, re-checks the fingerprint, and compares its
//! throughput against the *committed* `BENCH_fleet.json`, failing
//! (non-zero exit) on regression. Smoke mode never rewrites the report.

use std::time::Instant;

use bypassd::fleet::{FleetBuilder, FleetConfig, FleetReport};
use bypassd_bench::hostinfo;

/// A smoke-mode throughput may land this far below its committed value
/// before the contract fails. Wider than the fastpath tolerance because
/// a fleet run's wall clock includes building every machine, which is
/// noisier on shared runners.
const SMOKE_TOLERANCE: f64 = 0.50;

/// Smoke-fleet runs per measurement; the throughput is their median.
const SMOKE_REPS: usize = 5;

fn timed(f: impl FnOnce() -> FleetReport) -> (FleetReport, f64) {
    let start = Instant::now();
    let report = f();
    (report, start.elapsed().as_secs_f64())
}

/// Runs `cfg` `reps` times (at least twice), asserts every run reached
/// the same fingerprint and returns the report with the median seconds.
fn measure(label: &str, cfg: FleetConfig, reps: usize) -> (FleetReport, f64) {
    let fleet = FleetBuilder::new(cfg);
    let (first, first_secs) = timed(|| fleet.run_monolithic());
    let mut secs = vec![first_secs];
    while secs.len() < reps.max(2) {
        let (report, s) = timed(|| fleet.run_monolithic());
        assert_eq!(
            report.fingerprint(),
            first.fingerprint(),
            "{label}: a rerun diverged from the first run's fingerprint"
        );
        secs.push(s);
    }
    secs.sort_by(f64::total_cmp);
    let median = secs[secs.len() / 2];
    println!(
        "{label:>5} {median:>8.3}s  ({} ops, fingerprint {:#018x}, median of {})",
        first.total_ops(),
        first.fingerprint(),
        secs.len()
    );
    (first, median)
}

fn repo_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../{name}"))
}

/// Smoke mode: the fingerprint check on the smoke fleet, then the
/// throughput floor against the committed report — this is the CI perf
/// contract.
fn smoke() {
    let committed = std::fs::read_to_string(repo_path("BENCH_fleet.json"))
        .expect("smoke mode needs the committed BENCH_fleet.json");
    let (report, secs) = measure("smoke", FleetConfig::smoke(), SMOKE_REPS);
    println!(
        "PASS rerun determinism (fingerprint {:#018x})",
        report.fingerprint()
    );

    let measured = report.total_ops() as f64 / secs;
    let reference = hostinfo::json_number(&committed, "smoke", "ops_per_sec")
        .expect("committed BENCH_fleet.json lacks smoke.ops_per_sec");
    let floor = reference * SMOKE_TOLERANCE;
    if measured < floor {
        eprintln!(
            "FAIL smoke ops_per_sec {measured:.0} /s below the floor {floor:.0} (committed \
             {reference:.0}); if the slowdown is intended, regenerate the report with \
             `cargo bench --bench fleet`"
        );
        std::process::exit(1);
    }
    println!(
        "PASS smoke ops_per_sec {measured:>12.0} /s  (committed {reference:.0}, floor {floor:.0})"
    );
}

fn scale_json(label: &str, report: &FleetReport, secs: f64) -> String {
    format!(
        "  \"{label}\": {{\n    \"ops\": {},\n    \"secs\": {secs:.3}\n  }}",
        report.total_ops()
    )
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }

    let (smoke, smoke_secs) = measure("smoke", FleetConfig::smoke(), SMOKE_REPS);
    let (k1, k1_secs) = measure("1k", FleetConfig::k1(), 3);
    let (k10, k10_secs) = measure("10k", FleetConfig::k10(), 2);

    let mut json = String::from(
        "{\n  \"workload\": \"fleet on one simulation timeline: every machine, driver and \
         control actor is a task; cross-machine messages land one PCIe round trip \
         later; mixed read/write + cross-machine remote reads + QoS pressure epochs + \
         revocations\",\n  \"units\": \"wall-clock seconds per full scenario (median of \
         the runs)\",\n  ",
    );
    json.push_str(&hostinfo::host_json());
    json.push_str(",\n  \"smoke\": {\n");
    json.push_str(&format!("    \"ops\": {},\n", smoke.total_ops()));
    json.push_str(&format!(
        "    \"ops_per_sec\": {:.0}\n  }},\n",
        smoke.total_ops() as f64 / smoke_secs
    ));
    json.push_str(&scale_json("1k", &k1, k1_secs));
    json.push_str(",\n");
    json.push_str(&scale_json("10k", &k10, k10_secs));
    json.push_str("\n}\n");
    std::fs::write(repo_path("BENCH_fleet.json"), &json).expect("write BENCH_fleet.json");
    println!("{json}");
}
