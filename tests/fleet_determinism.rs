//! The fleet determinism matrix: the same seed must produce the
//! bit-identical virtual-time fingerprint no matter how many worker
//! threads execute the lanes — 1, 2, or 8; picked in code or through
//! `BYPASSD_FLEET_WORKERS` — and the sharded run must reach the same
//! logical outcome as the monolithic single-timeline baseline. Two
//! scenario flavors exercise the cross-shard ports from both sides
//! (fairness: QoS pressure dominates; revocation: shootdowns dominate),
//! and the crash-campaign fingerprint rides along to pin down that the
//! fault plane stayed deterministic under the fleet-era engine changes.

use bypassd::fleet::{FleetBuilder, FleetConfig, FleetReport};
use bypassd::{CrashLab, CrashWorkload};
use bypassd_faults::campaign::CampaignConfig;
use bypassd_sim::Nanos;

const MATRIX: [usize; 3] = [1, 2, 8];

/// Fingerprints of the three scenarios below, recorded when every fleet
/// actor was an OS thread. Task actors must reproduce them bit for bit.
const SMOKE_FINGERPRINT: u64 = 0xDC06_D9EA_72B6_ADBB;
const REVOCATION_FINGERPRINT: u64 = 0x34C0_CA72_D731_1043;
const K1_FINGERPRINT: u64 = 0xB68A_F560_1D66_9BB7;
/// `K1_FINGERPRINT` with the device ATC forced on (`BYPASSD_FORCE_ATC`,
/// as the CI `qos` job runs): ATC hits skip the modeled PCIe round
/// trip, so the schedule differs, and is pinned in its own right.
/// Forcing QoS on alone leaves k1's fingerprint unchanged.
const K1_ATC_FINGERPRINT: u64 = 0xB687_1732_2DB5_5180;

fn revocation_config() -> FleetConfig {
    FleetConfig {
        processes: 48,
        rounds: 4,
        revokes: 4,
        revoke_start: Nanos(100_000),
        revoke_gap: Nanos(60_000),
        remote_per_mille: 200,
        seed: 0xF1EE_74E0,
        ..FleetConfig::smoke()
    }
}

/// Runs `cfg` across the worker matrix, asserts every fingerprint is
/// identical and the outcome matches the monolithic baseline, and
/// returns the (single) fingerprint.
fn matrix_fingerprint(cfg: FleetConfig) -> u64 {
    let fleet = FleetBuilder::new(cfg);
    let mono = fleet.run_monolithic();
    let reports: Vec<FleetReport> = MATRIX.iter().map(|&w| fleet.run(w)).collect();
    for (r, &w) in reports.iter().zip(&MATRIX) {
        r.assert_same_outcome(&mono);
        assert_eq!(
            r.fingerprint(),
            reports[0].fingerprint(),
            "fingerprint diverged at {w} workers"
        );
        assert_eq!(
            r.lanes, reports[0].lanes,
            "per-lane reports diverged at {w} workers"
        );
    }
    assert!(reports[0].total_ops() > 0, "scenario did no work");
    reports[0].fingerprint()
}

/// Fairness flavor: QoS on with weighted tenants, pressure epochs on
/// the control lane, enough remote traffic that completion ports carry
/// real load.
#[test]
fn fairness_fleet_matrix_is_worker_count_invariant() {
    let fp = matrix_fingerprint(FleetConfig::smoke());
    // The smoke seed is fixed, so the fingerprint is a constant of the
    // tree; a change means the virtual-time schedule itself moved.
    assert_eq!(fp, SMOKE_FINGERPRINT, "smoke fingerprint {fp:#x}");
}

/// Revocation flavor: a shootdown per tenant arrives mid-run, forcing
/// fallback I/O on every lane while reads and remote traffic continue.
#[test]
fn revocation_fleet_matrix_is_worker_count_invariant() {
    let cfg = revocation_config();
    let fleet = FleetBuilder::new(cfg.clone());
    let reference = fleet.run(1);
    assert_eq!(reference.revokes_issued, 4);
    let revoked: u64 = reference.lanes.iter().map(|l| l.revoked_pids).sum();
    assert!(revoked > 0, "revocations never landed on a live process");
    assert_eq!(matrix_fingerprint(cfg), reference.fingerprint());
    assert_eq!(
        reference.fingerprint(),
        REVOCATION_FINGERPRINT,
        "revocation fingerprint {:#x}",
        reference.fingerprint()
    );
}

/// The benchmark's 1,000-process fleet, pinned in both modes.
#[test]
fn k1_fleet_fingerprint_is_pinned() {
    let atc_forced = std::env::var("BYPASSD_FORCE_ATC").is_ok_and(|v| !v.is_empty() && v != "0");
    let pinned = if atc_forced {
        K1_ATC_FINGERPRINT
    } else {
        K1_FINGERPRINT
    };
    let fleet = FleetBuilder::new(FleetConfig::k1());
    for report in [fleet.run(2), fleet.run_monolithic()] {
        assert_eq!(
            report.fingerprint(),
            pinned,
            "k1 fingerprint {:#x}",
            report.fingerprint()
        );
    }
}

/// Fleet actors are tasks polled by the executor workers (or by the
/// monolithic `run` caller): no actor ever gets an OS thread, so no
/// event is an OS-thread handoff.
#[test]
fn fleet_actors_run_without_threads_or_handoffs() {
    let fleet = FleetBuilder::new(FleetConfig::smoke());
    for (mode, (_, e)) in [
        ("lanes", fleet.run_with_stats(2)),
        ("monolithic", fleet.run_monolithic_with_stats()),
    ] {
        assert_eq!(e.thread_spawns, 0, "{mode}: {e:?}");
        assert_eq!(e.handoffs, 0, "{mode}: {e:?}");
        assert!(
            e.task_spawns > 0 && e.task_polls >= e.task_spawns,
            "{mode}: {e:?}"
        );
        assert_eq!(
            e.task_polls, e.events,
            "{mode}: every dispatch polls a task"
        );
    }
}

/// `BYPASSD_FLEET_WORKERS` selects the worker count without perturbing
/// results: every value of the env var yields the same fingerprint as
/// the in-code matrix. Runs in one test (not per-value tests) because
/// the env var is process-global.
#[test]
fn env_worker_override_does_not_change_results() {
    let fleet = FleetBuilder::new(FleetConfig::smoke());
    let reference = fleet.run(1).fingerprint();
    for workers in ["1", "2", "8", "not-a-number"] {
        std::env::set_var("BYPASSD_FLEET_WORKERS", workers);
        let report = fleet.run_env(2);
        assert_eq!(
            report.fingerprint(),
            reference,
            "BYPASSD_FLEET_WORKERS={workers} changed the fingerprint"
        );
    }
    std::env::remove_var("BYPASSD_FLEET_WORKERS");
    assert_eq!(fleet.run_env(2).fingerprint(), reference);
}

/// Crash campaigns stayed deterministic under the fleet-era engine
/// changes (`Simulation` handle cloning, mid-run `spawn_at`): the same
/// campaign seed enumerates the same points and reports the same
/// fingerprint on every run.
#[test]
fn crash_campaign_fingerprint_is_stable_across_reruns() {
    let cfg = CampaignConfig {
        seed: 0xB17_FA17,
        max_points: 40,
        ..CampaignConfig::default()
    };
    let run = || {
        CrashLab::new(CrashWorkload::Append {
            steps: 6,
            blocks_per_step: 2,
        })
        .campaign(&cfg)
    };
    let (a, b) = (run(), run());
    assert!(a.passed(), "{}", a.summary());
    assert_eq!(a.fingerprint, b.fingerprint, "campaign fingerprint drifted");
    assert_eq!(a.points_enumerated, b.points_enumerated);
    assert_eq!(a.clean_points, b.clean_points);
    assert_eq!(a.torn_points, b.torn_points);
}
