//! Fleet determinism: the same seed must produce the bit-identical
//! virtual-time fingerprint and message count on every run. Two
//! scenario flavors exercise the cross-machine ports from both sides
//! (fairness: QoS pressure dominates; revocation: shootdowns dominate),
//! plus the benchmark's 1,000-process fleet, and the crash-campaign
//! fingerprint rides along to pin down that the fault plane stayed
//! deterministic under the fleet-era engine changes.

use bypassd::fleet::{FleetBuilder, FleetConfig, FleetReport};
use bypassd::{CrashLab, CrashWorkload};
use bypassd_faults::campaign::CampaignConfig;
use bypassd_sim::Nanos;

/// Fingerprints of the three scenarios below, recorded when every fleet
/// actor was an OS thread and unchanged since.
const SMOKE_FINGERPRINT: u64 = 0xDC06_D9EA_72B6_ADBB;
const REVOCATION_FINGERPRINT: u64 = 0x34C0_CA72_D731_1043;
const K1_FINGERPRINT: u64 = 0xB68A_F560_1D66_9BB7;
/// `K1_FINGERPRINT` with the device ATC forced on (`BYPASSD_FORCE_ATC`,
/// as the CI `qos` job runs): ATC hits skip the modeled PCIe round
/// trip, so the schedule differs, and is pinned in its own right.
/// Forcing QoS on alone leaves k1's fingerprint unchanged.
const K1_ATC_FINGERPRINT: u64 = 0xB687_1732_2DB5_5180;

/// Cross-machine messages (doorbells + completions + shootdowns +
/// pressure summaries) of the same three scenarios, recorded when each
/// one was an envelope between executor lanes.
const SMOKE_DELIVERED: u64 = 46;
const REVOCATION_DELIVERED: u64 = 100;
const K1_DELIVERED: u64 = 414;

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

/// Runs `cfg` twice, asserts the reports are identical and did work,
/// and returns one.
fn rerun(cfg: FleetConfig) -> FleetReport {
    let fleet = FleetBuilder::new(cfg);
    let (a, b) = (fleet.run_monolithic(), fleet.run_monolithic());
    assert_eq!(a, b, "a rerun of the same config diverged");
    assert!(a.total_ops() > 0, "scenario did no work");
    a
}

/// Fairness flavor: QoS on with weighted tenants, pressure epochs on
/// the control plane, enough remote traffic that completion ports
/// carry real load.
#[test]
fn smoke_fleet_fingerprint_is_pinned() {
    let r = rerun(FleetConfig::smoke());
    // The smoke seed is fixed, so the fingerprint is a constant of the
    // tree; a change means the virtual-time schedule itself moved.
    assert_eq!(r.fingerprint(), SMOKE_FINGERPRINT, "{:#x}", r.fingerprint());
    assert_eq!(r.delivered, SMOKE_DELIVERED);
}

/// Revocation flavor: a shootdown per tenant arrives mid-run, forcing
/// fallback I/O on every machine while reads and remote traffic
/// continue.
#[test]
fn revocation_fleet_fingerprint_is_pinned() {
    let r = rerun(revocation_config());
    assert_eq!(r.revokes_issued, 4);
    let revoked: u64 = r.lanes.iter().map(|l| l.revoked_pids).sum();
    assert!(revoked > 0, "revocations never landed on a live process");
    assert_eq!(
        r.fingerprint(),
        REVOCATION_FINGERPRINT,
        "revocation fingerprint {:#x}",
        r.fingerprint()
    );
    assert_eq!(r.delivered, REVOCATION_DELIVERED);
}

/// The benchmark's 1,000-process fleet.
#[test]
fn k1_fleet_fingerprint_is_pinned() {
    let atc_forced = std::env::var("BYPASSD_FORCE_ATC").is_ok_and(|v| !v.is_empty() && v != "0");
    let pinned = if atc_forced {
        K1_ATC_FINGERPRINT
    } else {
        K1_FINGERPRINT
    };
    let report = FleetBuilder::new(FleetConfig::k1()).run_monolithic();
    assert_eq!(
        report.fingerprint(),
        pinned,
        "k1 fingerprint {:#x}",
        report.fingerprint()
    );
    assert_eq!(report.delivered, K1_DELIVERED);
}

/// Fleet actors are tasks polled by the `run` caller: no actor ever
/// gets an OS thread, so no event is an OS-thread handoff.
#[test]
fn fleet_actors_run_without_threads_or_handoffs() {
    let (_, e) = FleetBuilder::new(FleetConfig::smoke()).run_monolithic_with_stats();
    assert_eq!(e.thread_spawns, 0, "{e:?}");
    assert_eq!(e.handoffs, 0, "{e:?}");
    assert!(e.task_spawns > 0 && e.task_polls >= e.task_spawns, "{e:?}");
    assert_eq!(e.task_polls, e.events, "every dispatch polls a task");
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
