//! Deterministic fault-injection campaigns through the full stack:
//! arbitrary crash points swept over real workloads, every point checked
//! by remount + fsck + replay-twice idempotence + data integrity against
//! the durable-mark horizon — plus the media-error and completion-loss
//! injection paths end to end.
//!
//! `BYPASSD_CAMPAIGN_POINTS=<n>` bounds each sweep (CI smoke budget);
//! unset, the sweeps cover the full acceptance budget (≥ 200 combined
//! crash points).

use std::sync::Arc;

use bypassd::{CrashLab, CrashWorkload, System, UserProcess};
use bypassd_faults::campaign::CampaignConfig;
use bypassd_faults::plane::FaultPlane;
use bypassd_os::Errno;
use bypassd_sim::Simulation;

/// Per-campaign point budget: the env override, else `full`.
fn budget(full: usize) -> usize {
    std::env::var("BYPASSD_CAMPAIGN_POINTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(full)
}

fn cfg(max_points: usize) -> CampaignConfig {
    CampaignConfig {
        max_points,
        ..CampaignConfig::default()
    }
}

#[test]
fn append_campaign_sweeps_crash_points() {
    let lab = CrashLab::new(CrashWorkload::Append {
        steps: 10,
        blocks_per_step: 3,
    });
    let report = lab.campaign(&cfg(budget(120)));
    println!("{}", report.summary());
    assert!(report.passed(), "{}", report.summary());
    assert_eq!(report.points_run, budget(120).min(report.points_enumerated));
    assert!(report.clean_points > 0, "no clean cuts ran");
    assert!(report.torn_points > 0, "no mid-write tears ran");
    assert!(report.reorder_points > 0, "no reorder cuts ran");
}

#[test]
fn overwrite_campaign_sweeps_crash_points() {
    let lab = CrashLab::new(CrashWorkload::Overwrite {
        steps: 8,
        region_blocks: 12,
    });
    let report = lab.campaign(&cfg(budget(100)));
    println!("{}", report.summary());
    assert!(report.passed(), "{}", report.summary());
    assert_eq!(report.points_run, budget(100).min(report.points_enumerated));
    assert!(report.clean_points > 0 && report.torn_points > 0);
}

/// Crash points while inodes carry overflow extent chains: three logs
/// appended round-robin until each passes its first overflow block. The
/// default budget keeps a debug run short; CI's release step sweeps 400.
#[test]
fn interleaved_chain_campaign_sweeps_crash_points() {
    let lab = CrashLab::new(CrashWorkload::Interleaved);
    let report = lab.campaign(&cfg(budget(6)));
    println!("{}", report.summary());
    assert!(report.passed(), "{}", report.summary());
    assert_eq!(report.points_run, budget(6).min(report.points_enumerated));
    assert!(report.clean_points > 0, "no clean cuts ran");
    // An unchanged chain block stays out of later transactions because
    // its earlier home write is durable past the next commit's barrier;
    // reorder and torn cuts are what test that, so budgets large enough
    // to reach them must run some.
    if budget(6) >= 40 {
        assert!(report.torn_points > 0, "no mid-write tears ran");
        assert!(report.reorder_points > 0, "no reorder cuts ran");
    }
}

#[test]
fn combined_sweep_meets_acceptance_budget() {
    // ≥ 200 distinct crash points across the two workloads (the ISSUE
    // acceptance floor). Skipped under a CI smoke budget.
    if std::env::var("BYPASSD_CAMPAIGN_POINTS").is_ok() {
        return;
    }
    let append = CrashLab::new(CrashWorkload::Append {
        steps: 10,
        blocks_per_step: 3,
    })
    .campaign(&cfg(120));
    let overwrite = CrashLab::new(CrashWorkload::Overwrite {
        steps: 8,
        region_blocks: 12,
    })
    .campaign(&cfg(100));
    assert!(append.passed(), "{}", append.summary());
    assert!(overwrite.passed(), "{}", overwrite.summary());
    assert!(
        append.points_run + overwrite.points_run >= 200,
        "only {} + {} crash points swept",
        append.points_run,
        overwrite.points_run
    );
}

#[test]
fn campaign_is_bit_reproducible_end_to_end() {
    let c = cfg(24);
    let run = || {
        CrashLab::new(CrashWorkload::Append {
            steps: 4,
            blocks_per_step: 2,
        })
        .campaign(&c)
    };
    let (a, b) = (run(), run());
    assert_eq!(a.fingerprint, b.fingerprint, "campaign is not reproducible");
    assert_eq!(a.summary(), b.summary());
    // A different seed explores a different point set.
    let other = CrashLab::new(CrashWorkload::Append {
        steps: 4,
        blocks_per_step: 2,
    })
    .campaign(&CampaignConfig {
        seed: 0xD15EA5E,
        ..c
    });
    assert_ne!(a.fingerprint, other.fingerprint);
}

#[test]
fn broken_recovery_trusting_torn_commits_is_caught() {
    // Mutation test: recovery with journal-checksum validation disabled
    // applies transactions whose journaled blocks were lost by a
    // reorder/at-barrier cut (the async-commit scenario the checksum
    // exists for). The campaign must catch that broken recovery.
    let mut lab = CrashLab::new(CrashWorkload::Append {
        steps: 10,
        blocks_per_step: 3,
    });
    lab.set_validate_journal_checksums(false);
    // A fixed budget: the 40-point CI sweep samples no cut that catches
    // this mutant, so the override would take the test's teeth out.
    let report = lab.campaign(&cfg(120));
    println!("{}", report.summary());
    assert!(
        !report.passed(),
        "checksum-free recovery survived the sweep — the campaign has no teeth"
    );
    // Shrinking still produces actionable reproducers (or the point is
    // already minimal).
    assert!(report
        .failures
        .iter()
        .all(|f| f.shrunk.is_some() || !f.error.is_empty()));
}

#[test]
fn transient_media_errors_are_retried_transparently() {
    let plane = Arc::new(FaultPlane::new());
    let sys = System::builder()
        .capacity(1 << 30)
        .fault_plane(Arc::clone(&plane))
        .build();
    sys.fs().populate("/media", 64 * 4096, 0x5C).unwrap();
    // First timed read and first timed write each fail once.
    plane.fail_reads(vec![0]);
    plane.fail_writes(vec![0]);
    let p = Arc::clone(&plane);
    let sim = Simulation::new();
    sim.spawn("app", move |ctx| {
        let proc = UserProcess::start(&sys, 0, 0);
        let mut t = proc.thread();
        let fd = t.open(ctx, "/media", true).unwrap();
        let mut buf = vec![0u8; 4096];
        // The transient read error is retried in place: success.
        assert_eq!(t.pread(ctx, fd, &mut buf, 0).unwrap(), 4096);
        assert!(buf.iter().all(|&b| b == 0x5C));
        // Same for the direct overwrite.
        assert_eq!(t.pwrite(ctx, fd, &[0x77; 4096], 0).unwrap(), 4096);
        assert_eq!(t.pread(ctx, fd, &mut buf, 0).unwrap(), 4096);
        assert!(buf.iter().all(|&b| b == 0x77));
        let stats = p.stats();
        assert_eq!(stats.read_errors, 1, "injected read error never fired");
        assert_eq!(stats.write_errors, 1, "injected write error never fired");
    });
    sim.run();
}

#[test]
fn persistent_media_errors_surface_as_eio() {
    let plane = Arc::new(FaultPlane::new());
    let sys = System::builder()
        .capacity(1 << 30)
        .fault_plane(Arc::clone(&plane))
        .build();
    sys.fs().populate("/dying", 16 * 4096, 0x42).unwrap();
    // Every read attempt fails: retries exhaust and EIO surfaces.
    plane.fail_reads((0..64).collect());
    let sim = Simulation::new();
    sim.spawn("app", move |ctx| {
        let proc = UserProcess::start(&sys, 0, 0);
        let mut t = proc.thread();
        let fd = t.open(ctx, "/dying", false).unwrap();
        let mut buf = vec![0u8; 4096];
        assert_eq!(t.pread(ctx, fd, &mut buf, 0), Err(Errno::Io));
    });
    sim.run();
}

/// A revoked mapping fails translation before a media-error plan is
/// consulted, so a plain `pread` falls back to the kernel even under a
/// persistent plan: the device serves nothing directly, and the
/// kernel's own read takes the injected error and returns `EIO`. With
/// one injected error, the fallback retries and returns the data.
#[test]
fn revoked_reads_fall_back_before_media_errors() {
    for (errors, want) in [(64, Err(Errno::Io)), (1, Ok(4096))] {
        let plane = Arc::new(FaultPlane::new());
        let sys = System::builder()
            .capacity(1 << 30)
            .fault_plane(Arc::clone(&plane))
            .build();
        sys.fs().populate("/revoked", 16 * 4096, 0x42).unwrap();
        let p = Arc::clone(&plane);
        let sim = Simulation::new();
        sim.spawn("app", move |ctx| {
            let proc = UserProcess::start(&sys, 0, 0);
            let mut t = proc.thread();
            let fd = t.open(ctx, "/revoked", false).unwrap();
            sys.kernel().revoke_path("/revoked").unwrap();
            p.fail_reads((0..errors).collect());
            let mut buf = vec![0u8; 4096];
            assert_eq!(t.pread(ctx, fd, &mut buf, 0), want, "{errors} errors");
            if want.is_ok() {
                assert!(buf.iter().all(|&b| b == 0x42));
            }
            let (direct, fallback) = proc.op_counts();
            assert_eq!(
                direct, 0,
                "{errors} errors: a revoked mapping served a read"
            );
            assert!(fallback > 0, "{errors} errors: the read never fell back");
            assert!(p.stats().read_errors > 0, "{errors} errors: none fired");
        });
        sim.run();
    }
}

/// One completion-loss scenario: the thread's queue, the submissions
/// whose CQ entries are swallowed, the batched flights (reads each) and
/// the sequential `pread`s that follow them.
struct DropCase {
    name: &'static str,
    /// `(queue_depth, dma_len)` for `thread_with`; `None` is the default
    /// thread.
    thread: Option<(usize, usize)>,
    drops: Vec<u64>,
    flights: &'static [usize],
    preads: usize,
}

#[test]
fn dropped_completion_is_recovered_by_resubmission() {
    let cases = [
        // One CQ entry is lost mid-flight; the flight must re-issue that
        // request and still return correct data.
        DropCase {
            name: "one drop in an 8-read flight",
            thread: None,
            drops: vec![0],
            flights: &[8],
            preads: 0,
        },
        // Two drops on a depth-2 queue: a dropped entry must free its
        // slot, or the later flights and the sequential read find the
        // queue full.
        DropCase {
            name: "two drops on a depth-2 queue",
            thread: Some((2, 1 << 20)),
            drops: vec![0, 2],
            flights: &[2, 2, 2],
            preads: 1,
        },
    ];
    for case in cases {
        let blocks = case.flights.iter().sum::<usize>() + case.preads;
        let plane = Arc::new(FaultPlane::new());
        let sys = System::builder()
            .capacity(1 << 30)
            .fault_plane(Arc::clone(&plane))
            .build();
        sys.fs().populate("/lossy", 64 * 4096, 0).unwrap();
        for b in 0..blocks as u64 {
            let (segs, _) = sys
                .fs()
                .resolve(sys.fs().lookup("/lossy").unwrap(), b * 4096, 4096)
                .unwrap();
            sys.device()
                .write_raw(segs[0].0.unwrap(), &[b as u8 + 1; 4096]);
        }
        plane.drop_completions(case.drops.clone());
        let p = Arc::clone(&plane);
        let sim = Simulation::new();
        sim.spawn("app", move |ctx| {
            let proc = UserProcess::start(&sys, 0, 0);
            let mut t = match case.thread {
                Some((depth, dma)) => proc.thread_with(depth, dma),
                None => proc.thread(),
            };
            let fd = t.open(ctx, "/lossy", false).unwrap();
            let mut bufs: Vec<Vec<u8>> = vec![vec![0u8; 4096]; blocks];
            let mut next = 0;
            for &len in case.flights {
                let mut reqs: Vec<bypassd::ReadReq> = bufs[next..next + len]
                    .iter_mut()
                    .enumerate()
                    .map(|(i, b)| bypassd::ReadReq {
                        offset: (next + i) as u64 * 4096,
                        buf: b.as_mut_slice(),
                    })
                    .collect();
                let n = t.pread_batch(ctx, fd, &mut reqs).unwrap();
                assert_eq!(n, len * 4096, "{}", case.name);
                next += len;
            }
            for (i, b) in bufs.iter_mut().enumerate().skip(next) {
                assert_eq!(t.pread(ctx, fd, b, i as u64 * 4096), Ok(4096));
            }
            for (i, b) in bufs.iter().enumerate() {
                assert!(
                    b.iter().all(|&x| x == i as u8 + 1),
                    "{}: lost-completion read {i} returned wrong data",
                    case.name
                );
            }
            assert_eq!(
                p.stats().completions_dropped,
                case.drops.len() as u64,
                "{}: drops never fired",
                case.name
            );
        });
        sim.run();
    }
}
