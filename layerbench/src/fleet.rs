//! `fleet_k1`: `FleetConfig::k1()` with the seed from the command line:
//! 1,000 processes over 4 machine lanes plus a control lane,
//! `pread_batch` of 4, remote doorbells, writes, QoS pressure epochs and
//! 4 revocations, run on `FleetBuilder::run(2)`.
//!
//! This is the only load on the lane executor, QoS pacing and revocation
//! fallback. The fleet builds its machines inside `run`, so the
//! per-layer numbers come from `FleetReport` and from timing `run(2)`
//! against `run_monolithic()`.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use bypassd::{FleetBuilder, FleetConfig, FleetReport, LaneReport, QosConfig, System, TenantShare};

use crate::host;
use crate::metrics::{expectations, spread_line, Ledger, Outcome};
use crate::probe;
use crate::rig::MIN_REPS;
use crate::spans::{self, SpanLog};
use crate::stats::{median, Ratio};

const WORKERS: usize = 2;

fn config(seed: u64) -> FleetConfig {
    FleetConfig {
        seed,
        ..FleetConfig::k1()
    }
}

struct Setup {
    builder: FleetBuilder,
    setup_s: f64,
    populate_s: f64,
}

/// The benchmark's own set-up. Machines are built inside the timed
/// `run`, so this stands up one machine the way the fleet builds each
/// lane (a System with the fleet's tenant QoS shares and its tenant
/// files), which puts the per-machine set-up cost on `setup_s`.
fn setup(cfg: &FleetConfig, log: &mut SpanLog) -> Result<Setup, String> {
    let start = Instant::now();
    let builder = FleetBuilder::new(cfg.clone());
    let qos = (0..cfg.tenants).fold(QosConfig::enabled(), |q, t| {
        q.uid_share(1000 + t, TenantShare::weight(1 + t % 4))
    });
    let sys = log.time("system.build", || System::builder().qos(qos).build());
    let mut populate_s = 0.0;
    for t in 0..cfg.tenants {
        let p = Instant::now();
        log.time("ext4.populate", || {
            sys.fs()
                .populate(&format!("/tenant-{t}"), cfg.file_len, 0x42)
        })
        .map_err(|e| format!("populate tenant {t}: {e:?}"))?;
        populate_s += p.elapsed().as_secs_f64();
    }
    Ok(Setup {
        builder,
        setup_s: start.elapsed().as_secs_f64(),
        populate_s,
    })
}

fn sum(r: &FleetReport, f: impl Fn(&LaneReport) -> u64) -> u64 {
    r.lanes.iter().map(f).sum()
}

/// Checks a report against what the config fixes.
fn verify(cfg: &FleetConfig, r: &FleetReport) -> Result<(), String> {
    let reads = u64::from(cfg.processes) * u64::from(cfg.rounds) * cfg.batch as u64;
    let writes = sum(r, |l| l.writes);
    if r.total_ops() != reads + writes {
        return Err(format!(
            "the fleet completed {} ops; its config issues {reads} reads and {writes} writes",
            r.total_ops()
        ));
    }
    let remote = [
        sum(r, |l| l.remote_issued),
        sum(r, |l| l.remote_served),
        sum(r, |l| l.remote_done),
        sum(r, |l| l.remote_ok),
    ];
    if remote.iter().any(|&n| n != remote[0]) {
        return Err(format!("remote reads issued/served/done/ok = {remote:?}"));
    }
    let applied = sum(r, |l| l.revokes_applied);
    if r.revokes_issued != u64::from(cfg.revokes) || applied != u64::from(cfg.revokes) {
        return Err(format!(
            "{} revocations issued and {applied} applied, {} configured",
            r.revokes_issued, cfg.revokes
        ));
    }
    if r.pressure_received != u64::from(cfg.lanes * cfg.pressure_epochs) {
        return Err(format!(
            "{} pressure summaries arrived",
            r.pressure_received
        ));
    }
    Ok(())
}

/// One fleet execution with its wall and process CPU seconds.
struct Timed {
    report: FleetReport,
    wall_s: f64,
    cpu_s: f64,
}

fn timed(log: &mut SpanLog, name: &'static str, run: impl FnOnce() -> FleetReport) -> Timed {
    let cpu = host::process_cpu_s();
    let start = Instant::now();
    let report = log.time(name, run);
    Timed {
        report,
        wall_s: start.elapsed().as_secs_f64(),
        cpu_s: host::process_cpu_s() - cpu,
    }
}

fn same_fingerprint(first: &mut Option<FleetReport>, r: &FleetReport) -> Result<(), String> {
    match first {
        None => {
            *first = Some(r.clone());
            Ok(())
        }
        Some(f) if f.fingerprint() == r.fingerprint() => Ok(()),
        Some(f) => Err(format!(
            "fingerprint {:#x} differs from the first run's {:#x}",
            r.fingerprint(),
            f.fingerprint()
        )),
    }
}

fn virt_iops(r: &FleetReport) -> f64 {
    let makespan = r.lanes.iter().map(|l| l.driver_end).max().unwrap_or(0);
    Ratio::new(r.total_ops() as f64 * 1e9, makespan as f64).value()
}

/// Repeats `run(2)` untraced for `seconds` and reports medians.
pub fn untraced(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let cfg = config(seed);
    let start = Instant::now();
    let mut log = SpanLog::new(None);
    let (mut setup_s, mut rate) = (Vec::new(), Vec::new());
    let mut first = None;
    let mut attempted = 0;
    while rate.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        let s = setup(&cfg, &mut log)?;
        let run = timed(&mut log, "fleet.run", || s.builder.run(WORKERS));
        verify(&cfg, &run.report)?;
        same_fingerprint(&mut first, &run.report)?;
        setup_s.push(s.setup_s);
        rate.push(Ratio::new(run.report.total_ops() as f64, run.wall_s).value());
        attempted += run.report.total_ops();
    }
    let r = first.expect("the loop runs at least once");
    let mut ledger = Ledger::default();
    ledger.set("ops_per_s", median(&rate));
    ledger.set("setup_s", median(&setup_s));
    ledger.set("peak_rss_mb", host::peak_rss_mb()?);
    ledger.set("virt_iops", virt_iops(&r));
    Ok(Outcome {
        attempted,
        failed: 0,
        ledger,
        report: spread_line("fleet_k1", &rate),
    })
}

/// The probe, then lanes and monolithic runs in pairs for `seconds`;
/// reports the per-layer ledger.
pub fn traced(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let cfg = config(seed);
    let start = Instant::now();
    let mut log = SpanLog::new(Some(start));
    let probe = probe::run(&mut log)?;
    let (mut lanes, mut mono, mut cpu, mut populate) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut first = None;
    let mut attempted = 0;
    while lanes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let s = setup(&cfg, &mut log)?;
        let l = timed(&mut log, "fleet.run", || s.builder.run(WORKERS));
        let m = timed(&mut log, "fleet.run_monolithic", || {
            s.builder.run_monolithic()
        });
        verify(&cfg, &l.report)?;
        verify(&cfg, &m.report)?;
        catch_unwind(AssertUnwindSafe(|| l.report.assert_same_outcome(&m.report)))
            .map_err(|_| "lanes and monolithic runs reached different outcomes".to_string())?;
        if first.is_none() {
            let one = log.time("fleet.run", || s.builder.run(1));
            if one.fingerprint() != l.report.fingerprint() {
                return Err("the fingerprint differs between 1 and 2 workers".into());
            }
        }
        same_fingerprint(&mut first, &l.report)?;
        lanes.push(l.wall_s);
        mono.push(m.wall_s);
        cpu.push(Ratio::new(l.cpu_s, l.wall_s).value());
        populate.push(s.populate_s);
        attempted += l.report.total_ops() + m.report.total_ops();
    }
    let r = first.expect("the loop runs at least once");
    let total = r.total_ops() as f64;
    let per_op = |n: u64| Ratio::new(n as f64, total).value();
    let mut l = Ledger::default();
    l.set("sim.handoff_ns", probe.handoff_ns);
    l.set("sim.inplace_ns", probe.inplace_ns);
    l.set("core.fallback_share", per_op(sum(&r, |x| x.fallback_ops)));
    l.set("ext4.populate_wall_s", median(&populate));
    l.set("qos.throttled_per_op", per_op(sum(&r, |x| x.qos_throttled)));
    l.set("qos.deferred_per_op", per_op(sum(&r, |x| x.qos_deferred)));
    let (lanes_s, mono_s) = (median(&lanes), median(&mono));
    l.set("fleet.lanes_wall_s", lanes_s);
    l.set("fleet.mono_wall_s", mono_s);
    l.set("fleet.speedup_vs_mono", Ratio::new(mono_s, lanes_s).value());
    l.set("fleet.envelopes_per_op", per_op(r.delivered));
    l.set("fleet.cpu_per_wall", median(&cpu));
    let lat_max = r.lanes.iter().map(|x| x.remote_lat_max).max().unwrap_or(0);
    l.set("fleet.remote_lat_max_us", lat_max as f64 / 1e3);
    l.set("fleet.revoked_pids", sum(&r, |x| x.revoked_pids) as f64);
    l.set(
        "virt_remote_mean_us",
        Ratio::new(
            sum(&r, |x| x.remote_lat_sum) as f64,
            sum(&r, |x| x.remote_done) as f64 * 1e3,
        )
        .value(),
    );
    let mut report = lane_table(&r);
    report += &expectations("fleet_k1", &l);
    report += &spans::write_out(&log, "fleet_k1", seed);
    Ok(Outcome {
        attempted,
        failed: 0,
        ledger: l,
        report,
    })
}

fn lane_table(r: &FleetReport) -> String {
    let mut s = String::from("lane   direct fallback  remote  writes throttled deferred  end_us\n");
    for (i, l) in r.lanes.iter().enumerate() {
        let _ = writeln!(
            s,
            "{i:<4} {:>8} {:>8} {:>7} {:>7} {:>9} {:>8} {:>7}",
            l.direct_ops,
            l.fallback_ops,
            l.remote_done,
            l.writes,
            l.qos_throttled,
            l.qos_deferred,
            l.driver_end / 1000
        );
    }
    s
}
