//! Drives the single-System workloads (`direct_read`, `tenants_rw`):
//! untraced repetitions for the end-to-end metrics, and the traced pass
//! for the per-layer ledger.

use std::time::Instant;

use bypassd_sim::Nanos;
use bypassd_trace::{direct_read_check, Breakdown, DeviceRecord, IoPath, OpRecord, TraceOp};

use crate::metrics::{expectations, spread_line, Ledger, Outcome};
use crate::probe::{self, Probe};
use crate::rig::{sample_every_for, Class, Mode, Rep, Virt, MIN_REPS};
use crate::spans::{self, Pool, SpanLog};
use crate::stats::{mean, median, p50, tail, Ratio};
use crate::{direct_read, host, tenants_rw};

/// A workload that runs on one System.
pub struct SysWorkload {
    pub name: &'static str,
    /// One repetition: a fresh System, the seeded program, output checks.
    pub rep: fn(u64, Mode) -> Result<Rep, String>,
    /// Trace records the busiest recorder shard receives per repetition.
    pub shard_records: u64,
    /// Whether stage means must account for single-`pread` latency.
    pub closure_check: bool,
}

pub const DIRECT_READ: SysWorkload = SysWorkload {
    name: "direct_read",
    rep: direct_read::rep,
    shard_records: direct_read::SHARD_RECORDS,
    closure_check: true,
};

pub const TENANTS_RW: SysWorkload = SysWorkload {
    name: "tenants_rw",
    rep: tenants_rw::rep,
    shard_records: tenants_rw::SHARD_RECORDS,
    closure_check: false,
};

/// The coarsest sampling the traced pass tries before it gives up on a
/// trace that drops nothing.
const MAX_SAMPLE_EVERY: u32 = 1 << 12;

fn same_virt(first: &mut Option<Virt>, rep: &Rep) -> Result<(), String> {
    let v = rep.virt();
    match first {
        None => {
            *first = Some(v);
            Ok(())
        }
        Some(f) if *f == v => Ok(()),
        Some(_) => Err("virtual results differ between repetitions of one seed".into()),
    }
}

/// Repeats the workload untraced for `seconds` and reports medians.
pub fn untraced(w: &SysWorkload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let start = Instant::now();
    let (mut setup, mut rate) = (Vec::new(), Vec::new());
    let mut first = None;
    let (mut attempted, mut failed, mut virt_iops) = (0, 0, 0.0);
    while rate.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        let rep = (w.rep)(seed, Mode::PLAIN)?;
        same_virt(&mut first, &rep)?;
        virt_iops = rep.virt_iops();
        setup.push(rep.setup_s);
        rate.push(rep.ops_per_s());
        attempted += rep.ops();
        failed += rep.failed();
    }
    let mut ledger = Ledger::default();
    ledger.set("ops_per_s", median(&rate));
    ledger.set("setup_s", median(&setup));
    ledger.set("peak_rss_mb", host::peak_rss_mb()?);
    ledger.set("virt_iops", virt_iops);
    Ok(Outcome {
        attempted,
        failed,
        ledger,
        report: spread_line(w.name, &rate),
    })
}

/// Host-clock observations from the traced pass's untraced repetitions.
#[derive(Default)]
struct HostSide {
    spans: Pool,
    flight_reads: u64,
    run_s: Vec<f64>,
    cpu_share: Vec<f64>,
    overhead: Vec<f64>,
    populate_s: Vec<f64>,
}

/// The probe, then untraced (spans on) and traced (recorder on)
/// repetitions in pairs for `seconds`; reports the per-layer ledger.
pub fn traced(w: &SysWorkload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let start = Instant::now();
    let mut log = SpanLog::new(Some(start));
    let probe = probe::run(&mut log)?;
    let mut k = sample_every_for(w.shard_records);
    let mut host_side = HostSide::default();
    let mut first = None;
    let (mut attempted, mut failed) = (0, 0);
    let mut last = None;
    while last.is_none() || start.elapsed().as_secs_f64() < seconds {
        let u = (w.rep)(
            seed,
            Mode {
                sample_every: None,
                epoch: Some(start),
            },
        )?;
        let t = loop {
            let t = (w.rep)(
                seed,
                Mode {
                    sample_every: Some(k),
                    epoch: Some(start),
                },
            )?;
            if t.snap.dropped == 0 {
                break t;
            }
            if k >= MAX_SAMPLE_EVERY {
                return Err(format!(
                    "the trace still drops records at 1-in-{k} sampling"
                ));
            }
            k *= 2;
        };
        for rep in [&u, &t] {
            same_virt(&mut first, rep)?;
            attempted += rep.ops();
            failed += rep.failed();
        }
        host_side.spans.add(&u.spans);
        host_side.flight_reads += u.meters.iter().map(|m| m.flight_reads).sum::<u64>();
        host_side.run_s.push(u.run_s);
        host_side.cpu_share.push(u.actor_cpu_share());
        host_side
            .overhead
            .push(Ratio::new(u.ops_per_s(), t.ops_per_s()).value());
        host_side.populate_s.push(u.populate_s);
        last = Some((u, t));
    }
    let (u, t) = last.expect("the loop runs at least once");
    let mut report = Breakdown::build(&t.snap.device, &t.snap.ops).render();
    if w.closure_check {
        report += &closure(&t)?;
    }
    let mut ledger = layers(&probe, &host_side, &t)?;
    ledger.set(
        "error_rate",
        Ratio::new(failed as f64, attempted as f64).value(),
    );
    report += &expectations(w.name, &ledger);
    log.append(u.spans);
    log.append(t.spans);
    report += &spans::write_out(&log, w.name, seed);
    Ok(Outcome {
        attempted,
        failed,
        ledger,
        report,
    })
}

/// Checks with the program's `direct_read_check` that the virtual stage
/// means of single `pread` calls account for their end-to-end mean
/// within 5%. Flights are left out: every read in a flight waits for the
/// flight's slowest command, which no per-command stage sum describes.
fn closure(t: &Rep) -> Result<String, String> {
    // One actor, so the windows are in time order.
    let windows: Vec<(u64, u64)> = t
        .meters
        .iter()
        .flat_map(|m| m.read_windows.iter().copied())
        .collect();
    let inside = |at: u64| {
        let i = windows.partition_point(|w| w.0 <= at);
        i > 0 && at <= windows[i - 1].1
    };
    let ops: Vec<OpRecord> = t
        .snap
        .ops
        .iter()
        .filter(|r| {
            windows
                .binary_search_by_key(&r.start.as_nanos(), |w| w.0)
                .is_ok()
        })
        .copied()
        .collect();
    let dev: Vec<DeviceRecord> = t
        .snap
        .device
        .iter()
        .filter(|r| inside(r.submit.as_nanos()))
        .copied()
        .collect();
    let c = direct_read_check(&dev, &ops);
    let err = c.relative_error();
    let line = format!(
        "direct_read_check over single preads: e2e mean {} ns, stage sum {} ns, {} ops, {} commands, error {:.3}%\n",
        c.e2e_mean.as_nanos(),
        c.stage_sum.as_nanos(),
        c.ops,
        c.commands,
        err * 100.0
    );
    if c.ops == 0 || err > 0.05 {
        return Err(format!(
            "stage means do not account for the read mean: {line}"
        ));
    }
    Ok(line)
}

/// The per-layer ledger of one workload.
fn layers(probe: &Probe, h: &HostSide, t: &Rep) -> Result<Ledger, String> {
    let snap = &t.snap;
    let k = f64::from(snap.sample_every);
    let ops = t.ops() as f64;
    let mut l = Ledger::default();

    l.set("sim.handoff_ns", probe.handoff_ns);
    l.set("sim.inplace_ns", probe.inplace_ns);
    l.set("sim.run_wall_s", median(&h.run_s));
    l.set("sim.actor_cpu_share", median(&h.cpu_share));

    let pread = tail(h.spans.get(Class::Read.span()))?;
    l.set("core.pread_wall_ns_p50", pread.p50 as f64);
    l.set("core.pread_wall_ns_p99", pread.p99 as f64);
    let flights: u64 = h.spans.get(Class::Flight.span()).iter().sum();
    l.set(
        "core.flight_wall_ns_per_read",
        Ratio::new(flights as f64, h.flight_reads as f64).value(),
    );
    l.set(
        "core.pwrite_wall_ns_p50",
        p50(h.spans.get(Class::Write.span()))? as f64,
    );
    l.set(
        "core.fsync_wall_ns_p50",
        p50(h.spans.get(Class::Fsync.span()))? as f64,
    );
    l.set(
        "core.fallback_share",
        Ratio::new(
            snap.fallback_ops as f64,
            (snap.direct_ops + snap.fallback_ops) as f64,
        )
        .value(),
    );
    let op_stage = |f: fn(&OpRecord) -> Nanos| -> Vec<u64> {
        snap.ops.iter().map(|r| f(r).as_nanos()).collect()
    };
    l.set("core.userlib_submit_ns", mean(&op_stage(|r| r.userlib)));
    l.set(
        "core.completion_poll_ns",
        mean(&op_stage(|r| r.device_span)),
    );
    l.set("core.user_copy_ns", mean(&op_stage(|r| r.user_copy)));

    // Kernel time of UserLib operations that entered the kernel; the
    // kernel's own records of the same syscalls would count it twice.
    let kernel: Vec<u64> = snap
        .ops
        .iter()
        .filter(|r| r.path != IoPath::Kernel && !r.kernel.is_zero())
        .map(|r| r.kernel.as_nanos())
        .collect();
    l.set("os.kernel_ns_mean", mean(&kernel));
    l.set("os.kernel_ns_p99", tail(&kernel)?.p99 as f64);
    l.set("os.kernel_ops", kernel.len() as f64 * k);

    let kernel_bytes: u64 = snap
        .device
        .iter()
        .filter(|r| r.tenant == 0 && r.op == TraceOp::Write)
        .map(|r| r.bytes)
        .sum();
    let appends = t.class(Class::Append).len() as f64;
    let fsyncs = t.class(Class::Fsync).len() as f64;
    l.set("ext4.populate_wall_s", median(&h.populate_s));
    l.set(
        "ext4.kernel_bytes_per_append",
        Ratio::new(kernel_bytes as f64 * k, appends).value(),
    );
    l.set(
        "ext4.flushes_per_fsync",
        Ratio::new(snap.dev_flushes as f64, fsyncs).value(),
    );

    let iommu = |name: &str| snap.iommu(name) as f64;
    let hit_rate =
        |hits: &str, misses: &str| Ratio::new(iommu(hits), iommu(hits) + iommu(misses)).value();
    l.set(
        "hw.ats_per_op",
        Ratio::new(iommu("ats_requests"), ops).value(),
    );
    l.set("hw.pwc_hit_rate", hit_rate("pwc_hits", "pwc_misses"));
    l.set("hw.iotlb_hit_rate", hit_rate("iotlb_hits", "iotlb_misses"));
    let dev_stage = |f: fn(&DeviceRecord) -> Nanos, user_only: bool| -> Vec<u64> {
        snap.device
            .iter()
            .filter(|r| !user_only || r.tenant != 0)
            .map(|r| f(r).as_nanos())
            .collect()
    };
    l.set(
        "hw.translate_ns_mean",
        mean(&dev_stage(|r| r.translate, true)),
    );

    l.set(
        "ssd.reads_per_op",
        Ratio::new(snap.dev_reads as f64, ops).value(),
    );
    l.set(
        "ssd.writes_per_op",
        Ratio::new(snap.dev_writes as f64, ops).value(),
    );
    l.set("ssd.flushes", snap.dev_flushes as f64);
    l.set(
        "ssd.write_amp",
        Ratio::new(snap.dev_written_bytes as f64, t.user_bytes_written() as f64).value(),
    );
    let wait = dev_stage(|r| r.channel_wait, false);
    l.set("ssd.channel_wait_ns_mean", mean(&wait));
    l.set("ssd.channel_wait_ns_p99", tail(&wait)?.p99 as f64);
    l.set(
        "ssd.service_ns_mean",
        mean(&dev_stage(|r| r.service, false)),
    );

    l.set(
        "qos.throttled_per_op",
        Ratio::new(snap.qos_throttled as f64, ops).value(),
    );
    l.set(
        "qos.deferred_per_op",
        Ratio::new(snap.qos_deferred as f64, ops).value(),
    );

    l.set("trace.overhead", median(&h.overhead));
    l.set("trace.dropped", snap.dropped as f64);

    for (class, p50_name, p99_name, n_name) in [
        (
            Class::Read,
            "virt_read_p50_us",
            "virt_read_p99_us",
            "virt_read_n",
        ),
        (
            Class::Flight,
            "virt_flight_p50_us",
            "virt_flight_p99_us",
            "virt_flight_n",
        ),
        (
            Class::Write,
            "virt_write_p50_us",
            "virt_write_p99_us",
            "virt_write_n",
        ),
        (
            Class::Append,
            "virt_append_p50_us",
            "virt_append_p99_us",
            "virt_append_n",
        ),
        (
            Class::Fsync,
            "virt_fsync_p50_us",
            "virt_fsync_p99_us",
            "virt_fsync_n",
        ),
    ] {
        let lat = tail(&t.class(class)).map_err(|e| format!("{n_name}: {e}"))?;
        l.set(p50_name, lat.p50 as f64 / 1e3);
        l.set(p99_name, lat.p99 as f64 / 1e3);
        l.set(n_name, lat.n as f64);
    }
    Ok(l)
}
