//! Fleet harness: thousands of [`UserProcess`]es across multiple
//! simulated machines on one [`Simulation`] timeline.
//!
//! The paper evaluates BypassD one host at a time; this module scales
//! the reproduction out. A *fleet* is `lanes` independent machines
//! (each a full [`System`]: memory, IOMMU, Optane-class SSD, ext4,
//! kernel) plus a control plane. Each machine runs its own driver
//! actors multiplexing hundreds of processes over `pread_batch` on
//! per-tenant shared files. Four kinds of message cross machine
//! boundaries, and each hop takes the modeled PCIe round trip
//! ([`bypassd_hw::iommu::PCIE_RTT`], the IOMMU timing model's link
//! delay):
//!
//! * **doorbell** — a driver on one machine rings a remote machine's
//!   gateway queue (peer-to-peer NVMe over the fabric),
//! * **completion** — the remote machine posts the completion back,
//! * **shootdown** — the control plane revokes a shared file's direct
//!   mappings on a machine (Fig. 12's permission-revocation path,
//!   fleet-wide),
//! * **pressure** — machines publish periodic QoS summaries to the
//!   control plane.
//!
//! [`FleetBuilder::run_monolithic`] runs every driver, remote read and
//! control action as a task on one shared timeline. `Router` delivers
//! each cross-machine message one PCIe round trip after it is sent and
//! counts it in [`FleetReport::delivered`]. Equal configs give
//! bit-identical [`FleetReport`]s.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use bypassd_hw::iommu::PCIE_RTT;
use bypassd_hw::types::Lba;
use bypassd_sim::rng::{Fnv64, Rng};
use bypassd_sim::{ActorCtx, Nanos, SimStats, Simulation};
use bypassd_ssd::device::BlockAddr;
use bypassd_ssd::{Command, DmaBuffer, QueueId};

use crate::userlib::ReadReq;
use crate::{QosConfig, System, TenantShare, UserProcess};

/// 4 KB I/O unit used by every fleet driver.
const BLOCK: u64 = 4096;
/// Sectors per fleet I/O.
const SECTORS: u32 = (BLOCK / 512) as u32;

/// Scenario knobs for one fleet run. Every field is deterministic
/// input: two runs with equal configs produce bit-identical
/// [`FleetReport`]s.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Machines (one full `System` each; one [`LaneReport`] each). The
    /// control plane is added on top.
    pub lanes: u32,
    /// Total processes, distributed round-robin over machines.
    pub processes: u32,
    /// Tenant uids (`1000..1000+tenants`), cycled over processes. Each
    /// machine hosts one shared file per tenant.
    pub tenants: u32,
    /// Driver actors per machine; each multiplexes its share of the
    /// machine's processes.
    pub drivers_per_lane: u32,
    /// Batched-read rounds each process performs.
    pub rounds: u32,
    /// Reads per `pread_batch` call.
    pub batch: usize,
    /// Per-mille of process turns that also ring a remote machine's
    /// gateway doorbell.
    pub remote_per_mille: u32,
    /// Per-mille of process turns that also write one block into the
    /// process's private slice of its tenant file.
    pub write_per_mille: u32,
    /// Control-plane revocations (each revokes one tenant's file on
    /// one machine, round-robin).
    pub revokes: u32,
    /// Virtual time of the first revocation.
    pub revoke_start: Nanos,
    /// Gap between revocations.
    pub revoke_gap: Nanos,
    /// QoS pressure summaries each machine publishes.
    pub pressure_epochs: u32,
    /// Pressure epoch length; must be at least the QoS arbiter's
    /// `active_grace`: sampling tenant activity faster than the
    /// activity window itself just reports the same state twice.
    pub pressure_epoch: Nanos,
    /// Enable the QoS arbiter with weighted tenant shares.
    pub qos: bool,
    /// Per-process queue depth (fleet default is shallow: thousands of
    /// queues per machine).
    pub queue_depth: usize,
    /// Per-process DMA buffer bytes.
    pub dma_len: usize,
    /// Per-tenant shared file size in bytes (per machine).
    pub file_len: u64,
    /// Root seed; every derived rng forks from it.
    pub seed: u64,
}

impl FleetConfig {
    /// CI-sized smoke fleet: 2 machines, 64 processes. Finishes in
    /// well under a second.
    pub fn smoke() -> Self {
        FleetConfig {
            lanes: 2,
            processes: 64,
            tenants: 4,
            drivers_per_lane: 2,
            rounds: 3,
            batch: 4,
            remote_per_mille: 120,
            write_per_mille: 100,
            revokes: 2,
            revoke_start: Nanos(120_000),
            revoke_gap: Nanos(90_000),
            pressure_epochs: 3,
            pressure_epoch: Nanos(50_000),
            qos: true,
            queue_depth: 4,
            dma_len: 16 << 10,
            file_len: 2 << 20,
            seed: 0xF1EE_7001,
        }
    }

    /// 1 000 processes over 4 machines.
    pub fn k1() -> Self {
        FleetConfig {
            lanes: 4,
            processes: 1_000,
            tenants: 8,
            drivers_per_lane: 4,
            rounds: 3,
            batch: 4,
            remote_per_mille: 60,
            write_per_mille: 60,
            revokes: 4,
            revoke_start: Nanos(200_000),
            revoke_gap: Nanos(150_000),
            pressure_epochs: 4,
            pressure_epoch: Nanos(60_000),
            qos: true,
            queue_depth: 4,
            dma_len: 16 << 10,
            file_len: 4 << 20,
            seed: 0x000F_1EE7_1000,
        }
    }

    /// The headline scenario: 10 000 processes over 8 machines.
    pub fn k10() -> Self {
        FleetConfig {
            lanes: 8,
            processes: 10_000,
            tenants: 8,
            drivers_per_lane: 4,
            rounds: 3,
            batch: 4,
            remote_per_mille: 40,
            write_per_mille: 40,
            revokes: 8,
            revoke_start: Nanos(300_000),
            revoke_gap: Nanos(200_000),
            pressure_epochs: 4,
            pressure_epoch: Nanos(80_000),
            qos: true,
            queue_depth: 4,
            dma_len: 16 << 10,
            file_len: 4 << 20,
            seed: 0x00F1_EE71_0000,
        }
    }

    /// Processes hosted on machine `lane` (round-robin distribution).
    fn procs_on_lane(&self, lane: u32) -> u32 {
        let (q, r) = (self.processes / self.lanes, self.processes % self.lanes);
        q + u32::from(lane < r)
    }

    fn validate(&self) {
        assert!(self.lanes >= 1, "a fleet needs at least one machine");
        assert!(self.tenants >= 1 && self.drivers_per_lane >= 1);
        assert!(self.batch >= 1 && self.queue_depth >= 1);
        let floor = qos_config(self).active_grace;
        assert!(
            self.pressure_epoch >= floor,
            "pressure epoch {} undercuts the {floor} floor",
            self.pressure_epoch,
        );
        assert!(
            self.file_len >= BLOCK && self.file_len.is_multiple_of(BLOCK),
            "tenant files must hold at least one 4 KB block"
        );
    }
}

/// Mutable per-machine counters, shared between that machine's driver
/// actors, the router and the control actors. Every update happens on
/// the fleet's one timeline, so the final values are deterministic.
#[derive(Debug, Default)]
struct LaneCounters {
    remote_issued: u64,
    remote_served: u64,
    remote_done: u64,
    remote_ok: u64,
    remote_lat_sum: u64,
    remote_lat_max: u64,
    revoked_pids: u64,
    revokes_applied: u64,
    pressure_sent: u64,
    writes: u64,
    driver_end_max: u64,
}

/// Final per-machine observations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LaneReport {
    /// Direct (BypassD-path) ops summed over the machine's processes.
    pub direct_ops: u64,
    /// Kernel-fallback ops (e.g. after a revocation).
    pub fallback_ops: u64,
    /// Remote reads this machine issued to peers.
    pub remote_issued: u64,
    /// Remote reads this machine served through its gateway queue.
    pub remote_served: u64,
    /// Completions received for this machine's remote reads.
    pub remote_done: u64,
    /// Of those, successful ones.
    pub remote_ok: u64,
    /// Sum of remote end-to-end latencies (doorbell send → completion
    /// delivery), in nanoseconds.
    pub remote_lat_sum: u64,
    /// Worst remote latency.
    pub remote_lat_max: u64,
    /// Processes whose direct mappings a revocation tore down here.
    pub revoked_pids: u64,
    /// Revocation commands applied on this machine.
    pub revokes_applied: u64,
    /// Pressure summaries this machine published.
    pub pressure_sent: u64,
    /// Blocks written by this machine's processes.
    pub writes: u64,
    /// Commands the QoS arbiter throttled on this machine's device.
    pub qos_throttled: u64,
    /// Commands the arbiter deferred for fair-share pacing.
    pub qos_deferred: u64,
    /// Content hash of the machine's SSD after the run.
    pub media_fingerprint: u64,
    /// Virtual time at which the machine's last driver finished.
    pub driver_end: u64,
}

/// Deterministic outcome of one fleet run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetReport {
    /// Per-machine observations, indexed by machine.
    pub lanes: Vec<LaneReport>,
    /// Pressure summaries received by the control plane.
    pub pressure_received: u64,
    /// Revocations the control plane issued.
    pub revokes_issued: u64,
    /// FNV-64 fold of every pressure summary's payload (machine, reads,
    /// throttled, deferred) in control-plane arrival order.
    pub pressure_hash: u64,
    /// Cross-machine messages delivered: doorbells, completions,
    /// shootdowns and pressure summaries.
    pub delivered: u64,
}

impl FleetReport {
    /// FNV-64 over every virtual-time-derived field. Bit-identical
    /// across runs of the same config. `delivered` is left out: the
    /// remote, revocation and pressure counts hashed here fix it.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.lanes.len() as u64);
        for l in &self.lanes {
            for v in [
                l.direct_ops,
                l.fallback_ops,
                l.remote_issued,
                l.remote_served,
                l.remote_done,
                l.remote_ok,
                l.remote_lat_sum,
                l.remote_lat_max,
                l.revoked_pids,
                l.revokes_applied,
                l.pressure_sent,
                l.writes,
                l.qos_throttled,
                l.qos_deferred,
                l.media_fingerprint,
                l.driver_end,
            ] {
                h.write_u64(v);
            }
        }
        h.write_u64(self.pressure_received);
        h.write_u64(self.revokes_issued);
        h.write_u64(self.pressure_hash);
        h.finish()
    }

    /// Total ops (direct + fallback) across the fleet.
    pub fn total_ops(&self) -> u64 {
        self.lanes
            .iter()
            .map(|l| l.direct_ops + l.fallback_ops)
            .sum()
    }

    /// Asserts that `other` reached the same logical outcome: same op
    /// totals, remote traffic, revocations and media bytes. Latencies
    /// and QoS counters are not compared.
    pub fn assert_same_outcome(&self, other: &FleetReport) {
        assert_eq!(self.lanes.len(), other.lanes.len(), "lane counts differ");
        for (i, (a, b)) in self.lanes.iter().zip(&other.lanes).enumerate() {
            assert_eq!(
                a.direct_ops + a.fallback_ops,
                b.direct_ops + b.fallback_ops,
                "lane {i}: op totals differ"
            );
            assert_eq!(a.remote_issued, b.remote_issued, "lane {i}: remote issued");
            assert_eq!(a.remote_served, b.remote_served, "lane {i}: remote served");
            assert_eq!(a.remote_done, b.remote_done, "lane {i}: remote done");
            assert_eq!(a.remote_ok, b.remote_ok, "lane {i}: remote ok");
            assert_eq!(a.writes, b.writes, "lane {i}: writes");
            assert_eq!(
                a.revokes_applied, b.revokes_applied,
                "lane {i}: revocations"
            );
            assert_eq!(
                a.media_fingerprint, b.media_fingerprint,
                "lane {i}: media bytes diverged"
            );
        }
        assert_eq!(self.revokes_issued, other.revokes_issued);
        assert_eq!(self.pressure_received, other.pressure_received);
    }
}

/// One machine's fixed wiring.
struct Machine {
    system: System,
    counters: Mutex<LaneCounters>,
    procs: Vec<Arc<UserProcess>>,
    /// Gateway queue for peer-to-peer reads (kernel tenant).
    gateway: QueueId,
    gateway_dma: DmaBuffer,
}

fn tenant_path(tenant: u32) -> String {
    format!("/tenant-{tenant}")
}

fn qos_config(cfg: &FleetConfig) -> QosConfig {
    let mut q = QosConfig::enabled();
    for t in 0..cfg.tenants {
        // Weighted shares 1..4 cycled over tenants, so fair-share
        // pacing has real asymmetry to enforce.
        q = q.uid_share(1000 + t, TenantShare::weight(1 + (t % 4)));
    }
    q
}

/// Builds the per-machine worlds (untimed setup: memory, device,
/// ext4 format, tenant files, processes).
fn build_machines(cfg: &FleetConfig) -> Vec<Machine> {
    (0..cfg.lanes)
        .map(|lane| {
            let mut b = System::builder();
            if cfg.qos {
                b = b.qos(qos_config(cfg));
            }
            let system = b.build();
            for t in 0..cfg.tenants {
                system
                    .fs()
                    .populate(&tenant_path(t), cfg.file_len, 0x42)
                    .expect("populate tenant file");
            }
            let procs: Vec<Arc<UserProcess>> = (0..cfg.procs_on_lane(lane))
                .map(|k| {
                    let uid = 1000 + (lane + k * cfg.lanes) % cfg.tenants;
                    UserProcess::start(&system, uid, uid)
                })
                .collect();
            let gateway = system.device().create_queue(None, 64);
            let gateway_dma = DmaBuffer::alloc(system.mem(), BLOCK as usize);
            Machine {
                system,
                counters: Mutex::new(LaneCounters::default()),
                procs,
                gateway,
                gateway_dma,
            }
        })
        .collect()
}

/// The fleet's machines and its cross-machine links on one timeline.
/// Every message that crosses a machine boundary goes through
/// [`Router::hop`], which delays it by one PCIe round trip and counts
/// it.
struct Router {
    sim: Simulation,
    machines: Vec<Machine>,
    /// Control-plane tallies: (pressure summaries received,
    /// revocations issued, pressure payload fold).
    control: Mutex<(u64, u64, u64)>,
    next_op: AtomicU64,
    delivered: AtomicU64,
}

impl Router {
    /// Books one cross-machine message sent at `sent`; returns when it
    /// arrives.
    fn hop(&self, sent: Nanos) -> Nanos {
        // ordering: Relaxed — a tally read after the run.
        self.delivered.fetch_add(1, Ordering::Relaxed);
        sent.saturating_add(PCIE_RTT)
    }

    /// Machine `src` rings machine `dst`'s gateway doorbell at `now`.
    /// The read runs on `dst`'s device when the doorbell lands (a
    /// one-shot task, so device-ledger updates stay in virtual-time
    /// order), and its completion reaches `src` one completion hop
    /// after the media finishes.
    fn issue(self: &Arc<Self>, now: Nanos, src: u32, dst: u32, block: u64) {
        // ordering: Relaxed — the id only names the spawned actor.
        let op = self.next_op.fetch_add(1, Ordering::Relaxed);
        let router = Arc::clone(self);
        self.sim.spawn_task_at(
            self.hop(now),
            &format!("remote-{op}"),
            move |ctx| async move {
                let m = &router.machines[dst as usize];
                let comp = m.system.device().execute_full(
                    m.gateway,
                    Command::read(
                        BlockAddr::Lba(Lba(block * u64::from(SECTORS))),
                        SECTORS,
                        &m.gateway_dma,
                    ),
                    ctx.now(),
                );
                m.counters.lock().remote_served += 1;
                let lat = router.hop(comp.ready_at).0 - now.0;
                let mut c = router.machines[src as usize].counters.lock();
                c.remote_done += 1;
                c.remote_ok += u64::from(comp.status.is_ok());
                c.remote_lat_sum += lat;
                c.remote_lat_max = c.remote_lat_max.max(lat);
            },
        );
    }
}

/// The body every driver task runs: open per-process handles on the
/// tenant's shared file, then `rounds` passes over the processes, each
/// a `pread_batch` plus occasional private-slice writes and remote
/// doorbell rings.
async fn driver_loop(
    ctx: &mut ActorCtx,
    cfg: &FleetConfig,
    lane: u32,
    procs: &[(u32, Arc<UserProcess>)],
    router: &Arc<Router>,
    mut rng: Rng,
) {
    let counters = &router.machines[lane as usize].counters;
    let mut threads = Vec::with_capacity(procs.len());
    for (idx_on_lane, proc_) in procs {
        let uid = 1000 + (lane + idx_on_lane * cfg.lanes) % cfg.tenants;
        let mut t = proc_.thread_with(cfg.queue_depth, cfg.dma_len);
        let fd = t
            .open_fut(ctx, &tenant_path(uid - 1000), true)
            .await
            .expect("open tenant file");
        // Private write slice: processes of one tenant on one machine
        // partition the file so write content is order-independent.
        let group = idx_on_lane / cfg.tenants;
        let groups = cfg.procs_on_lane(lane).div_ceil(cfg.tenants).max(1);
        let slice_blocks = (cfg.file_len / BLOCK) / u64::from(groups);
        let wbase = u64::from(group) * slice_blocks * BLOCK;
        threads.push((t, fd, wbase, slice_blocks, *idx_on_lane));
    }
    let blocks = cfg.file_len / BLOCK;
    let mut bufs: Vec<Vec<u8>> = (0..cfg.batch).map(|_| vec![0u8; BLOCK as usize]).collect();
    let mut wbuf = vec![0u8; BLOCK as usize];
    for round in 0..cfg.rounds {
        for (t, fd, wbase, slice_blocks, idx_on_lane) in &mut threads {
            let mut reqs: Vec<ReadReq<'_>> = bufs
                .iter_mut()
                .map(|b| ReadReq {
                    offset: rng.gen_range(blocks) * BLOCK,
                    buf: b.as_mut_slice(),
                })
                .collect();
            t.pread_batch_fut(ctx, *fd, &mut reqs)
                .await
                .expect("fleet pread_batch");
            drop(reqs);
            if *slice_blocks > 0 && rng.gen_range(1000) < u64::from(cfg.write_per_mille) {
                let off = *wbase + rng.gen_range(*slice_blocks) * BLOCK;
                wbuf.fill((round as u8) ^ (*idx_on_lane as u8) ^ 0xA5);
                t.pwrite_fut(ctx, *fd, &wbuf, off)
                    .await
                    .expect("fleet pwrite");
                counters.lock().writes += 1;
            }
            if cfg.lanes > 1 && rng.gen_range(1000) < u64::from(cfg.remote_per_mille) {
                let dst = (lane + 1 + rng.gen_range(u64::from(cfg.lanes) - 1) as u32) % cfg.lanes;
                let block = rng.gen_range(blocks);
                counters.lock().remote_issued += 1;
                router.issue(ctx.now(), lane, dst, block);
            }
            ctx.sleep(Nanos(200 + rng.gen_range(800))).await;
        }
    }
    for (t, fd, ..) in &mut threads {
        t.close_fut(ctx, *fd).await.expect("close tenant file");
    }
    let mut c = counters.lock();
    c.driver_end_max = c.driver_end_max.max(ctx.now().0);
}

/// Assigns a machine's processes to its drivers (round-robin), with
/// each entry carrying the process's index on the machine (which fixes
/// its tenant and write slice).
fn driver_partition(cfg: &FleetConfig, machine: &Machine) -> Vec<Vec<(u32, Arc<UserProcess>)>> {
    let mut per_driver: Vec<Vec<(u32, Arc<UserProcess>)>> =
        (0..cfg.drivers_per_lane).map(|_| Vec::new()).collect();
    for (k, p) in machine.procs.iter().enumerate() {
        per_driver[k % cfg.drivers_per_lane as usize].push((k as u32, Arc::clone(p)));
    }
    per_driver
}

fn driver_seed(cfg: &FleetConfig, lane: u32, driver: u32) -> u64 {
    cfg.seed
        ^ (u64::from(lane) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (u64::from(driver) + 1).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// Builder tying a [`FleetConfig`] to runnable scenarios.
#[derive(Debug, Clone)]
pub struct FleetBuilder {
    cfg: FleetConfig,
}

impl FleetBuilder {
    /// Starts from a config (see the [`FleetConfig::smoke`] /
    /// [`FleetConfig::k1`] / [`FleetConfig::k10`] presets).
    pub fn new(cfg: FleetConfig) -> Self {
        cfg.validate();
        FleetBuilder { cfg }
    }

    /// The config.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Alias of [`run_monolithic`](Self::run_monolithic); `workers` is
    /// ignored. It remains only because the layerbench `fleet_k1`
    /// workload still calls `run(2)` and `run(1)`.
    pub fn run(&self, _workers: usize) -> FleetReport {
        self.run_monolithic()
    }

    /// Runs the fleet on one shared [`Simulation`]: every driver,
    /// remote read and control action is a task on one timeline, and
    /// each cross-machine message lands after its port's delay.
    pub fn run_monolithic(&self) -> FleetReport {
        self.run_monolithic_with_stats().0
    }

    /// [`run_monolithic`](Self::run_monolithic), also returning the
    /// simulation's engine self-counters.
    pub fn run_monolithic_with_stats(&self) -> (FleetReport, SimStats) {
        let cfg = &self.cfg;
        let sim = Simulation::new();
        let router = Arc::new(Router {
            sim: sim.clone(),
            machines: build_machines(cfg),
            control: Mutex::new((0, 0, Fnv64::new().finish())),
            next_op: AtomicU64::new(0),
            delivered: AtomicU64::new(0),
        });
        for (i, machine) in router.machines.iter().enumerate() {
            let lane = i as u32;
            for (d, procs) in driver_partition(cfg, machine).into_iter().enumerate() {
                if procs.is_empty() {
                    continue;
                }
                let router = Arc::clone(&router);
                let cfg2 = cfg.clone();
                let rng = Rng::new(driver_seed(cfg, lane, d as u32));
                sim.spawn_task(&format!("l{lane}d{d}"), move |mut ctx| async move {
                    driver_loop(&mut ctx, &cfg2, lane, &procs, &router, rng).await;
                });
            }
        }
        // Control plane: each revocation lands one shootdown hop after
        // it is issued; each pressure summary is sampled at an epoch
        // boundary and lands one pressure hop later.
        if cfg.revokes > 0 {
            let router = Arc::clone(&router);
            let cfg2 = cfg.clone();
            sim.spawn_task("control-revoke", move |mut ctx| async move {
                for idx in 0..cfg2.revokes {
                    let fire = cfg2
                        .revoke_start
                        .saturating_add(Nanos(cfg2.revoke_gap.0 * u64::from(idx)));
                    ctx.sleep_until(fire).await;
                    router.control.lock().1 += 1;
                    ctx.sleep_until(router.hop(fire)).await;
                    let m = &router.machines[(idx % cfg2.lanes) as usize];
                    let pids = m
                        .system
                        .kernel()
                        .revoke_path(&tenant_path(idx % cfg2.tenants))
                        .expect("revoke tenant file");
                    let mut c = m.counters.lock();
                    c.revokes_applied += 1;
                    c.revoked_pids += pids.len() as u64;
                }
            });
        }
        if cfg.pressure_epochs > 0 {
            for i in 0..router.machines.len() {
                let router = Arc::clone(&router);
                let cfg2 = cfg.clone();
                sim.spawn_task(&format!("pressure-{i}"), move |mut ctx| async move {
                    let m = &router.machines[i];
                    for epoch in 0..cfg2.pressure_epochs {
                        ctx.sleep_until(Nanos(cfg2.pressure_epoch.0 * u64::from(epoch + 1)))
                            .await;
                        let stats = m.system.device().stats();
                        m.counters.lock().pressure_sent += 1;
                        let t = router.hop(ctx.now());
                        ctx.sleep_until(t).await;
                        let mut c = router.control.lock();
                        c.0 += 1;
                        for v in [
                            u64::from(i as u32),
                            stats.reads,
                            stats.qos_throttled,
                            stats.qos_deferred,
                        ] {
                            c.2 = fnv_fold(c.2, v);
                        }
                    }
                });
            }
        }
        sim.run();
        (finish_report(&router), sim.stats())
    }
}

/// Folds one pressure-payload word into the running FNV-1a digest `h`.
fn fnv_fold(h: u64, v: u64) -> u64 {
    let mut f = Fnv64::resume(h);
    f.write_u64(v);
    f.finish()
}

fn finish_report(router: &Router) -> FleetReport {
    let lanes = router
        .machines
        .iter()
        .map(|m| {
            let c = m.counters.lock();
            let (mut direct, mut fallback) = (0u64, 0u64);
            for p in &m.procs {
                let (d, f) = p.op_counts();
                direct += d;
                fallback += f;
            }
            let stats = m.system.device().stats();
            LaneReport {
                direct_ops: direct,
                fallback_ops: fallback,
                remote_issued: c.remote_issued,
                remote_served: c.remote_served,
                remote_done: c.remote_done,
                remote_ok: c.remote_ok,
                remote_lat_sum: c.remote_lat_sum,
                remote_lat_max: c.remote_lat_max,
                revoked_pids: c.revoked_pids,
                revokes_applied: c.revokes_applied,
                pressure_sent: c.pressure_sent,
                writes: c.writes,
                qos_throttled: stats.qos_throttled,
                qos_deferred: stats.qos_deferred,
                media_fingerprint: m.system.device().media_fingerprint(),
                driver_end: c.driver_end_max,
            }
        })
        .collect();
    let (pressure_received, revokes_issued, pressure_hash) = *router.control.lock();
    FleetReport {
        lanes,
        pressure_received,
        revokes_issued,
        pressure_hash,
        // ordering: Relaxed — the run has finished.
        delivered: router.delivered.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FleetConfig {
        FleetConfig {
            processes: 16,
            rounds: 2,
            pressure_epochs: 2,
            revokes: 1,
            ..FleetConfig::smoke()
        }
    }

    #[test]
    fn remote_completions_all_return() {
        let r = FleetBuilder::new(tiny()).run_monolithic();
        let issued: u64 = r.lanes.iter().map(|l| l.remote_issued).sum();
        let served: u64 = r.lanes.iter().map(|l| l.remote_served).sum();
        let done: u64 = r.lanes.iter().map(|l| l.remote_done).sum();
        let ok: u64 = r.lanes.iter().map(|l| l.remote_ok).sum();
        assert!(issued > 0, "no cross-machine traffic exercised");
        assert_eq!(issued, served, "every doorbell must be served");
        assert_eq!(issued, done, "every remote read must complete");
        assert_eq!(done, ok, "in-range gateway reads must succeed");
        assert_eq!(
            r.delivered,
            2 * issued + r.revokes_issued + r.pressure_received,
            "one delivery per doorbell, completion, shootdown and summary"
        );
        let lat_floor = 2 * PCIE_RTT.0;
        for l in &r.lanes {
            if let Some(mean) = l.remote_lat_sum.checked_div(l.remote_done) {
                assert!(
                    mean >= lat_floor,
                    "remote latency below two link traversals"
                );
            }
        }
    }

    #[test]
    fn revocation_forces_fallback() {
        let mut cfg = tiny();
        cfg.revokes = cfg.tenants; // revoke every tenant once
        cfg.rounds = 4;
        let r = FleetBuilder::new(cfg).run_monolithic();
        assert!(
            r.lanes.iter().map(|l| l.fallback_ops).sum::<u64>() > 0,
            "revocations must push some ops onto the kernel path"
        );
        assert!(r.lanes.iter().map(|l| l.revoked_pids).sum::<u64>() > 0);
    }

    #[test]
    #[should_panic(expected = "pressure epoch")]
    fn pressure_epoch_floor_is_enforced() {
        let mut cfg = FleetConfig::smoke();
        cfg.pressure_epoch = Nanos(1_000);
        FleetBuilder::new(cfg);
    }
}
