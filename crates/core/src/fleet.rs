//! Fleet harness: thousands of [`UserProcess`]es across multiple
//! simulated machines, one machine per [`bypassd_fleet`] event lane.
//!
//! The paper evaluates BypassD one host at a time; this module scales
//! the reproduction out. A *fleet* is `lanes` independent machines
//! (each a full [`System`]: memory, IOMMU, Optane-class SSD, ext4,
//! kernel) plus one control-plane lane. Each machine lane runs its own
//! driver actors multiplexing hundreds of processes over `pread_batch`
//! on per-tenant shared files; the only events that cross machine
//! boundaries are the four declared ports:
//!
//! * **doorbell** (`bypassd_ssd::ports::DOORBELL`) — a driver on one
//!   machine rings a remote machine's gateway queue (peer-to-peer NVMe
//!   over the fabric, modeled as one PCIe RTT of lookahead),
//! * **completion** (`bypassd_ssd::ports::COMPLETION`) — the remote
//!   machine posts the completion back; this edge is input-coupled, so
//!   it declares `COMPLETION_REACTION` as its reaction bound,
//! * **shootdown** (`bypassd_hw::ports::SHOOTDOWN`) — the control lane
//!   revokes a shared file's direct mappings on a machine (Fig. 12's
//!   permission-revocation path, fleet-wide),
//! * **pressure** (`bypassd_qos::ports::PRESSURE`) — machines publish
//!   periodic QoS summaries to the control lane.
//!
//! [`FleetBuilder::run`] executes the fleet on the sharded executor
//! (worker count from `BYPASSD_FLEET_WORKERS` or explicit);
//! [`FleetBuilder::run_monolithic`] executes the *same* scenario —
//! same machines, same driver code, same seeds — on a single
//! [`Simulation`] timeline, the pre-fleet baseline the bench compares
//! wall-clock against. Within a mode, the [`FleetReport::fingerprint`]
//! is bit-identical for any worker count; across the two modes the
//! *logical* outcomes (op counts, remote traffic, revocations, media
//! bytes) agree, while sub-nanosecond tie-breaking of device-ledger
//! updates may differ (see `run_monolithic` docs).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use bypassd_fleet::{workers_from_env, ChannelId, Event, Executor, Lane, LaneHandle, Topology};
use bypassd_hw::types::Lba;
use bypassd_hw::PhysMem;
use bypassd_sim::rng::{Fnv64, Rng};
use bypassd_sim::{ActorCtx, Nanos, SimStats, Simulation};
use bypassd_ssd::device::BlockAddr;
use bypassd_ssd::{Command, DmaBuffer, NvmeDevice, QueueId};

use crate::userlib::ReadReq;
use crate::{QosConfig, System, TenantShare, UserProcess};

/// 4 KB I/O unit used by every fleet driver.
const BLOCK: u64 = 4096;
/// Sectors per fleet I/O.
const SECTORS: u32 = (BLOCK / 512) as u32;
/// The modeled PCIe round trip, shared with every port definition.
const RTT: Nanos = bypassd_hw::ports::PCIE_RTT;

/// Scenario knobs for one fleet run. Every field is deterministic
/// input: two runs with equal configs produce bit-identical
/// [`FleetReport`]s at any worker count.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Machine lanes (one full `System` each). The control lane is
    /// added on top.
    pub lanes: u32,
    /// Total processes, distributed round-robin over lanes.
    pub processes: u32,
    /// Tenant uids (`1000..1000+tenants`), cycled over processes. Each
    /// machine hosts one shared file per tenant.
    pub tenants: u32,
    /// Driver actors per machine lane; each multiplexes its share of
    /// the lane's processes.
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
    /// Pressure epoch length; must be at least
    /// [`bypassd_qos::ports::PRESSURE_EPOCH_FLOOR`].
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
        assert!(
            self.pressure_epoch >= bypassd_qos::ports::PRESSURE_EPOCH_FLOOR,
            "pressure epoch {} undercuts the {} floor",
            self.pressure_epoch,
            bypassd_qos::ports::PRESSURE_EPOCH_FLOOR,
        );
        assert!(
            self.file_len >= BLOCK && self.file_len.is_multiple_of(BLOCK),
            "tenant files must hold at least one 4 KB block"
        );
    }
}

/// Events crossing lane boundaries (and lane-local self-timers).
#[derive(Debug)]
enum FleetMsg {
    /// Doorbell: machine `src` asks this machine to read `block`.
    RemoteRead { src: u32, block: u64, sent: u64 },
    /// Self-timer on the serving machine: the gateway read completed;
    /// post the completion back to `src`.
    RemoteReply { src: u32, sent: u64, ok: bool },
    /// Completion post back on the issuing machine.
    RemoteDone { sent: u64, ok: bool },
    /// Shootdown: revoke tenant `tenant`'s file on this machine.
    Revoke { tenant: u32 },
    /// Self-timer on a machine lane: publish a QoS summary.
    TickPressure { epoch: u32 },
    /// Pressure summary arriving at the control lane.
    Pressure {
        lane: u32,
        reads: u64,
        throttled: u64,
        deferred: u64,
    },
    /// Self-timer on the control lane: issue revocation `idx`.
    TickRevoke { idx: u32 },
}

/// Mutable per-machine counters, shared between that machine's driver
/// actors and its lane handler. All updates happen on the lane's own
/// timeline, so the final values are deterministic.
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
    /// Per-machine observations, indexed by lane.
    pub lanes: Vec<LaneReport>,
    /// Pressure summaries received by the control lane.
    pub pressure_received: u64,
    /// Revocations the control lane issued.
    pub revokes_issued: u64,
    /// FNV-64 fold of every pressure summary's payload (lane, reads,
    /// throttled, deferred) in control-lane arrival order.
    pub pressure_hash: u64,
    /// Cross-lane envelopes delivered (0 for a monolithic run, which
    /// has no lanes to cross).
    pub delivered: u64,
}

impl FleetReport {
    /// FNV-64 over every virtual-time-derived field. Bit-identical
    /// across worker counts for the same config; `delivered` is
    /// excluded so fleet and monolithic runs hash comparable state.
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
    /// totals, remote traffic, revocations and media bytes. Used to
    /// cross-check fleet and monolithic executions of one config, which
    /// agree on everything except device-ledger tie-breaking at equal
    /// virtual instants (and therefore on latencies only per-mode).
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

/// One machine's fixed wiring, shared by its driver actors and its
/// lane handler.
struct Machine {
    system: System,
    counters: Arc<Mutex<LaneCounters>>,
    procs: Vec<Arc<UserProcess>>,
    /// Gateway queue for peer-to-peer reads (kernel tenant).
    gateway: QueueId,
    gateway_dma: Arc<DmaBuffer>,
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
            let gateway_dma = Arc::new(DmaBuffer::alloc(system.mem(), BLOCK as usize));
            Machine {
                system,
                counters: Arc::new(Mutex::new(LaneCounters::default())),
                procs,
                gateway,
                gateway_dma,
            }
        })
        .collect()
}

/// Where a driver's remote reads go: a fleet doorbell channel, or the
/// monolithic in-timeline router.
enum RemoteSink {
    Fleet {
        handle: LaneHandle<FleetMsg>,
        /// Doorbell channel to each peer machine (`None` = self).
        doorbell_to: Arc<Vec<Option<ChannelId>>>,
    },
    Mono(Arc<MonoRouter>),
}

impl RemoteSink {
    fn issue(&self, now: Nanos, src: u32, dst: u32, block: u64) {
        match self {
            RemoteSink::Fleet {
                handle,
                doorbell_to,
            } => {
                let ch = doorbell_to[dst as usize].expect("no doorbell to self");
                handle.send(
                    now,
                    ch,
                    FleetMsg::RemoteRead {
                        src,
                        block,
                        sent: now.0,
                    },
                );
            }
            RemoteSink::Mono(router) => router.issue(now, src, dst, block),
        }
    }
}

/// Monolithic stand-in for the doorbell/completion ports: executes the
/// remote read on the target device at `sent + RTT` via a one-shot
/// actor (so device-ledger updates stay in virtual-time order on the
/// single shared timeline) and books the completion at `ready + RTT`,
/// exactly the times the fleet ports produce.
struct MonoRouter {
    sim: Simulation,
    devices: Vec<Arc<NvmeDevice>>,
    gateways: Vec<QueueId>,
    gateway_dma: Vec<Arc<DmaBuffer>>,
    gateway_mem: Vec<PhysMem>,
    counters: Vec<Arc<Mutex<LaneCounters>>>,
    next_op: AtomicU64,
}

impl MonoRouter {
    fn issue(&self, now: Nanos, src: u32, dst: u32, block: u64) {
        // ordering: Relaxed — the id only names the spawned actor.
        let op = self.next_op.fetch_add(1, Ordering::Relaxed);
        let dev = Arc::clone(&self.devices[dst as usize]);
        let qid = self.gateways[dst as usize];
        let dma = Arc::clone(&self.gateway_dma[dst as usize]);
        let _ = &self.gateway_mem; // keeps the DMA frames' memory alive
        let served = Arc::clone(&self.counters[dst as usize]);
        let done = Arc::clone(&self.counters[src as usize]);
        self.sim.spawn_task_at(
            now.saturating_add(RTT),
            &format!("remote-{op}"),
            move |ctx| async move {
                let comp = dev.execute_full(
                    qid,
                    Command::read(
                        BlockAddr::Lba(Lba(block * u64::from(SECTORS))),
                        SECTORS,
                        &dma,
                    ),
                    ctx.now(),
                );
                served.lock().remote_served += 1;
                let done_at = comp.ready_at.saturating_add(RTT);
                let mut c = done.lock();
                record_remote_done(&mut c, now.0, done_at.0, comp.status.is_ok());
            },
        );
    }
}

fn record_remote_done(c: &mut LaneCounters, sent: u64, done_at: u64, ok: bool) {
    let lat = done_at.saturating_sub(sent);
    c.remote_done += 1;
    c.remote_ok += u64::from(ok);
    c.remote_lat_sum += lat;
    c.remote_lat_max = c.remote_lat_max.max(lat);
}

/// The body every driver task runs, identical in fleet and monolithic
/// mode: open per-process handles on the tenant's shared file, then
/// `rounds` passes over the processes, each a `pread_batch` plus
/// occasional private-slice writes and remote doorbell rings.
#[allow(clippy::too_many_arguments)]
async fn driver_loop(
    ctx: &mut ActorCtx,
    cfg: &FleetConfig,
    lane: u32,
    procs: &[(u32, Arc<UserProcess>)],
    remote: &RemoteSink,
    counters: &Arc<Mutex<LaneCounters>>,
    mut rng: Rng,
) {
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
                remote.issue(ctx.now(), lane, dst, block);
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
/// each entry carrying the process's index on the lane (which fixes
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

    /// Runs the fleet on the sharded executor with `workers` OS
    /// threads (see [`workers_from_env`]). Virtual-time results are
    /// independent of `workers`.
    pub fn run(&self, workers: usize) -> FleetReport {
        self.run_with_stats(workers).0
    }

    /// [`run`](Self::run), also returning the engine self-counters
    /// summed over every lane's simulation. The counters are host-side
    /// diagnostics, not part of the outcome: event and poll counts
    /// depend on how lane horizons slice the timeline.
    pub fn run_with_stats(&self, workers: usize) -> (FleetReport, SimStats) {
        let cfg = &self.cfg;
        let machines = build_machines(cfg);
        let n = cfg.lanes as usize;

        // Topology: n machine lanes + 1 control lane.
        let mut topo = Topology::new();
        let lane_ids: Vec<_> = (0..=n).map(|_| topo.add_lane()).collect();
        let control = lane_ids[n];
        let mut doorbell = vec![vec![None; n]; n]; // [src][dst]
        let mut completion = vec![vec![None; n]; n];
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                // Doorbells are driven purely by driver-actor timers on
                // the source machine — reaction-free, which is what
                // breaks the promise cycle between mutually connected
                // machines. Completions are input-coupled: a doorbell
                // arriving at `t` can trigger a completion post, but
                // never sooner than one link traversal.
                doorbell[i][j] = Some(topo.add_channel(
                    lane_ids[i],
                    lane_ids[j],
                    bypassd_ssd::ports::DOORBELL,
                    None,
                ));
                completion[i][j] = Some(topo.add_channel(
                    lane_ids[i],
                    lane_ids[j],
                    bypassd_ssd::ports::COMPLETION,
                    Some(bypassd_ssd::ports::COMPLETION_REACTION),
                ));
            }
        }
        let pressure_ch: Vec<_> = (0..n)
            .map(|i| topo.add_channel(lane_ids[i], control, bypassd_qos::ports::PRESSURE, None))
            .collect();
        let revoke_ch: Vec<_> = (0..n)
            .map(|i| topo.add_channel(control, lane_ids[i], bypassd_hw::ports::SHOOTDOWN, None))
            .collect();

        // (pressure summaries received, revocations issued, payload fold)
        let control_counters = Arc::new(Mutex::new((0u64, 0u64, FNV_OFFSET)));
        let mut models: Vec<Box<dyn bypassd_fleet::LaneModel<FleetMsg>>> = Vec::new();
        let mut sims = Vec::new();
        for (i, machine) in machines.iter().enumerate() {
            let lane = i as u32;
            let system = machine.system.clone();
            let counters = Arc::clone(&machine.counters);
            let gateway = machine.gateway;
            let gateway_dma = Arc::clone(&machine.gateway_dma);
            let completion_to: Vec<Option<ChannelId>> = completion[i].clone();
            let my_pressure = pressure_ch[i];
            let epochs = cfg.pressure_epochs;
            let epoch_len = cfg.pressure_epoch;
            let lane_model = Lane::new(
                move |ev: Event<FleetMsg>, h: &LaneHandle<FleetMsg>| match ev.msg {
                    FleetMsg::RemoteRead { src, block, sent } => {
                        let comp = system.device().execute_full(
                            gateway,
                            Command::read(
                                BlockAddr::Lba(Lba(block * u64::from(SECTORS))),
                                SECTORS,
                                &gateway_dma,
                            ),
                            ev.at,
                        );
                        counters.lock().remote_served += 1;
                        h.arm(
                            comp.ready_at,
                            FleetMsg::RemoteReply {
                                src,
                                sent,
                                ok: comp.status.is_ok(),
                            },
                        );
                    }
                    FleetMsg::RemoteReply { src, sent, ok } => {
                        let ch = completion_to[src as usize].expect("no completion channel");
                        h.send(ev.at, ch, FleetMsg::RemoteDone { sent, ok });
                    }
                    FleetMsg::RemoteDone { sent, ok } => {
                        record_remote_done(&mut counters.lock(), sent, ev.at.0, ok);
                    }
                    FleetMsg::Revoke { tenant } => {
                        let pids = system
                            .kernel()
                            .revoke_path(&tenant_path(tenant))
                            .expect("revoke tenant file");
                        let mut c = counters.lock();
                        c.revokes_applied += 1;
                        c.revoked_pids += pids.len() as u64;
                    }
                    FleetMsg::TickPressure { epoch } => {
                        let stats = system.device().stats();
                        {
                            counters.lock().pressure_sent += 1;
                        }
                        h.send(
                            ev.at,
                            my_pressure,
                            FleetMsg::Pressure {
                                lane,
                                reads: stats.reads,
                                throttled: stats.qos_throttled,
                                deferred: stats.qos_deferred,
                            },
                        );
                        if epoch + 1 < epochs {
                            h.arm(
                                ev.at.saturating_add(epoch_len),
                                FleetMsg::TickPressure { epoch: epoch + 1 },
                            );
                        }
                    }
                    FleetMsg::Pressure { .. } | FleetMsg::TickRevoke { .. } => {
                        unreachable!("control-plane event on a machine lane")
                    }
                },
            );
            if cfg.pressure_epochs > 0 {
                lane_model
                    .handle()
                    .arm(cfg.pressure_epoch, FleetMsg::TickPressure { epoch: 0 });
            }
            for (d, procs) in driver_partition(cfg, machine).into_iter().enumerate() {
                if procs.is_empty() {
                    continue;
                }
                let sink = RemoteSink::Fleet {
                    handle: lane_model.handle(),
                    doorbell_to: Arc::new(doorbell[i].clone()),
                };
                let counters = Arc::clone(&machine.counters);
                let cfg2 = cfg.clone();
                let rng = Rng::new(driver_seed(cfg, lane, d as u32));
                lane_model
                    .sim()
                    .spawn_task(&format!("l{lane}d{d}"), move |mut ctx| async move {
                        driver_loop(&mut ctx, &cfg2, lane, &procs, &sink, &counters, rng).await;
                    });
            }
            sims.push(lane_model.sim().clone());
            models.push(Box::new(lane_model));
        }

        // Control lane: no inner actors, just revocation timers and
        // pressure aggregation.
        {
            let cc = Arc::clone(&control_counters);
            let cfg2 = cfg.clone();
            let revoke_ch = revoke_ch.clone();
            let control_model =
                Lane::new(
                    move |ev: Event<FleetMsg>, h: &LaneHandle<FleetMsg>| match ev.msg {
                        FleetMsg::Pressure {
                            lane,
                            reads,
                            throttled,
                            deferred,
                        } => {
                            let mut c = cc.lock();
                            c.0 += 1;
                            for v in [u64::from(lane), reads, throttled, deferred] {
                                c.2 = fnv_fold(c.2, v);
                            }
                        }
                        FleetMsg::TickRevoke { idx } => {
                            let lane = idx % cfg2.lanes;
                            let tenant = idx % cfg2.tenants;
                            cc.lock().1 += 1;
                            h.send(ev.at, revoke_ch[lane as usize], FleetMsg::Revoke { tenant });
                            if idx + 1 < cfg2.revokes {
                                h.arm(
                                    ev.at.saturating_add(cfg2.revoke_gap),
                                    FleetMsg::TickRevoke { idx: idx + 1 },
                                );
                            }
                        }
                        _ => unreachable!("machine event on the control lane"),
                    },
                );
            if cfg.revokes > 0 {
                control_model
                    .handle()
                    .arm(cfg.revoke_start, FleetMsg::TickRevoke { idx: 0 });
            }
            models.push(Box::new(control_model));
        }

        let mut exec = Executor::new(topo, models);
        let stats = exec.run(workers);
        drop(exec);
        let (pressure_received, revokes_issued, pressure_hash) = *control_counters.lock();
        let report = finish_report(
            &machines,
            pressure_received,
            revokes_issued,
            pressure_hash,
            stats.delivered,
        );
        let mut engine = SimStats::default();
        for sim in &sims {
            engine += sim.stats();
        }
        (report, engine)
    }

    /// [`run`](Self::run) with the worker count taken from
    /// `BYPASSD_FLEET_WORKERS` (default `default`).
    pub fn run_env(&self, default: usize) -> FleetReport {
        self.run(workers_from_env(default))
    }

    /// Runs the identical scenario on one shared [`Simulation`]: the
    /// pre-fleet baseline. Same machines, same driver code and seeds;
    /// cross-machine traffic is routed by [`MonoRouter`] at exactly the
    /// virtual times the fleet ports would produce. Logical outcomes
    /// match the fleet run ([`FleetReport::assert_same_outcome`]);
    /// latency sums can differ in the last tie-breaking nanosecond
    /// because a single timeline interleaves equal-instant device
    /// updates in global order rather than per-lane order.
    pub fn run_monolithic(&self) -> FleetReport {
        self.run_monolithic_with_stats().0
    }

    /// [`run_monolithic`](Self::run_monolithic), also returning the
    /// shared simulation's engine self-counters.
    pub fn run_monolithic_with_stats(&self) -> (FleetReport, SimStats) {
        let cfg = &self.cfg;
        let machines = build_machines(cfg);
        let sim = Simulation::new();
        let router = Arc::new(MonoRouter {
            sim: sim.clone(),
            devices: machines
                .iter()
                .map(|m| Arc::clone(m.system.device()))
                .collect(),
            gateways: machines.iter().map(|m| m.gateway).collect(),
            gateway_dma: machines
                .iter()
                .map(|m| Arc::clone(&m.gateway_dma))
                .collect(),
            gateway_mem: machines.iter().map(|m| m.system.mem().clone()).collect(),
            counters: machines.iter().map(|m| Arc::clone(&m.counters)).collect(),
            next_op: AtomicU64::new(0),
        });
        for (i, machine) in machines.iter().enumerate() {
            let lane = i as u32;
            for (d, procs) in driver_partition(cfg, machine).into_iter().enumerate() {
                if procs.is_empty() {
                    continue;
                }
                let sink = RemoteSink::Mono(Arc::clone(&router));
                let counters = Arc::clone(&machine.counters);
                let cfg2 = cfg.clone();
                let rng = Rng::new(driver_seed(cfg, lane, d as u32));
                sim.spawn_task(&format!("l{lane}d{d}"), move |mut ctx| async move {
                    driver_loop(&mut ctx, &cfg2, lane, &procs, &sink, &counters, rng).await;
                });
            }
        }
        // Control plane on the same timeline: revocations land at
        // send-time + one link traversal, like the shootdown port;
        // pressure is sampled at the epoch boundaries + traversal.
        let control_counters = Arc::new(Mutex::new((0u64, 0u64, FNV_OFFSET)));
        if cfg.revokes > 0 {
            let cc = Arc::clone(&control_counters);
            let cfg2 = cfg.clone();
            let systems: Vec<System> = machines.iter().map(|m| m.system.clone()).collect();
            let counters: Vec<_> = machines.iter().map(|m| Arc::clone(&m.counters)).collect();
            sim.spawn_task("control-revoke", move |mut ctx| async move {
                for idx in 0..cfg2.revokes {
                    let fire = cfg2
                        .revoke_start
                        .saturating_add(Nanos(cfg2.revoke_gap.0 * u64::from(idx)));
                    ctx.sleep_until(fire).await;
                    cc.lock().1 += 1;
                    ctx.sleep_until(fire.saturating_add(RTT)).await;
                    let lane = (idx % cfg2.lanes) as usize;
                    let tenant = idx % cfg2.tenants;
                    let pids = systems[lane]
                        .kernel()
                        .revoke_path(&tenant_path(tenant))
                        .expect("revoke tenant file");
                    let mut c = counters[lane].lock();
                    c.revokes_applied += 1;
                    c.revoked_pids += pids.len() as u64;
                }
            });
        }
        if cfg.pressure_epochs > 0 {
            for (i, machine) in machines.iter().enumerate() {
                let cc = Arc::clone(&control_counters);
                let cfg2 = cfg.clone();
                let system = machine.system.clone();
                let counters = Arc::clone(&machine.counters);
                sim.spawn_task(&format!("pressure-{i}"), move |mut ctx| async move {
                    for epoch in 0..cfg2.pressure_epochs {
                        ctx.sleep_until(Nanos(cfg2.pressure_epoch.0 * u64::from(epoch + 1)))
                            .await;
                        let stats = system.device().stats();
                        counters.lock().pressure_sent += 1;
                        let t = ctx.now().saturating_add(RTT);
                        ctx.sleep_until(t).await;
                        let mut c = cc.lock();
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
        let (pressure_received, revokes_issued, pressure_hash) = *control_counters.lock();
        let report = finish_report(
            &machines,
            pressure_received,
            revokes_issued,
            pressure_hash,
            0,
        );
        (report, sim.stats())
    }
}

/// FNV-1a constants for the running pressure-payload fold.
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn fnv_fold(h: u64, v: u64) -> u64 {
    let mut h = h;
    for byte in v.to_le_bytes() {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn finish_report(
    machines: &[Machine],
    pressure_received: u64,
    revokes_issued: u64,
    pressure_hash: u64,
    delivered: u64,
) -> FleetReport {
    let lanes = machines
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
    FleetReport {
        lanes,
        pressure_received,
        revokes_issued,
        pressure_hash,
        delivered,
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
    fn fleet_is_worker_count_invariant() {
        let b = FleetBuilder::new(tiny());
        let r1 = b.run(1);
        let r2 = b.run(2);
        let r8 = b.run(8);
        assert_eq!(r1.fingerprint(), r2.fingerprint());
        assert_eq!(r1.fingerprint(), r8.fingerprint());
        assert_eq!(r1, r2);
        assert!(r1.total_ops() > 0, "fleet did no work");
        assert!(
            r1.lanes.iter().map(|l| l.remote_done).sum::<u64>() > 0,
            "no cross-machine traffic exercised"
        );
        assert_eq!(r1.revokes_issued, 1);
        assert_eq!(
            r1.pressure_received,
            u64::from(tiny().lanes * tiny().pressure_epochs)
        );
    }

    #[test]
    fn fleet_matches_monolithic_outcome() {
        let b = FleetBuilder::new(tiny());
        let fleet = b.run(2);
        let mono = b.run_monolithic();
        fleet.assert_same_outcome(&mono);
        assert!(fleet.delivered > 0);
        assert_eq!(mono.delivered, 0);
    }

    #[test]
    fn remote_completions_all_return() {
        let b = FleetBuilder::new(tiny());
        let r = b.run(3);
        let issued: u64 = r.lanes.iter().map(|l| l.remote_issued).sum();
        let served: u64 = r.lanes.iter().map(|l| l.remote_served).sum();
        let done: u64 = r.lanes.iter().map(|l| l.remote_done).sum();
        let ok: u64 = r.lanes.iter().map(|l| l.remote_ok).sum();
        assert_eq!(issued, served, "every doorbell must be served");
        assert_eq!(issued, done, "every remote read must complete");
        assert_eq!(done, ok, "in-range gateway reads must succeed");
        let lat_floor = 2 * RTT.0;
        for l in &r.lanes {
            if l.remote_done > 0 {
                assert!(
                    l.remote_lat_sum / l.remote_done >= lat_floor,
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
        let r = FleetBuilder::new(cfg).run(2);
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
