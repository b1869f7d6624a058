//! The NVMe device: command processing over queue pairs.
//!
//! Two command addressing modes exist (§4.3):
//!
//! * **LBA commands** — the pre-BypassD world: allowed only on queues with
//!   no PASID (kernel driver queues, or an SPDK process that has claimed
//!   the whole device). User queues may *not* issue LBA commands; that is
//!   precisely the protection SPDK lacks.
//! * **VBA commands** — BypassD: allowed only on PASID-bound user queues.
//!   The device sends the VBA, size, access kind and the queue's PASID to
//!   the IOMMU via ATS. For **reads**, translation is serialised before
//!   media access (the device needs block addresses first). For
//!   **writes**, translation overlaps the host→device data transfer, so
//!   writes see no translation latency (§4.3).
//!
//! Translation faults complete the command with an error status instead of
//! touching media — the hook that makes kernel revocation effective (§3.6).

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use bypassd_faults::plane::{FaultPlane, WriteKind, WriteVerdict};
use bypassd_hw::iommu::{AccessKind, Iommu, PageTranslation};
use bypassd_hw::types::{DevId, Lba, Pasid, Vba, SECTORS_PER_PAGE, SECTOR_SIZE};
use bypassd_offload::{ChainSpec, HopStepper, Outcome, ProgHandle, Program, BLOCK, STEP_NS};
use bypassd_qos::{QosArbiter, QosConfig, Tenant, TenantShare, TenantStats};
use bypassd_sim::time::Nanos;
use bypassd_sim::FixedState;
use bypassd_trace::{DeviceRecord, Metric, MetricSource, Recorder, TraceOp, WalkLevel};

use crate::atc::{AtcStats, AtsCache, DEFAULT_ATC_CAPACITY};
use crate::dma::DmaBuffer;
use crate::queue::{Completion, NvmeStatus, QueueId, QueuePair};
use crate::store::SectorStore;
use crate::timing::{DeviceTimer, MediaTiming};

/// NVMe opcode subset used by the reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Opcode {
    /// Read sectors into the DMA buffer.
    Read,
    /// Write sectors from the DMA buffer.
    Write,
    /// Flush the device write path.
    Flush,
    /// Write zeroes without a data buffer (used for block zeroing on
    /// allocation, §4.1).
    WriteZeroes,
}

/// How a command addresses the media.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockAddr {
    /// Raw logical block address (kernel / SPDK paths).
    Lba(Lba),
    /// Virtual block address, translated by the IOMMU (BypassD path).
    Vba(Vba),
}

/// One I/O command.
#[derive(Debug, Clone, Copy)]
pub struct Command<'a> {
    /// Operation.
    pub opcode: Opcode,
    /// Target address (ignored for `Flush`).
    pub addr: BlockAddr,
    /// Sector count (ignored for `Flush`).
    pub sectors: u32,
    /// Data buffer (required for `Read`/`Write`).
    pub dma: Option<&'a DmaBuffer>,
    /// Byte offset into the DMA buffer.
    pub dma_offset: usize,
    /// Offload chain: run this verified program on every completed block
    /// and follow its `Resubmit` offsets device-side. Only valid on
    /// single-sector VBA reads from a user queue; every hop is still
    /// IOMMU-translated under the queue's PASID.
    pub chain: Option<ChainSpec>,
}

impl<'a> Command<'a> {
    /// A read of `sectors` sectors into `dma` at offset 0.
    pub fn read(addr: BlockAddr, sectors: u32, dma: &'a DmaBuffer) -> Self {
        Command {
            opcode: Opcode::Read,
            addr,
            sectors,
            dma: Some(dma),
            dma_offset: 0,
            chain: None,
        }
    }

    /// A single-sector chain read: the device reads one block at `vba`,
    /// runs `spec`'s program over it, and either follows its `Resubmit`
    /// offsets (relative to `spec.base_vba`) on the same channel or
    /// completes with the final block DMA'd into `dma`. One submission,
    /// one completion, however many hops the chain takes.
    pub fn chain_read(vba: Vba, dma: &'a DmaBuffer, spec: ChainSpec) -> Self {
        Command {
            opcode: Opcode::Read,
            addr: BlockAddr::Vba(vba),
            sectors: 1,
            dma: Some(dma),
            dma_offset: 0,
            chain: Some(spec),
        }
    }

    /// A write of `sectors` sectors from `dma` at offset 0.
    pub fn write(addr: BlockAddr, sectors: u32, dma: &'a DmaBuffer) -> Self {
        Command {
            opcode: Opcode::Write,
            addr,
            sectors,
            dma: Some(dma),
            dma_offset: 0,
            chain: None,
        }
    }

    /// A flush.
    pub fn flush() -> Self {
        Command {
            opcode: Opcode::Flush,
            addr: BlockAddr::Lba(Lba(0)),
            sectors: 0,
            dma: None,
            dma_offset: 0,
            chain: None,
        }
    }

    /// A write-zeroes over `sectors` sectors.
    pub fn write_zeroes(addr: BlockAddr, sectors: u32) -> Self {
        Command {
            opcode: Opcode::WriteZeroes,
            addr,
            sectors,
            dma: None,
            dma_offset: 0,
            chain: None,
        }
    }
}

/// The LBA commands for resolved file segments, in order, with their
/// data concatenated in `dma`: each segment yields its byte offset in
/// `dma`, its length and its command at that `dma_offset`, or `None` for
/// a hole (an unmapped segment), which the caller zeroes or refuses.
pub fn lba_commands<'a>(
    opcode: Opcode,
    segs: &'a [(Option<Lba>, u64)],
    dma: &'a DmaBuffer,
) -> impl Iterator<Item = (usize, u64, Option<Command<'a>>)> + 'a {
    segs.iter().scan(0usize, move |dma_offset, &(lba, len)| {
        let at = *dma_offset;
        *dma_offset += len as usize;
        let cmd = lba.map(|lba| Command {
            opcode,
            addr: BlockAddr::Lba(lba),
            sectors: (len / SECTOR_SIZE) as u32,
            dma: Some(dma),
            dma_offset: at,
            chain: None,
        });
        Some((at, len, cmd))
    })
}

/// Submission failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue has `depth` commands outstanding.
    QueueFull,
    /// No such queue.
    UnknownQueue,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => f.write_str("submission queue full"),
            SubmitError::UnknownQueue => f.write_str("unknown queue"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Aggregate device counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DeviceStats {
    /// Completed read commands.
    pub reads: u64,
    /// Completed write commands.
    pub writes: u64,
    /// Bytes read from media.
    pub read_bytes: u64,
    /// Bytes written to media.
    pub written_bytes: u64,
    /// Flush commands.
    pub flushes: u64,
    /// VBA translation faults surfaced as failed completions.
    pub translation_faults: u64,
    /// Device-side ATC hits (0 unless the ATC ablation is on).
    pub atc_hits: u64,
    /// Device-side ATC misses.
    pub atc_misses: u64,
    /// ATS shootdowns that reached the device cache.
    pub atc_shootdowns: u64,
    /// Commands delayed by a tenant's token-bucket rate limit (QoS).
    pub qos_throttled: u64,
    /// Commands delayed by fair-share pacing (QoS).
    pub qos_deferred: u64,
    /// Offload chains completed (any status).
    pub chains: u64,
    /// Media reads performed inside chains (first hop included).
    pub chain_hops: u64,
    /// Chains aborted by a program `Fail` or an engine trap.
    pub chain_faults: u64,
}

/// Reusable buffers for the steady-state command path. They live under
/// the device state lock, so one set serves every queue; capacity grows
/// to the largest request seen and is then reused allocation-free.
#[derive(Default)]
struct DevScratch {
    /// Coalesced LBA extents of the command being processed.
    extents: Vec<(Lba, u32)>,
    /// Per-page translations of an IOMMU walk, kept to fill the
    /// device-side ATC (used only while the ATC is enabled).
    pages: Vec<PageTranslation>,
    /// The block an offload chain hop reads and runs its program over
    /// (device-internal; plain reads and writes move data media ↔ DMA
    /// in one copy and never stage here).
    chain_block: Vec<u8>,
}

struct DevState {
    store: SectorStore,
    timer: DeviceTimer,
    queues: std::collections::HashMap<QueueId, QueuePair, FixedState>,
    io_bufs: DevScratch,
    stats: DeviceStats,
    /// QoS enforcement + per-tenant accounting. Accounting is always on
    /// (it never moves virtual time); pacing only when the config
    /// enables it, so the default data path stays bit-identical.
    qos: QosArbiter,
    /// Flight recorder, when the system wired one in. Recording is
    /// passive: it never touches `timer`, so traced runs keep identical
    /// virtual times.
    recorder: Option<Arc<Recorder>>,
    /// Verified offload programs, installed by the kernel at
    /// `prog_load` time. `Arc` so a chain can execute the program
    /// while the table (and the rest of the device state) stays mutable.
    programs: std::collections::HashMap<ProgHandle, Arc<Program>>,
    next_prog: u32,
    /// Fault-injection interposer. Idle by default (one relaxed atomic
    /// load per media write); crash campaigns install a shared plane via
    /// [`NvmeDevice::set_fault_plane`].
    faults: Arc<FaultPlane>,
}

impl DevState {
    /// Passes a media write of `[lba, lba+sectors)` through the fault
    /// plane and applies what survives: `apply` runs on the store over
    /// the whole range, over each kept sector of a torn write, or not at
    /// all for a dropped one.
    fn media_write(
        &mut self,
        lba: Lba,
        sectors: u64,
        now: Option<Nanos>,
        kind: WriteKind,
        mut apply: impl FnMut(&mut SectorStore, Lba, u64),
    ) {
        if !self.faults.is_active() {
            return apply(&mut self.store, lba, sectors);
        }
        match self.faults.on_write(lba, sectors as u32, now, kind) {
            WriteVerdict::Persist => apply(&mut self.store, lba, sectors),
            WriteVerdict::Drop => {}
            WriteVerdict::Partial(mask) => {
                for (s, keep) in mask.into_iter().enumerate() {
                    if keep {
                        apply(&mut self.store, lba.advance(s as u64), 1);
                    }
                }
            }
        }
    }
}

/// Per-command stage latencies, filled in by `process_inner` as the
/// command crosses each pipeline step and flushed to the recorder by
/// `process` — including on early-return error paths, which leave the
/// later stages at zero.
#[derive(Default, Clone, Copy)]
struct StageScratch {
    qos_delay: Nanos,
    throttled: bool,
    deferred: bool,
    walk: Option<WalkLevel>,
    translate: Nanos,
    channel_wait: Nanos,
    service: Nanos,
}

/// The per-tenant key of the paced bus ledgers and trace records: 0 for
/// the kernel, PASID + 1 for a user process.
fn tenant_key(tenant: Tenant) -> u64 {
    match tenant {
        Tenant::Kernel => 0,
        Tenant::User(p) => u64::from(p.0) + 1,
    }
}

/// A simulated NVMe SSD.
///
/// Clone-free: wrap in `Arc` and share between the kernel driver, UserLib
/// instances and SPDK.
pub struct NvmeDevice {
    id: DevId,
    iommu: Arc<Mutex<Iommu>>,
    /// Device-side ATS translation cache (ablation, off by default).
    /// Separate from `state` so IOMMU shootdowns never touch the device
    /// lock (lock order: IOMMU → ATC; the device probes the ATC before
    /// taking the IOMMU lock).
    atc: Arc<AtsCache>,
    state: Mutex<DevState>,
    next_qid: AtomicU32,
}

impl NvmeDevice {
    /// Creates a device of `capacity_sectors` sectors with the given
    /// media timing, attached to `iommu` for ATS.
    pub fn new(
        id: DevId,
        capacity_sectors: u64,
        timing: MediaTiming,
        iommu: Arc<Mutex<Iommu>>,
    ) -> Arc<Self> {
        let atc = Arc::new(AtsCache::new(DEFAULT_ATC_CAPACITY));
        // Register for ATS shootdowns so kernel invalidations (detach,
        // revocation, unregister) also drop device-cached translations.
        iommu.lock().register_ats_sink(atc.clone());
        Arc::new(NvmeDevice {
            id,
            iommu,
            atc,
            state: Mutex::new(DevState {
                store: SectorStore::new(capacity_sectors),
                timer: DeviceTimer::new(timing),
                queues: std::collections::HashMap::default(),
                io_bufs: DevScratch::default(),
                stats: DeviceStats::default(),
                qos: QosArbiter::new(QosConfig::default(), timing.channels),
                recorder: None,
                programs: std::collections::HashMap::new(),
                next_prog: 1,
                faults: Arc::new(FaultPlane::new()),
            }),
            next_qid: AtomicU32::new(1),
        })
    }

    /// This device's ID (compared against FTE DevIDs by the IOMMU).
    pub fn dev_id(&self) -> DevId {
        self.id
    }

    /// The IOMMU this device sends ATS requests to.
    pub fn iommu(&self) -> &Arc<Mutex<Iommu>> {
        &self.iommu
    }

    /// The device-side ATS translation cache.
    pub fn atc(&self) -> &Arc<AtsCache> {
        &self.atc
    }

    /// Enables/disables the device-side ATC (ablation knob; the default —
    /// matching the paper's model — is off).
    pub fn set_atc_enabled(&self, enabled: bool) {
        self.atc.set_enabled(enabled);
    }

    /// ATC hit/miss/shootdown counters.
    pub fn atc_stats(&self) -> AtcStats {
        self.atc.stats()
    }

    /// The device's fault-injection plane (idle unless activated).
    pub fn fault_plane(&self) -> Arc<FaultPlane> {
        self.state.lock().faults.clone()
    }

    /// Replaces the fault plane, e.g. with one shared by a campaign
    /// harness. Install before traffic starts — sequence numbers only
    /// cover writes observed from this point on.
    pub fn set_fault_plane(&self, plane: Arc<FaultPlane>) {
        self.state.lock().faults = plane;
    }

    /// Installs a QoS configuration (scheduling weights, rate limits,
    /// backpressure). Call before traffic starts — existing per-tenant
    /// accounting is discarded. The default config is disabled: the
    /// device's timing is then bit-identical to a build without QoS.
    pub fn set_qos(&self, config: QosConfig) {
        let mut state = self.state.lock();
        let channels = state.timer.timing().channels;
        state.qos = QosArbiter::new(config, channels);
    }

    /// Attaches the flight recorder; every subsequent command emits a
    /// [`DeviceRecord`] with its exact stage decomposition (when the
    /// recorder is enabled).
    pub fn set_recorder(&self, recorder: Arc<Recorder>) {
        self.state.lock().recorder = Some(recorder);
    }

    /// Whether QoS pacing/throttling is in force.
    pub fn qos_enabled(&self) -> bool {
        self.state.lock().qos.enabled()
    }

    /// The share applied to tenants without an explicit registration.
    pub fn qos_default_share(&self) -> TenantShare {
        self.state.lock().qos.default_share()
    }

    /// Registers `tenant`'s share with the arbiter. The kernel calls
    /// this at queue-pair bind time (policy stays kernel-side; the
    /// device only enforces).
    pub fn register_tenant(&self, tenant: Tenant, share: TenantShare) {
        self.state.lock().qos.register(tenant, share);
    }

    /// One tenant's counters and latency histogram, if it has been seen.
    pub fn tenant_stats(&self, tenant: Tenant) -> Option<TenantStats> {
        self.state.lock().qos.tenant_stats(tenant)
    }

    /// Every tenant's counters and latency histogram, tenant-ordered.
    pub fn qos_snapshot(&self) -> Vec<(Tenant, TenantStats)> {
        self.state.lock().qos.snapshot()
    }

    /// Media timing parameters.
    pub fn timing(&self) -> MediaTiming {
        self.state.lock().timer.timing()
    }

    /// Capacity in sectors.
    pub fn capacity_sectors(&self) -> u64 {
        self.state.lock().store.capacity_sectors()
    }

    /// Installs a verified offload program into the device's program
    /// table and returns its handle. Only the kernel calls this (the
    /// verify-at-load gate lives in the kernel's `prog_load` syscall);
    /// the device trusts `Program`'s invariant that it only exists
    /// verified.
    pub fn install_program(&self, prog: Arc<Program>) -> ProgHandle {
        let mut state = self.state.lock();
        let handle = ProgHandle(state.next_prog);
        state.next_prog += 1;
        state.programs.insert(handle, prog);
        handle
    }

    /// Creates a queue pair. `pasid = Some(..)` makes a user queue bound
    /// to that process (§3.3); `None` makes a kernel/owner queue that may
    /// issue LBA commands.
    pub fn create_queue(&self, pasid: Option<Pasid>, depth: usize) -> QueueId {
        let qid = QueueId(self.next_qid.fetch_add(1, Ordering::SeqCst));
        self.state
            .lock()
            .queues
            .insert(qid, QueuePair::new(pasid, depth.max(1)));
        qid
    }

    /// Submits a command at virtual time `now`; returns its command id.
    ///
    /// # Errors
    /// [`SubmitError::QueueFull`] when `depth` completions wait in the
    /// CQ, [`SubmitError::UnknownQueue`] for an unknown queue.
    pub fn submit(&self, qid: QueueId, cmd: Command<'_>, now: Nanos) -> Result<u16, SubmitError> {
        let mut state = self.state.lock();
        let completion = self.claim_and_run(&mut state, qid, cmd, now)?;
        Self::post(&mut state, qid, completion);
        Ok(completion.cid)
    }

    /// Submits a batch of commands under a single doorbell ring (one
    /// state-lock acquisition), appending each command id to `cids`.
    /// Returns the latest `ready_at` posted (`now` if none was).
    ///
    /// # Errors
    /// All or nothing: [`SubmitError::QueueFull`] when the queue lacks a
    /// free slot for every command (recorded as one rejected doorbell),
    /// [`SubmitError::UnknownQueue`] for an unknown queue. Either way no
    /// command runs.
    pub fn submit_batch<'a, I>(
        &self,
        qid: QueueId,
        cmds: I,
        now: Nanos,
        cids: &mut Vec<u16>,
    ) -> Result<Nanos, SubmitError>
    where
        I: IntoIterator<Item = Command<'a>>,
        I::IntoIter: ExactSizeIterator,
    {
        let cmds = cmds.into_iter();
        let mut state = self.state.lock();
        let q = state.queues.get(&qid).ok_or(SubmitError::UnknownQueue)?;
        if q.inflight() + cmds.len() > q.depth {
            let tenant = q.pasid.map_or(Tenant::Kernel, Tenant::User);
            state.qos.record_rejected(tenant);
            return Err(SubmitError::QueueFull);
        }
        let mut latest = now;
        for cmd in cmds {
            let completion = self.claim_and_run(&mut state, qid, cmd, now)?;
            cids.push(completion.cid);
            if Self::post(&mut state, qid, completion) {
                latest = latest.max(completion.ready_at);
            }
        }
        Ok(latest)
    }

    /// The one claim path: takes a cid on `qid` under the held state
    /// lock, runs the command and sets the QoS depth-pressure bit. The
    /// completion is returned unposted.
    fn claim_and_run(
        &self,
        state: &mut DevState,
        qid: QueueId,
        cmd: Command<'_>,
        now: Nanos,
    ) -> Result<Completion, SubmitError> {
        let q = state
            .queues
            .get_mut(&qid)
            .ok_or(SubmitError::UnknownQueue)?;
        let (pasid, inflight, depth) = (q.pasid, q.inflight(), q.depth);
        let tenant = pasid.map_or(Tenant::Kernel, Tenant::User);
        let Some(cid) = q.claim() else {
            state.qos.record_rejected(tenant);
            return Err(SubmitError::QueueFull);
        };
        let mut completion = self.process(state, qid, tenant, pasid, cmd, now);
        // Depth pressure: with QoS on, flag completions once the queue
        // pair runs at ≥ 3/4 of its depth so UserLib backs off before
        // hitting hard QueueFull rejections.
        if state.qos.enabled() && (inflight + 1) * 4 >= depth * 3 {
            completion.pressure = true;
        }
        Ok(Completion { cid, ..completion })
    }

    /// Posts `completion` to `qid`'s CQ, holding its slot until it is
    /// reaped; returns false when the fault plane drops it instead.
    fn post(state: &mut DevState, qid: QueueId, completion: Completion) -> bool {
        // Injected completion loss: the command executed but its CQ entry
        // never lands. Its slot is free at once, as after the host's
        // timeout abort.
        if state.faults.is_active() && state.faults.take_completion_drop() {
            return false;
        }
        state
            .queues
            .get_mut(&qid)
            .expect("queue cannot vanish while the state lock is held")
            .post(completion);
        true
    }

    /// Convenience for synchronous callers: claim, run and return the
    /// full completion without posting it, so the synchronous path costs
    /// one lock round trip. The caller should `wait_until` its
    /// `ready_at` before acting on the data.
    ///
    /// # Panics
    /// On an unknown queue, or one whose every slot is held.
    pub fn execute_full(&self, qid: QueueId, cmd: Command<'_>, now: Nanos) -> Completion {
        let mut state = self.state.lock();
        self.claim_and_run(&mut state, qid, cmd, now)
            .unwrap_or_else(|e| panic!("execute_full on queue {}: {e}", qid.0))
    }

    /// [`NvmeDevice::execute_full`], reduced to status + completion time.
    pub fn execute(&self, qid: QueueId, cmd: Command<'_>, now: Nanos) -> (NvmeStatus, Nanos) {
        let comp = self.execute_full(qid, cmd, now);
        (comp.status, comp.ready_at)
    }

    /// Processes one claimed command: per-tenant accounting around the
    /// actual execution, plus the flight-recorder stamp.
    fn process(
        &self,
        state: &mut DevState,
        qid: QueueId,
        tenant: Tenant,
        pasid: Option<Pasid>,
        cmd: Command<'_>,
        now: Nanos,
    ) -> Completion {
        if cmd.chain.is_some() {
            return self.process_chain(state, qid, tenant, pasid, cmd, now);
        }
        state.qos.record_submit(tenant);
        let mut scratch = StageScratch::default();
        let completion = self.process_inner(state, tenant, pasid, cmd, now, &mut scratch);
        let ok = completion.status.is_ok();
        let bytes = if ok {
            cmd.sectors as u64 * SECTOR_SIZE
        } else {
            0
        };
        let (read_bytes, written_bytes) = match cmd.opcode {
            Opcode::Read => (bytes, 0),
            Opcode::Write | Opcode::WriteZeroes => (0, bytes),
            Opcode::Flush => (0, 0),
        };
        state.qos.record_completion(
            tenant,
            completion.ready_at - now,
            ok,
            read_bytes,
            written_bytes,
        );
        Self::record_stages(state, qid, tenant, &cmd, now, &scratch, completion);
        completion
    }

    fn process_inner(
        &self,
        state: &mut DevState,
        tenant: Tenant,
        pasid: Option<Pasid>,
        cmd: Command<'_>,
        now: Nanos,
        scratch: &mut StageScratch,
    ) -> Completion {
        if cmd.opcode == Opcode::Flush {
            state.stats.flushes += 1;
            if state.faults.is_active() {
                // A completed FLUSH empties the volatile write cache:
                // reorder windows close at this barrier.
                state.faults.note_flush(now);
            }
            // With QoS pacing in force, media occupancy lives on the
            // per-tenant lane ledgers, not the shared channel ledger;
            // drain to whichever horizon is later.
            let drain_from = if state.qos.enabled() {
                now.max(state.qos.horizon())
            } else {
                now
            };
            let ready = state.timer.schedule_flush(drain_from);
            scratch.service = ready.saturating_sub(now);
            return Completion {
                cid: 0,
                status: NvmeStatus::Success,
                ready_at: ready,
                pressure: false,
            };
        }
        if cmd.sectors == 0 {
            return Completion {
                cid: 0,
                status: NvmeStatus::InvalidField,
                ready_at: now,
                pressure: false,
            };
        }
        let is_write = matches!(cmd.opcode, Opcode::Write | Opcode::WriteZeroes);
        let total_bytes = cmd.sectors as u64 * SECTOR_SIZE;
        if let Err(failed) = self.media_front(state, tenant, pasid, &cmd, true, now, scratch) {
            return failed;
        }
        let (now, trans_cost) = (now + scratch.qos_delay, scratch.translate);
        let pressure = scratch.throttled || scratch.deferred;
        let qos_paced = state.qos.enabled();

        // Functional data movement: one copy between media and the DMA
        // frames, which the buffer lends chunk by chunk (memory lock
        // taken under the device state lock, as every DMA access does).
        match cmd.opcode {
            Opcode::Read => {
                let dma = cmd.dma.expect("read without DMA buffer");
                let mut off = cmd.dma_offset;
                for &(lba, sectors) in &state.io_bufs.extents {
                    let n = (sectors as u64 * SECTOR_SIZE) as usize;
                    let pos = lba.byte_offset();
                    dma.fill_with(off, n, |done, dst| {
                        state.store.read_bytes_at(pos + done as u64, dst);
                    });
                    off += n;
                }
                state.stats.reads += 1;
                state.stats.read_bytes += total_bytes;
            }
            Opcode::Write => {
                let dma = cmd.dma.expect("write without DMA buffer");
                let mut off = cmd.dma_offset;
                for i in 0..state.io_bufs.extents.len() {
                    let (lba, sectors) = state.io_bufs.extents[i];
                    let kind = WriteKind::Timed;
                    state.media_write(lba, sectors.into(), Some(now), kind, |store, at, n| {
                        let from = off + ((at.0 - lba.0) * SECTOR_SIZE) as usize;
                        dma.read_with(from, (n * SECTOR_SIZE) as usize, |done, src| {
                            store.write_bytes_at(at.byte_offset() + done as u64, src);
                        });
                    });
                    off += (sectors as u64 * SECTOR_SIZE) as usize;
                }
                state.stats.writes += 1;
                state.stats.written_bytes += total_bytes;
            }
            Opcode::WriteZeroes => {
                for i in 0..state.io_bufs.extents.len() {
                    let (lba, sectors) = state.io_bufs.extents[i];
                    let zero = SectorStore::write_zeroes;
                    state.media_write(lba, sectors.into(), Some(now), WriteKind::Timed, zero);
                }
                state.stats.writes += 1;
                state.stats.written_bytes += total_bytes;
            }
            Opcode::Flush => unreachable!(),
        }

        // When QoS pacing admitted the command, its channel occupancy is
        // already booked on the tenant's private lanes, and the direction
        // bus is weighted time-division multiplexed (the tenant's bus
        // share is part of its lane pacing), so only the tenant's own
        // transfers serialize. Otherwise the command goes through the
        // shared channel ledger as before.
        let ready = if matches!(cmd.opcode, Opcode::WriteZeroes) {
            let cost = state.timer.timing().write_zeroes_cost;
            scratch.service = cost;
            if qos_paced {
                now + trans_cost + cost
            } else {
                state.timer.schedule_fixed(now + trans_cost, cost)
            }
        } else if qos_paced {
            scratch.service = state.timer.timing().service(is_write, total_bytes);
            state
                .timer
                .schedule_paced(now + trans_cost, is_write, total_bytes, tenant_key(tenant))
        } else {
            scratch.service = state.timer.timing().service(is_write, total_bytes);
            state
                .timer
                .schedule(now + trans_cost, is_write, total_bytes)
        };
        // Whatever the scheduler charged beyond raw service is queueing
        // for channels/bus slots; exact under the eager-completion model.
        scratch.channel_wait = ready
            .saturating_sub(now + trans_cost)
            .saturating_sub(scratch.service);
        Completion {
            cid: 0,
            status: NvmeStatus::Success,
            ready_at: ready,
            pressure,
        }
    }

    /// The stages in front of the media that every data access crosses,
    /// plain commands and chain hops alike: QoS admission (when
    /// `admit`), address resolution — the device-side ATC first, then an
    /// IOMMU walk classified by level — the range check, and media-error
    /// injection. On success `state.io_bufs.extents` holds the LBA extents
    /// and `scratch` the admission delay, pressure and serialised
    /// translation cost; a failure returns the completion to post,
    /// charged for the stages it crossed.
    #[allow(clippy::too_many_arguments)]
    fn media_front(
        &self,
        state: &mut DevState,
        tenant: Tenant,
        pasid: Option<Pasid>,
        cmd: &Command<'_>,
        admit: bool,
        now: Nanos,
        scratch: &mut StageScratch,
    ) -> Result<(), Completion> {
        let is_write = matches!(cmd.opcode, Opcode::Write | Opcode::WriteZeroes);
        let total_bytes = u64::from(cmd.sectors) * SECTOR_SIZE;
        // The media service time, priced only where a stage needs it.
        let service_est = |timing: MediaTiming| {
            if cmd.opcode == Opcode::WriteZeroes {
                timing.write_zeroes_cost
            } else {
                timing.service(is_write, total_bytes)
            }
        };
        let fail = |status, ready_at, pressure| Completion {
            cid: 0,
            status,
            ready_at,
            pressure,
        };

        // QoS admission (§3.1 sharing): rate limits and fair-share
        // pacing delay the access's *effective arrival*; everything
        // downstream (translation, media scheduling) sees the delayed
        // time. Skipped entirely when disabled, keeping the default
        // timing bit-identical.
        if admit && state.qos.enabled() {
            let est = service_est(state.timer.timing());
            let adm = state.qos.admit(tenant, now, est, total_bytes);
            scratch.qos_delay = adm.arrival.saturating_sub(now);
            scratch.throttled = adm.throttled;
            scratch.deferred = adm.deferred;
        }
        let now = now + scratch.qos_delay;
        let pressure = scratch.throttled || scratch.deferred;

        // Resolve the address to LBA extents (into the reusable scratch
        // buffer — the steady-state path performs no allocation).
        state.io_bufs.extents.clear();
        match (cmd.addr, pasid) {
            // Security: user queues may not address raw LBAs, and VBAs
            // need a PASID to translate under.
            (BlockAddr::Lba(_), Some(_)) | (BlockAddr::Vba(_), None) => {
                return Err(fail(NvmeStatus::InvalidField, now, pressure));
            }
            (BlockAddr::Lba(lba), None) => state.io_bufs.extents.push((lba, cmd.sectors)),
            (BlockAddr::Vba(vba), Some(pasid)) => {
                let kind = if is_write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                // Device-side ATC first (no PCIe round trip on a hit);
                // off by default, in which case this is always None.
                let bufs = &mut state.io_bufs;
                let (walked, walk) = if let Some(cost) =
                    self.atc
                        .translate_into(pasid, vba, total_bytes, kind, &mut bufs.extents)
                {
                    (Ok(cost), WalkLevel::AtcHit)
                } else {
                    let atc_on = self.atc.enabled();
                    bufs.pages.clear();
                    match self.iommu.lock().translate_extents_into(
                        pasid,
                        vba,
                        total_bytes,
                        kind,
                        self.id,
                        atc_on.then_some(&mut bufs.pages),
                        &mut bufs.extents,
                    ) {
                        Ok(t) => {
                            if atc_on {
                                self.atc.fill(pasid, &bufs.pages);
                            }
                            let walk = if t.walks == 0 {
                                WalkLevel::IotlbHit
                            } else if t.pwc_hit {
                                WalkLevel::PwcHit
                            } else {
                                WalkLevel::FullWalk
                            };
                            (Ok(t.cost), walk)
                        }
                        Err(failed) => (Err(failed), WalkLevel::Fault),
                    }
                };
                scratch.walk = Some(walk);
                match walked {
                    // Reads serialise translation; writes overlap it with
                    // the data transfer (§4.3).
                    Ok(cost) => scratch.translate = if is_write { Nanos::ZERO } else { cost },
                    Err((fault, cost)) => {
                        state.stats.translation_faults += 1;
                        scratch.translate = cost;
                        let status = NvmeStatus::TranslationFault(fault);
                        return Err(fail(status, now + cost, pressure));
                    }
                }
            }
        }

        let in_range = state
            .io_bufs
            .extents
            .iter()
            .all(|&(lba, sectors)| state.store.in_range(lba, u64::from(sectors)));
        if !in_range {
            let ready_at = now + scratch.translate;
            return Err(fail(NvmeStatus::LbaOutOfRange, ready_at, pressure));
        }

        // Transient media-error injection, on an access that resolved
        // (a revoked or unmapped VBA fails translation first and falls
        // back): it is charged its media service time after the stages
        // it crossed but completes with MediaError and moves no data — a
        // correctable-failure model for the retry paths.
        if state.faults.is_active() && state.faults.take_io_error(is_write) {
            scratch.service = service_est(state.timer.timing());
            let ready_at = now + scratch.translate + scratch.service;
            return Err(fail(NvmeStatus::MediaError, ready_at, pressure));
        }
        Ok(())
    }

    /// Executes one offload chain: repeated single-sector reads driven by
    /// the command's verified program, all inside this one completion.
    ///
    /// Every hop crosses [`NvmeDevice::media_front`] like a
    /// host-submitted read — ATC/IOMMU translation under the queue's
    /// PASID, range check, media-error injection — so a
    /// `Resubmit` into an unmapped or revoked page faults the whole chain
    /// and chains never relax the protection model. Only three things
    /// differ: QoS admits the chain once, at its first hop; every hop
    /// reads on the chain's pinned channel into the device's own buffer;
    /// and only the final block crosses the bus to the host. The program
    /// runs over each block at [`STEP_NS`] per step of pure virtual time.
    /// The host sees one doorbell and one completion; each hop emits its
    /// own [`DeviceRecord`] so traces can count device-side work.
    fn process_chain(
        &self,
        state: &mut DevState,
        qid: QueueId,
        tenant: Tenant,
        pasid: Option<Pasid>,
        mut cmd: Command<'_>,
        now: Nanos,
    ) -> Completion {
        state.qos.record_submit(tenant);
        let spec = cmd.chain.expect("process_chain without a chain");

        // Structural validation: chains are single-sector VBA reads from
        // a user queue, naming an installed program.
        let valid_shape = cmd.opcode == Opcode::Read && cmd.sectors == 1 && cmd.dma.is_some();
        let prog = state.programs.get(&spec.prog).cloned();
        let (BlockAddr::Vba(mut vba), true, Some(prog)) =
            (cmd.addr, valid_shape && pasid.is_some(), prog)
        else {
            state
                .qos
                .record_completion(tenant, Nanos::ZERO, false, 0, 0);
            return Completion {
                cid: 0,
                status: NvmeStatus::InvalidField,
                ready_at: now,
                pressure: false,
            };
        };

        let qos_paced = state.qos.enabled();
        let mut hops = HopStepper::program(&prog, spec.regs);
        let mut channel = None;
        let (mut t, mut pressure) = (now, false);
        let status = loop {
            // Program offsets must stay sector-aligned; a misaligned
            // `Resubmit` is an OOB trap.
            if !vba.0.is_multiple_of(SECTOR_SIZE) {
                break NvmeStatus::ChainFault(bypassd_offload::TRAP_OOB);
            }
            let hop_start = t;
            let mut scratch = StageScratch::default();
            cmd.addr = BlockAddr::Vba(vba);
            let admit = hops.hops() == 0;
            if let Err(failed) =
                self.media_front(state, tenant, pasid, &cmd, admit, t, &mut scratch)
            {
                (t, pressure) = (failed.ready_at, pressure || failed.pressure);
                Self::record_stages(state, qid, tenant, &cmd, hop_start, &scratch, failed);
                break failed.status;
            }
            pressure |= scratch.throttled || scratch.deferred;
            let arrival = t + scratch.qos_delay + scratch.translate;

            // Media read of the block into the device-internal buffer
            // (not DMA'd — only the final block crosses to the host).
            let bufs = &mut state.io_bufs;
            bufs.chain_block.resize(BLOCK, 0);
            let mut off = 0usize;
            for &(lba, sectors) in &bufs.extents {
                let n = (u64::from(sectors) * SECTOR_SIZE) as usize;
                state.store.read(lba, &mut bufs.chain_block[off..off + n]);
                off += n;
            }
            state.stats.reads += 1;
            state.stats.read_bytes += BLOCK as u64;

            let media_done = if qos_paced {
                // Paced lanes priced the chain at admission; hops are
                // device-internal media reads with no bus crossing.
                arrival + state.timer.timing().read_base
            } else {
                let channel = *channel.get_or_insert_with(|| state.timer.pick_channel());
                state.timer.schedule_hop(channel, arrival)
            };

            // Run the program on the device's lightweight core, charged
            // purely in virtual time.
            let run = hops.step(&state.io_bufs.chain_block);
            t = media_done + Nanos(run.steps * STEP_NS);
            scratch.service = t.saturating_sub(arrival);
            let hop = Completion {
                cid: 0,
                status: NvmeStatus::Success,
                ready_at: t,
                pressure,
            };
            Self::record_stages(state, qid, tenant, &cmd, hop_start, &scratch, hop);

            match run.outcome {
                Outcome::Resubmit { offset } => vba = Vba(spec.base_vba).offset(offset),
                Outcome::Return => {
                    // Only the final block crosses to the host: pay its
                    // bus transfer now.
                    t = if qos_paced {
                        state
                            .timer
                            .chain_return_transfer_paced(t, BLOCK as u64, tenant_key(tenant))
                    } else {
                        state.timer.chain_return_transfer(t, BLOCK as u64)
                    };
                    let dma = cmd.dma.expect("validated above");
                    dma.write(cmd.dma_offset, &state.io_bufs.chain_block);
                    break NvmeStatus::Success;
                }
                Outcome::Fail { code } => break NvmeStatus::ChainFault(code),
            }
        };

        let ok = status.is_ok();
        let hops = hops.hops();
        state.stats.chains += 1;
        state.stats.chain_hops += u64::from(hops);
        state.stats.chain_faults += u64::from(!ok);
        state
            .qos
            .record_offload_hops(tenant, u64::from(hops.saturating_sub(1)));
        state.qos.record_completion(
            tenant,
            t.saturating_sub(now),
            ok,
            u64::from(hops) * BLOCK as u64,
            0,
        );
        Completion {
            cid: 0,
            status,
            ready_at: t,
            pressure,
        }
    }

    /// Emits the [`DeviceRecord`] of `cmd` — a plain command or one
    /// chain hop — from the stages `scratch` recorded (passive; no
    /// clock).
    fn record_stages(
        state: &DevState,
        qid: QueueId,
        tenant: Tenant,
        cmd: &Command<'_>,
        submit: Nanos,
        scratch: &StageScratch,
        completion: Completion,
    ) {
        if let Some(rec) = &state.recorder {
            rec.record_device(|| DeviceRecord {
                queue: qid.0,
                tenant: tenant_key(tenant),
                op: match cmd.opcode {
                    Opcode::Read => TraceOp::Read,
                    Opcode::Write | Opcode::WriteZeroes => TraceOp::Write,
                    Opcode::Flush => TraceOp::Flush,
                },
                bytes: u64::from(cmd.sectors) * SECTOR_SIZE,
                submit,
                qos_delay: scratch.qos_delay,
                throttled: scratch.throttled,
                deferred: scratch.deferred,
                walk: scratch.walk,
                translate: scratch.translate,
                channel_wait: scratch.channel_wait,
                service: scratch.service,
                complete: completion.ready_at,
                ok: completion.status.is_ok(),
            });
        }
    }

    /// Reaps up to `max` completions visible at `now` into `out`,
    /// earliest first. Returns how many completions were appended (0 for
    /// an unknown queue).
    pub fn reap_ready_into(
        &self,
        qid: QueueId,
        now: Nanos,
        max: usize,
        out: &mut Vec<Completion>,
    ) -> usize {
        self.state
            .lock()
            .queues
            .get_mut(&qid)
            .map_or(0, |q| q.pop_ready(now, max, out))
    }

    /// Earliest pending completion time on `qid`.
    pub fn next_ready_time(&self, qid: QueueId) -> Option<Nanos> {
        self.state.lock().queues.get(&qid)?.next_ready_time()
    }

    /// Resets the contention ledger (see [`DeviceTimer::reset`]). Call
    /// between independent simulations sharing this device; pending
    /// completions on open queues are dropped.
    pub fn reset_timing(&self) {
        let mut state = self.state.lock();
        state.timer.reset();
        state.qos.reset_clock();
        for q in state.queues.values_mut() {
            q.drop_pending();
        }
    }

    /// Counters, including the ATC and QoS aggregates so they show up in
    /// any report that prints `DeviceStats`.
    pub fn stats(&self) -> DeviceStats {
        let state = self.state.lock();
        let mut s = state.stats;
        let atc = self.atc.stats();
        s.atc_hits = atc.hits;
        s.atc_misses = atc.misses;
        s.atc_shootdowns = atc.shootdowns;
        (s.qos_throttled, s.qos_deferred) = state.qos.totals();
        s
    }

    // ---- Maintenance access (setup code and the simulated kernel's
    // block layer use these; they move bytes without timing). ----

    /// Reads raw sectors, bypassing queues and timing.
    pub fn read_raw(&self, lba: Lba, buf: &mut [u8]) {
        self.state.lock().store.read(lba, buf);
    }

    /// Writes raw sectors, bypassing queues and timing. Still passes
    /// through the fault plane: journal and superblock writes are crash
    /// candidates like any other.
    pub fn write_raw(&self, lba: Lba, data: &[u8]) {
        let sectors = data.len() as u64 / SECTOR_SIZE;
        self.state
            .lock()
            .media_write(lba, sectors, None, WriteKind::Raw, |store, at, n| {
                let from = ((at.0 - lba.0) * SECTOR_SIZE) as usize;
                store.write(at, &data[from..from + (n * SECTOR_SIZE) as usize]);
            });
    }

    /// Writes `sectors` raw sectors of `byte`, bypassing queues and
    /// timing: [`NvmeDevice::write_raw`] of a buffer holding only `byte`,
    /// without the buffer. Whole blocks become fill blocks with no scan.
    /// The fault plane sees one write per 8-sector piece from `lba`, as
    /// a block-by-block `write_raw` shows it, so crash points number
    /// the same.
    pub fn fill_raw(&self, lba: Lba, sectors: u64, byte: u8) {
        let state = &mut *self.state.lock();
        let fill = |store: &mut SectorStore, at, n| store.fill(at, n, byte);
        for done in (0..sectors).step_by(SECTORS_PER_PAGE as usize) {
            let n = (sectors - done).min(SECTORS_PER_PAGE);
            state.media_write(lba.advance(done), n, None, WriteKind::Raw, fill);
        }
    }

    /// Zeroes raw sectors, bypassing queues and timing.
    pub fn zero_raw(&self, lba: Lba, sectors: u64) {
        self.state.lock().media_write(
            lba,
            sectors,
            None,
            WriteKind::Zeroes,
            SectorStore::write_zeroes,
        );
    }

    /// Materialised media blocks (memory accounting).
    pub fn resident_blocks(&self) -> usize {
        self.state.lock().store.resident_blocks()
    }

    /// Deterministic digest of the entire media contents. Two devices
    /// with identical logical contents (zero-filled blocks are never
    /// distinguished from absent ones) hash equal — used by the crash
    /// campaigns to assert journal-replay idempotence.
    pub fn media_fingerprint(&self) -> u64 {
        self.state.lock().store.fingerprint()
    }
}

impl MetricSource for NvmeDevice {
    fn collect(&self, out: &mut Vec<Metric>) {
        let s = self.stats();
        out.push(Metric::counter("reads", s.reads));
        out.push(Metric::counter("writes", s.writes));
        out.push(Metric::counter("read_bytes", s.read_bytes));
        out.push(Metric::counter("written_bytes", s.written_bytes));
        out.push(Metric::counter("flushes", s.flushes));
        out.push(Metric::counter("translation_faults", s.translation_faults));
        out.push(Metric::counter("atc_hits", s.atc_hits));
        out.push(Metric::counter("atc_misses", s.atc_misses));
        out.push(Metric::counter("atc_shootdowns", s.atc_shootdowns));
        out.push(Metric::counter("qos_throttled", s.qos_throttled));
        out.push(Metric::counter("qos_deferred", s.qos_deferred));
        out.push(Metric::counter("chains", s.chains));
        out.push(Metric::counter("chain_hops", s.chain_hops));
        out.push(Metric::counter("chain_faults", s.chain_faults));
        for (tenant, ts) in self.qos_snapshot() {
            let name = match tenant {
                Tenant::Kernel => "kernel".to_string(),
                Tenant::User(p) => format!("pasid_{}", p.0),
            };
            out.push(Metric::counter(
                format!("tenant.{name}.submitted"),
                ts.submitted,
            ));
            out.push(Metric::counter(
                format!("tenant.{name}.completed"),
                ts.completed,
            ));
            out.push(Metric::counter(format!("tenant.{name}.failed"), ts.failed));
            out.push(Metric::counter(
                format!("tenant.{name}.offload_hops"),
                ts.offload_hops,
            ));
            out.push(Metric::counter(
                format!("tenant.{name}.read_bytes"),
                ts.read_bytes,
            ));
            out.push(Metric::counter(
                format!("tenant.{name}.written_bytes"),
                ts.written_bytes,
            ));
            out.push(Metric::histogram(
                format!("tenant.{name}.latency"),
                ts.latency.clone(),
            ));
        }
    }
}

impl std::fmt::Debug for NvmeDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock();
        f.debug_struct("NvmeDevice")
            .field("id", &self.id)
            .field("queues", &state.queues.len())
            .field("stats", &state.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bypassd_hw::mem::PhysMem;
    use bypassd_hw::page_table::AddressSpace;
    use bypassd_hw::pte::Pte;
    use bypassd_hw::types::PAGE_SIZE;

    const DEV: DevId = DevId(1);
    const P: Pasid = Pasid(42);

    fn setup() -> (PhysMem, Arc<NvmeDevice>) {
        let mem = PhysMem::new();
        let iommu = Arc::new(Mutex::new(Iommu::new(&mem)));
        let dev = NvmeDevice::new(DEV, 1 << 22, MediaTiming::default(), iommu);
        (mem, dev)
    }

    fn setup_with_mapping(n_blocks: u64) -> (PhysMem, Arc<NvmeDevice>, AddressSpace, Vba) {
        let (mem, dev) = setup();
        let mut asid = AddressSpace::new(&mem);
        let vba = Vba(0x4000_0000);
        for i in 0..n_blocks {
            asid.map_page(
                vba.as_virt().offset(i * PAGE_SIZE),
                Pte::fte(Lba::from_block(1000 + i), DEV, true),
            );
        }
        dev.iommu().lock().register(P, asid.root_frame());
        (mem, dev, asid, vba)
    }

    #[test]
    fn lba_write_read_roundtrip_on_kernel_queue() {
        let (mem, dev) = setup();
        let q = dev.create_queue(None, 32);
        let dma = DmaBuffer::alloc(&mem, 4096);
        dma.write(0, &[0x5A; 4096]);
        let (st, t1) = dev.execute(
            q,
            Command::write(BlockAddr::Lba(Lba(0)), 8, &dma),
            Nanos::ZERO,
        );
        assert!(st.is_ok());
        let dma2 = DmaBuffer::alloc(&mem, 4096);
        let (st, _) = dev.execute(q, Command::read(BlockAddr::Lba(Lba(0)), 8, &dma2), t1);
        assert!(st.is_ok());
        let mut out = [0u8; 4096];
        dma2.read(0, &mut out);
        assert!(out.iter().all(|&b| b == 0x5A));
    }

    #[test]
    fn lba_command_rejected_on_user_queue() {
        let (mem, dev) = setup();
        let q = dev.create_queue(Some(P), 32);
        let dma = DmaBuffer::alloc(&mem, 4096);
        let (st, _) = dev.execute(
            q,
            Command::read(BlockAddr::Lba(Lba(0)), 8, &dma),
            Nanos::ZERO,
        );
        assert_eq!(
            st,
            NvmeStatus::InvalidField,
            "user queue must not take raw LBAs"
        );
    }

    #[test]
    fn vba_command_rejected_on_kernel_queue() {
        let (mem, dev) = setup();
        let q = dev.create_queue(None, 32);
        let dma = DmaBuffer::alloc(&mem, 4096);
        let (st, _) = dev.execute(
            q,
            Command::read(BlockAddr::Vba(Vba(0x1000)), 8, &dma),
            Nanos::ZERO,
        );
        assert_eq!(st, NvmeStatus::InvalidField);
    }

    #[test]
    fn vba_read_translates_and_returns_data() {
        let (mem, dev, _asid, vba) = setup_with_mapping(1);
        dev.write_raw(Lba::from_block(1000), &[0xC3; 4096]);
        let q = dev.create_queue(Some(P), 32);
        let dma = DmaBuffer::alloc(&mem, 4096);
        let (st, ready) = dev.execute(q, Command::read(BlockAddr::Vba(vba), 8, &dma), Nanos::ZERO);
        assert!(st.is_ok());
        let mut out = [0u8; 4096];
        dma.read(0, &mut out);
        assert!(out.iter().all(|&b| b == 0xC3));
        // Read latency includes translation (~550ns) + device (~4020ns).
        let ns = ready.as_nanos();
        assert!((4300..5000).contains(&ns), "VBA read latency = {ns}ns");
    }

    #[test]
    fn vba_write_has_no_translation_latency() {
        let (mem, dev, _asid, vba) = setup_with_mapping(1);
        let q = dev.create_queue(Some(P), 32);
        let dma = DmaBuffer::alloc(&mem, 4096);
        dma.write(0, &[1; 4096]);
        let (st, ready) = dev.execute(q, Command::write(BlockAddr::Vba(vba), 8, &dma), Nanos::ZERO);
        assert!(st.is_ok());
        let service = MediaTiming::default().service(true, 4096);
        assert_eq!(ready, service, "write must overlap VBA translation");
        let mut out = [0u8; 4096];
        dev.read_raw(Lba::from_block(1000), &mut out);
        assert!(out.iter().all(|&b| b == 1));
    }

    #[test]
    fn unmapped_vba_faults_without_touching_media() {
        let (mem, dev, _asid, vba) = setup_with_mapping(1);
        let q = dev.create_queue(Some(P), 32);
        let dma = DmaBuffer::alloc(&mem, 4096);
        let (st, _) = dev.execute(
            q,
            Command::read(BlockAddr::Vba(vba.offset(PAGE_SIZE)), 8, &dma),
            Nanos::ZERO,
        );
        assert!(matches!(st, NvmeStatus::TranslationFault(_)));
        assert_eq!(dev.stats().reads, 0);
        assert_eq!(dev.stats().translation_faults, 1);
    }

    #[test]
    fn unmapped_vba_faults_before_media_error_injection() {
        let (mem, dev, _asid, vba) = setup_with_mapping(1);
        let q = dev.create_queue(Some(P), 32);
        let dma = DmaBuffer::alloc(&mem, 4096);
        dev.fault_plane().fail_reads((0..8).collect());
        let unmapped = Command::read(BlockAddr::Vba(vba.offset(PAGE_SIZE)), 8, &dma);
        let comp = dev.execute_full(q, unmapped, Nanos::ZERO);
        assert!(matches!(comp.status, NvmeStatus::TranslationFault(_)));
        assert_eq!(dev.fault_plane().stats().read_errors, 0);
        // The plan is intact: the next resolved read takes its first error.
        let mapped = Command::read(BlockAddr::Vba(vba), 8, &dma);
        let comp = dev.execute_full(q, mapped, comp.ready_at);
        assert_eq!(comp.status, NvmeStatus::MediaError);
        assert_eq!(dev.fault_plane().stats().read_errors, 1);
    }

    #[test]
    fn fill_raw_matches_block_by_block_write_raw_under_the_fault_plane() {
        let (_, filled) = setup();
        let (_, written) = setup();
        for dev in [&filled, &written] {
            dev.fault_plane().activate();
            dev.fault_plane().start_recording();
        }
        let (lba, sectors) = (Lba(3), 21);
        filled.fill_raw(lba, sectors, 0x42);
        for done in (0..sectors).step_by(8) {
            let n = (sectors - done).min(8);
            written.write_raw(lba.advance(done), &vec![0x42; (n * SECTOR_SIZE) as usize]);
        }
        let schedule = filled.fault_plane().take_schedule();
        assert_eq!(schedule.len(), 3, "one plane write per 8-sector piece");
        assert_eq!(schedule, written.fault_plane().take_schedule());
        assert_eq!(filled.media_fingerprint(), written.media_fingerprint());
        assert_eq!(filled.resident_blocks(), written.resident_blocks());
    }

    #[test]
    fn readonly_mapping_blocks_vba_write() {
        let (mem, dev) = setup();
        let mut asid = AddressSpace::new(&mem);
        let vba = Vba(0x4000_0000);
        asid.map_page(vba.as_virt(), Pte::fte(Lba::from_block(7), DEV, false));
        dev.iommu().lock().register(P, asid.root_frame());
        let q = dev.create_queue(Some(P), 32);
        let dma = DmaBuffer::alloc(&mem, 4096);
        let (st, _) = dev.execute(q, Command::write(BlockAddr::Vba(vba), 8, &dma), Nanos::ZERO);
        assert!(matches!(st, NvmeStatus::TranslationFault(_)));
    }

    #[test]
    fn multi_extent_vba_read_concatenates_in_dma_order() {
        // Two non-contiguous blocks must land in the DMA buffer in VBA
        // order, not LBA order.
        let (mem, dev) = setup();
        let mut asid = AddressSpace::new(&mem);
        let vba = Vba(0x4000_0000);
        asid.map_page(vba.as_virt(), Pte::fte(Lba::from_block(500), DEV, true));
        asid.map_page(
            vba.as_virt().offset(PAGE_SIZE),
            Pte::fte(Lba::from_block(100), DEV, true),
        );
        dev.iommu().lock().register(P, asid.root_frame());
        dev.write_raw(Lba::from_block(500), &[0xAA; 4096]);
        dev.write_raw(Lba::from_block(100), &[0xBB; 4096]);
        let q = dev.create_queue(Some(P), 32);
        let dma = DmaBuffer::alloc(&mem, 8192);
        let (st, _) = dev.execute(q, Command::read(BlockAddr::Vba(vba), 16, &dma), Nanos::ZERO);
        assert!(st.is_ok());
        let mut out = [0u8; 8192];
        dma.read(0, &mut out);
        assert!(out[..4096].iter().all(|&b| b == 0xAA));
        assert!(out[4096..].iter().all(|&b| b == 0xBB));
    }

    /// Reads and writes move bytes media ↔ DMA frames in one copy, chunk
    /// by chunk at frame boundaries; the bytes must be exactly what the
    /// staging path produced — i.e. what `read_raw`/`write_raw` see —
    /// for data, fill and never-written blocks, across extents, and at
    /// DMA offsets that split a page (sector-aligned or not).
    #[test]
    fn single_copy_data_movement_matches_raw_access() {
        let (mem, dev) = setup();
        let mut asid = AddressSpace::new(&mem);
        let vba = Vba(0x4000_0000);
        // Three pages on non-contiguous blocks: three extents.
        let blocks = [1000u64, 2000, 3000];
        for (i, &b) in blocks.iter().enumerate() {
            asid.map_page(
                vba.as_virt().offset(i as u64 * PAGE_SIZE),
                Pte::fte(Lba::from_block(b), DEV, true),
            );
        }
        dev.iommu().lock().register(P, asid.root_frame());
        let data: Vec<u8> = (0..PAGE_SIZE as usize)
            .map(|i| (i * 7 % 251) as u8)
            .collect();
        // A Data block and a Fill block; block 3000 is never written
        // and reads as zeroes.
        dev.write_raw(Lba::from_block(1000), &data);
        dev.write_raw(Lba::from_block(2000), &[0x77; 4096]);
        let raw = |b: u64| {
            let mut out = vec![0u8; PAGE_SIZE as usize];
            dev.read_raw(Lba::from_block(b), &mut out);
            out
        };
        let q = dev.create_queue(Some(P), 32);
        let dma = DmaBuffer::alloc(&mem, 4 * PAGE_SIZE as usize);
        let len = 3 * PAGE_SIZE as usize;

        for dma_offset in [0, 1536, 700] {
            let mut cmd = Command::read(BlockAddr::Vba(vba), 24, &dma);
            cmd.dma_offset = dma_offset;
            assert!(dev.execute(q, cmd, Nanos::ZERO).0.is_ok());
            let mut out = vec![0u8; len];
            dma.read(dma_offset, &mut out);
            assert_eq!(
                out,
                [raw(1000), raw(2000), raw(3000)].concat(),
                "read at {dma_offset}"
            );
        }
        assert_eq!(raw(1000), data);
        assert!(raw(2000).iter().all(|&b| b == 0x77));
        assert!(raw(3000).iter().all(|&b| b == 0));

        // One page spanning two DMA frames at a non-page-aligned offset,
        // then a three-extent write at an unaligned one.
        let pattern: Vec<u8> = (0..len).map(|i| (i * 13 % 253) as u8 ^ 0x5A).collect();
        dma.write(2560, &pattern[..PAGE_SIZE as usize]);
        let mut cmd = Command::write(BlockAddr::Vba(vba.offset(PAGE_SIZE)), 8, &dma);
        cmd.dma_offset = 2560;
        assert!(dev.execute(q, cmd, Nanos::ZERO).0.is_ok());
        assert_eq!(raw(2000), pattern[..PAGE_SIZE as usize]);

        dma.write(700, &pattern);
        let mut cmd = Command::write(BlockAddr::Vba(vba), 24, &dma);
        cmd.dma_offset = 700;
        assert!(dev.execute(q, cmd, Nanos::ZERO).0.is_ok());
        assert_eq!([raw(1000), raw(2000), raw(3000)].concat(), pattern);
        // A uniform page written through DMA reads back uniform.
        dma.write(0, &[0x42; 4096]);
        let cmd = Command::write(BlockAddr::Vba(vba.offset(2 * PAGE_SIZE)), 8, &dma);
        assert!(dev.execute(q, cmd, Nanos::ZERO).0.is_ok());
        assert!(raw(3000).iter().all(|&b| b == 0x42));
    }

    #[test]
    fn queue_depth_enforced_and_reap_frees() {
        let (mem, dev) = setup();
        let q = dev.create_queue(None, 1);
        let dma = DmaBuffer::alloc(&mem, 4096);
        let read = || Command::read(BlockAddr::Lba(Lba(0)), 8, &dma);
        let cid = dev.submit(q, read(), Nanos::ZERO).unwrap();
        let err = dev.submit(q, read(), Nanos::ZERO).unwrap_err();
        assert_eq!(err, SubmitError::QueueFull);
        let ready = dev.next_ready_time(q).unwrap();
        let mut comps = Vec::new();
        assert_eq!(dev.reap_ready_into(q, ready, 4, &mut comps), 1);
        assert_eq!(comps[0].cid, cid);
        // A batch larger than the free slots is refused whole: nothing
        // runs and nothing is posted.
        let mut cids = Vec::new();
        let err = dev
            .submit_batch(q, [read(), read()], ready, &mut cids)
            .unwrap_err();
        assert_eq!(err, SubmitError::QueueFull);
        assert!(cids.is_empty());
        assert_eq!(dev.next_ready_time(q), None);
        assert_eq!(dev.stats().reads, 1);
        assert!(dev.submit(q, read(), ready).is_ok());
    }

    #[test]
    fn dropped_completion_frees_its_slot() {
        let (mem, dev) = setup();
        let q = dev.create_queue(None, 1);
        let dma = DmaBuffer::alloc(&mem, 4096);
        dev.fault_plane().drop_completions(vec![0]);
        let read = || Command::read(BlockAddr::Lba(Lba(0)), 8, &dma);
        assert!(dev.submit(q, read(), Nanos::ZERO).is_ok());
        assert_eq!(dev.next_ready_time(q), None, "dropped entry was posted");
        let cid = dev.submit(q, read(), Nanos::ZERO).unwrap();
        let mut comps = Vec::new();
        dev.reap_ready_into(q, Nanos::MAX, 4, &mut comps);
        assert_eq!(comps.iter().map(|c| c.cid).collect::<Vec<_>>(), vec![cid]);
        assert_eq!(dev.fault_plane().stats().completions_dropped, 1);
    }

    #[test]
    fn flush_completes_after_writes() {
        let (mem, dev) = setup();
        let q = dev.create_queue(None, 32);
        let dma = DmaBuffer::alloc(&mem, 4096);
        dma.write(0, &[2; 4096]);
        let (_, w) = dev.execute(
            q,
            Command::write(BlockAddr::Lba(Lba(0)), 8, &dma),
            Nanos::ZERO,
        );
        let (st, f) = dev.execute(q, Command::flush(), Nanos(1));
        assert!(st.is_ok());
        assert!(f > w);
    }

    #[test]
    fn out_of_range_lba_rejected() {
        let (mem, dev) = setup();
        let q = dev.create_queue(None, 32);
        let dma = DmaBuffer::alloc(&mem, 4096);
        let cap = dev.capacity_sectors();
        let (st, _) = dev.execute(
            q,
            Command::read(BlockAddr::Lba(Lba(cap)), 8, &dma),
            Nanos::ZERO,
        );
        assert_eq!(st, NvmeStatus::LbaOutOfRange);
    }

    #[test]
    fn write_zeroes_clears_blocks() {
        let (_mem, dev) = setup();
        let q = dev.create_queue(None, 32);
        dev.write_raw(Lba::from_block(3), &[9; 4096]);
        let (st, _) = dev.execute(
            q,
            Command::write_zeroes(BlockAddr::Lba(Lba::from_block(3)), 8),
            Nanos::ZERO,
        );
        assert!(st.is_ok());
        let mut out = [9u8; 4096];
        dev.read_raw(Lba::from_block(3), &mut out);
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn zero_sector_command_invalid() {
        let (mem, dev) = setup();
        let q = dev.create_queue(None, 32);
        let dma = DmaBuffer::alloc(&mem, 4096);
        let (st, _) = dev.execute(
            q,
            Command::read(BlockAddr::Lba(Lba(0)), 0, &dma),
            Nanos::ZERO,
        );
        assert_eq!(st, NvmeStatus::InvalidField);
    }

    #[test]
    fn stats_accumulate() {
        let (mem, dev) = setup();
        let q = dev.create_queue(None, 32);
        let dma = DmaBuffer::alloc(&mem, 4096);
        dev.execute(
            q,
            Command::write(BlockAddr::Lba(Lba(0)), 8, &dma),
            Nanos::ZERO,
        );
        dev.execute(
            q,
            Command::read(BlockAddr::Lba(Lba(0)), 8, &dma),
            Nanos::ZERO,
        );
        dev.execute(q, Command::flush(), Nanos::ZERO);
        let s = dev.stats();
        assert_eq!((s.reads, s.writes, s.flushes), (1, 1, 1));
        assert_eq!(s.read_bytes, 4096);
        assert_eq!(s.written_bytes, 4096);
    }

    #[test]
    fn atc_hit_skips_pcie_round_trip() {
        let (mem, dev, _asid, vba) = setup_with_mapping(1);
        dev.set_atc_enabled(true);
        let q = dev.create_queue(Some(P), 32);
        let dma = DmaBuffer::alloc(&mem, 4096);
        let (st, t1) = dev.execute(q, Command::read(BlockAddr::Vba(vba), 8, &dma), Nanos::ZERO);
        assert!(st.is_ok());
        // Second read of the same page: translated on-device.
        let (st, t2) = dev.execute(q, Command::read(BlockAddr::Vba(vba), 8, &dma), t1);
        assert!(st.is_ok());
        let cold = t1.as_nanos();
        let warm = t2.as_nanos() - t1.as_nanos();
        // Cold read paid pcie_rtt + walk (~528ns); warm read pays only
        // the on-device lookup (14ns) before the same media time.
        assert!(
            cold - warm > 500,
            "ATC hit should shave the ATS round trip: cold={cold} warm={warm}"
        );
        let s = dev.atc_stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn atc_disabled_by_default_keeps_ats_costs() {
        let (mem, dev, _asid, vba) = setup_with_mapping(1);
        let q = dev.create_queue(Some(P), 32);
        let dma = DmaBuffer::alloc(&mem, 4096);
        let (_, t1) = dev.execute(q, Command::read(BlockAddr::Vba(vba), 8, &dma), Nanos::ZERO);
        let (_, t2) = dev.execute(q, Command::read(BlockAddr::Vba(vba), 8, &dma), t1);
        // Both reads pay the full ATS translation (pcie + walk); the warm
        // one only saves the PWC miss.
        let cold = t1.as_nanos();
        let warm = t2.as_nanos() - t1.as_nanos();
        assert_eq!(cold - warm, 120, "only the PWC component may differ");
        assert_eq!(dev.atc_stats(), crate::atc::AtcStats::default());
    }

    #[test]
    fn revocation_shoots_down_atc_so_fallback_still_fires() {
        // §3.6 regression with the ATC enabled: a revoked FTE must not be
        // served from the device cache.
        let (mem, dev, mut asid, vba) = setup_with_mapping(1);
        dev.set_atc_enabled(true);
        let q = dev.create_queue(Some(P), 32);
        let dma = DmaBuffer::alloc(&mem, 4096);
        let (st, t) = dev.execute(q, Command::read(BlockAddr::Vba(vba), 8, &dma), Nanos::ZERO);
        assert!(st.is_ok());
        assert!(!dev.atc().is_empty(), "walk should have filled the ATC");
        // Kernel revokes: detach FTE + IOMMU invalidate, which broadcasts
        // to the ATC.
        asid.unmap_page(vba.as_virt());
        dev.iommu().lock().invalidate_pasid(P);
        assert!(dev.atc().is_empty(), "shootdown must reach the device");
        let (st, _) = dev.execute(q, Command::read(BlockAddr::Vba(vba), 8, &dma), t);
        assert!(matches!(st, NvmeStatus::TranslationFault(_)));
        assert_eq!(dev.atc_stats().shootdowns, 1);
    }

    #[test]
    fn range_shootdown_drops_only_covered_atc_pages() {
        let (mem, dev, _asid, vba) = setup_with_mapping(2);
        dev.set_atc_enabled(true);
        let q = dev.create_queue(Some(P), 32);
        let dma = DmaBuffer::alloc(&mem, 8192);
        let (st, t) = dev.execute(q, Command::read(BlockAddr::Vba(vba), 16, &dma), Nanos::ZERO);
        assert!(st.is_ok());
        assert_eq!(dev.atc().len(), 2);
        dev.iommu().lock().invalidate_range(P, vba, PAGE_SIZE);
        assert_eq!(dev.atc().len(), 1, "only the covered page drops");
        // Second page still hits on-device; first page re-walks fine.
        let (st, _) = dev.execute(
            q,
            Command::read(BlockAddr::Vba(vba.offset(PAGE_SIZE)), 8, &dma),
            t,
        );
        assert!(st.is_ok());
        assert_eq!(dev.atc_stats().hits, 1);
    }

    #[test]
    fn revocation_mid_stream_fails_subsequent_ios() {
        let (mem, dev, mut asid, vba) = setup_with_mapping(1);
        let q = dev.create_queue(Some(P), 32);
        let dma = DmaBuffer::alloc(&mem, 4096);
        let (st, t) = dev.execute(q, Command::read(BlockAddr::Vba(vba), 8, &dma), Nanos::ZERO);
        assert!(st.is_ok());
        // Kernel revokes: detach FTE + IOTLB invalidate.
        asid.unmap_page(vba.as_virt());
        dev.iommu().lock().invalidate_pasid(P);
        let (st, _) = dev.execute(q, Command::read(BlockAddr::Vba(vba), 8, &dma), t);
        assert!(matches!(st, NvmeStatus::TranslationFault(_)));
    }

    // ---- QoS (bypassd-qos integration) ----

    use bypassd_qos::RateLimit;

    const P2: Pasid = Pasid(43);

    /// Maps `n_blocks` FTEs for `pasid` at its own VBA window.
    fn map_tenant(
        mem: &PhysMem,
        dev: &Arc<NvmeDevice>,
        pasid: Pasid,
        first_block: u64,
        n_blocks: u64,
    ) -> (AddressSpace, Vba) {
        let mut asid = AddressSpace::new(mem);
        let vba = Vba(0x4000_0000);
        for i in 0..n_blocks {
            asid.map_page(
                vba.as_virt().offset(i * PAGE_SIZE),
                Pte::fte(Lba::from_block(first_block + i), DEV, true),
            );
        }
        dev.iommu().lock().register(pasid, asid.root_frame());
        (asid, vba)
    }

    #[test]
    fn qos_enabled_solo_tenant_timing_matches_disabled() {
        // A tenant alone on the device must see the exact same virtual
        // times with QoS on: pacing is work-conserving when idle.
        let run = |qos: bool| -> Vec<Nanos> {
            let (mem, dev) = setup();
            if qos {
                dev.set_qos(QosConfig::enabled());
            }
            let q = dev.create_queue(None, 32);
            let dma = DmaBuffer::alloc(&mem, 4096);
            let mut times = Vec::new();
            let mut now = Nanos::ZERO;
            for _ in 0..16 {
                let (st, t) = dev.execute(q, Command::read(BlockAddr::Lba(Lba(0)), 8, &dma), now);
                assert!(st.is_ok());
                times.push(t);
                now = t;
            }
            times
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn qos_protects_qd1_foreground_from_deep_antagonist() {
        // Ablation-8 in miniature: a QD1 tenant vs a 16-deep burst from a
        // second PASID, with and without QoS (equal weights).
        let fg_latency = |qos: bool| -> u64 {
            let (mem, dev) = setup();
            if qos {
                dev.set_qos(QosConfig::enabled());
            }
            let (_fa, fvba) = map_tenant(&mem, &dev, P, 1000, 1);
            let (_aa, avba) = map_tenant(&mem, &dev, P2, 2000, 1);
            let fq = dev.create_queue(Some(P), 32);
            let aq = dev.create_queue(Some(P2), 32);
            let fdma = DmaBuffer::alloc(&mem, 4096);
            let adma = DmaBuffer::alloc(&mem, 4096);
            // Prime the foreground so the arbiter sees it as active.
            let (st, t0) = dev.execute(
                fq,
                Command::read(BlockAddr::Vba(fvba), 8, &fdma),
                Nanos::ZERO,
            );
            assert!(st.is_ok());
            for _ in 0..16 {
                dev.submit(aq, Command::read(BlockAddr::Vba(avba), 8, &adma), t0)
                    .unwrap();
            }
            let (st, done) = dev.execute(fq, Command::read(BlockAddr::Vba(fvba), 8, &fdma), t0);
            assert!(st.is_ok());
            done.as_nanos() - t0.as_nanos()
        };
        let no_qos = fg_latency(false);
        let qos = fg_latency(true);
        assert!(
            no_qos >= 2 * qos,
            "QoS must at least halve the victim latency: no_qos={no_qos}ns qos={qos}ns"
        );
        assert!(
            qos < 8_000,
            "paced foreground read should stay near uncontended service: {qos}ns"
        );
    }

    #[test]
    fn qos_rate_limit_paces_completions() {
        let (mem, dev) = setup();
        dev.set_qos(QosConfig::enabled());
        dev.register_tenant(
            Tenant::Kernel,
            TenantShare::weight(1).with_limit(RateLimit {
                iops: Some(10_000),
                bytes_per_sec: None,
                burst_ops: 1,
                burst_bytes: 0,
            }),
        );
        let q = dev.create_queue(None, 64);
        let dma = DmaBuffer::alloc(&mem, 4096);
        let mut last = Nanos::ZERO;
        for i in 0..4 {
            let (st, t) = dev.execute(
                q,
                Command::read(BlockAddr::Lba(Lba(0)), 8, &dma),
                Nanos::ZERO,
            );
            assert!(st.is_ok());
            if i > 0 {
                // 10K IOPS with burst 1 → 100µs spacing.
                let gap = t.as_nanos() - last.as_nanos();
                assert_eq!(gap, 100_000, "op {i} gap = {gap}ns");
            }
            last = t;
        }
        let s = dev.tenant_stats(Tenant::Kernel).unwrap();
        assert_eq!(s.throttled, 3);
        assert_eq!(dev.stats().qos_throttled, 3);
    }

    #[test]
    fn qos_pressure_flag_signals_congestion() {
        // With QoS on, completions carry a pressure bit once the queue
        // pair runs at ≥ 3/4 depth; with QoS off the bit never sets.
        let run = |qos: bool| -> bool {
            let (mem, dev) = setup();
            if qos {
                dev.set_qos(QosConfig::enabled());
            }
            let q = dev.create_queue(None, 8);
            let dma = DmaBuffer::alloc(&mem, 4096);
            let mut cids = Vec::new();
            for _ in 0..8 {
                cids.push(
                    dev.submit(
                        q,
                        Command::read(BlockAddr::Lba(Lba(0)), 8, &dma),
                        Nanos::ZERO,
                    )
                    .unwrap(),
                );
            }
            let mut comps = Vec::new();
            assert_eq!(
                dev.reap_ready_into(q, Nanos::MAX, 8, &mut comps),
                cids.len()
            );
            comps.iter().any(|c| c.pressure)
        };
        assert!(!run(false), "pressure must never be signalled without QoS");
        assert!(run(true), "deep queue under QoS must signal pressure");
    }

    #[test]
    fn qos_tenant_stats_account_every_op() {
        let (mem, dev) = setup();
        dev.set_qos(QosConfig::enabled());
        let (_a, vba) = map_tenant(&mem, &dev, P, 1000, 1);
        let q = dev.create_queue(Some(P), 2);
        let kq = dev.create_queue(None, 32);
        let dma = DmaBuffer::alloc(&mem, 4096);
        // Two good reads, one invalid (raw LBA on a user queue), one
        // queue-full rejection, plus kernel traffic.
        let (st, t1) = dev.execute(q, Command::read(BlockAddr::Vba(vba), 8, &dma), Nanos::ZERO);
        assert!(st.is_ok());
        let (st, t2) = dev.execute(q, Command::read(BlockAddr::Vba(vba), 8, &dma), t1);
        assert!(st.is_ok());
        let (st, _) = dev.execute(q, Command::read(BlockAddr::Lba(Lba(0)), 8, &dma), t2);
        assert_eq!(st, NvmeStatus::InvalidField);
        let c1 = dev
            .submit(q, Command::read(BlockAddr::Vba(vba), 8, &dma), t2)
            .unwrap();
        let _c2 = dev
            .submit(q, Command::read(BlockAddr::Vba(vba), 8, &dma), t2)
            .unwrap();
        let err = dev
            .submit(q, Command::read(BlockAddr::Vba(vba), 8, &dma), t2)
            .unwrap_err();
        assert_eq!(err, SubmitError::QueueFull);
        let mut comps = Vec::new();
        dev.reap_ready_into(q, Nanos::MAX, 1, &mut comps);
        assert_eq!(comps[0].cid, c1);
        dev.execute(kq, Command::write(BlockAddr::Lba(Lba(0)), 8, &dma), t2);

        let user = dev.tenant_stats(Tenant::User(P)).unwrap();
        assert!(user.accounted(), "submitted must equal completed + failed");
        assert_eq!(user.submitted, 5);
        assert_eq!((user.completed, user.failed, user.rejected), (4, 1, 1));
        assert_eq!(user.read_bytes, 4 * 4096);
        assert_eq!(user.latency.count(), 4);
        let kernel = dev.tenant_stats(Tenant::Kernel).unwrap();
        assert!(kernel.accounted());
        assert_eq!(kernel.written_bytes, 4096);
        // The snapshot covers every tenant the device has seen.
        let snap = dev.qos_snapshot();
        let names: Vec<Tenant> = snap.iter().map(|(t, _)| *t).collect();
        assert_eq!(names, vec![Tenant::Kernel, Tenant::User(P)]);
    }

    // ---- Offload chains (bypassd-offload integration) ----

    use bypassd_offload::{Cond, Op, Width, MAX_HOPS, TRAP_HOPS, TRAP_OOB};

    /// "Follow the pointer at byte 0; 0 terminates": the minimal chain
    /// program. One load, one compare, one terminator per hop.
    fn follow_prog() -> Arc<Program> {
        Arc::new(
            Program::verify(vec![
                Op::Imm { dst: 0, imm: 0 },
                Op::Load {
                    dst: 1,
                    width: Width::U64,
                    base: 0,
                    disp: 0,
                },
                Op::Imm { dst: 2, imm: 0 },
                Op::Jmp {
                    cond: Cond::Eq,
                    a: 1,
                    b: 2,
                    skip: 1,
                },
                Op::Resubmit { addr: 1 },
                Op::Return,
            ])
            .unwrap(),
        )
    }

    /// Writes one 512 B node at chain-window byte `offset`: next-pointer
    /// at byte 0, tag at byte 8. Window pages back onto blocks
    /// `1000 + page`.
    fn write_node(dev: &NvmeDevice, offset: u64, next: u64, tag: u8) {
        let mut b = [0u8; BLOCK];
        b[..8].copy_from_slice(&next.to_le_bytes());
        b[8] = tag;
        let sector = Lba(Lba::from_block(1000 + offset / PAGE_SIZE).0 + (offset % PAGE_SIZE) / 512);
        dev.write_raw(sector, &b);
    }

    fn chain_spec(dev: &NvmeDevice, vba: Vba) -> ChainSpec {
        let handle = dev.install_program(follow_prog());
        ChainSpec {
            prog: handle,
            regs: [0; 8],
            base_vba: vba.0,
        }
    }

    #[test]
    fn chain_read_follows_pointers_in_one_completion() {
        let (mem, dev, _asid, vba) = setup_with_mapping(1);
        // node0 → node2 → node7 → stop.
        write_node(&dev, 0, 1024, 10);
        write_node(&dev, 1024, 3584, 12);
        write_node(&dev, 3584, 0, 17);
        let spec = chain_spec(&dev, vba);
        let q = dev.create_queue(Some(P), 32);
        let dma = DmaBuffer::alloc(&mem, 4096);
        let comp = dev.execute_full(q, Command::chain_read(vba, &dma, spec), Nanos::ZERO);
        assert!(comp.status.is_ok());
        let mut out = [0u8; BLOCK];
        dma.read(0, &mut out);
        assert_eq!(out[8], 17, "final block must be the chain's tail");
        let s = dev.stats();
        assert_eq!((s.chains, s.chain_hops, s.chain_faults), (1, 3, 0));
        assert_eq!(s.reads, 3, "each hop is a media read");
        assert_eq!(s.read_bytes, 3 * BLOCK as u64);
        // Three serialized hops: ≥ 3 × (translate + read_base).
        assert!(
            comp.ready_at.as_nanos() > 3 * 3450,
            "chain latency {}ns too small for 3 media reads",
            comp.ready_at.as_nanos()
        );
        // Per-tenant accounting: 2 resubmitted hops beyond the first.
        let ts = dev.tenant_stats(Tenant::User(P)).unwrap();
        assert_eq!(ts.offload_hops, 2);
        assert!(ts.accounted());
    }

    #[test]
    fn chain_hop_media_error_fails_the_chain() {
        let (mem, dev, _asid, vba) = setup_with_mapping(1);
        write_node(&dev, 0, 1024, 10);
        write_node(&dev, 1024, 3584, 12);
        write_node(&dev, 3584, 0, 17);
        let spec = chain_spec(&dev, vba);
        let q = dev.create_queue(Some(P), 32);
        let dma = DmaBuffer::alloc(&mem, 4096);
        // The third hop's read fails on the media, like a plain read would.
        dev.fault_plane().fail_reads(vec![2]);
        let comp = dev.execute_full(q, Command::chain_read(vba, &dma, spec), Nanos::ZERO);
        assert_eq!(comp.status, NvmeStatus::MediaError);
        let s = dev.stats();
        assert_eq!((s.chains, s.chain_hops, s.chain_faults), (1, 2, 1));
        // The plan is spent: a resubmitted chain completes.
        let comp = dev.execute_full(q, Command::chain_read(vba, &dma, spec), comp.ready_at);
        assert!(comp.status.is_ok());
        assert_eq!(dev.stats().chain_hops, 5);
    }

    #[test]
    fn chain_is_deterministic_across_runs() {
        let run = || {
            let (mem, dev, _asid, vba) = setup_with_mapping(1);
            write_node(&dev, 0, 512, 1);
            write_node(&dev, 512, 1024, 2);
            write_node(&dev, 1024, 0, 3);
            let spec = chain_spec(&dev, vba);
            let q = dev.create_queue(Some(P), 32);
            let dma = DmaBuffer::alloc(&mem, 4096);
            dev.execute_full(q, Command::chain_read(vba, &dma, spec), Nanos::ZERO)
                .ready_at
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn chain_program_fail_surfaces_code() {
        let (mem, dev, _asid, vba) = setup_with_mapping(1);
        let handle = dev.install_program(Arc::new(
            Program::verify(vec![Op::Fail { code: 7 }]).unwrap(),
        ));
        let q = dev.create_queue(Some(P), 32);
        let dma = DmaBuffer::alloc(&mem, 4096);
        let spec = ChainSpec {
            prog: handle,
            regs: [0; 8],
            base_vba: vba.0,
        };
        let comp = dev.execute_full(q, Command::chain_read(vba, &dma, spec), Nanos::ZERO);
        assert_eq!(comp.status, NvmeStatus::ChainFault(7));
        let s = dev.stats();
        assert_eq!((s.chains, s.chain_hops, s.chain_faults), (1, 1, 1));
    }

    #[test]
    fn chain_hop_budget_enforced() {
        let (mem, dev, _asid, vba) = setup_with_mapping(1);
        // node0 points at itself: an infinite chain.
        write_node(&dev, 0, 0, 9);
        // Program that always resubmits offset 0 (never reads the stop
        // sentinel as such — r1 stays whatever the block says, 0 here
        // means "node 0", not stop).
        let handle = dev.install_program(Arc::new(
            Program::verify(vec![Op::Imm { dst: 0, imm: 0 }, Op::Resubmit { addr: 0 }]).unwrap(),
        ));
        let q = dev.create_queue(Some(P), 32);
        let dma = DmaBuffer::alloc(&mem, 4096);
        let spec = ChainSpec {
            prog: handle,
            regs: [0; 8],
            base_vba: vba.0,
        };
        let comp = dev.execute_full(q, Command::chain_read(vba, &dma, spec), Nanos::ZERO);
        assert_eq!(comp.status, NvmeStatus::ChainFault(TRAP_HOPS));
        assert_eq!(dev.stats().chain_hops, u64::from(MAX_HOPS));
    }

    #[test]
    fn chain_resubmit_into_unmapped_page_faults() {
        let (mem, dev, _asid, vba) = setup_with_mapping(1);
        // node0 points past the single mapped page.
        write_node(&dev, 0, PAGE_SIZE, 1);
        let spec = chain_spec(&dev, vba);
        let q = dev.create_queue(Some(P), 32);
        let dma = DmaBuffer::alloc(&mem, 4096);
        let comp = dev.execute_full(q, Command::chain_read(vba, &dma, spec), Nanos::ZERO);
        assert!(matches!(comp.status, NvmeStatus::TranslationFault(_)));
        let s = dev.stats();
        assert_eq!(s.translation_faults, 1);
        assert_eq!(s.chain_hops, 1, "only the first hop read media");
        assert_eq!(s.chain_faults, 1);
    }

    #[test]
    fn chain_unaligned_resubmit_traps() {
        let (mem, dev, _asid, vba) = setup_with_mapping(1);
        write_node(&dev, 0, 100, 1); // 100 is not sector-aligned
        let spec = chain_spec(&dev, vba);
        let q = dev.create_queue(Some(P), 32);
        let dma = DmaBuffer::alloc(&mem, 4096);
        let comp = dev.execute_full(q, Command::chain_read(vba, &dma, spec), Nanos::ZERO);
        assert_eq!(comp.status, NvmeStatus::ChainFault(TRAP_OOB));
    }

    #[test]
    fn chain_requires_user_queue_and_installed_program() {
        let (mem, dev, _asid, vba) = setup_with_mapping(1);
        write_node(&dev, 0, 0, 1);
        let spec = chain_spec(&dev, vba);
        let dma = DmaBuffer::alloc(&mem, 4096);
        // Kernel queue: no PASID → invalid.
        let kq = dev.create_queue(None, 32);
        let comp = dev.execute_full(kq, Command::chain_read(vba, &dma, spec), Nanos::ZERO);
        assert_eq!(comp.status, NvmeStatus::InvalidField);
        // Unknown program handle → invalid.
        let q = dev.create_queue(Some(P), 32);
        let bogus = ChainSpec {
            prog: ProgHandle(9999),
            ..spec
        };
        let comp = dev.execute_full(q, Command::chain_read(vba, &dma, bogus), Nanos::ZERO);
        assert_eq!(comp.status, NvmeStatus::InvalidField);
    }

    #[test]
    fn chain_registers_persist_across_hops() {
        // A descent-style program: r1 counts remaining hops, seeded by
        // the host; each hop decrements and resubmits the next node until
        // the budget is spent. Register persistence across hops is what
        // makes a level-counted B-tree descent expressible.
        let (mem, dev, _asid, vba) = setup_with_mapping(1);
        for i in 0..4u64 {
            write_node(&dev, i * 512, (i + 1) * 512, i as u8);
        }
        let prog = Arc::new(
            Program::verify(vec![
                // if r1 == 0 → return this block
                Op::Imm { dst: 2, imm: 0 },
                Op::Jmp {
                    cond: Cond::Eq,
                    a: 1,
                    b: 2,
                    skip: 3,
                },
                Op::AluImm {
                    op: bypassd_offload::AluOp::Sub,
                    dst: 1,
                    imm: 1,
                },
                Op::Load {
                    dst: 3,
                    width: Width::U64,
                    base: 2,
                    disp: 0,
                },
                Op::Resubmit { addr: 3 },
                Op::Return,
            ])
            .unwrap(),
        );
        let handle = dev.install_program(prog);
        let q = dev.create_queue(Some(P), 32);
        let dma = DmaBuffer::alloc(&mem, 4096);
        let mut regs = [0u64; 8];
        regs[1] = 2; // two resubmits, then return the third node
        let spec = ChainSpec {
            prog: handle,
            regs,
            base_vba: vba.0,
        };
        let comp = dev.execute_full(q, Command::chain_read(vba, &dma, spec), Nanos::ZERO);
        assert!(comp.status.is_ok());
        let mut out = [0u8; BLOCK];
        dma.read(0, &mut out);
        assert_eq!(out[8], 2, "chain must stop at node 2 (hop budget 2)");
        assert_eq!(dev.stats().chain_hops, 3);
    }

    #[test]
    fn device_stats_surface_atc_and_qos_counters() {
        let (mem, dev, _asid, vba) = setup_with_mapping(1);
        dev.set_atc_enabled(true);
        let q = dev.create_queue(Some(P), 32);
        let dma = DmaBuffer::alloc(&mem, 4096);
        let (_, t1) = dev.execute(q, Command::read(BlockAddr::Vba(vba), 8, &dma), Nanos::ZERO);
        dev.execute(q, Command::read(BlockAddr::Vba(vba), 8, &dma), t1);
        let s = dev.stats();
        assert_eq!((s.atc_hits, s.atc_misses), (1, 1));
        assert_eq!((s.qos_throttled, s.qos_deferred), (0, 0));
        dev.iommu().lock().invalidate_pasid(P);
        assert_eq!(dev.stats().atc_shootdowns, 1);
    }
}
