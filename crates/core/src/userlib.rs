//! UserLib: the interposition shim (§3.2, §4.2, §4.5).
//!
//! A [`UserProcess`] is shared by all of a process's threads and holds
//! the file-info table and the partial-write serialisation list. Each
//! [`UserThread`] owns a private PASID-bound NVMe queue pair and pinned
//! DMA buffer, so threads never synchronise on the data path (the paper's
//! explanation for BypassD's flat latency up to device saturation, §6.3).
//!
//! Locking: the file-info table is a `RwLock` map from fd to a shared
//! `FileEntry`; the data path takes the map lock only in read mode and
//! only long enough to clone the entry's `Arc`. All mutable per-file
//! state (offset/size/flags, the partial-write ranges, the pending
//! non-blocking writes) lives in short per-fd mutexes inside the entry,
//! so threads operating on different files never serialise on a
//! process-wide lock and no `FileState` is cloned per operation.
//!
//! Every timed operation has one body, an `async fn` named `<op>_fut`
//! that task actors await; `<op>` is its blocking shell for thread
//! actors ([`block_on`] of the body). No lock guard is held across an
//! `.await`: a parked task holding one would stall every other actor
//! of its simulation, and the compiler enforces it because task
//! futures must be `Send`. Cold paths (kernel fallback, re-fmap) are
//! boxed so the direct `pread` future stays small.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use bypassd_hw::types::{Vba, PAGE_SIZE, SECTOR_SIZE};
use bypassd_offload::{ChainSpec, ProgHandle, BLOCK, NUM_REGS};
use bypassd_os::process::{Fd, Pid};
use bypassd_os::{Errno, OpenFlags, SysResult};
use bypassd_sim::engine::{block_on, ActorCtx};
use bypassd_sim::time::Nanos;
use bypassd_ssd::device::{BlockAddr, Command};
use bypassd_ssd::dma::DmaBuffer;
use bypassd_ssd::queue::{NvmeStatus, QueueId};
use bypassd_trace::{IoPath, OpRecord, Recorder};

use crate::system::System;

/// Direct attempts per op (faults, or transient media errors) before
/// the op falls back to the kernel path or fails with EIO.
const MAX_ATTEMPTS: u32 = 2;

/// Floor for the adaptive effective queue depth. The device reports
/// congestion pressure only when QoS is enabled, so with QoS off the
/// window never moves.
const MIN_DEPTH: usize = 1;

/// Pressure-free completions required to grow the effective depth back
/// by one slot (the additive half of AIMD).
const RECOVER_AFTER: u32 = 16;

/// Per-open state tracked by UserLib (flags, offset, size, starting VBA —
/// §3.2). Plain scalars: reading it is a copy, not a clone.
#[derive(Debug, Clone, Copy)]
struct FileState {
    vba: Option<Vba>,
    size: u64,
    offset: u64,
    writable: bool,
    /// Permanently on the kernel interface (revoked, §3.6).
    fallback: bool,
    /// High-water mark of preallocated-but-unsized blocks (§5.1).
    prealloc_end: u64,
    /// Optimized-append chunk (0 = disabled).
    append_chunk: u64,
    /// Local size not yet flushed to the kernel.
    size_dirty: bool,
}

/// A write submitted through the non-blocking interface (§5.1) that has
/// not yet been confirmed by the device. Reads overlay these so a reader
/// always sees the latest data even before the write lands.
#[derive(Debug, Clone)]
struct PendingWrite {
    offset: u64,
    data: Vec<u8>,
    ready: Nanos,
}

/// The unconfirmed-write overlay plus a bounded pool of recycled payload
/// buffers, so steady-state non-blocking writes reuse heap capacity
/// instead of cloning every payload into a fresh allocation.
#[derive(Debug, Default)]
struct PendingWrites {
    writes: Vec<PendingWrite>,
    /// Recycled payload `Vec`s from pruned entries (capped at
    /// [`PendingWrites::SPARE_CAP`]).
    spare: Vec<Vec<u8>>,
}

impl PendingWrites {
    const SPARE_CAP: usize = 64;

    fn recycle(&mut self, data: Vec<u8>) {
        if self.spare.len() < Self::SPARE_CAP {
            self.spare.push(data);
        }
    }
}

/// All per-fd state, behind its own locks so operations on different
/// files never contend and the process-wide table lock stays read-mostly.
#[derive(Debug)]
struct FileEntry {
    state: Mutex<FileState>,
    /// In-flight partial (read-modify-write) byte ranges on this file.
    partials: Mutex<Vec<(u64, u64)>>,
    /// Unconfirmed non-blocking writes (§5.1 enhancement).
    pending: Mutex<PendingWrites>,
    /// Mirrors `pending.writes.len()` so reads can skip the overlay
    /// locks entirely when no non-blocking writes are outstanding.
    pending_count: AtomicUsize,
    /// Set when the fd is closed (or replaced), invalidating any
    /// thread-local cached handle to this entry.
    closed: AtomicBool,
}

impl FileEntry {
    fn new(state: FileState) -> Arc<Self> {
        Arc::new(FileEntry {
            state: Mutex::new(state),
            partials: Mutex::new(Vec::new()),
            pending: Mutex::new(PendingWrites::default()),
            pending_count: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
        })
    }
}

/// Per-operation stage accumulator threaded through the data path, so
/// one `pread`/`pwrite` — however many device round trips, retries and
/// kernel excursions it takes — yields a single attributed
/// [`OpRecord`].
#[derive(Clone, Copy)]
struct OpScratch {
    userlib: Nanos,
    device_span: Nanos,
    user_copy: Nanos,
    kernel: Nanos,
    path: IoPath,
    faults: u32,
}

impl OpScratch {
    fn new() -> OpScratch {
        OpScratch {
            userlib: Nanos::ZERO,
            device_span: Nanos::ZERO,
            user_copy: Nanos::ZERO,
            kernel: Nanos::ZERO,
            path: IoPath::Direct,
            faults: 0,
        }
    }

    /// Marks the op as kernel-fallback unless a revocation already
    /// claimed it (revocation is the more specific cause).
    fn fall_back(&mut self) {
        if self.path == IoPath::Direct {
            self.path = IoPath::Fallback;
        }
    }
}

/// Process-wide UserLib state, shared between threads.
pub struct UserProcess {
    system: System,
    pid: Pid,
    /// fd → entry. Read-locked (shared) on the data path; write-locked
    /// only by open/close.
    files: RwLock<HashMap<Fd, Arc<FileEntry>>>,
    direct_ops: AtomicU64,
    fallback_ops: AtomicU64,
    recorder: Arc<Recorder>,
}

impl UserProcess {
    /// Starts a process with the given credentials.
    pub fn start(system: &System, uid: u32, gid: u32) -> Arc<UserProcess> {
        Self::with_pid(system, system.kernel().spawn_process(uid, gid))
    }

    /// Starts a process inside a container (mount namespace rooted at
    /// `root`, §5.2). BypassD works unmodified in containers: the kernel
    /// scopes every path the process can name, so it can only fmap — and
    /// therefore directly access — files inside its namespace.
    ///
    /// # Errors
    /// `NoEnt`/`NotDir` if `root` is not an existing directory.
    pub fn start_in(
        system: &System,
        uid: u32,
        gid: u32,
        root: &str,
    ) -> SysResult<Arc<UserProcess>> {
        let pid = system.kernel().spawn_process_in(uid, gid, root)?;
        Ok(Self::with_pid(system, pid))
    }

    /// Wraps the kernel process `pid` in UserLib's per-process state.
    fn with_pid(system: &System, pid: Pid) -> Arc<UserProcess> {
        let proc = Arc::new(UserProcess {
            system: system.clone(),
            pid,
            files: RwLock::new(HashMap::new()),
            direct_ops: AtomicU64::new(0),
            fallback_ops: AtomicU64::new(0),
            recorder: Arc::clone(system.recorder()),
        });
        system.metrics().register(&format!("proc.{pid}"), &proc);
        proc
    }

    /// The process id.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The wired system.
    pub fn system(&self) -> &System {
        &self.system
    }

    /// Creates a thread handle with a private queue pair and DMA buffer
    /// (setup-time work, untimed). The queue pair is bound through the
    /// kernel driver, which registers this process's QoS share with the
    /// device arbiter.
    pub fn thread(self: &Arc<Self>) -> UserThread {
        self.thread_with(64, 1 << 20)
    }

    /// [`thread`](Self::thread) with explicit queue depth and DMA buffer
    /// size; the defaults above match the paper's single-process
    /// configuration. The buffer's frames are pinned for the thread's
    /// life, but each op gives their host pages back once it is done
    /// with its bytes, so an idle thread holds no DMA memory whatever
    /// `dma_len` is. `dma_len` bounds one device command's bytes (and
    /// with `queue_depth`, a flight slot's).
    pub fn thread_with(self: &Arc<Self>, queue_depth: usize, dma_len: usize) -> UserThread {
        let queue_depth = queue_depth.max(1);
        let qid = self.system.kernel().bind_user_queue(self.pid, queue_depth);
        let dma = DmaBuffer::alloc(self.system.mem(), dma_len.max(SECTOR_SIZE as usize));
        UserThread {
            proc: Arc::clone(self),
            qid,
            dma,
            queue_depth,
            effective_depth: queue_depth,
            clean_streak: 0,
            pressure_events: 0,
            cached_fd: None,
            batch: BatchScratch::with_capacity(queue_depth),
        }
    }

    /// (direct I/Os, kernel-fallback I/Os) completed so far.
    pub fn op_counts(&self) -> (u64, u64) {
        (
            // ordering: Relaxed — monotonic stats counter; read only for reporting, publishes no other memory.
            self.direct_ops.load(Ordering::Relaxed),
            self.fallback_ops.load(Ordering::Relaxed),
        )
    }

    /// Enables the optimized append enhancement (§5.1) for `fd`:
    /// preallocate `chunk` bytes at a time and overwrite them directly,
    /// flushing the size at fsync/close.
    pub fn enable_optimized_append(&self, fd: Fd, chunk: u64) {
        if let Ok(entry) = self.entry(fd) {
            let mut st = entry.state.lock();
            st.append_chunk = chunk.max(SECTOR_SIZE);
            st.prealloc_end = st.size;
        }
    }

    /// Shared handle to `fd`'s entry: one read lock + one `Arc` clone.
    fn entry(&self, fd: Fd) -> SysResult<Arc<FileEntry>> {
        self.files.read().get(&fd).cloned().ok_or(Errno::BadF)
    }
}

impl bypassd_trace::MetricSource for UserProcess {
    fn collect(&self, out: &mut Vec<bypassd_trace::Metric>) {
        use bypassd_trace::Metric;
        out.push(Metric::counter(
            "direct_ops",
            // ordering: Relaxed — monotonic stats counter; read only for reporting, publishes no other memory.
            self.direct_ops.load(Ordering::Relaxed),
        ));
        out.push(Metric::counter(
            "fallback_ops",
            // ordering: Relaxed — monotonic stats counter; read only for reporting, publishes no other memory.
            self.fallback_ops.load(Ordering::Relaxed),
        ));
        out.push(Metric::gauge("open_files", self.files.read().len() as i64));
    }
}

impl std::fmt::Debug for UserProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UserProcess")
            .field("pid", &self.pid)
            .field("open_files", &self.files.read().len())
            .finish()
    }
}

/// One request in a [`UserThread::pread_batch`] call.
pub struct ReadReq<'a> {
    /// Absolute file offset to read from.
    pub offset: u64,
    /// Destination; its length is the read size.
    pub buf: &'a mut [u8],
}

/// One chain request in a [`UserThread::pread_chain_batch`] call: a
/// verified program descends from `start`, and the chain's final 512 B
/// block lands in `buf`.
pub struct ChainReq<'a> {
    /// Byte offset (sector-aligned) of the chain's first block.
    pub start: u64,
    /// Initial register file (lookup key, level budget, …).
    pub regs: [u64; bypassd_offload::NUM_REGS],
    /// Destination for the final block; at least [`bypassd_offload::BLOCK`] bytes.
    pub buf: &'a mut [u8],
}

/// The kind of one direct device command. It decides how the command is
/// built and, on the single-command and flight paths, how many bytes come
/// back and which sequential op re-issues a demoted slot.
#[derive(Clone, Copy)]
enum IoKind<'r> {
    Read,
    Write,
    /// An offload chain: the device runs the program from these
    /// registers and returns one final block.
    Chain(ProgHandle, &'r [u64; NUM_REGS]),
}

impl IoKind<'_> {
    /// The command over `span` bytes at file offset `off` of the mapping
    /// based at `vba` (a chain resolves its hops against that base).
    fn command(self, vba: Vba, off: u64, span: u64, dma: &DmaBuffer) -> Command<'_> {
        let addr = BlockAddr::Vba(vba.offset(off));
        let sectors = (span / SECTOR_SIZE) as u32;
        match self {
            IoKind::Read => Command::read(addr, sectors, dma),
            IoKind::Write => Command::write(addr, sectors, dma),
            IoKind::Chain(prog, regs) => {
                let spec = ChainSpec {
                    prog,
                    regs: *regs,
                    base_vba: vba.0,
                };
                Command::chain_read(vba.offset(off), dma, spec)
            }
        }
    }
}

/// One op on the single-command path, with its user buffer.
enum DirectOp<'b> {
    /// `len` bytes at `offset` into `buf`, which may be longer (a kernel
    /// fallback reads into all of it).
    Read {
        buf: &'b mut [u8],
        offset: u64,
        len: u64,
    },
    Write {
        data: &'b [u8],
        offset: u64,
    },
    /// A chain from `start`; its final block lands in `buf`.
    Chain {
        prog: ProgHandle,
        regs: &'b [u64; NUM_REGS],
        start: u64,
        buf: &'b mut [u8],
    },
}

impl<'b> DirectOp<'b> {
    /// The command kind and the file range `[offset, offset + len)` the
    /// op moves.
    fn target(&self) -> (IoKind<'b>, u64, u64) {
        match self {
            DirectOp::Read { offset, len, .. } => (IoKind::Read, *offset, *len),
            DirectOp::Write { data, offset } => (IoKind::Write, *offset, data.len() as u64),
            DirectOp::Chain {
                prog, regs, start, ..
            } => (IoKind::Chain(*prog, regs), *start, BLOCK as u64),
        }
    }
}

/// The requests of one batched call, or one flight-sized window of them.
enum Flight<'r, 'a> {
    Reads(&'r mut [ReadReq<'a>]),
    Chains(ProgHandle, &'r mut [ChainReq<'a>]),
}

impl<'a> Flight<'_, 'a> {
    fn len(&self) -> usize {
        match self {
            Flight::Reads(reqs) => reqs.len(),
            Flight::Chains(_, reqs) => reqs.len(),
        }
    }

    /// Slot `i`'s command kind, file offset, returned bytes and
    /// destination buffer.
    fn slot(&mut self, i: usize) -> (IoKind<'_>, u64, usize, &mut [u8]) {
        match self {
            Flight::Reads(reqs) => {
                let r = &mut reqs[i];
                (IoKind::Read, r.offset, r.buf.len(), &mut *r.buf)
            }
            Flight::Chains(prog, reqs) => {
                let ChainReq { start, regs, buf } = &mut reqs[i];
                (IoKind::Chain(*prog, regs), *start, BLOCK, &mut **buf)
            }
        }
    }

    /// Requests `base..base + n`.
    fn window(&mut self, base: usize, n: usize) -> Flight<'_, 'a> {
        match self {
            Flight::Reads(reqs) => Flight::Reads(&mut reqs[base..base + n]),
            Flight::Chains(prog, reqs) => Flight::Chains(*prog, &mut reqs[base..base + n]),
        }
    }
}

/// Preallocated SoA in-flight table for batched submission: one slot per
/// hardware queue entry, reused across batches so the steady state never
/// allocates. Parallel columns rather than a `Vec<struct>` so the reap
/// loop scans only the columns it needs.
struct BatchScratch {
    /// Device command ids, in submission order.
    cids: Vec<u16>,
    /// Reap staging, drained from the device in one locked pass.
    comps: Vec<bypassd_ssd::queue::Completion>,
}

impl BatchScratch {
    fn with_capacity(depth: usize) -> BatchScratch {
        BatchScratch {
            cids: Vec::with_capacity(depth),
            comps: Vec::with_capacity(depth),
        }
    }

    /// The flight slot submitted as command `cid`.
    fn slot_of(&self, cid: u16) -> usize {
        self.cids
            .iter()
            .position(|&c| c == cid)
            .expect("reaped a cid this flight never submitted")
    }
}

/// A thread's handle: private queue + DMA buffer.
pub struct UserThread {
    proc: Arc<UserProcess>,
    qid: QueueId,
    dma: DmaBuffer,
    /// Hardware depth of the queue pair.
    queue_depth: usize,
    /// Adaptive submission window (AIMD on device pressure signals).
    /// Stays at `queue_depth` while the device never reports pressure —
    /// i.e. always, unless QoS is enabled.
    effective_depth: usize,
    /// Pressure-free completions since the last depth increase.
    clean_streak: u32,
    /// Total congestion signals observed on this queue.
    pressure_events: u64,
    /// Last entry resolved by this thread: repeated ops on the same fd
    /// skip the process-wide table lock and map lookup entirely.
    cached_fd: Option<(Fd, Arc<FileEntry>)>,
    /// SoA in-flight table for [`UserThread::pread_batch`].
    batch: BatchScratch,
}

impl std::fmt::Debug for UserThread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UserThread")
            .field("pid", &self.proc.pid)
            .field("queue", &self.qid)
            .finish()
    }
}

/// Outcome of one direct device round trip.
enum DirectIo {
    Done,
    Revoked,
    Fault,
}

impl UserThread {
    /// The owning process.
    pub fn process(&self) -> &Arc<UserProcess> {
        &self.proc
    }

    fn kernel(&self) -> &Arc<bypassd_os::Kernel> {
        self.proc.system.kernel()
    }

    /// Resolves `fd` to its entry, consulting the thread-local cache
    /// first: the steady state (many ops on one fd) costs an fd compare
    /// and one atomic load instead of a process-wide `RwLock` + map
    /// lookup per op.
    fn entry_cached(&mut self, fd: Fd) -> SysResult<Arc<FileEntry>> {
        if let Some((cfd, entry)) = &self.cached_fd {
            // ordering: Relaxed — the flag only revalidates an Arc this thread holds;
            // close() publishes the removal via the conductor-handoff mutex.
            if *cfd == fd && !entry.closed.load(Ordering::Relaxed) {
                return Ok(Arc::clone(entry));
            }
        }
        let entry = self.proc.entry(fd)?;
        self.cached_fd = Some((fd, Arc::clone(&entry)));
        Ok(entry)
    }

    fn cost(&self) -> bypassd_os::CostModel {
        *self.kernel().cost()
    }

    /// Current adaptive submission window (== hardware depth unless the
    /// device has signalled congestion).
    pub fn effective_depth(&self) -> usize {
        self.effective_depth
    }

    /// Congestion signals observed on this thread's queue so far.
    pub fn pressure_events(&self) -> u64 {
        self.pressure_events
    }

    /// AIMD reaction to the device's congestion bit: halve the window on
    /// pressure, creep back one slot per [`RECOVER_AFTER`] clean
    /// completions. A no-op while the window is full and pressure never
    /// arrives (QoS disabled), keeping the default path untouched.
    fn note_pressure(&mut self, pressure: bool) {
        if pressure {
            self.pressure_events += 1;
            self.effective_depth = (self.effective_depth / 2).max(MIN_DEPTH);
            self.clean_streak = 0;
        } else if self.effective_depth < self.queue_depth {
            self.clean_streak += 1;
            if self.clean_streak >= RECOVER_AFTER {
                self.effective_depth += 1;
                self.clean_streak = 0;
            }
        }
    }

    // ---- open/close ----

    /// Opens (optionally creating) a file for BypassD access: forwards
    /// the open to the kernel with BypassD intent and issues `fmap()`
    /// (Table 3). A denied fmap silently falls back to the kernel
    /// interface.
    ///
    /// # Errors
    /// Kernel open errors (`NoEnt`, `Perm`, …).
    pub fn open_with(
        &mut self,
        ctx: &mut ActorCtx,
        path: &str,
        writable: bool,
        create: bool,
    ) -> SysResult<Fd> {
        block_on(self.open_with_fut(ctx, path, writable, create))
    }

    /// The async body of [`UserThread::open_with`].
    pub async fn open_with_fut(
        &mut self,
        ctx: &mut ActorCtx,
        path: &str,
        writable: bool,
        create: bool,
    ) -> SysResult<Fd> {
        let mut flags = if writable {
            OpenFlags::rdwr_direct()
        } else {
            OpenFlags::rdonly_direct()
        }
        .bypassd();
        if create {
            flags = flags.creat();
        }
        let kernel = Arc::clone(self.kernel());
        let fd = kernel
            .sys_open_fut(ctx, self.proc.pid, path, flags, 0o644)
            .await?;
        let vba = kernel
            .sys_fmap_fut(ctx, self.proc.pid, fd, writable)
            .await?;
        let size = kernel.sys_fstat_fut(ctx, self.proc.pid, fd).await?.size;
        let fallback = vba.is_null();
        if fallback {
            kernel.mark_kernel_fallback(self.proc.pid, fd)?;
        }
        let replaced = self.proc.files.write().insert(
            fd,
            FileEntry::new(FileState {
                vba: (!fallback).then_some(vba),
                size,
                offset: 0,
                writable,
                fallback,
                prealloc_end: size,
                append_chunk: 0,
                size_dirty: false,
            }),
        );
        if let Some(old) = replaced {
            // ordering: Relaxed — invalidates cached handles; the map write above is
            // published by the engine's conductor handoff, not by this flag.
            old.closed.store(true, Ordering::Relaxed);
        }
        Ok(fd)
    }

    /// Opens an existing file (`writable` selects O_RDONLY/O_RDWR).
    ///
    /// # Errors
    /// As [`UserThread::open_with`].
    pub fn open(&mut self, ctx: &mut ActorCtx, path: &str, writable: bool) -> SysResult<Fd> {
        block_on(self.open_fut(ctx, path, writable))
    }

    /// The async body of [`UserThread::open`].
    pub async fn open_fut(
        &mut self,
        ctx: &mut ActorCtx,
        path: &str,
        writable: bool,
    ) -> SysResult<Fd> {
        self.open_with_fut(ctx, path, writable, false).await
    }

    /// Closes a file: flushes a dirty local size, then forwards to the
    /// kernel (which detaches file table entries — Table 3).
    ///
    /// # Errors
    /// `BadF`.
    pub fn close(&mut self, ctx: &mut ActorCtx, fd: Fd) -> SysResult<()> {
        block_on(self.close_fut(ctx, fd))
    }

    /// The async body of [`UserThread::close`].
    pub async fn close_fut(&mut self, ctx: &mut ActorCtx, fd: Fd) -> SysResult<()> {
        self.flush_writes_fut(ctx, fd).await?;
        let entry = self.proc.files.write().remove(&fd).ok_or(Errno::BadF)?;
        // ordering: Relaxed — invalidates cached handles; the map removal above is
        // published by the engine's conductor handoff, not by this flag.
        entry.closed.store(true, Ordering::Relaxed);
        let size_dirty = {
            let st = entry.state.lock();
            st.size_dirty.then_some(st.size)
        };
        let kernel = Arc::clone(self.kernel());
        if let Some(size) = size_dirty {
            kernel
                .sys_set_size_fut(ctx, self.proc.pid, fd, size)
                .await?;
        }
        kernel.sys_close_fut(ctx, self.proc.pid, fd).await
    }

    /// Current size as tracked by UserLib.
    ///
    /// # Errors
    /// `BadF`.
    pub fn size(&self, fd: Fd) -> SysResult<u64> {
        Ok(self.proc.entry(fd)?.state.lock().size)
    }

    /// Repositions the file offset.
    ///
    /// # Errors
    /// `BadF`.
    pub fn lseek(&mut self, fd: Fd, pos: u64) -> SysResult<u64> {
        self.proc.entry(fd)?.state.lock().offset = pos;
        Ok(pos)
    }

    // ---- data path ----

    /// One direct device round trip: `kind`'s command over `span` bytes
    /// at file offset `off` of the mapping based at `vba`, reading into /
    /// writing from the thread DMA buffer at offset 0.
    #[allow(clippy::too_many_arguments)]
    async fn direct_io_fut(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        entry: &FileEntry,
        kind: IoKind<'_>,
        vba: Vba,
        off: u64,
        span: u64,
        scratch: &mut OpScratch,
    ) -> SysResult<DirectIo> {
        debug_assert!(span.is_multiple_of(SECTOR_SIZE) && span > 0);
        ctx.sleep(self.cost().userlib_overhead).await;
        scratch.userlib += self.cost().userlib_overhead;
        let mut media_retries = 0u32;
        loop {
            let cmd = kind.command(vba, off, span, &self.dma);
            let submit = ctx.now();
            let comp = self
                .proc
                .system
                .device()
                .execute_full(self.qid, cmd, submit);
            self.note_pressure(comp.pressure);
            ctx.sleep_until(comp.ready_at).await;
            scratch.device_span += comp.ready_at.saturating_sub(submit);
            match comp.status {
                NvmeStatus::Success => return Ok(DirectIo::Done),
                NvmeStatus::TranslationFault(_) => {
                    return Box::pin(self.refmap_after_fault_fut(ctx, fd, entry, scratch)).await
                }
                NvmeStatus::MediaError => {
                    // Transient media errors are retried in place (the
                    // kernel never sees them on the direct path); after
                    // `MAX_ATTEMPTS` the op fails with EIO.
                    media_retries += 1;
                    if media_retries >= MAX_ATTEMPTS {
                        return Err(Errno::Io);
                    }
                }
                // A chain's program `Fail` or engine trap, or an invalid
                // submission.
                _ => return Err(Errno::Inval),
            }
        }
    }

    /// The single-command path behind `pread`, `pread_chain`, in-place
    /// `pwrite` and optimized appends: one
    /// [`direct_io_fut`](Self::direct_io_fut) round trip per DMA-buffer
    /// chunk, and the one fault/retry tail. A write chunk the op covers
    /// only in part is read first and patched (the read-modify-write of
    /// §4.5.1; callers serialise overlapping ones). After a translation
    /// fault it picks up the re-fmapped VBA and retries the op, up to
    /// [`MAX_ATTEMPTS`]; after revocation or the last attempt it
    /// serves the op on its fallback path.
    ///
    /// The op gives back the DMA pages it used once it is done with
    /// them: a read's in its consuming copy-out, a write's after its
    /// last completion, and on any error or fallback before leaving.
    async fn direct_fut(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        entry: &FileEntry,
        mut vba: Vba,
        mut op: DirectOp<'_>,
        scratch: &mut OpScratch,
    ) -> SysResult<usize> {
        let (_, offset, len) = op.target();
        let start = offset - offset % SECTOR_SIZE;
        let end = (offset + len).div_ceil(SECTOR_SIZE) * SECTOR_SIZE;
        let mut attempts = 0;
        'attempt: loop {
            let mut pos = start;
            // Set while a partly covered write chunk's old sectors are read.
            let mut pre_read = false;
            while pos < end {
                let span = (end - pos).min(self.dma.len() as u64);
                let lo = offset.max(pos);
                let hi = (offset + len).min(pos + span);
                let mut kind = op.target().0;
                if let DirectOp::Write { data, .. } = &op {
                    pre_read = !pre_read && (lo > pos || hi < pos + span);
                    if pre_read {
                        kind = IoKind::Read;
                    } else {
                        let copy = self.cost().user_copy(hi - lo);
                        ctx.sleep(copy).await;
                        scratch.user_copy += copy;
                        self.dma.write(
                            (lo - pos) as usize,
                            &data[(lo - offset) as usize..(hi - offset) as usize],
                        );
                    }
                }
                match self
                    .direct_io_fut(ctx, fd, entry, kind, vba, pos, span, scratch)
                    .await
                {
                    Ok(DirectIo::Done) => {}
                    Ok(DirectIo::Revoked) => break 'attempt,
                    Err(e) => {
                        self.release_dma(start, end);
                        return Err(e);
                    }
                    Ok(DirectIo::Fault) => {
                        attempts += 1;
                        if attempts >= MAX_ATTEMPTS {
                            // Persistent fault (e.g. a hole): the
                            // fallback path handles this one op.
                            break 'attempt;
                        }
                        // The fault handler re-fmapped the file; a
                        // sibling thread's close() unmaps the whole
                        // per-process mapping, so the fresh map may live
                        // at a new VBA — retrying the stale one would
                        // fault forever.
                        let refreshed = entry.state.lock().vba;
                        let Some(fresh) = refreshed else {
                            break 'attempt;
                        };
                        vba = fresh;
                        continue 'attempt;
                    }
                }
                if pre_read {
                    continue;
                }
                if let DirectOp::Read { buf, .. } | DirectOp::Chain { buf, .. } = &mut op {
                    let copy = self.cost().user_copy(span.min(len));
                    ctx.sleep(copy).await;
                    scratch.user_copy += copy;
                    self.dma.consume(
                        (lo - pos) as usize,
                        &mut buf[(lo - offset) as usize..(hi - offset) as usize],
                    );
                }
                pos += span;
            }
            if let DirectOp::Write { .. } = op {
                self.release_dma(start, end);
            }
            // ordering: Relaxed — monotonic stats counter; read only for reporting, publishes no other memory.
            self.proc.direct_ops.fetch_add(1, Ordering::Relaxed);
            // Read-after-write consistency for non-blocking writes:
            // overlay any unconfirmed data (§5.1). One relaxed load skips
            // both overlay locks in the common no-async case.
            if let DirectOp::Read { buf, .. } = &mut op {
                // ordering: Relaxed — mirror of the pending length, written under the
                // pending lock; racing pushes resolve via the actor schedule.
                if entry.pending_count.load(Ordering::Relaxed) > 0 {
                    Self::prune_pending(entry, ctx.now());
                    Self::overlay_pending(entry, &mut buf[..len as usize], offset);
                }
            }
            return Ok(len as usize);
        }
        self.release_dma(start, end);
        Box::pin(self.fallback_fut(ctx, fd, op, scratch)).await
    }

    /// Gives back the DMA pages of a [`direct_fut`](Self::direct_fut) op
    /// over the sectors `[start, end)`: its chunks all start at offset 0.
    fn release_dma(&self, start: u64, end: u64) {
        let used = (end - start).min(self.dma.len() as u64);
        self.dma.release(0, used as usize);
    }

    /// Serves `op` after fallback or revocation: kernel `pread`/`pwrite`
    /// timed into the scratch's kernel stage, or a chain interpreted
    /// host-side (one kernel read per hop).
    async fn fallback_fut(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        op: DirectOp<'_>,
        scratch: &mut OpScratch,
    ) -> SysResult<usize> {
        let (kernel, pid, t0) = (Arc::clone(self.kernel()), self.proc.pid, ctx.now());
        let result = match op {
            DirectOp::Read { buf, offset, .. } => {
                kernel.sys_pread_fut(ctx, pid, fd, buf, offset).await
            }
            DirectOp::Write { data, offset } => {
                let r = kernel.sys_pwrite_fut(ctx, pid, fd, data, offset).await;
                // A dirty size flush at fsync/close must not undo the kernel's growth.
                if let (Ok(n), Ok(e)) = (&r, self.proc.entry(fd)) {
                    let mut s = e.state.lock();
                    s.size = s.size.max(offset + *n as u64);
                }
                r
            }
            DirectOp::Chain {
                prog,
                regs,
                start,
                buf,
            } => {
                let hops = self.chain_host_fallback_fut(ctx, fd, prog, *regs, start, buf, scratch);
                return Box::pin(hops).await;
            }
        };
        // ordering: Relaxed — monotonic stats counter; read only for reporting, publishes no other memory.
        self.proc.fallback_ops.fetch_add(1, Ordering::Relaxed);
        scratch.fall_back();
        scratch.kernel += ctx.now().saturating_sub(t0);
        result
    }

    /// Handles a device translation fault on a direct op: re-fmaps the
    /// file (§3.6) and either refreshes the entry's VBA (`Fault` — the
    /// caller retries) or switches the fd to the kernel interface
    /// (`Revoked`).
    async fn refmap_after_fault_fut(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        entry: &FileEntry,
        scratch: &mut OpScratch,
    ) -> SysResult<DirectIo> {
        scratch.faults += 1;
        // Revocation or growth race: re-fmap (§3.6).
        let kernel = Arc::clone(self.kernel());
        let writable = entry.state.lock().writable;
        let fmap_start = ctx.now();
        let vba = kernel
            .sys_fmap_fut(ctx, self.proc.pid, fd, writable)
            .await?;
        scratch.kernel += ctx.now().saturating_sub(fmap_start);
        let revoked = vba.is_null();
        {
            let mut st = entry.state.lock();
            st.fallback |= revoked;
            st.vba = (!revoked).then_some(vba);
        }
        if !revoked {
            return Ok(DirectIo::Fault);
        }
        kernel.mark_kernel_fallback(self.proc.pid, fd)?;
        scratch.path = IoPath::Revoked;
        Ok(DirectIo::Revoked)
    }

    /// Emits the attributed [`OpRecord`] for one finished top-level op.
    /// Purely passive: never advances the clock, costs one relaxed
    /// atomic load when tracing is off.
    fn record_op(
        &self,
        ctx: &ActorCtx,
        write: bool,
        result: &SysResult<usize>,
        start: Nanos,
        scratch: &OpScratch,
    ) {
        let end = ctx.now();
        self.proc.recorder.record_op(|| OpRecord {
            pid: self.proc.pid,
            path: scratch.path,
            write,
            bytes: result.as_ref().map_or(0, |n| *n as u64),
            start,
            end,
            userlib: scratch.userlib,
            device_span: scratch.device_span,
            user_copy: scratch.user_copy,
            kernel: scratch.kernel,
            faults: scratch.faults,
        });
    }

    /// `pread()`: issued directly from userspace (§4.2); falls back to
    /// the kernel after revocation.
    ///
    /// # Errors
    /// `BadF`, kernel-path errors after fallback.
    pub fn pread(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        buf: &mut [u8],
        offset: u64,
    ) -> SysResult<usize> {
        block_on(self.pread_fut(ctx, fd, buf, offset))
    }

    /// The async body of [`UserThread::pread`].
    pub async fn pread_fut(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        buf: &mut [u8],
        offset: u64,
    ) -> SysResult<usize> {
        let op_start = ctx.now();
        let mut scratch = OpScratch::new();
        let result = self
            .pread_inner_fut(ctx, fd, buf, offset, &mut scratch)
            .await;
        self.record_op(ctx, false, &result, op_start, &scratch);
        result
    }

    async fn pread_inner_fut(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        buf: &mut [u8],
        offset: u64,
        scratch: &mut OpScratch,
    ) -> SysResult<usize> {
        let entry = self.entry_cached(fd)?;
        // Scoped so the snapshot is not carried across the I/O's awaits.
        let (vba, len) = {
            let mut st = *entry.state.lock();
            if !st.fallback && offset >= st.size {
                // Another process may have grown the file (its new FTEs
                // are already visible through the shared fragments, §4.1)
                // — the size, however, is kernel metadata: refresh it.
                let kernel = Arc::clone(self.kernel());
                let stat_start = ctx.now();
                let stat = Box::pin(kernel.sys_fstat_fut(ctx, self.proc.pid, fd)).await;
                scratch.kernel += ctx.now().saturating_sub(stat_start);
                let size = stat?.size;
                {
                    let mut s = entry.state.lock();
                    s.size = s.size.max(size);
                    st = *s;
                }
                if offset >= st.size {
                    return Ok(0);
                }
            }
            let len = (buf.len() as u64).min(st.size.saturating_sub(offset));
            (st.vba.filter(|_| !st.fallback), len)
        };
        let op = DirectOp::Read { buf, offset, len };
        match vba {
            Some(vba) => self.direct_fut(ctx, fd, &entry, vba, op, scratch).await,
            None => Box::pin(self.fallback_fut(ctx, fd, op, scratch)).await,
        }
    }

    /// Batched `pread` (§4.2 batching): submits up to a full submission
    /// window of reads with one userlib/doorbell charge per flight
    /// (doorbell coalescing), waits once for the latest completion, and
    /// drains the completion queue in a single locked pass instead of
    /// one device round trip per op.
    ///
    /// The fast path requires every request to be sector-aligned (offset
    /// and length), non-empty, within the file, and no larger than the
    /// per-slot DMA budget (`dma.len() / queue_depth`); otherwise — or on
    /// a kernel-fallback fd — the whole batch is served by sequential
    /// [`UserThread::pread`] calls with identical semantics. Individual
    /// translation faults inside a flight are retried sequentially.
    ///
    /// Returns the total bytes read.
    ///
    /// # Errors
    /// `BadF`, kernel-path errors after fallback.
    pub fn pread_batch(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        reqs: &mut [ReadReq<'_>],
    ) -> SysResult<usize> {
        block_on(self.pread_batch_fut(ctx, fd, reqs))
    }

    /// The async body of [`UserThread::pread_batch`].
    pub async fn pread_batch_fut(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        reqs: &mut [ReadReq<'_>],
    ) -> SysResult<usize> {
        self.batch_fut(ctx, fd, Flight::Reads(reqs)).await
    }

    /// The window-splitting loop behind [`UserThread::pread_batch`] and
    /// [`UserThread::pread_chain_batch`] (fast-path rules as documented
    /// there).
    async fn batch_fut(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        mut reqs: Flight<'_, '_>,
    ) -> SysResult<usize> {
        let n = reqs.len();
        if n == 0 {
            return Ok(0);
        }
        let entry = self.entry_cached(fd)?;
        let st = *entry.state.lock();
        let slot = self.dma.len() / self.queue_depth;
        let vba = st.vba.filter(|_| {
            !st.fallback
                && (0..n).all(|i| {
                    let (_, off, bytes, buf) = reqs.slot(i);
                    off.is_multiple_of(SECTOR_SIZE)
                        && (bytes as u64).is_multiple_of(SECTOR_SIZE)
                        && bytes > 0
                        && bytes <= slot
                        && buf.len() >= bytes
                        && off + bytes as u64 <= st.size
                })
        });
        let mut total = 0;
        let Some(vba) = vba else {
            for i in 0..n {
                total += self.reissue_fut(ctx, fd, &mut reqs, i).await?;
            }
            return Ok(total);
        };
        let window = self.effective_depth.clamp(1, self.queue_depth);
        let mut base = 0;
        while base < n {
            let w = window.min(n - base);
            total += self
                .flight_fut(ctx, fd, &entry, vba, slot, reqs.window(base, w))
                .await?;
            base += w;
        }
        Ok(total)
    }

    /// One batched flight of up to `effective_depth` direct commands,
    /// plain reads or chains: submit all, ring once, wait once, reap
    /// once. A slot that faults mid-flight or loses its CQ entry is
    /// re-issued on its sequential op.
    async fn flight_fut(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        entry: &FileEntry,
        vba: Vba,
        slot: usize,
        mut reqs: Flight<'_, '_>,
    ) -> SysResult<usize> {
        let n = reqs.len();
        let op_start = ctx.now();
        // One userlib + doorbell charge for the whole flight.
        let overhead = self.cost().userlib_overhead;
        ctx.sleep(overhead).await;
        let submit_now = ctx.now();
        self.batch.cids.clear();
        let submitted = {
            let dma = &self.dma;
            let cmds = (0..n).map(|i| {
                let (kind, off, bytes, _) = reqs.slot(i);
                let mut cmd = kind.command(vba, off, bytes as u64, dma);
                cmd.dma_offset = i * slot;
                cmd
            });
            self.proc
                .system
                .device()
                .submit_batch(self.qid, cmds, submit_now, &mut self.batch.cids)
        };
        let Ok(latest) = submitted else {
            // The private queue was unexpectedly full. Nothing was
            // submitted: serve the flight sequentially.
            let mut total = 0;
            for i in 0..n {
                total += self.reissue_fut(ctx, fd, &mut reqs, i).await?;
            }
            return Ok(total);
        };
        // Completion batching: wait once for the latest posted ready
        // time, then drain the CQ in one locked pass into reused scratch.
        ctx.sleep_until(latest).await;
        self.batch.comps.clear();
        self.proc
            .system
            .device()
            .reap_ready_into(self.qid, ctx.now(), n, &mut self.batch.comps);
        // Copy out every successful slot before any re-issue: a re-issued
        // op runs on the sequential path, whose DMA chunk at offset 0
        // overlaps slot 0 and whose pages it gives back. Copy-outs do
        // not advance the clock, so this order moves no virtual time.
        // Slots of whole pages are consumed (copied out, pages given
        // back); slots that share a page are read and given back together.
        let whole_pages = slot.is_multiple_of(PAGE_SIZE as usize);
        let mut copy_total = Nanos::ZERO;
        let mut ok_bytes = 0usize;
        let mut ok_ops = 0u64;
        for k in 0..self.batch.comps.len() {
            let comp = self.batch.comps[k];
            self.note_pressure(comp.pressure);
            if !comp.status.is_ok() {
                continue;
            }
            let i = self.batch.slot_of(comp.cid);
            let (_, _, bytes, buf) = reqs.slot(i);
            let copy = self.cost().user_copy(bytes as u64);
            copy_total += copy;
            if whole_pages {
                self.dma.consume(i * slot, &mut buf[..bytes]);
            } else {
                self.dma.read(i * slot, &mut buf[..bytes]);
            }
            // The flight's one userlib charge goes to its first successful
            // record, so stage totals still sum to the virtual time
            // consumed when a faulted slot is reaped first.
            let record = OpScratch {
                userlib: if ok_ops == 0 { overhead } else { Nanos::ZERO },
                device_span: comp.ready_at.saturating_sub(submit_now),
                user_copy: copy,
                ..OpScratch::new()
            };
            self.record_op(ctx, false, &Ok(bytes), op_start, &record);
            ok_bytes += bytes;
            ok_ops += 1;
        }
        let lost = self.batch.comps.len() < n;
        if !whole_pages || lost {
            // A lost slot's command still filled its DMA bytes.
            self.dma.release(0, n * slot);
        }
        let mut retry_bytes = 0usize;
        for k in 0..self.batch.comps.len() {
            let comp = self.batch.comps[k];
            if !comp.status.is_ok() {
                // Translation fault (revocation or growth race) or a
                // failed chain: the sequential op re-fmaps and retries,
                // or surfaces the program's failure.
                let i = self.batch.slot_of(comp.cid);
                retry_bytes += self.reissue_fut(ctx, fd, &mut reqs, i).await?;
            }
        }
        if lost {
            // Lost CQ entries (injected completion drop): re-issue the
            // un-reaped slots on the sequential path, as a host timeout
            // would.
            for i in 0..n {
                let cid = self.batch.cids[i];
                if !self.batch.comps.iter().any(|c| c.cid == cid) {
                    retry_bytes += self.reissue_fut(ctx, fd, &mut reqs, i).await?;
                }
            }
        }
        if copy_total > Nanos::ZERO {
            ctx.sleep(copy_total).await;
        }
        // ordering: Relaxed — monotonic stats counter; read only for reporting, publishes no other memory.
        self.proc.direct_ops.fetch_add(ok_ops, Ordering::Relaxed);
        // Read-after-write consistency for plain reads, same gate as the
        // sequential path.
        if let Flight::Reads(reads) = reqs {
            // ordering: Relaxed — mirror of the pending length, written under the
            // pending lock; races resolve via the serialised actor schedule.
            if entry.pending_count.load(Ordering::Relaxed) > 0 {
                Self::prune_pending(entry, ctx.now());
                for r in reads.iter_mut() {
                    Self::overlay_pending(entry, r.buf, r.offset);
                }
            }
        }
        Ok(ok_bytes + retry_bytes)
    }

    /// Re-issues flight slot `i` on its sequential op (`pread` or
    /// `pread_chain`), which re-fmaps, retries and falls back as needed.
    async fn reissue_fut(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        reqs: &mut Flight<'_, '_>,
        i: usize,
    ) -> SysResult<usize> {
        match reqs.slot(i) {
            (IoKind::Chain(prog, regs), start, _, buf) => {
                self.pread_chain_fut(ctx, fd, prog, *regs, start, buf).await
            }
            (_, offset, _, buf) => self.pread_fut(ctx, fd, buf, offset).await,
        }
    }

    // ---- offload chains ----

    /// Chain read (offload, §offload): submits **one** command carrying a
    /// verified program handle; the device follows `Resubmit` offsets
    /// itself and completes once with the chain's final 512 B block. A
    /// 6-level B-tree descent is one UserLib submission, one doorbell,
    /// one completion — versus `levels + 1` full round trips on the
    /// plain direct path.
    ///
    /// On a kernel-fallback fd (or after revocation mid-chain) the chain
    /// is interpreted host-side: one kernel `pread` per hop running the
    /// same program, preserving results exactly at kernel-path cost.
    ///
    /// Returns the final block's length ([`bypassd_offload::BLOCK`]).
    ///
    /// # Errors
    /// `BadF`; `Inval` for an unaligned/out-of-file start, an unknown
    /// program handle, a program `Fail`, or an engine trap.
    pub fn pread_chain(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        prog: bypassd_offload::ProgHandle,
        regs: [u64; bypassd_offload::NUM_REGS],
        start: u64,
        buf: &mut [u8],
    ) -> SysResult<usize> {
        block_on(self.pread_chain_fut(ctx, fd, prog, regs, start, buf))
    }

    /// The async body of [`UserThread::pread_chain`].
    pub async fn pread_chain_fut(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        prog: bypassd_offload::ProgHandle,
        regs: [u64; bypassd_offload::NUM_REGS],
        start: u64,
        buf: &mut [u8],
    ) -> SysResult<usize> {
        let op_start = ctx.now();
        let mut scratch = OpScratch::new();
        let result = self
            .pread_chain_inner_fut(ctx, fd, prog, regs, start, buf, &mut scratch)
            .await;
        self.record_op(ctx, false, &result, op_start, &scratch);
        result
    }

    #[allow(clippy::too_many_arguments)]
    async fn pread_chain_inner_fut(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        prog: ProgHandle,
        regs: [u64; NUM_REGS],
        start: u64,
        buf: &mut [u8],
        scratch: &mut OpScratch,
    ) -> SysResult<usize> {
        if !start.is_multiple_of(SECTOR_SIZE) || buf.len() < BLOCK {
            return Err(Errno::Inval);
        }
        let entry = self.entry_cached(fd)?;
        let st = *entry.state.lock();
        if start + BLOCK as u64 > st.size {
            return Err(Errno::Inval);
        }
        let op = DirectOp::Chain {
            prog,
            regs: &regs,
            start,
            buf,
        };
        match st.vba.filter(|_| !st.fallback) {
            Some(vba) => self.direct_fut(ctx, fd, &entry, vba, op, scratch).await,
            None => Box::pin(self.fallback_fut(ctx, fd, op, scratch)).await,
        }
    }

    /// Host-side interpretation of a chain after fallback/revocation:
    /// one kernel `pread` per hop, the same verified program deciding
    /// each next offset locally. Semantically identical to the device
    /// engine (same IR, same registers), just paid at kernel-path cost.
    #[allow(clippy::too_many_arguments)]
    async fn chain_host_fallback_fut(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        prog: bypassd_offload::ProgHandle,
        regs: [u64; bypassd_offload::NUM_REGS],
        start: u64,
        buf: &mut [u8],
        scratch: &mut OpScratch,
    ) -> SysResult<usize> {
        let program = self.kernel().prog_of(prog).ok_or(Errno::Inval)?;
        let mut hops = bypassd_offload::HopStepper::program(&program, regs);
        let mut cur = start;
        loop {
            let hop = DirectOp::Read {
                buf: &mut buf[..BLOCK],
                offset: cur,
                len: BLOCK as u64,
            };
            let n = self.fallback_fut(ctx, fd, hop, scratch).await?;
            if n < BLOCK {
                return Err(Errno::Inval);
            }
            let run = hops.step(&buf[..BLOCK]);
            let interp = Nanos(run.steps * bypassd_offload::STEP_NS);
            ctx.sleep(interp).await;
            scratch.userlib += interp;
            match run.outcome {
                bypassd_offload::Outcome::Resubmit { offset } => cur = offset,
                bypassd_offload::Outcome::Return => return Ok(BLOCK),
                bypassd_offload::Outcome::Fail { .. } => return Err(Errno::Inval),
            }
        }
    }

    /// Batched chain submission: up to a submission window of
    /// *independent chains* in flight concurrently on one queue — one
    /// userlib/doorbell charge per flight, one wait, one reap. This is
    /// what makes offload a throughput feature as well as a latency one:
    /// the host is free from the moment the doorbell rings, so a single
    /// thread keeps many chains in flight while the device walks them.
    ///
    /// Falls back to sequential [`UserThread::pread_chain`] per request
    /// when any request is unaligned/oversized or the fd is on the
    /// kernel interface; individual failed chains inside a flight are
    /// retried sequentially with identical semantics.
    ///
    /// Returns the total bytes returned by all chains.
    ///
    /// # Errors
    /// `BadF`, `Inval` (as [`UserThread::pread_chain`]).
    pub fn pread_chain_batch(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        prog: bypassd_offload::ProgHandle,
        reqs: &mut [ChainReq<'_>],
    ) -> SysResult<usize> {
        block_on(self.pread_chain_batch_fut(ctx, fd, prog, reqs))
    }

    /// The async body of [`UserThread::pread_chain_batch`].
    pub async fn pread_chain_batch_fut(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        prog: bypassd_offload::ProgHandle,
        reqs: &mut [ChainReq<'_>],
    ) -> SysResult<usize> {
        self.batch_fut(ctx, fd, Flight::Chains(prog, reqs)).await
    }

    /// `pwrite()`: overwrites go directly to the device; appends are
    /// routed through the kernel (Table 3) unless optimized append is
    /// enabled (§5.1); sub-sector writes are serialised read-modify-write
    /// (§4.5.1).
    ///
    /// # Errors
    /// `BadF`, `Perm`, kernel-path errors.
    pub fn pwrite(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        data: &[u8],
        offset: u64,
    ) -> SysResult<usize> {
        block_on(self.pwrite_fut(ctx, fd, data, offset))
    }

    /// The async body of [`UserThread::pwrite`].
    pub async fn pwrite_fut(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        data: &[u8],
        offset: u64,
    ) -> SysResult<usize> {
        let op_start = ctx.now();
        let mut scratch = OpScratch::new();
        let result = self
            .pwrite_inner_fut(ctx, fd, data, offset, &mut scratch)
            .await;
        self.record_op(ctx, true, &result, op_start, &scratch);
        result
    }

    async fn pwrite_inner_fut(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        data: &[u8],
        offset: u64,
        scratch: &mut OpScratch,
    ) -> SysResult<usize> {
        let entry = self.entry_cached(fd)?;
        let st = *entry.state.lock();
        if !st.writable {
            return Err(Errno::Perm);
        }
        if st.fallback {
            let op = DirectOp::Write { data, offset };
            return Box::pin(self.fallback_fut(ctx, fd, op, scratch)).await;
        }
        let len = data.len() as u64;
        let end = offset + len;
        if end > st.size {
            return self
                .append_path_fut(ctx, fd, &entry, data, offset, st, scratch)
                .await;
        }
        let vba = st.vba.ok_or(Errno::Inval)?;
        let op = DirectOp::Write { data, offset };
        if offset.is_multiple_of(SECTOR_SIZE) && len.is_multiple_of(SECTOR_SIZE) {
            return self.direct_fut(ctx, fd, &entry, vba, op, scratch).await;
        }
        // Sub-sector write: a serialised read-modify-write (§4.5.1). Wait
        // until no in-flight partial write overlaps our sectors.
        let range = (
            offset - offset % SECTOR_SIZE,
            end.div_ceil(SECTOR_SIZE) * SECTOR_SIZE,
        );
        loop {
            let registered = {
                let mut partials = entry.partials.lock();
                let conflict = partials.iter().any(|(s, e)| *s < range.1 && range.0 < *e);
                if !conflict {
                    partials.push(range);
                }
                !conflict
            };
            if registered {
                break;
            }
            ctx.sleep(Nanos(200)).await;
        }
        let result = self.direct_fut(ctx, fd, &entry, vba, op, scratch).await;
        // Always deregister.
        entry.partials.lock().retain(|r| *r != range);
        result
    }

    /// Append handling: kernel route, or direct overwrite of
    /// preallocated blocks when optimized append is on.
    #[allow(clippy::too_many_arguments)]
    async fn append_path_fut(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        entry: &FileEntry,
        data: &[u8],
        offset: u64,
        st: FileState,
        scratch: &mut OpScratch,
    ) -> SysResult<usize> {
        let kernel = Arc::clone(self.kernel());
        let len = data.len() as u64;
        let end = offset + len;
        let aligned_tail = offset == st.size
            && offset.is_multiple_of(SECTOR_SIZE)
            && len.is_multiple_of(SECTOR_SIZE);
        if st.append_chunk > 0 && aligned_tail {
            // Optimized append: preallocate (KEEP_SIZE) then overwrite
            // directly; size flushed at fsync/close (§5.1).
            if end > st.prealloc_end {
                let grow = (end - st.prealloc_end).max(st.append_chunk);
                let t0 = ctx.now();
                let r = kernel
                    .sys_fallocate_keep_fut(ctx, self.proc.pid, fd, st.prealloc_end, grow)
                    .await;
                scratch.kernel += ctx.now().saturating_sub(t0);
                r?;
                entry.state.lock().prealloc_end = st.prealloc_end + grow;
            }
            // After revocation the op lands as a kernel `pwrite` at its own
            // offset: the kernel's size is stale until the dirty size is
            // flushed, so a kernel append would land too early.
            let vba = st.vba.ok_or(Errno::Inval)?;
            let op = DirectOp::Write { data, offset };
            let n = self.direct_fut(ctx, fd, entry, vba, op, scratch).await?;
            let mut s = entry.state.lock();
            s.size = s.size.max(end);
            s.size_dirty = true;
            return Ok(n);
        }
        scratch.fall_back();
        let kernel_start = ctx.now();
        let n = if offset == st.size {
            // Tail append: the kernel path handles any alignment.
            let r = kernel.sys_append_fut(ctx, self.proc.pid, fd, data).await;
            scratch.kernel += ctx.now().saturating_sub(kernel_start);
            r?
        } else if offset > st.size {
            // Write past a gap: materialise the hole with fallocate
            // (zeroed blocks + size extension), then retry as an
            // in-place write (aligned or serialised RMW).
            let r = kernel
                .sys_fallocate_fut(ctx, self.proc.pid, fd, st.size, end - st.size)
                .await;
            scratch.kernel += ctx.now().saturating_sub(kernel_start);
            r?;
            {
                let mut s = entry.state.lock();
                s.size = s.size.max(end);
                s.prealloc_end = s.prealloc_end.max(s.size);
            }
            // ordering: Relaxed — monotonic stats counter; read only for reporting, publishes no other memory.
            self.proc.fallback_ops.fetch_add(1, Ordering::Relaxed);
            return Box::pin(self.pwrite_inner_fut(ctx, fd, data, offset, scratch)).await;
        } else if aligned_tail
            || offset.is_multiple_of(SECTOR_SIZE) && len.is_multiple_of(SECTOR_SIZE)
        {
            let r = kernel
                .sys_pwrite_fut(ctx, self.proc.pid, fd, data, offset)
                .await;
            scratch.kernel += ctx.now().saturating_sub(kernel_start);
            r?
        } else {
            // Unaligned write straddling EOF: split into the in-place
            // head (RMW path) and an appended tail (kernel path).
            let head = (st.size - offset) as usize;
            Box::pin(self.pwrite_inner_fut(ctx, fd, &data[..head], offset, scratch)).await?;
            let kernel = Arc::clone(self.kernel());
            let t0 = ctx.now();
            let r = kernel
                .sys_append_fut(ctx, self.proc.pid, fd, &data[head..])
                .await;
            scratch.kernel += ctx.now().saturating_sub(t0);
            head + r?
        };
        {
            let mut s = entry.state.lock();
            s.size = s.size.max(end);
            s.prealloc_end = s.prealloc_end.max(s.size);
        }
        // ordering: Relaxed — monotonic stats counter; read only for reporting, publishes no other memory.
        self.proc.fallback_ops.fetch_add(1, Ordering::Relaxed);
        Ok(n)
    }

    // ---- non-blocking writes (§5.1 enhancement) ----

    /// Submits an aligned overwrite without waiting for the device
    /// (§5.1): the call returns after copying into the DMA buffer and
    /// ringing the doorbell. Reads see the new data immediately (the
    /// pending-write overlay); durability comes at [`UserThread::fsync`]
    /// or [`UserThread::flush_writes`].
    ///
    /// Falls back to the synchronous path for unaligned writes, appends,
    /// writes larger than the thread DMA buffer, or revoked files.
    ///
    /// # Errors
    /// `Perm` on read-only fds; kernel-path errors on fallback.
    pub fn pwrite_async(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        data: &[u8],
        offset: u64,
    ) -> SysResult<usize> {
        block_on(self.pwrite_async_fut(ctx, fd, data, offset))
    }

    /// The async body of [`UserThread::pwrite_async`].
    pub async fn pwrite_async_fut(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        data: &[u8],
        offset: u64,
    ) -> SysResult<usize> {
        let op_start = ctx.now();
        let mut scratch = OpScratch::new();
        let result = self
            .pwrite_async_inner_fut(ctx, fd, data, offset, &mut scratch)
            .await;
        self.record_op(ctx, true, &result, op_start, &scratch);
        result
    }

    async fn pwrite_async_inner_fut(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        data: &[u8],
        offset: u64,
        scratch: &mut OpScratch,
    ) -> SysResult<usize> {
        let entry = self.entry_cached(fd)?;
        let st = *entry.state.lock();
        if !st.writable {
            return Err(Errno::Perm);
        }
        let len = data.len() as u64;
        let aligned =
            offset.is_multiple_of(SECTOR_SIZE) && len.is_multiple_of(SECTOR_SIZE) && len > 0;
        let in_place = offset + len <= st.size;
        let vba = match st.vba {
            Some(vba) if !st.fallback && aligned && in_place && len <= self.dma.len() as u64 => vba,
            _ => return Box::pin(self.pwrite_inner_fut(ctx, fd, data, offset, scratch)).await,
        };
        // Serialise against overlapping pending writes (same-file
        // write-write ordering, the CrossFS-style range rule).
        loop {
            let conflict = entry
                .pending
                .lock()
                .writes
                .iter()
                .any(|p| p.offset < offset + len && offset < p.offset + p.data.len() as u64);
            if !conflict {
                break;
            }
            self.flush_writes_fut(ctx, fd).await?;
        }
        // Backpressure: once the device has signalled congestion, the
        // submission window shrinks below the hardware depth and we drain
        // before going deeper (never engages while QoS is disabled).
        while self.effective_depth < self.queue_depth
            && self.pending_write_count(fd) >= self.effective_depth
        {
            self.flush_writes_fut(ctx, fd).await?;
        }
        let copy = self.cost().user_copy(len);
        ctx.sleep(self.cost().userlib_overhead + copy).await;
        scratch.userlib += self.cost().userlib_overhead;
        scratch.user_copy += copy;
        // The simulated device consumes the payload and posts the
        // completion inside the call, so the thread DMA buffer is free
        // again at once (its pages go back right after the call) and only
        // the wait for `ready_at` is skipped.
        self.dma.write(0, data);
        let cmd = IoKind::Write.command(vba, offset, len, &self.dma);
        let comp = self
            .proc
            .system
            .device()
            .execute_full(self.qid, cmd, ctx.now());
        self.dma.release(0, len as usize);
        self.note_pressure(comp.pressure);
        let ready = comp.ready_at;
        scratch.device_span += ready.saturating_sub(ctx.now());
        if !comp.status.is_ok() {
            // A fault or media error: re-issue on the synchronous path,
            // which owns the retry tail and the kernel fallback.
            scratch.faults += 1;
            return Box::pin(self.pwrite_inner_fut(ctx, fd, data, offset, scratch)).await;
        }
        {
            let mut pending = entry.pending.lock();
            let mut payload = pending.spare.pop().unwrap_or_default();
            payload.clear();
            payload.extend_from_slice(data);
            pending.writes.push(PendingWrite {
                offset,
                data: payload,
                ready,
            });
            let n = pending.writes.len();
            // ordering: Relaxed — mirror of the pending length, written under the
            // pending lock; racing readers resolve via the actor schedule.
            entry.pending_count.store(n, Ordering::Relaxed);
        }
        // ordering: Relaxed — monotonic stats counter; read only for reporting, publishes no other memory.
        self.proc.direct_ops.fetch_add(1, Ordering::Relaxed);
        Ok(data.len())
    }

    /// Waits for every non-blocking write on `fd` to reach the device.
    ///
    /// # Errors
    /// `BadF`.
    pub fn flush_writes(&mut self, ctx: &mut ActorCtx, fd: Fd) -> SysResult<()> {
        block_on(self.flush_writes_fut(ctx, fd))
    }

    /// The async body of [`UserThread::flush_writes`].
    pub async fn flush_writes_fut(&mut self, ctx: &mut ActorCtx, fd: Fd) -> SysResult<()> {
        let entry = self.entry_cached(fd)?;
        let latest = {
            let pending = entry.pending.lock();
            (!pending.writes.is_empty()).then(|| {
                pending
                    .writes
                    .iter()
                    .map(|p| p.ready)
                    .fold(Nanos::ZERO, Nanos::max)
            })
        };
        if let Some(t) = latest {
            ctx.sleep_until(t).await;
            Self::prune_pending(&entry, ctx.now());
        }
        Ok(())
    }

    /// Outstanding non-blocking writes on `fd`.
    pub fn pending_write_count(&self, fd: Fd) -> usize {
        self.proc
            .entry(fd)
            .map_or(0, |e| e.pending.lock().writes.len())
    }

    /// Drops completed entries from the pending-write overlay (called by
    /// reads so the overlay stays small), recycling their payload
    /// buffers. Pending writes never overlap (the submit path serialises
    /// conflicting ranges), so the swap-remove reordering is unobservable.
    fn prune_pending(entry: &FileEntry, now: Nanos) {
        let mut pending = entry.pending.lock();
        let mut i = 0;
        while i < pending.writes.len() {
            if pending.writes[i].ready <= now {
                let p = pending.writes.swap_remove(i);
                pending.recycle(p.data);
            } else {
                i += 1;
            }
        }
        let n = pending.writes.len();
        // ordering: Relaxed — mirror of the pending length, written under the
        // pending lock; racing readers resolve via the actor schedule.
        entry.pending_count.store(n, Ordering::Relaxed);
    }

    /// Overlays unconfirmed writes onto a freshly-read buffer
    /// (read-after-write consistency for the non-blocking interface).
    fn overlay_pending(entry: &FileEntry, buf: &mut [u8], offset: u64) {
        let pending = entry.pending.lock();
        let end = offset + buf.len() as u64;
        for p in &pending.writes {
            let p_end = p.offset + p.data.len() as u64;
            if p.offset < end && offset < p_end {
                let lo = offset.max(p.offset);
                let hi = end.min(p_end);
                buf[(lo - offset) as usize..(hi - offset) as usize]
                    .copy_from_slice(&p.data[(lo - p.offset) as usize..(hi - p.offset) as usize]);
            }
        }
    }

    /// `read()` at the shared file offset.
    ///
    /// # Errors
    /// As [`UserThread::pread`].
    pub fn read(&mut self, ctx: &mut ActorCtx, fd: Fd, buf: &mut [u8]) -> SysResult<usize> {
        block_on(self.read_fut(ctx, fd, buf))
    }

    /// The async body of [`UserThread::read`].
    pub async fn read_fut(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        buf: &mut [u8],
    ) -> SysResult<usize> {
        let entry = self.entry_cached(fd)?;
        let off = entry.state.lock().offset;
        let n = self.pread_fut(ctx, fd, buf, off).await?;
        entry.state.lock().offset += n as u64;
        Ok(n)
    }

    /// `write()` at the shared file offset.
    ///
    /// # Errors
    /// As [`UserThread::pwrite`].
    pub fn write(&mut self, ctx: &mut ActorCtx, fd: Fd, data: &[u8]) -> SysResult<usize> {
        block_on(self.write_fut(ctx, fd, data))
    }

    /// The async body of [`UserThread::write`].
    pub async fn write_fut(&mut self, ctx: &mut ActorCtx, fd: Fd, data: &[u8]) -> SysResult<usize> {
        let entry = self.entry_cached(fd)?;
        let off = entry.state.lock().offset;
        let n = self.pwrite_fut(ctx, fd, data, off).await?;
        entry.state.lock().offset += n as u64;
        Ok(n)
    }

    /// `fsync()`: flushes the local size (optimized append), then
    /// forwards to the kernel, which flushes queues and metadata
    /// (Table 3).
    ///
    /// # Errors
    /// `BadF`.
    pub fn fsync(&mut self, ctx: &mut ActorCtx, fd: Fd) -> SysResult<()> {
        block_on(self.fsync_fut(ctx, fd))
    }

    /// The async body of [`UserThread::fsync`].
    pub async fn fsync_fut(&mut self, ctx: &mut ActorCtx, fd: Fd) -> SysResult<()> {
        // Drain the non-blocking write pipeline before the device flush.
        self.flush_writes_fut(ctx, fd).await?;
        let entry = self.proc.entry(fd)?;
        let kernel = Arc::clone(self.kernel());
        let dirty_size = {
            let st = entry.state.lock();
            st.size_dirty.then_some(st.size)
        };
        if let Some(size) = dirty_size {
            kernel
                .sys_set_size_fut(ctx, self.proc.pid, fd, size)
                .await?;
            entry.state.lock().size_dirty = false;
        }
        kernel.sys_fsync_fut(ctx, self.proc.pid, fd).await
    }

    /// `fallocate()` passthrough (updates the local size).
    ///
    /// # Errors
    /// As the kernel call.
    pub fn fallocate(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        offset: u64,
        len: u64,
    ) -> SysResult<()> {
        block_on(self.fallocate_fut(ctx, fd, offset, len))
    }

    /// The async body of [`UserThread::fallocate`].
    pub async fn fallocate_fut(
        &mut self,
        ctx: &mut ActorCtx,
        fd: Fd,
        offset: u64,
        len: u64,
    ) -> SysResult<()> {
        let kernel = Arc::clone(self.kernel());
        kernel
            .sys_fallocate_fut(ctx, self.proc.pid, fd, offset, len)
            .await?;
        if let Ok(entry) = self.proc.entry(fd) {
            let mut st = entry.state.lock();
            st.size = st.size.max(offset + len);
            st.prealloc_end = st.prealloc_end.max(st.size);
        }
        Ok(())
    }

    /// True if this fd has fallen back to the kernel interface.
    pub fn is_fallback(&self, fd: Fd) -> bool {
        self.proc.entry(fd).is_ok_and(|e| e.state.lock().fallback)
    }
}
