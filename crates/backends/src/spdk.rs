//! SPDK-style userspace driver: the latency ceiling, and the sharing
//! cautionary tale.
//!
//! SPDK maps the device into one process: no kernel, no file system, no
//! translation — and **no protection**: the process addresses raw LBAs,
//! so it can read or corrupt every block on the device (§2, "userspace
//! access is challenging"). The paper's SPDK+fio setup resolves file
//! layouts ahead of time (their TopFS-style map); we model that by
//! snapshotting the file's extent list at `open` into a userspace map.
//! The [`SpdkBackend::read_lba`] escape hatch demonstrates the security
//! hole BypassD closes.

use std::collections::HashMap;
use std::sync::Arc;

use bypassd::System;
use bypassd_hw::types::{Lba, SECTOR_SIZE};
use bypassd_os::{Errno, SysResult};
use bypassd_sim::engine::ActorCtx;
use bypassd_ssd::device::{BlockAddr, Command, NvmeDevice};
use bypassd_ssd::dma::DmaBuffer;
use bypassd_ssd::queue::QueueId;

use crate::traits::{BackendFactory, BackendKind, Handle, StorageBackend};

/// The process-wide SPDK environment: the one process that owns the
/// device (SPDK does not support device sharing).
pub struct SpdkEnv {
    system: System,
}

impl SpdkEnv {
    /// Creates the environment over `system`'s device.
    pub fn new(system: &System) -> Arc<SpdkEnv> {
        Arc::new(SpdkEnv {
            system: system.clone(),
        })
    }
}

/// Factory for SPDK thread contexts.
pub struct SpdkFactory {
    env: Arc<SpdkEnv>,
}

impl SpdkFactory {
    /// Creates the SPDK environment.
    pub fn new(system: &System) -> Self {
        SpdkFactory {
            env: SpdkEnv::new(system),
        }
    }
}

impl SpdkFactory {
    /// Creates a concretely-typed thread backend (exposes
    /// [`SpdkBackend::read_lba`] for the protection demonstration).
    pub fn make_typed_thread(&self) -> SpdkBackend {
        let dev = Arc::clone(self.env.system.device());
        let qid = dev.create_queue(None, 64);
        let dma = DmaBuffer::alloc(self.env.system.mem(), 1 << 20);
        SpdkBackend {
            system: self.env.system.clone(),
            dev,
            qid,
            dma,
            files: HashMap::new(),
            next_handle: 3,
            completions: Vec::new(),
        }
    }
}

impl BackendFactory for SpdkFactory {
    fn kind(&self) -> BackendKind {
        BackendKind::Spdk
    }

    fn make_thread(&self) -> Box<dyn StorageBackend> {
        Box::new(self.make_typed_thread())
    }
}

struct SpdkFile {
    /// Userspace extent map: (file byte offset, device LBA, byte length).
    extents: Vec<(u64, Lba, u64)>,
    size: u64,
}

impl SpdkFile {
    fn segments(&self, offset: u64, len: u64) -> Option<Vec<(Lba, u64)>> {
        let mut out = Vec::new();
        let mut cur = offset;
        let end = offset + len;
        while cur < end {
            let e = self
                .extents
                .iter()
                .find(|(fo, _, el)| *fo <= cur && cur < fo + el)?;
            let within = cur - e.0;
            let n = (e.2 - within).min(end - cur);
            out.push((Lba(e.1 .0 + within / SECTOR_SIZE), n));
            cur += n;
        }
        Some(out)
    }
}

/// One SPDK thread: private queue, DMA buffer, userspace file map.
pub struct SpdkBackend {
    system: System,
    dev: Arc<NvmeDevice>,
    qid: QueueId,
    dma: DmaBuffer,
    files: HashMap<Handle, SpdkFile>,
    next_handle: Handle,
    completions: Vec<(u64, Vec<u8>)>,
}

impl SpdkBackend {
    fn overhead(&self) -> bypassd_sim::Nanos {
        self.system.kernel().cost().spdk_overhead
    }

    /// The security hole: read any sector on the device, no checks.
    ///
    /// # Errors
    /// `Inval` if out of range.
    pub fn read_lba(
        &mut self,
        ctx: &mut ActorCtx,
        lba: Lba,
        sectors: u32,
        out: &mut [u8],
    ) -> SysResult<()> {
        let (st, ready) = self.dev.execute(
            self.qid,
            Command::read(BlockAddr::Lba(lba), sectors, &self.dma),
            ctx.now(),
        );
        if !st.is_ok() {
            return Err(Errno::Inval);
        }
        ctx.wait_until(ready);
        self.dma.read(0, out);
        Ok(())
    }

    fn io(
        &mut self,
        ctx: &mut ActorCtx,
        h: Handle,
        offset: u64,
        len: u64,
        write: bool,
    ) -> SysResult<Vec<(Lba, u64)>> {
        if !offset.is_multiple_of(SECTOR_SIZE) || !len.is_multiple_of(SECTOR_SIZE) || len == 0 {
            return Err(Errno::Inval);
        }
        let f = self.files.get(&h).ok_or(Errno::BadF)?;
        if offset + len > f.size {
            return Err(Errno::Inval);
        }
        let segs = f.segments(offset, len).ok_or(Errno::Inval)?;
        ctx.delay(self.overhead());
        let mut latest = ctx.now();
        let mut dma_off = 0usize;
        for (lba, n) in &segs {
            let cmd = Command {
                opcode: if write {
                    bypassd_ssd::device::Opcode::Write
                } else {
                    bypassd_ssd::device::Opcode::Read
                },
                addr: BlockAddr::Lba(*lba),
                sectors: (*n / SECTOR_SIZE) as u32,
                dma: Some(&self.dma),
                dma_offset: dma_off,
                chain: None,
            };
            let (st, ready) = self.dev.execute(self.qid, cmd, ctx.now());
            if !st.is_ok() {
                return Err(Errno::Inval);
            }
            dma_off += *n as usize;
            latest = latest.max(ready);
        }
        ctx.wait_until(latest);
        Ok(segs)
    }
}

impl StorageBackend for SpdkBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Spdk
    }

    /// "Opens" a file by snapshotting its extent layout into the
    /// userspace map (no kernel involvement at I/O time, no permission
    /// checks possible).
    fn open(&mut self, _ctx: &mut ActorCtx, path: &str, _writable: bool) -> SysResult<Handle> {
        let fs = self.system.fs();
        let ino = fs.lookup(path)?;
        let size = fs.size_of(ino)?;
        let aligned = size.div_ceil(SECTOR_SIZE) * SECTOR_SIZE;
        let (segs, _) = fs.resolve(ino, 0, aligned.max(SECTOR_SIZE))?;
        let mut extents = Vec::new();
        let mut off = 0u64;
        for (lba, len) in segs {
            if let Some(lba) = lba {
                extents.push((off, lba, len));
            }
            off += len;
        }
        let h = self.next_handle;
        self.next_handle += 1;
        self.files.insert(
            h,
            SpdkFile {
                extents,
                size: aligned,
            },
        );
        Ok(h)
    }

    fn pread(
        &mut self,
        ctx: &mut ActorCtx,
        h: Handle,
        buf: &mut [u8],
        offset: u64,
    ) -> SysResult<usize> {
        let len = buf.len() as u64;
        self.io(ctx, h, offset, len, false)?;
        ctx.delay(self.system.kernel().cost().user_copy(len));
        self.dma.read(0, buf);
        Ok(buf.len())
    }

    fn pwrite(
        &mut self,
        ctx: &mut ActorCtx,
        h: Handle,
        data: &[u8],
        offset: u64,
    ) -> SysResult<usize> {
        ctx.delay(self.system.kernel().cost().user_copy(data.len() as u64));
        self.dma.write(0, data);
        self.io(ctx, h, offset, data.len() as u64, true)?;
        Ok(data.len())
    }

    fn fsync(&mut self, ctx: &mut ActorCtx, _h: Handle) -> SysResult<()> {
        let (st, ready) = self.dev.execute(self.qid, Command::flush(), ctx.now());
        debug_assert!(st.is_ok());
        ctx.wait_until(ready);
        Ok(())
    }

    fn close(&mut self, _ctx: &mut ActorCtx, h: Handle) -> SysResult<()> {
        self.files.remove(&h).map(|_| ()).ok_or(Errno::BadF)
    }

    fn sync_completions(&mut self) -> &mut Vec<(u64, Vec<u8>)> {
        &mut self.completions
    }
}
