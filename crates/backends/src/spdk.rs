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
use bypassd_os::kernel::run_lba_io;
use bypassd_os::{Errno, SysResult};
use bypassd_sim::engine::{block_on, ActorCtx};
use bypassd_sim::Nanos;
use bypassd_ssd::device::{Command, NvmeDevice};
use bypassd_ssd::dma::DmaBuffer;
use bypassd_ssd::queue::QueueId;

use crate::Handle;

struct SpdkFile {
    /// Userspace extent map: (file byte offset, device LBA, byte length).
    extents: Vec<(u64, Lba, u64)>,
    size: u64,
}

impl SpdkFile {
    fn segments(&self, offset: u64, len: u64) -> Option<Vec<(Option<Lba>, u64)>> {
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
            out.push((Some(Lba(e.1 .0 + within / SECTOR_SIZE)), n));
            cur += n;
        }
        Some(out)
    }
}

/// One SPDK thread: private queue, DMA buffer, userspace file map. The
/// process is the one that owns the device (SPDK does not support
/// device sharing).
pub struct SpdkBackend {
    system: System,
    dev: Arc<NvmeDevice>,
    qid: QueueId,
    dma: DmaBuffer,
    files: HashMap<Handle, SpdkFile>,
    next_handle: Handle,
}

impl SpdkBackend {
    /// A thread context over `system`'s device: its own queue and DMA
    /// buffer (untimed setup).
    pub fn new(system: &System) -> SpdkBackend {
        let dev = Arc::clone(system.device());
        let qid = dev.create_queue(None, 64);
        let dma = DmaBuffer::alloc(system.mem(), 1 << 20);
        SpdkBackend {
            system: system.clone(),
            dev,
            qid,
            dma,
            files: HashMap::new(),
            next_handle: 3,
        }
    }

    fn overhead(&self) -> Nanos {
        self.system.kernel().cost().spdk_overhead
    }

    /// The security hole: read any sector on the device, no checks.
    ///
    /// # Errors
    /// `Inval` if out of range; `Io` on a media error.
    pub fn read_lba(
        &mut self,
        ctx: &mut ActorCtx,
        lba: Lba,
        sectors: u32,
        out: &mut [u8],
    ) -> SysResult<()> {
        let segs = [(Some(lba), u64::from(sectors) * SECTOR_SIZE)];
        block_on(run_lba_io(
            ctx, &self.dev, self.qid, false, &segs, &self.dma, 0,
        ))?;
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
    ) -> SysResult<()> {
        if !offset.is_multiple_of(SECTOR_SIZE) || !len.is_multiple_of(SECTOR_SIZE) || len == 0 {
            return Err(Errno::Inval);
        }
        let f = self.files.get(&h).ok_or(Errno::BadF)?;
        if offset + len > f.size {
            return Err(Errno::Inval);
        }
        let segs = f.segments(offset, len).ok_or(Errno::Inval)?;
        ctx.delay(self.overhead());
        // No retry: SPDK's driver surfaces a media error as is.
        block_on(run_lba_io(
            ctx, &self.dev, self.qid, write, &segs, &self.dma, 0,
        ))
    }

    /// "Opens" a file by snapshotting its extent layout into the
    /// userspace map (no kernel involvement at I/O time, no permission
    /// checks possible).
    ///
    /// # Errors
    /// Path errors from the file system.
    pub fn open(&mut self, path: &str) -> SysResult<Handle> {
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

    /// Reads `buf.len()` bytes at `offset` of file `h`.
    ///
    /// # Errors
    /// `BadF`, `Inval` (unaligned or past the end); `Io` on a media
    /// error.
    pub fn pread(
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

    /// Writes `data` at `offset` of file `h` (no appends).
    ///
    /// # Errors
    /// As [`SpdkBackend::pread`].
    pub fn pwrite(
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

    /// Flushes the device's volatile cache.
    pub fn fsync(&mut self, ctx: &mut ActorCtx) {
        let (st, ready) = self.dev.execute(self.qid, Command::flush(), ctx.now());
        debug_assert!(st.is_ok());
        ctx.wait_until(ready);
    }

    /// Drops file `h` from the userspace map.
    ///
    /// # Errors
    /// `BadF` for an unknown handle.
    pub fn close(&mut self, h: Handle) -> SysResult<()> {
        self.files.remove(&h).map(|_| ()).ok_or(Errno::BadF)
    }
}
