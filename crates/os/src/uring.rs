//! io_uring with kernel-side submission-queue polling (SQPOLL).
//!
//! The paper's io_uring configuration uses fixed buffers and SQPOLL
//! (§6.3): the application writes SQEs into a shared ring (no syscall); a
//! kernel poller thread picks them up and runs the (reduced) kernel
//! stack. The catch the paper highlights in Fig. 9: every job needs a
//! polling core *in addition to* its application core, so past half the
//! machine's cores the pickup latency collapses — io_uring "needs twice
//! as many cores to achieve performance close to BypassD".

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use bypassd_hw::types::SECTOR_SIZE;
use bypassd_sim::engine::ActorCtx;
use bypassd_ssd::device::{BlockAddr, Command};
use bypassd_ssd::dma::DmaBuffer;
use bypassd_ssd::queue::{NvmeStatus, QueueId};

use crate::kernel::{Errno, Kernel, SysResult};
use crate::process::{Fd, Pid};

/// An io_uring instance with an SQPOLL kernel thread.
pub struct Uring {
    queue: QueueId,
    jobs: Arc<AtomicU32>,
}

impl std::fmt::Debug for Uring {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Uring")
            .field("queue", &self.queue)
            // ordering: Relaxed — gauge of in-flight jobs for Debug output only.
            .field("active_jobs", &self.jobs.load(Ordering::Relaxed))
            .finish()
    }
}

impl Drop for Uring {
    fn drop(&mut self) {
        self.jobs.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Kernel {
    /// `io_uring_setup(2)` with SQPOLL: spawns (accounts for) a polling
    /// kernel thread.
    pub fn uring_setup(&self, ctx: &mut ActorCtx, depth: usize) -> Uring {
        ctx.delay(self.cost().syscall() + bypassd_sim::Nanos(5_000));
        self.uring_jobs.fetch_add(1, Ordering::SeqCst);
        Uring {
            queue: self.device().create_queue(None, depth.max(1)),
            jobs: Arc::clone(&self.uring_jobs),
        }
    }

    /// Number of active SQPOLL jobs (drives the core-contention model).
    pub fn uring_active_jobs(&self) -> u32 {
        // ordering: Relaxed — gauge of in-flight jobs; readers need no ordering with job state.
        self.uring_jobs.load(Ordering::Relaxed)
    }

    /// One ring command: the SQE, poller pickup and reduced kernel
    /// stack, then the device commands into (or from) a registered
    /// buffer, which it returns once the CQE lands.
    #[allow(clippy::too_many_arguments)]
    fn uring_io(
        &self,
        ctx: &mut ActorCtx,
        pid: Pid,
        ring: &Uring,
        fd: Fd,
        offset: u64,
        len: u64,
        write_data: Option<&[u8]>,
    ) -> SysResult<DmaBuffer> {
        if !offset.is_multiple_of(SECTOR_SIZE) || !len.is_multiple_of(SECTOR_SIZE) || len == 0 {
            return Err(Errno::Inval);
        }
        let cost = self.cost();
        // SQE write into the shared ring — no mode switch.
        ctx.delay(cost.uring_ring_access);
        // Poller pickup: cheap while cores last, brutal beyond (Fig. 9).
        ctx.delay(cost.uring_pickup_latency(self.uring_active_jobs()));
        // Reduced kernel stack on the poller core.
        ctx.delay(cost.uring_kernel(len));

        let (ino, writable, _readable) = self.fd_snapshot(pid, fd)?;
        if write_data.is_some() && !writable {
            return Err(Errno::Perm);
        }
        let size = self.fs().size_of(ino)?;
        if offset + len > size {
            return Err(Errno::Inval);
        }
        let (segs, extra) = self.fs().resolve(ino, offset, len)?;
        ctx.delay(extra);
        let dma = DmaBuffer::alloc(self.mem(), len as usize);
        if let Some(d) = write_data {
            dma.write(0, d);
        }
        let mut dma_off = 0usize;
        let mut latest = ctx.now();
        for (lba, seglen) in &segs {
            let lba = lba.ok_or(Errno::Inval)?;
            let cmd = Command {
                opcode: if write_data.is_some() {
                    bypassd_ssd::device::Opcode::Write
                } else {
                    bypassd_ssd::device::Opcode::Read
                },
                addr: BlockAddr::Lba(lba),
                sectors: (*seglen / SECTOR_SIZE) as u32,
                dma: Some(&dma),
                dma_offset: dma_off,
                chain: None,
            };
            let (st, ready) = self.device().execute(ring.queue, cmd, ctx.now());
            match st {
                s if s.is_ok() => {}
                NvmeStatus::MediaError => {
                    ctx.wait_until(ready);
                    return Err(Errno::Io);
                }
                _ => return Err(Errno::Inval),
            }
            dma_off += *seglen as usize;
            latest = latest.max(ready);
        }
        ctx.wait_until(latest);
        // CQE read from the ring. Fixed (registered) buffers: data is
        // already in the app's registered buffer — no copy-out.
        ctx.delay(cost.uring_ring_access);
        Ok(dma)
    }

    /// Blocking QD1 read through the ring (fio's io_uring engine shape).
    ///
    /// # Errors
    /// `BadF`, `Perm`, `Inval`; `Io` on a media error.
    pub fn uring_read(
        &self,
        ctx: &mut ActorCtx,
        pid: Pid,
        ring: &Uring,
        fd: Fd,
        buf: &mut [u8],
        offset: u64,
    ) -> SysResult<usize> {
        let dma = self.uring_io(ctx, pid, ring, fd, offset, buf.len() as u64, None)?;
        dma.read(0, buf);
        Ok(buf.len())
    }

    /// Blocking QD1 write through the ring.
    ///
    /// # Errors
    /// `BadF`, `Perm`, `Inval`; `Io` on a media error.
    pub fn uring_write(
        &self,
        ctx: &mut ActorCtx,
        pid: Pid,
        ring: &Uring,
        fd: Fd,
        data: &[u8],
        offset: u64,
    ) -> SysResult<usize> {
        self.uring_io(ctx, pid, ring, fd, offset, data.len() as u64, Some(data))?;
        Ok(data.len())
    }
}
