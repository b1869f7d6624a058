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

use bypassd_sim::engine::{block_on, ActorCtx};
use bypassd_ssd::queue::QueueId;

use crate::kernel::{Kernel, Segments, SysResult};
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

    /// A ring command's way in: the SQE, poller pickup and reduced
    /// kernel stack, then the checked segments of `len` bytes at
    /// `offset`, which the block layer runs on the ring's queue.
    fn uring_enter(
        &self,
        ctx: &mut ActorCtx,
        pid: Pid,
        fd: Fd,
        offset: u64,
        len: u64,
        write: bool,
    ) -> SysResult<Segments> {
        let cost = self.cost();
        // SQE write into the shared ring — no mode switch.
        ctx.delay(cost.uring_ring_access);
        // Poller pickup: cheap while cores last, brutal beyond (Fig. 9).
        ctx.delay(cost.uring_pickup_latency(self.uring_active_jobs()));
        // Reduced kernel stack on the poller core.
        ctx.delay(cost.uring_kernel(len));
        let (segs, extra) = self.direct_segments(pid, fd, offset, len, write)?;
        ctx.delay(extra);
        Ok(segs)
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
        let segs = self.uring_enter(ctx, pid, fd, offset, buf.len() as u64, false)?;
        block_on(self.device_read_fut(ctx, ring.queue, &segs, buf))?;
        // CQE read from the ring. Fixed (registered) buffers: data is
        // already in the app's registered buffer — no copy-out.
        ctx.delay(self.cost().uring_ring_access);
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
        let segs = self.uring_enter(ctx, pid, fd, offset, data.len() as u64, true)?;
        block_on(self.device_write_fut(ctx, ring.queue, &segs, data))?;
        ctx.delay(self.cost().uring_ring_access); // the CQE
        Ok(data.len())
    }
}
