//! libaio-style asynchronous I/O (`io_setup` / `io_submit` /
//! `io_getevents`).
//!
//! Per the paper's methodology, libaio at queue depth 1 behaves like the
//! synchronous path (Fig. 6); deeper queues trade latency for throughput
//! (KVell with QD 64, Fig. 16). Submission charges the kernel software
//! stack once per iocb — serially, on the submitting core — while device
//! service overlaps across the queue.

use std::collections::HashMap;

use bypassd_sim::engine::ActorCtx;
use bypassd_sim::time::Nanos;
use bypassd_ssd::device::{lba_commands, Opcode};
use bypassd_ssd::dma::DmaBuffer;
use bypassd_ssd::queue::QueueId;

use crate::kernel::{Errno, Kernel, SysResult};
use crate::process::{Fd, Pid};

/// One asynchronous operation.
#[derive(Debug)]
pub struct AioOp {
    /// Target descriptor.
    pub fd: Fd,
    /// Byte offset.
    pub offset: u64,
    /// Caller cookie, echoed in the completion event.
    pub user_data: u64,
    /// Payload: read length or write data.
    pub data: AioData,
}

/// Read or write payload.
#[derive(Debug)]
pub enum AioData {
    /// Read `len` bytes.
    Read(usize),
    /// Write these bytes.
    Write(Vec<u8>),
}

/// A completion event.
#[derive(Debug)]
pub struct AioEvent {
    /// The submitter's cookie.
    pub user_data: u64,
    /// Bytes transferred, or `Io` when a command of the iocb failed on
    /// the media or its completion was lost.
    pub res: SysResult<usize>,
    /// Read data (empty for writes and failed iocbs).
    pub data: Vec<u8>,
}

/// An iocb in flight: its device commands still to complete.
struct Pending {
    user_data: u64,
    len: usize,
    /// A read's buffer, borrowed from the kernel's DMA pool until the
    /// event copies its first `len` bytes out.
    dma: Option<DmaBuffer>,
    left: usize,
    failed: bool,
}

impl Pending {
    /// The iocb's completion event: its bytes, or `Io` if it failed. A
    /// read's buffer goes back to `kernel`'s DMA pool.
    fn into_event(self, kernel: &Kernel) -> AioEvent {
        let (res, data) = match (&self.dma, self.failed) {
            (_, true) => (Err(Errno::Io), Vec::new()),
            (Some(dma), false) => {
                let mut d = vec![0u8; self.len];
                dma.read(0, &mut d);
                (Ok(self.len), d)
            }
            (None, false) => (Ok(self.len), Vec::new()),
        };
        if let Some(dma) = self.dma {
            kernel.give_dma(dma);
        }
        AioEvent {
            user_data: self.user_data,
            res,
            data,
        }
    }
}

/// Entries in an AIO context's device queue: the NVMe maximum (a 16-bit
/// command id). A context is sized in iocbs, as Linux sizes it, and an
/// iocb takes one command per extent, so the queue behind it is never
/// what refuses an iocb the iocb count admits.
const QUEUE_ENTRIES: usize = 1 << 16;

/// An AIO context (one per `io_setup`), owned by the thread that set
/// it up.
pub struct AioCtx {
    queue: QueueId,
    depth: usize,
    /// In-flight iocbs, by the command id of their last command.
    pending: HashMap<u16, Pending>,
    /// Every in-flight command id → the key of its iocb in `pending`.
    cmds: HashMap<u16, u16>,
}

impl std::fmt::Debug for AioCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AioCtx")
            .field("queue", &self.queue)
            .field("depth", &self.depth)
            .finish()
    }
}

impl Kernel {
    /// `io_setup(2)`: creates a context able to hold `depth` in-flight
    /// iocbs, whatever their extent counts.
    pub fn io_setup(&self, ctx: &mut ActorCtx, depth: usize) -> AioCtx {
        ctx.delay(self.cost().syscall() + Nanos(1_000));
        AioCtx {
            queue: self.device().create_queue(None, QUEUE_ENTRIES),
            depth: depth.max(1),
            pending: HashMap::new(),
            cmds: HashMap::new(),
        }
    }

    /// `io_submit(2)`: validates and submits each iocb, charging the
    /// kernel stack serially per operation. Returns the number accepted
    /// (stops early when the context holds `depth` iocbs).
    ///
    /// # Errors
    /// `Again` (context full), `BadF`, `Perm`, `Inval` on the *first*
    /// op; later failures stop submission and report the count so far,
    /// as Linux does.
    pub fn io_submit(
        &self,
        ctx: &mut ActorCtx,
        pid: Pid,
        aio: &mut AioCtx,
        ops: Vec<AioOp>,
    ) -> SysResult<usize> {
        ctx.delay(self.cost().user_to_kernel);
        let mut accepted = 0usize;
        for op in ops {
            let res = if aio.pending.len() >= aio.depth {
                Err(Errno::Again)
            } else {
                self.submit_one(ctx, pid, aio, op)
            };
            match res {
                Ok(()) => accepted += 1,
                Err(e) if accepted == 0 => {
                    ctx.delay(self.cost().kernel_to_user);
                    return Err(e);
                }
                Err(_) => break,
            }
        }
        ctx.delay(self.cost().kernel_to_user);
        Ok(accepted)
    }

    fn submit_one(
        &self,
        ctx: &mut ActorCtx,
        pid: Pid,
        aio: &mut AioCtx,
        op: AioOp,
    ) -> SysResult<()> {
        let (len, write) = match &op.data {
            AioData::Read(l) => (*l as u64, false),
            AioData::Write(d) => (d.len() as u64, true),
        };
        // Kernel stack per iocb (VFS + block + driver), serial on the
        // submitting core; plus libaio bookkeeping.
        ctx.delay(self.cost().vfs(len) + self.cost().block_path() + self.cost().aio_overhead);
        let (segs, extra) = self.direct_segments(pid, op.fd, op.offset, len, write)?;
        if segs.len() > QUEUE_ENTRIES {
            return Err(Errno::Inval); // more extents than a device queue holds
        }
        ctx.delay(extra);
        // One device command per segment, rung as one all-or-nothing
        // batch whose DMA concatenates in the first `len` bytes of a
        // pooled buffer (it may be longer); the iocb completes once every
        // command has. A hole is `Inval` (KVell preallocates).
        let dma = self.take_dma(len as usize);
        if let AioData::Write(d) = &op.data {
            dma.write(0, d);
        }
        let opcode = if write { Opcode::Write } else { Opcode::Read };
        let submitted = lba_commands(opcode, &segs, &dma)
            .map(|(_, _, cmd)| cmd.ok_or(Errno::Inval))
            .collect::<SysResult<Vec<_>>>()
            .and_then(|cmds| {
                let mut cids = Vec::with_capacity(cmds.len());
                self.device()
                    .submit_batch(aio.queue, cmds, ctx.now(), &mut cids)
                    .map_err(|_| Errno::Again)?;
                Ok(cids)
            });
        // A write's bytes left with the submission; a read's buffer
        // waits for its event's copy.
        let dma = if write || submitted.is_err() {
            self.give_dma(dma);
            None
        } else {
            Some(dma)
        };
        let cids = submitted?;
        let key = *cids.last().ok_or(Errno::Inval)?;
        aio.cmds.extend(cids.iter().map(|&cid| (cid, key)));
        aio.pending.insert(
            key,
            Pending {
                user_data: op.user_data,
                len: len as usize,
                dma,
                left: cids.len(),
                failed: false,
            },
        );
        Ok(())
    }

    /// `io_getevents(2)`: waits until at least `min` completions are
    /// available (or none are in flight) and returns up to `max`. An
    /// iocb whose command failed reports `Io`; so does one whose
    /// completion the device never posts, once nothing else is in
    /// flight on the queue (the driver's timeout abort).
    pub fn io_getevents(
        &self,
        ctx: &mut ActorCtx,
        aio: &mut AioCtx,
        min: usize,
        max: usize,
    ) -> Vec<AioEvent> {
        ctx.delay(self.cost().user_to_kernel);
        let mut events = Vec::new();
        let mut comps = Vec::new();
        loop {
            self.device()
                .reap_ready_into(aio.queue, ctx.now(), max - events.len(), &mut comps);
            for c in comps.drain(..) {
                let Some(key) = aio.cmds.remove(&c.cid) else {
                    continue;
                };
                let p = aio
                    .pending
                    .get_mut(&key)
                    .expect("command of a pending iocb");
                p.left -= 1;
                p.failed |= !c.status.is_ok();
                if p.left == 0 {
                    let p = aio.pending.remove(&key).expect("pending iocb");
                    events.push(p.into_event(self));
                }
            }
            if events.len() >= min || aio.pending.is_empty() || events.len() >= max {
                break;
            }
            match self.device().next_ready_time(aio.queue) {
                Some(t) => ctx.wait_until(t),
                None => {
                    // Nothing left to post: the iocbs still pending lost
                    // a completion.
                    let mut lost: Vec<u16> = aio.pending.keys().copied().collect();
                    lost.sort_unstable();
                    for key in lost.into_iter().take(max - events.len()) {
                        let p = aio.pending.remove(&key).expect("pending iocb");
                        events.push(Pending { failed: true, ..p }.into_event(self));
                    }
                    aio.cmds.retain(|_, key| aio.pending.contains_key(key));
                    break;
                }
            }
        }
        ctx.delay(self.cost().kernel_to_user);
        events
    }

    /// Outstanding operations on a context.
    pub fn io_pending(&self, aio: &AioCtx) -> usize {
        aio.pending.len()
    }
}
