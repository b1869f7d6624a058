//! BypassD: the paper's system, via UserLib. Also hosts the
//! BypassD+offload variant: the same UserLib data path, with chained
//! reads dispatched as one-submission device chains.

use std::sync::Arc;

use bypassd::{System, UserProcess, UserThread};
use bypassd_offload::Op;
use bypassd_os::{Errno, SysResult};
use bypassd_sim::engine::ActorCtx;

use crate::traits::{BackendFactory, BackendKind, Handle, OffloadProg, StorageBackend};

/// One simulated process using BypassD (threads share UserLib state but
/// own private queues and DMA buffers, §4.5.1).
pub struct BypassdFactory {
    proc: Arc<UserProcess>,
    kind: BackendKind,
}

impl BypassdFactory {
    /// Starts the process on the plain BypassD path.
    pub fn new(system: &System, uid: u32, gid: u32) -> Self {
        BypassdFactory {
            proc: UserProcess::start(system, uid, gid),
            kind: BackendKind::Bypassd,
        }
    }

    /// Starts the process with device-side chain offload enabled:
    /// program-driven chained reads go down as **one** submission each
    /// ([`UserThread::pread_chain`]); everything else is plain BypassD.
    pub fn new_offload(system: &System, uid: u32, gid: u32) -> Self {
        BypassdFactory {
            proc: UserProcess::start(system, uid, gid),
            kind: BackendKind::BypassdOffload,
        }
    }
}

impl BackendFactory for BypassdFactory {
    fn kind(&self) -> BackendKind {
        self.kind
    }

    fn make_thread(&self) -> Box<dyn StorageBackend> {
        Box::new(BypassdBackend {
            thread: self.proc.thread(),
            kind: self.kind,
            completions: Vec::new(),
        })
    }
}

struct BypassdBackend {
    thread: UserThread,
    kind: BackendKind,
    completions: Vec<(u64, Vec<u8>)>,
}

impl StorageBackend for BypassdBackend {
    fn kind(&self) -> BackendKind {
        self.kind
    }

    fn open(&mut self, ctx: &mut ActorCtx, path: &str, writable: bool) -> SysResult<Handle> {
        self.thread.open(ctx, path, writable)
    }

    fn pread(
        &mut self,
        ctx: &mut ActorCtx,
        h: Handle,
        buf: &mut [u8],
        offset: u64,
    ) -> SysResult<usize> {
        self.thread.pread(ctx, h, buf, offset)
    }

    fn pwrite(
        &mut self,
        ctx: &mut ActorCtx,
        h: Handle,
        data: &[u8],
        offset: u64,
    ) -> SysResult<usize> {
        self.thread.pwrite(ctx, h, data, offset)
    }

    fn fsync(&mut self, ctx: &mut ActorCtx, h: Handle) -> SysResult<()> {
        self.thread.fsync(ctx, h)
    }

    fn close(&mut self, ctx: &mut ActorCtx, h: Handle) -> SysResult<()> {
        self.thread.close(ctx, h)
    }

    fn prog_load(&mut self, ctx: &mut ActorCtx, ops: &[Op]) -> SysResult<OffloadProg> {
        if self.kind != BackendKind::BypassdOffload {
            // Plain BypassD has no device engine: verify host-side and
            // interpret chains in userspace at full per-hop cost.
            return host_verify(ops);
        }
        let kernel = Arc::clone(self.thread.process().system().kernel());
        let pid = self.thread.process().pid();
        kernel
            .sys_prog_load(ctx, pid, ops.to_vec())
            .map(OffloadProg::Engine)
    }

    fn chained_read_prog(
        &mut self,
        ctx: &mut ActorCtx,
        h: Handle,
        start: u64,
        prog: &OffloadProg,
        regs: [u64; bypassd_offload::NUM_REGS],
    ) -> SysResult<Vec<u8>> {
        match prog {
            OffloadProg::Engine(handle) => {
                let mut buf = vec![0u8; bypassd_offload::BLOCK];
                self.thread
                    .pread_chain(ctx, h, *handle, regs, start, &mut buf)?;
                Ok(buf)
            }
            OffloadProg::Host(program) => {
                // Same default loop as the trait, spelled out here to
                // keep the borrow on `self.thread` direct.
                let mut st = bypassd_offload::ChainState::new(regs);
                let mut cur = start;
                let mut buf = vec![0u8; bypassd_offload::BLOCK];
                for _ in 0..bypassd_offload::MAX_HOPS {
                    self.thread.pread(ctx, h, &mut buf, cur)?;
                    let run = bypassd_offload::run_hop(program, &mut st, &buf);
                    ctx.delay(bypassd_sim::time::Nanos(
                        run.steps * bypassd_offload::STEP_NS,
                    ));
                    match run.outcome {
                        bypassd_offload::Outcome::Resubmit { offset } => cur = offset,
                        bypassd_offload::Outcome::Return => return Ok(buf),
                        bypassd_offload::Outcome::Fail { .. } => return Err(Errno::Inval),
                    }
                }
                Err(Errno::Inval)
            }
        }
    }

    fn sync_completions(&mut self) -> &mut Vec<(u64, Vec<u8>)> {
        &mut self.completions
    }
}

/// Host-side verify for the engine-less path.
fn host_verify(ops: &[Op]) -> SysResult<OffloadProg> {
    bypassd_offload::Program::verify(ops.to_vec())
        .map(|p| OffloadProg::Host(Arc::new(p)))
        .map_err(|_| Errno::Inval)
}
