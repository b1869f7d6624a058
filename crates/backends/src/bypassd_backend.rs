//! BypassD: the paper's system, via UserLib. Also hosts the
//! BypassD+offload variant: the same UserLib data path, with chained
//! reads dispatched as one-submission device chains.

use std::sync::Arc;

use bypassd::{System, UserProcess, UserThread};
use bypassd_offload::Op;
use bypassd_os::SysResult;
use bypassd_sim::engine::ActorCtx;

use crate::traits::{
    host_chained_read, BackendFactory, BackendKind, ChainDecider, Handle, OffloadProg,
    StorageBackend,
};

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
            return OffloadProg::verify_host(ops);
        }
        let kernel = Arc::clone(self.thread.process().system().kernel());
        let pid = self.thread.process().pid();
        kernel
            .sys_prog_load(ctx, pid, ops.to_vec())
            .map(OffloadProg::Engine)
    }

    fn chained_read(
        &mut self,
        ctx: &mut ActorCtx,
        h: Handle,
        offset: u64,
        len: u64,
        decide: ChainDecider<'_>,
    ) -> SysResult<Vec<u8>> {
        if let ChainDecider::Prog(OffloadProg::Engine(handle), regs) = decide {
            let mut buf = vec![0u8; len as usize];
            self.thread
                .pread_chain(ctx, h, *handle, regs, offset, &mut buf)?;
            return Ok(buf);
        }
        let thread = &mut self.thread;
        host_chained_read(ctx, offset, len, decide, |ctx, buf, off| {
            thread.pread(ctx, h, buf, off)
        })
    }

    fn sync_completions(&mut self) -> &mut Vec<(u64, Vec<u8>)> {
        &mut self.completions
    }
}
