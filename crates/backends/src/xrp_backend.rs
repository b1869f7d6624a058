//! XRP: sync syscalls for plain I/O, in-driver resubmission for chains.

use std::sync::Arc;

use bypassd::System;
use bypassd_offload::{HopStepper, Op};
use bypassd_os::{Errno, Kernel, OpenFlags, Pid, SysResult};
use bypassd_sim::engine::ActorCtx;

use crate::traits::{
    BackendFactory, BackendKind, ChainDecider, Handle, OffloadProg, StorageBackend,
};

/// One simulated process using XRP.
pub struct XrpFactory {
    kernel: Arc<Kernel>,
    pid: Pid,
}

impl XrpFactory {
    /// Spawns the process.
    pub fn new(system: &System, uid: u32, gid: u32) -> Self {
        let kernel = Arc::clone(system.kernel());
        let pid = kernel.spawn_process(uid, gid);
        XrpFactory { kernel, pid }
    }
}

impl BackendFactory for XrpFactory {
    fn kind(&self) -> BackendKind {
        BackendKind::Xrp
    }

    fn make_thread(&self) -> Box<dyn StorageBackend> {
        Box::new(XrpBackend {
            kernel: Arc::clone(&self.kernel),
            pid: self.pid,
            completions: Vec::new(),
        })
    }
}

struct XrpBackend {
    kernel: Arc<Kernel>,
    pid: Pid,
    completions: Vec<(u64, Vec<u8>)>,
}

impl StorageBackend for XrpBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Xrp
    }

    fn open(&mut self, ctx: &mut ActorCtx, path: &str, writable: bool) -> SysResult<Handle> {
        let flags = if writable {
            OpenFlags::rdwr_direct()
        } else {
            OpenFlags::rdonly_direct()
        };
        self.kernel.sys_open(ctx, self.pid, path, flags, 0o644)
    }

    fn pread(
        &mut self,
        ctx: &mut ActorCtx,
        h: Handle,
        buf: &mut [u8],
        offset: u64,
    ) -> SysResult<usize> {
        self.kernel.sys_pread(ctx, self.pid, h, buf, offset)
    }

    fn pwrite(
        &mut self,
        ctx: &mut ActorCtx,
        h: Handle,
        data: &[u8],
        offset: u64,
    ) -> SysResult<usize> {
        self.kernel.sys_pwrite(ctx, self.pid, h, data, offset)
    }

    fn fsync(&mut self, ctx: &mut ActorCtx, h: Handle) -> SysResult<()> {
        self.kernel.sys_fsync(ctx, self.pid, h)
    }

    fn close(&mut self, ctx: &mut ActorCtx, h: Handle) -> SysResult<()> {
        self.kernel.sys_close(ctx, self.pid, h)
    }

    fn prog_load(&mut self, ctx: &mut ActorCtx, ops: &[Op]) -> SysResult<OffloadProg> {
        // XRP loads the same verified IR into the kernel's program
        // table (the eBPF-load analogue); chains execute it at the
        // driver's completion hook.
        self.kernel
            .sys_prog_load(ctx, self.pid, ops.to_vec())
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
        // An engine program runs at the driver hook, resolved by handle
        // as the hook would.
        let hops = match decide {
            ChainDecider::Prog(OffloadProg::Engine(handle), regs) => {
                let prog = self.kernel.prog_of(*handle).ok_or(Errno::Inval)?;
                return self.kernel.xrp_chained_read(
                    ctx,
                    self.pid,
                    h,
                    offset,
                    len,
                    HopStepper::program(&prog, regs),
                );
            }
            other => other.host_stepper()?,
        };
        self.kernel
            .xrp_chained_read(ctx, self.pid, h, offset, len, hops)
    }

    fn sync_completions(&mut self) -> &mut Vec<(u64, Vec<u8>)> {
        &mut self.completions
    }
}
