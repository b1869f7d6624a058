//! The one backend type: a simulated process on one compared I/O path
//! ([`BackendProcess`]) and the per-thread [`Backend`] it mints. The
//! path is a value, matched in each method; the four kernel paths (sync,
//! libaio, io_uring, XRP) share one `{kernel, pid}` state and its
//! `open`/`fsync`/`close`.

use std::sync::Arc;

use bypassd::{System, UserProcess, UserThread};
use bypassd_offload::{HopStepper, Op, ProgHandle, NUM_REGS};
use bypassd_os::aio::{AioCtx, AioData, AioEvent, AioOp};
use bypassd_os::uring::Uring;
use bypassd_os::{Errno, Kernel, OpenFlags, Pid, SysResult};
use bypassd_sim::engine::ActorCtx;

use crate::chain::{host_chained_read, ChainDecider, OffloadProg};
use crate::{BackendKind, Handle, SpdkBackend};

/// One simulated process on one I/O path; call [`BackendProcess::thread`]
/// once per simulated workload thread. Cloning shares the process.
#[derive(Clone)]
pub struct BackendProcess {
    kind: BackendKind,
    system: System,
    owner: Owner,
    /// libaio's per-thread context depth.
    aio_depth: usize,
}

#[derive(Clone)]
enum Owner {
    /// Sync, libaio, io_uring and XRP: a kernel process.
    Kernel(Pid),
    /// SPDK owns the device itself; there is no process to spawn.
    Spdk,
    /// BypassD (plain or offload): threads share UserLib state but own
    /// private queues and DMA buffers (§4.5.1).
    Bypassd(Arc<UserProcess>),
}

impl BackendProcess {
    /// Spawns a process on path `kind` over `system`, as user
    /// `uid`/`gid`. libaio gets a depth-1 context per thread.
    pub fn new(kind: BackendKind, system: &System, uid: u32, gid: u32) -> BackendProcess {
        let owner = match kind {
            BackendKind::Spdk => Owner::Spdk,
            BackendKind::Bypassd | BackendKind::BypassdOffload => {
                Owner::Bypassd(UserProcess::start(system, uid, gid))
            }
            _ => Owner::Kernel(system.kernel().spawn_process(uid, gid)),
        };
        BackendProcess {
            kind,
            system: system.clone(),
            owner,
            aio_depth: 1,
        }
    }

    /// Spawns a libaio process whose threads each get a `depth`-iocb
    /// context (KVell's queue depth, Fig. 16).
    pub fn libaio(system: &System, uid: u32, gid: u32, depth: usize) -> BackendProcess {
        BackendProcess {
            aio_depth: depth.max(1),
            ..BackendProcess::new(BackendKind::Libaio, system, uid, gid)
        }
    }

    /// The path.
    pub fn kind(&self) -> BackendKind {
        self.kind
    }

    /// Creates a thread-private backend (untimed setup: SPDK and BypassD
    /// create their queue here; libaio and io_uring set theirs up at the
    /// first I/O).
    pub fn thread(&self) -> Backend {
        let io = match &self.owner {
            Owner::Kernel(pid) => Io::Kernel {
                kernel: Arc::clone(self.system.kernel()),
                pid: *pid,
                queue: match self.kind {
                    BackendKind::Libaio => KernelQueue::Libaio(self.aio_depth, None),
                    // Each thread gets its own ring, and thus its own
                    // SQPOLL kernel thread (the Fig. 9 core cost).
                    BackendKind::IoUring => KernelQueue::Uring(None),
                    _ => KernelQueue::Syscalls,
                },
            },
            Owner::Spdk => Io::Spdk(SpdkBackend::new(&self.system)),
            Owner::Bypassd(proc) => Io::Bypassd(proc.thread()),
        };
        Backend {
            kind: self.kind,
            io,
            done: Vec::new(),
        }
    }
}

/// One thread's view of a storage path. Every call advances the actor's
/// virtual time per the path's cost model and moves real bytes.
pub struct Backend {
    kind: BackendKind,
    io: Io,
    /// Completions of a synchronous [`Backend::submit`], returned by the
    /// next [`Backend::poll`].
    done: Vec<(u64, Vec<u8>)>,
}

enum Io {
    /// Process `pid`'s syscalls on `kernel`.
    Kernel {
        kernel: Arc<Kernel>,
        pid: Pid,
        queue: KernelQueue,
    },
    Spdk(SpdkBackend),
    Bypassd(UserThread),
}

/// How a kernel path reads and writes data.
enum KernelQueue {
    /// Sync and XRP: `pread`/`pwrite` syscalls.
    Syscalls,
    /// libaio: a context of this depth, set up at the first I/O. At
    /// queue depth 1 it behaves like the sync path with a little extra
    /// bookkeeping (Fig. 6).
    Libaio(usize, Option<AioCtx>),
    /// io_uring with SQPOLL and fixed buffers, set up at the first I/O.
    Uring(Option<Uring>),
}

/// One libaio iocb at queue depth 1: submit it, then wait for its event.
fn aio_once(
    kernel: &Kernel,
    ctx: &mut ActorCtx,
    pid: Pid,
    aio: &mut AioCtx,
    op: AioOp,
) -> SysResult<AioEvent> {
    kernel.io_submit(ctx, pid, aio, vec![op])?;
    let ev = kernel.io_getevents(ctx, aio, 1, 1).pop().ok_or(Errno::Io)?;
    ev.res?;
    Ok(ev)
}

impl Backend {
    /// Opens an existing file (`O_DIRECT` on the kernel paths).
    ///
    /// # Errors
    /// Path/permission errors from the underlying path.
    pub fn open(&mut self, ctx: &mut ActorCtx, path: &str, writable: bool) -> SysResult<Handle> {
        match &mut self.io {
            Io::Kernel { kernel, pid, .. } => {
                let flags = if writable {
                    OpenFlags::rdwr_direct()
                } else {
                    OpenFlags::rdonly_direct()
                };
                kernel.sys_open(ctx, *pid, path, flags, 0o644)
            }
            Io::Spdk(spdk) => spdk.open(path),
            Io::Bypassd(thread) => thread.open(ctx, path, writable),
        }
    }

    /// Positional read.
    ///
    /// # Errors
    /// Path errors; `Io` on a media error or a lost completion.
    pub fn pread(
        &mut self,
        ctx: &mut ActorCtx,
        h: Handle,
        buf: &mut [u8],
        offset: u64,
    ) -> SysResult<usize> {
        match &mut self.io {
            Io::Kernel { kernel, pid, queue } => match queue {
                KernelQueue::Syscalls => kernel.sys_pread(ctx, *pid, h, buf, offset),
                KernelQueue::Libaio(depth, aio) => {
                    let aio = aio.get_or_insert_with(|| kernel.io_setup(ctx, *depth));
                    let op = AioOp {
                        fd: h,
                        offset,
                        user_data: 0,
                        data: AioData::Read(buf.len()),
                    };
                    let ev = aio_once(kernel, ctx, *pid, aio, op)?;
                    buf.copy_from_slice(&ev.data);
                    ev.res
                }
                KernelQueue::Uring(ring) => {
                    let ring = ring.get_or_insert_with(|| kernel.uring_setup(ctx, 64));
                    kernel.uring_read(ctx, *pid, ring, h, buf, offset)
                }
            },
            Io::Spdk(spdk) => spdk.pread(ctx, h, buf, offset),
            Io::Bypassd(thread) => thread.pread(ctx, h, buf, offset),
        }
    }

    /// Positional write.
    ///
    /// # Errors
    /// Path errors; `Io` on a media error or a lost completion.
    pub fn pwrite(
        &mut self,
        ctx: &mut ActorCtx,
        h: Handle,
        data: &[u8],
        offset: u64,
    ) -> SysResult<usize> {
        match &mut self.io {
            Io::Kernel { kernel, pid, queue } => match queue {
                KernelQueue::Syscalls => kernel.sys_pwrite(ctx, *pid, h, data, offset),
                KernelQueue::Libaio(depth, aio) => {
                    let aio = aio.get_or_insert_with(|| kernel.io_setup(ctx, *depth));
                    let op = AioOp {
                        fd: h,
                        offset,
                        user_data: 0,
                        data: AioData::Write(data.to_vec()),
                    };
                    aio_once(kernel, ctx, *pid, aio, op)?.res
                }
                KernelQueue::Uring(ring) => {
                    let ring = ring.get_or_insert_with(|| kernel.uring_setup(ctx, 64));
                    kernel.uring_write(ctx, *pid, ring, h, data, offset)
                }
            },
            Io::Spdk(spdk) => spdk.pwrite(ctx, h, data, offset),
            Io::Bypassd(thread) => thread.pwrite(ctx, h, data, offset),
        }
    }

    /// Durability barrier (a device flush on SPDK).
    ///
    /// # Errors
    /// Path errors.
    pub fn fsync(&mut self, ctx: &mut ActorCtx, h: Handle) -> SysResult<()> {
        match &mut self.io {
            Io::Kernel { kernel, pid, .. } => kernel.sys_fsync(ctx, *pid, h),
            Io::Spdk(spdk) => {
                spdk.fsync(ctx);
                Ok(())
            }
            Io::Bypassd(thread) => thread.fsync(ctx, h),
        }
    }

    /// Closes the handle.
    ///
    /// # Errors
    /// Path errors.
    pub fn close(&mut self, ctx: &mut ActorCtx, h: Handle) -> SysResult<()> {
        match &mut self.io {
            Io::Kernel { kernel, pid, .. } => kernel.sys_close(ctx, *pid, h),
            Io::Spdk(spdk) => spdk.close(h),
            Io::Bypassd(thread) => thread.close(ctx, h),
        }
    }

    /// Chained dependent reads of `len` bytes each: read at `offset`,
    /// let `decide` name the next offset, repeat until it returns the
    /// block just read. Returns the final buffer.
    ///
    /// XRP resubmits from the driver hook, and BypassD+offload runs a
    /// loaded engine program on the device. Every other chain is
    /// interpreted host-side over [`Backend::pread`]: one full I/O round
    /// trip per hop, plus a program's exact step cost, so every path runs
    /// *the same decision* and differs only in where the engine executes
    /// (§6.5 apples-to-apples).
    ///
    /// # Errors
    /// `Inval` for an engine handle on a path without that engine, a
    /// program `Fail`, or an exhausted hop budget; path errors.
    pub fn chained_read(
        &mut self,
        ctx: &mut ActorCtx,
        h: Handle,
        offset: u64,
        len: u64,
        decide: ChainDecider<'_>,
    ) -> SysResult<Vec<u8>> {
        if let ChainDecider::Prog(OffloadProg::Engine(handle), regs) = decide {
            return self.engine_chain(ctx, h, offset, len, *handle, regs);
        }
        if let (BackendKind::Xrp, Io::Kernel { kernel, pid, .. }) = (self.kind, &self.io) {
            return kernel.xrp_chained_read(ctx, *pid, h, offset, len, decide.host_stepper()?);
        }
        host_chained_read(ctx, offset, len, decide, |ctx, buf, off| {
            self.pread(ctx, h, buf, off)
        })
    }

    /// A chain decided by an engine program: XRP runs it at the driver
    /// hook, resolved by handle as the hook would; BypassD+offload sends
    /// the chain down as one device submission.
    fn engine_chain(
        &mut self,
        ctx: &mut ActorCtx,
        h: Handle,
        offset: u64,
        len: u64,
        handle: ProgHandle,
        regs: [u64; NUM_REGS],
    ) -> SysResult<Vec<u8>> {
        match (self.kind, &mut self.io) {
            (BackendKind::Xrp, Io::Kernel { kernel, pid, .. }) => {
                let prog = kernel.prog_of(handle).ok_or(Errno::Inval)?;
                let hops = HopStepper::program(&prog, regs);
                kernel.xrp_chained_read(ctx, *pid, h, offset, len, hops)
            }
            (BackendKind::BypassdOffload, Io::Bypassd(thread)) => {
                let mut buf = vec![0u8; len as usize];
                thread.pread_chain(ctx, h, handle, regs, offset, &mut buf)?;
                Ok(buf)
            }
            _ => Err(Errno::Inval),
        }
    }

    /// Loads an operation-IR program for a [`ChainDecider::Prog`]
    /// chained read: verify-at-load, then install wherever this path's
    /// engine lives. XRP and BypassD+offload load it into the kernel's
    /// program table (the eBPF-load analogue); every other path has no
    /// engine, verifies host-side and returns the program for userspace
    /// interpretation.
    ///
    /// # Errors
    /// `Inval` if the verifier rejects the program.
    pub fn prog_load(&mut self, ctx: &mut ActorCtx, ops: &[Op]) -> SysResult<OffloadProg> {
        let (kernel, pid) = match (self.kind, &self.io) {
            (BackendKind::Xrp, Io::Kernel { kernel, pid, .. }) => (kernel, *pid),
            (BackendKind::BypassdOffload, Io::Bypassd(thread)) => {
                let proc = thread.process();
                (proc.system().kernel(), proc.pid())
            }
            _ => return OffloadProg::verify_host(ops),
        };
        kernel
            .sys_prog_load(ctx, pid, ops.to_vec())
            .map(OffloadProg::Engine)
    }

    /// Submits an asynchronous read (`Ok(len)`) or write (`Err(data)`)
    /// tagged `token`. Only libaio overlaps it (KVell, Fig. 16); every
    /// other path runs it synchronously and holds its completion for
    /// [`Backend::poll`].
    ///
    /// # Errors
    /// Path errors.
    pub fn submit(
        &mut self,
        ctx: &mut ActorCtx,
        h: Handle,
        write: bool,
        offset: u64,
        len_or_data: Result<usize, Vec<u8>>,
        token: u64,
    ) -> SysResult<()> {
        debug_assert_eq!(len_or_data.is_err(), write);
        if let Io::Kernel {
            kernel,
            pid,
            queue: KernelQueue::Libaio(depth, aio),
        } = &mut self.io
        {
            let aio = aio.get_or_insert_with(|| kernel.io_setup(ctx, *depth));
            let op = AioOp {
                fd: h,
                offset,
                user_data: token,
                data: match len_or_data {
                    Ok(len) => AioData::Read(len),
                    Err(d) => AioData::Write(d),
                },
            };
            kernel.io_submit(ctx, *pid, aio, vec![op])?;
            return Ok(());
        }
        let data = match len_or_data {
            Ok(len) => {
                let mut buf = vec![0u8; len];
                self.pread(ctx, h, &mut buf, offset)?;
                buf
            }
            Err(d) => {
                self.pwrite(ctx, h, &d, offset)?;
                Vec::new()
            }
        };
        self.done.push((token, data));
        Ok(())
    }

    /// Collects at least `min` completions (tokens + read data).
    ///
    /// # Errors
    /// Path errors; `Io` if a collected libaio iocb failed.
    pub fn poll(&mut self, ctx: &mut ActorCtx, min: usize) -> SysResult<Vec<(u64, Vec<u8>)>> {
        let Io::Kernel {
            kernel,
            queue: KernelQueue::Libaio(depth, aio),
            ..
        } = &mut self.io
        else {
            return Ok(std::mem::take(&mut self.done));
        };
        let aio = aio.get_or_insert_with(|| kernel.io_setup(ctx, *depth));
        kernel
            .io_getevents(ctx, aio, min, *depth)
            .into_iter()
            .map(|e| e.res.map(|_| (e.user_data, e.data)))
            .collect()
    }
}
