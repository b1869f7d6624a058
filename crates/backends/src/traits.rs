//! The backend abstraction the workload generators drive.

use std::sync::Arc;

use bypassd_offload::{
    HopStepper, HostDecide, Op, Outcome, ProgHandle, Program, NUM_REGS, STEP_NS,
};
use bypassd_os::{Errno, SysResult};
use bypassd_sim::engine::ActorCtx;
use bypassd_sim::time::Nanos;

/// Selects one of the compared I/O paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Baseline Linux synchronous syscalls.
    Sync,
    /// Linux native AIO.
    Libaio,
    /// io_uring with SQPOLL.
    IoUring,
    /// SPDK-style userspace driver (no FS, exclusive device).
    Spdk,
    /// XRP (eBPF resubmission in the driver).
    Xrp,
    /// BypassD (this paper).
    Bypassd,
    /// BypassD with device-side chain offload (one submission per
    /// chain, the device follows `Resubmit` offsets itself).
    BypassdOffload,
}

impl BackendKind {
    /// Display name matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Sync => "sync",
            BackendKind::Libaio => "libaio",
            BackendKind::IoUring => "io_uring",
            BackendKind::Spdk => "spdk",
            BackendKind::Xrp => "xrp",
            BackendKind::Bypassd => "bypassd",
            BackendKind::BypassdOffload => "bypassd+offload",
        }
    }

    /// All kinds, in the paper's usual legend order.
    pub fn all() -> [BackendKind; 7] {
        [
            BackendKind::Sync,
            BackendKind::Libaio,
            BackendKind::IoUring,
            BackendKind::Spdk,
            BackendKind::Xrp,
            BackendKind::Bypassd,
            BackendKind::BypassdOffload,
        ]
    }
}

/// A loaded offload program, as a backend sees it.
#[derive(Debug, Clone)]
pub enum OffloadProg {
    /// Loaded into a real engine (the device for BypassD+offload, the
    /// kernel driver hook for XRP): named by handle.
    Engine(ProgHandle),
    /// No engine on this path: the verified program itself, interpreted
    /// host-side over [`StorageBackend::pread`] — same IR, same results,
    /// full per-hop software cost.
    Host(Arc<Program>),
}

impl OffloadProg {
    /// Verifies `ops` host-side for an engine-less path (untimed).
    ///
    /// # Errors
    /// `Inval` if the verifier rejects the program.
    pub(crate) fn verify_host(ops: &[Op]) -> SysResult<OffloadProg> {
        Program::verify(ops.to_vec())
            .map(|p| OffloadProg::Host(Arc::new(p)))
            .map_err(|_| Errno::Inval)
    }
}

/// What decides a [`StorageBackend::chained_read`]'s next hop.
pub enum ChainDecider<'a> {
    /// Host code: the next byte offset, or `None` to finish. Costs no
    /// interpreter steps.
    Host(HostDecide<'a>),
    /// A loaded program, seeded with these registers.
    Prog(&'a OffloadProg, [u64; NUM_REGS]),
}

impl<'a> ChainDecider<'a> {
    /// The hop stepper for a chain decided in host code or by a
    /// host-interpreted program.
    ///
    /// # Errors
    /// `Inval` for an engine handle: only its engine can run it.
    pub(crate) fn host_stepper(self) -> SysResult<HopStepper<'a>> {
        match self {
            ChainDecider::Host(next) => Ok(HopStepper::host(next)),
            ChainDecider::Prog(OffloadProg::Host(program), regs) => {
                Ok(HopStepper::program(program, regs))
            }
            ChainDecider::Prog(OffloadProg::Engine(_), _) => Err(Errno::Inval),
        }
    }
}

/// Host interpretation of a chained read over `pread`: read `len` bytes
/// at `offset`, step the decider, charge its interpreter steps at
/// [`STEP_NS`], and follow the outcome. The one chain loop behind every
/// backend without its own engine.
///
/// # Errors
/// As [`StorageBackend::chained_read`].
pub(crate) fn host_chained_read(
    ctx: &mut ActorCtx,
    offset: u64,
    len: u64,
    decide: ChainDecider<'_>,
    mut pread: impl FnMut(&mut ActorCtx, &mut [u8], u64) -> SysResult<usize>,
) -> SysResult<Vec<u8>> {
    let mut hops = decide.host_stepper()?;
    let mut buf = vec![0u8; len as usize];
    let mut cur = offset;
    loop {
        pread(ctx, &mut buf, cur)?;
        let run = hops.step(&buf);
        // Even a zero delay yields to equal-time actors: a closure hop
        // (0 steps) must not add a scheduling point.
        if run.steps > 0 {
            ctx.delay(Nanos(run.steps * STEP_NS));
        }
        match run.outcome {
            Outcome::Resubmit { offset } => cur = offset,
            Outcome::Return => return Ok(buf),
            Outcome::Fail { .. } => return Err(Errno::Inval),
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A file handle within a backend.
pub type Handle = i32;

/// One thread's view of a storage backend.
///
/// All calls advance the actor's virtual time per the backend's cost
/// model and move real bytes.
pub trait StorageBackend: Send {
    /// The backend kind.
    fn kind(&self) -> BackendKind;

    /// Opens an existing file.
    ///
    /// # Errors
    /// Path/permission errors from the underlying path.
    fn open(&mut self, ctx: &mut ActorCtx, path: &str, writable: bool) -> SysResult<Handle>;

    /// Positional read.
    ///
    /// # Errors
    /// Backend-path errors.
    fn pread(
        &mut self,
        ctx: &mut ActorCtx,
        h: Handle,
        buf: &mut [u8],
        offset: u64,
    ) -> SysResult<usize>;

    /// Positional write.
    ///
    /// # Errors
    /// Backend-path errors.
    fn pwrite(
        &mut self,
        ctx: &mut ActorCtx,
        h: Handle,
        data: &[u8],
        offset: u64,
    ) -> SysResult<usize>;

    /// Durability barrier.
    ///
    /// # Errors
    /// Backend-path errors.
    fn fsync(&mut self, ctx: &mut ActorCtx, h: Handle) -> SysResult<()>;

    /// Closes the handle.
    ///
    /// # Errors
    /// Backend-path errors.
    fn close(&mut self, ctx: &mut ActorCtx, h: Handle) -> SysResult<()>;

    /// Chained dependent reads of `len` bytes each: read at `offset`,
    /// let `decide` name the next offset, repeat until it returns the
    /// block just read. Returns the final buffer.
    ///
    /// The default interprets the chain host-side over [`Self::pread`]:
    /// one full I/O round trip per hop, plus a
    /// program's exact step cost, so every backend runs *the same
    /// decision* and differs only in where the engine executes (§6.5
    /// apples-to-apples). XRP resubmits from the driver hook instead, and
    /// BypassD+offload runs a loaded program on the device.
    ///
    /// # Errors
    /// `Inval` for an engine handle on an engine-less backend, a program
    /// `Fail`, or an exhausted hop budget; backend-path errors.
    fn chained_read(
        &mut self,
        ctx: &mut ActorCtx,
        h: Handle,
        offset: u64,
        len: u64,
        decide: ChainDecider<'_>,
    ) -> SysResult<Vec<u8>> {
        host_chained_read(ctx, offset, len, decide, |ctx, buf, off| {
            self.pread(ctx, h, buf, off)
        })
    }

    /// Loads an operation-IR program for a [`ChainDecider::Prog`]
    /// chained read: verify-at-load, then install wherever this
    /// backend's engine lives. The default has no engine — it verifies
    /// host-side and returns the program for userspace interpretation.
    ///
    /// # Errors
    /// `Inval` if the verifier rejects the program.
    fn prog_load(&mut self, _ctx: &mut ActorCtx, ops: &[Op]) -> SysResult<OffloadProg> {
        OffloadProg::verify_host(ops)
    }

    /// Submits an asynchronous operation; returns a token. The default
    /// executes synchronously and buffers the completion for
    /// [`Self::poll`] — only libaio genuinely overlaps (KVell, Fig. 16).
    ///
    /// # Errors
    /// Backend-path errors.
    fn submit(
        &mut self,
        ctx: &mut ActorCtx,
        h: Handle,
        write: bool,
        offset: u64,
        len_or_data: Result<usize, Vec<u8>>,
        token: u64,
    ) -> SysResult<()> {
        let data = match len_or_data {
            Ok(len) => {
                let mut buf = vec![0u8; len];
                debug_assert!(!write);
                self.pread(ctx, h, &mut buf, offset)?;
                buf
            }
            Err(d) => {
                debug_assert!(write);
                self.pwrite(ctx, h, &d, offset)?;
                Vec::new()
            }
        };
        self.sync_completions().push((token, data));
        Ok(())
    }

    /// Collects at least `min` completions (tokens + read data).
    ///
    /// # Errors
    /// Backend-path errors.
    fn poll(&mut self, _ctx: &mut ActorCtx, _min: usize) -> SysResult<Vec<(u64, Vec<u8>)>> {
        Ok(std::mem::take(self.sync_completions()))
    }

    /// Buffer for the default synchronous `submit`/`poll` implementation.
    fn sync_completions(&mut self) -> &mut Vec<(u64, Vec<u8>)>;
}

/// Mints per-thread backends for one simulated process.
pub trait BackendFactory: Send + Sync {
    /// The backend kind.
    fn kind(&self) -> BackendKind;

    /// Creates a thread-private backend instance (untimed setup).
    fn make_thread(&self) -> Box<dyn StorageBackend>;
}
