//! XRP: in-kernel storage functions via eBPF resubmission (the paper's
//! state-of-the-art kernel-side comparison point \[70\]).
//!
//! XRP hooks the NVMe driver's completion path: a chained lookup (e.g. a
//! B-tree traversal) crosses the syscall boundary and the VFS/block
//! layers **once**; each subsequent hop re-submits from the driver after
//! running a user-supplied eBPF function over the completed buffer. The
//! per-hop cost is therefore `xrp_resubmit` (driver + eBPF) + device time
//! instead of the full kernel stack — which is exactly why XRP helps
//! chained I/O but cannot help single I/Os or scans (Figs. 13–15).

use bypassd_sim::engine::ActorCtx;

use crate::kernel::{Errno, Kernel, SysResult};
use crate::process::{Fd, Pid};

/// Maximum hops per chained call (XRP's resubmission budget).
pub const MAX_HOPS: usize = 32;

impl Kernel {
    /// Performs a chained read: reads `len` bytes at `offset`, feeds the
    /// buffer to `next`, and — while `next` returns `Some(next_offset)` —
    /// resubmits from the driver hook. Returns the final buffer.
    ///
    /// The `next` callback models the eBPF function (it must be pure
    /// lookup logic, as XRP requires a fixed on-disk layout).
    ///
    /// # Errors
    /// `BadF`, `Perm`, `Inval` (unaligned or out-of-file offsets, or hop
    /// budget exhausted).
    pub fn xrp_chained_read(
        &self,
        ctx: &mut ActorCtx,
        pid: Pid,
        fd: Fd,
        offset: u64,
        len: u64,
        next: &mut dyn FnMut(&[u8]) -> Option<u64>,
    ) -> SysResult<Vec<u8>> {
        let cost = *self.cost();
        if len == 0 || !len.is_multiple_of(512) {
            return Err(Errno::Inval);
        }
        let (ino, _w, readable) = self.fd_snapshot(pid, fd)?;
        if !readable {
            return Err(Errno::Perm);
        }
        // One full kernel entry for the first I/O.
        ctx.delay(cost.user_to_kernel + cost.vfs(len) + cost.block_path());
        let size = self.fs().size_of(ino)?;
        let mut cur = offset;
        let mut buf = vec![0u8; len as usize];
        for hop in 0..MAX_HOPS {
            if !cur.is_multiple_of(512) || cur + len > size {
                ctx.delay(cost.kernel_to_user);
                return Err(Errno::Inval);
            }
            let (segs, extra) = self.fs().resolve(ino, cur, len)?;
            ctx.delay(extra);
            self.device_read(ctx, &segs, &mut buf)?;
            match next(&buf) {
                Some(n) => {
                    // Resubmission from the driver hook: eBPF + driver
                    // only — no VFS, no block layer, no mode switch.
                    ctx.delay(cost.xrp_resubmit);
                    cur = n;
                }
                None => {
                    ctx.delay(cost.kernel_to_user);
                    return Ok(buf);
                }
            }
            if hop == MAX_HOPS - 1 {
                ctx.delay(cost.kernel_to_user);
                return Err(Errno::Inval);
            }
        }
        unreachable!()
    }
}
