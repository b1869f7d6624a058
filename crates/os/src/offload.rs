//! Kernel support for the offload engine: the program load syscall
//! (verify-at-load) and the XRP comparison path, which resubmits chained
//! reads from the driver's completion hook under the same hop rule
//! ([`HopStepper`]) as every other chain executor.
//!
//! The trust model mirrors eBPF: userspace hands the kernel an
//! instruction list, the kernel verifies it **once** at load time
//! ([`Program::verify`]) and only then installs the verified artifact
//! into the device's program table. The device never sees an unverified
//! program; a rejected program costs one syscall and an `Inval`, never a
//! device-side trap.

use std::sync::Arc;

use bypassd_offload::{HopStepper, Op, Outcome, ProgHandle, Program, STEP_NS};
use bypassd_sim::engine::{block_on, ActorCtx};
use bypassd_sim::time::Nanos;

use crate::kernel::{Errno, Kernel, SysResult};
use crate::process::{Fd, Pid};

/// Verifier cost charged per instruction at load time (abstract-
/// interpretation fixpoint over ≤ [`bypassd_offload::MAX_OPS`] ops —
/// small, and paid once per program, never per I/O).
pub const VERIFY_NS_PER_OP: u64 = 150;

/// The kernel's table of loaded offload programs. Handles are allocated
/// by the device (its table is authoritative — the handle travels in the
/// chain submission), the kernel mirrors them for kernel-side execution
/// (XRP, host-interpretation fallback).
#[derive(Default)]
pub(crate) struct ProgTable {
    entries: std::collections::HashMap<ProgHandle, Arc<Program>>,
}

impl Kernel {
    /// `prog_load()`: verifies `ops` and installs the program into the
    /// device program table, returning the handle chain submissions
    /// name. Verification cost is charged in virtual time proportional
    /// to program length; a rejected program is never installed. The
    /// calling process is named as in every syscall, but a program has
    /// no owner: it stays loaded for the kernel's lifetime.
    ///
    /// # Errors
    /// `Inval` if the verifier rejects the program.
    pub fn sys_prog_load(
        &self,
        ctx: &mut ActorCtx,
        _pid: Pid,
        ops: Vec<Op>,
    ) -> SysResult<ProgHandle> {
        let cost = *self.cost();
        ctx.delay(cost.user_to_kernel + Nanos(VERIFY_NS_PER_OP * ops.len() as u64));
        let verified = match Program::verify(ops) {
            Ok(p) => Arc::new(p),
            Err(_) => {
                ctx.delay(cost.kernel_to_user);
                return Err(Errno::Inval);
            }
        };
        let handle = self.device().install_program(Arc::clone(&verified));
        self.progs.lock().entries.insert(handle, verified);
        ctx.delay(cost.kernel_to_user);
        Ok(handle)
    }

    /// The verified program behind `handle`, if loaded. Untimed — used
    /// by kernel-side executors and by UserLib's host-interpretation
    /// fallback after a revocation.
    pub fn prog_of(&self, handle: ProgHandle) -> Option<Arc<Program>> {
        self.progs.lock().entries.get(&handle).map(Arc::clone)
    }

    /// XRP (\[70\], the paper's kernel-side comparison point): a chained
    /// read whose resubmissions are issued from the NVMe driver's
    /// completion hook. The chain crosses the syscall boundary and the
    /// VFS/block layers **once**; every later hop pays only
    /// `xrp_resubmit` (driver hook + eBPF) plus device time, which is why
    /// XRP helps chained I/O but not single I/Os or scans (Figs. 13–15).
    ///
    /// Each hop reads `len` bytes at a sector-aligned absolute file
    /// offset, resolved through the file system, and `hops` decides the
    /// next one: a host closure models a fixed-layout eBPF function at no
    /// step cost, while a verified program (the *same* IR a BypassD chain
    /// runs at the device) is charged its exact steps at [`STEP_NS`]. So
    /// XRP and BypassD+offload differ only in *where* the engine runs.
    /// Returns the final buffer.
    ///
    /// # Errors
    /// `BadF`, `Perm`, `Inval` (bad `len`, unaligned or out-of-file
    /// offsets, a program `Fail`, or an exhausted hop budget).
    pub fn xrp_chained_read(
        &self,
        ctx: &mut ActorCtx,
        pid: Pid,
        fd: Fd,
        offset: u64,
        len: u64,
        mut hops: HopStepper<'_>,
    ) -> SysResult<Vec<u8>> {
        let cost = *self.cost();
        // One full kernel entry for the first I/O; every later hop
        // starts at the driver's completion hook.
        ctx.delay(cost.user_to_kernel + cost.vfs(len) + cost.block_path());
        let mut cur = offset;
        let mut buf = vec![0u8; len as usize];
        loop {
            let (segs, extra) = match self.direct_segments(pid, fd, cur, len, false) {
                Ok(hop) => hop,
                Err(e) => {
                    ctx.delay(cost.kernel_to_user);
                    return Err(e);
                }
            };
            ctx.delay(extra);
            block_on(self.device_read_fut(ctx, self.kq, &segs, &mut buf))?;
            let run = hops.step(&buf);
            // Even a zero delay yields to equal-time actors: a closure
            // hop (0 steps) must not add a scheduling point.
            if run.steps > 0 {
                ctx.delay(Nanos(run.steps * STEP_NS));
            }
            match run.outcome {
                Outcome::Resubmit { offset: next } => {
                    // Driver-hook resubmission: no VFS re-entry, no mode
                    // switch.
                    ctx.delay(cost.xrp_resubmit);
                    cur = next;
                }
                Outcome::Return => {
                    ctx.delay(cost.kernel_to_user);
                    return Ok(buf);
                }
                Outcome::Fail { .. } => {
                    ctx.delay(cost.kernel_to_user);
                    return Err(Errno::Inval);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bypassd_offload::{Cond, Width};

    #[test]
    fn verify_cost_is_per_op() {
        // Pure constant check: the load-time charge scales with length.
        assert_eq!(VERIFY_NS_PER_OP * 3, 450);
    }

    #[test]
    fn rejected_programs_are_not_installed() {
        // A backward-jump-free structural reject: Load with an
        // unbounded base register.
        let ops = vec![
            Op::Load {
                dst: 0,
                width: Width::U64,
                base: 1,
                disp: 0,
            },
            Op::Return,
        ];
        assert!(Program::verify(ops).is_err());
    }

    #[test]
    fn follow_program_verifies() {
        // The canonical pointer-chase: load next offset, stop on zero.
        let ops = vec![
            Op::Imm { dst: 2, imm: 0 },
            Op::Imm { dst: 0, imm: 0 },
            Op::Load {
                dst: 1,
                width: Width::U64,
                base: 0,
                disp: 0,
            },
            Op::Jmp {
                cond: Cond::Eq,
                a: 1,
                b: 2,
                skip: 1,
            },
            Op::Resubmit { addr: 1 },
            Op::Return,
        ];
        assert!(Program::verify(ops).is_ok());
    }
}
