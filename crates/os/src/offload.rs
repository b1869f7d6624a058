//! Kernel support for the offload engine: the program load syscall
//! (verify-at-load) and the XRP comparison path executing the *same* IR
//! kernel-side.
//!
//! The trust model mirrors eBPF: userspace hands the kernel an
//! instruction list, the kernel verifies it **once** at load time
//! ([`Program::verify`]) and only then installs the verified artifact
//! into the device's program table. The device never sees an unverified
//! program; a rejected program costs one syscall and an `Inval`, never a
//! device-side trap.

use std::sync::Arc;

use bypassd_offload::{run_hop, ChainState, Op, Outcome, ProgHandle, Program, BLOCK, STEP_NS};
use bypassd_sim::engine::ActorCtx;
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

    /// XRP ported onto the real offload engine (§6.5 apples-to-apples):
    /// a chained read whose resubmission decisions come from the *same
    /// verified IR program* a BypassD chain would run at the device —
    /// executed kernel-side at the driver's completion hook. Each hop
    /// pays `xrp_resubmit` (driver hook + program execution overhead)
    /// plus the program's exact interpreter steps at [`STEP_NS`], so XRP
    /// and BypassD+offload differ only in *where* the engine runs, never
    /// in what the program computes.
    ///
    /// The chain's window is the file: `Resubmit` offsets are absolute
    /// byte offsets, sector-aligned, resolved through the file system
    /// per hop exactly like [`Kernel::xrp_chained_read`]. Returns the
    /// final 512 B block.
    ///
    /// # Errors
    /// `BadF`, `Perm`, `Inval` (unknown program, unaligned or
    /// out-of-file offsets, program `Fail`, or hop budget exhausted).
    pub fn xrp_chained_read_offload(
        &self,
        ctx: &mut ActorCtx,
        pid: Pid,
        fd: Fd,
        offset: u64,
        handle: ProgHandle,
        regs: [u64; bypassd_offload::NUM_REGS],
    ) -> SysResult<Vec<u8>> {
        let cost = *self.cost();
        let prog = self.prog_of(handle).ok_or(Errno::Inval)?;
        let (ino, _w, readable) = self.fd_snapshot(pid, fd)?;
        if !readable {
            return Err(Errno::Perm);
        }
        let len = BLOCK as u64;
        // One full kernel entry for the first I/O; every later hop
        // starts at the driver's completion hook.
        ctx.delay(cost.user_to_kernel + cost.vfs(len) + cost.block_path());
        let size = self.fs().size_of(ino)?;
        let mut st = ChainState::new(regs);
        let mut cur = offset;
        let mut buf = vec![0u8; BLOCK];
        for _ in 0..bypassd_offload::MAX_HOPS {
            if !cur.is_multiple_of(512) || cur + len > size {
                ctx.delay(cost.kernel_to_user);
                return Err(Errno::Inval);
            }
            let (segs, extra) = self.fs().resolve(ino, cur, len)?;
            ctx.delay(extra);
            self.device_read(ctx, &segs, &mut buf)?;
            let run = run_hop(&prog, &mut st, &buf);
            ctx.delay(Nanos(run.steps * STEP_NS));
            match run.outcome {
                Outcome::Resubmit { offset: next } => {
                    // Driver-hook resubmission: no VFS re-entry, no mode
                    // switch — just the hook plus the program (charged
                    // above by exact step count).
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
        // Hop budget exhausted — same failure surface as the device
        // engine's TRAP_HOPS.
        ctx.delay(cost.kernel_to_user);
        Err(Errno::Inval)
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
