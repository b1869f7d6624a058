//! Chained reads: the decider of a chain's next hop, and the one host
//! hop loop behind every backend without its own engine.

use std::sync::Arc;

use bypassd_offload::{
    HopStepper, HostDecide, Op, Outcome, ProgHandle, Program, NUM_REGS, STEP_NS,
};
use bypassd_os::{Errno, SysResult};
use bypassd_sim::engine::ActorCtx;
use bypassd_sim::time::Nanos;

/// A loaded offload program, as a backend sees it.
#[derive(Debug, Clone)]
pub enum OffloadProg {
    /// Loaded into a real engine (the device for BypassD+offload, the
    /// kernel driver hook for XRP): named by handle.
    Engine(ProgHandle),
    /// No engine on this path: the verified program itself, interpreted
    /// host-side over [`Backend::pread`](crate::Backend::pread) — same
    /// IR, same results, full per-hop software cost.
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

/// What decides the next hop of a
/// [`Backend::chained_read`](crate::Backend::chained_read).
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
/// As [`Backend::chained_read`](crate::Backend::chained_read).
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
