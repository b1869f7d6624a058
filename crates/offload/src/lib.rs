//! # bypassd-offload
//!
//! A verified operation IR for one-submission storage chains — the
//! "BPF for storage" resubmission model (XRP \[70\], and ROADMAP item 3's
//! computational-storage offload) made executable instead of modeled by
//! latency constants.
//!
//! A *program* is a short sequence of register ops (loads from the
//! completed 512 B block, arithmetic, forward-only conditional jumps, one
//! counted loop form) that ends each hop in exactly one of three
//! terminators:
//!
//! * [`Op::Resubmit`] — chase the chain: re-read at a new file offset
//!   without returning to the host,
//! * [`Op::Return`] — hand the current block back as the chain's result,
//! * [`Op::Fail`] — abort the chain with a program-defined code.
//!
//! Programs are **verified at load** ([`Program::verify`]): bounds-checked
//! buffer accesses proven by interval analysis, no backward jumps except
//! the counted loop, and a hard static step bound — so the executing layer
//! (NVMe driver completion hook, or the simulated device itself) never has
//! to trust the submitter. The interpreter ([`interp::run_hop`]) is
//! deterministic and charged purely in virtual time: it reports a step
//! count which the caller converts to simulated nanoseconds ([`STEP_NS`]);
//! no wall clock anywhere.
//!
//! The crate is dependency-free on purpose: `bypassd-ssd` (device-side
//! execution), `bypassd-os` (XRP-style driver-hook execution) and
//! `bypassd` (UserLib chain submission) all share this vocabulary without
//! a dependency cycle.

pub mod interp;
pub mod ir;
pub mod verify;

pub use interp::{run_hop, ChainState, HopRun, Outcome, TRAP_HOPS, TRAP_OOB, TRAP_STEPS};
pub use ir::{
    AluOp, ChainSpec, Cond, Op, ProgHandle, Reg, Width, BLOCK, MAX_HOPS, MAX_OPS, MAX_STEPS,
    NUM_REGS,
};
pub use verify::{Program, VerifyError};

/// Simulated nanoseconds charged per interpreter step — the
/// `node_cpu`-style cost of one IR op on the executing engine's
/// (device/driver) lightweight core. A 6-level BPF-KV descent hop runs
/// ~70 steps ⇒ ~350 ns/hop, comparable to the host-side `node_cpu`
/// (300 ns) it replaces.
pub const STEP_NS: u64 = 5;
