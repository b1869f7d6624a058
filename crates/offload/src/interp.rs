//! The deterministic interpreter.
//!
//! [`run_hop`] executes one verified program over one completed block and
//! reports the hop's [`Outcome`] plus the exact step count. Execution is
//! charged purely in virtual time by the caller (`steps ×`
//! [`crate::STEP_NS`]); the interpreter itself never consults a clock or
//! any randomness, so results are bit-identical across runs (R1).
//!
//! Verified programs cannot trap — the verifier proved bounds and the
//! step budget — but the interpreter re-checks both at run time as
//! defense in depth and surfaces violations as [`Outcome::Fail`] with a
//! reserved trap code rather than unwinding inside a device model.
//!
//! [`HopStepper`] is the one hop rule every chain executor shares (the
//! device engine, the kernel's XRP hook, host interpretation in the
//! backends and UserLib's fallback): it decides each next hop, by a
//! verified program or a host closure, and owns the [`MAX_HOPS`] budget.
//! Executors only read blocks and charge their own costs.

use crate::ir::{AluOp, Op, Width, MAX_STEPS, NUM_REGS};
use crate::verify::Program;

/// Trap code: a load reached past the block (verifier bug or a block
/// shorter than [`crate::BLOCK`]).
pub const TRAP_OOB: u16 = 0xFFFF;

/// Trap code: the runtime step budget was exhausted.
pub const TRAP_STEPS: u16 = 0xFFFE;

/// Trap code: the chain asked for a read past its [`MAX_HOPS`] budget.
/// Raised by [`HopStepper`], not the interpreter (the hop budget is
/// chain state, not program state).
pub const TRAP_HOPS: u16 = 0xFFFD;

/// Maximum media reads per chain (XRP's resubmission budget). A chain
/// whose last budgeted read still resubmits fails with [`TRAP_HOPS`].
pub const MAX_HOPS: u32 = 32;

/// Per-chain interpreter state. Registers persist across hops: a
/// [`HopStepper`] keeps one `ChainState` per in-flight chain and
/// re-enters the program on every completed block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainState {
    /// The register file.
    pub regs: [u64; NUM_REGS],
}

impl ChainState {
    /// Seeds the registers (lookup key, level budget, …).
    pub fn new(regs: [u64; NUM_REGS]) -> ChainState {
        ChainState { regs }
    }
}

/// How a hop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Chase the chain: read the block at this absolute byte offset of
    /// the chain's window and run the program again.
    Resubmit {
        /// Next byte offset.
        offset: u64,
    },
    /// The current block is the chain's result.
    Return,
    /// Abort with a program-defined (or trap) code.
    Fail {
        /// Failure code; `0xFF00..` are engine traps.
        code: u16,
    },
}

/// One hop's execution record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopRun {
    /// How the hop ended.
    pub outcome: Outcome,
    /// Exact interpreter steps taken — multiply by [`crate::STEP_NS`]
    /// for the virtual-time charge.
    pub steps: u64,
}

/// Executes one hop of `prog` over `block`, updating the chain's
/// registers in place.
pub fn run_hop(prog: &Program, st: &mut ChainState, block: &[u8]) -> HopRun {
    let ops = prog.ops();
    let mut pc = 0usize;
    let mut steps = 0u64;
    // Trip counter of the (single, non-nested) active loop.
    let mut loop_count = 0u16;
    loop {
        if steps >= MAX_STEPS {
            return HopRun {
                outcome: Outcome::Fail { code: TRAP_STEPS },
                steps,
            };
        }
        steps += 1;
        match ops[pc] {
            Op::Imm { dst, imm } => {
                st.regs[usize::from(dst)] = imm;
                pc += 1;
            }
            Op::Load {
                dst,
                width,
                base,
                disp,
            } => {
                let off = st.regs[usize::from(base)].wrapping_add(u64::from(disp));
                let Some(v) = load(block, off, width) else {
                    return HopRun {
                        outcome: Outcome::Fail { code: TRAP_OOB },
                        steps,
                    };
                };
                st.regs[usize::from(dst)] = v;
                pc += 1;
            }
            Op::Alu { op, dst, src } => {
                let b = st.regs[usize::from(src)];
                let a = &mut st.regs[usize::from(dst)];
                *a = alu(op, *a, b);
                pc += 1;
            }
            Op::AluImm { op, dst, imm } => {
                let a = &mut st.regs[usize::from(dst)];
                *a = alu(op, *a, imm);
                pc += 1;
            }
            Op::Jmp { cond, a, b, skip } => {
                if cond.eval(st.regs[usize::from(a)], st.regs[usize::from(b)]) {
                    pc += 1 + usize::from(skip);
                } else {
                    pc += 1;
                }
            }
            Op::LoopStart { count } => {
                if count == 0 {
                    pc = prog.loop_end_of(pc) + 1;
                } else {
                    loop_count = count;
                    pc += 1;
                }
            }
            Op::LoopEnd => {
                loop_count = loop_count.saturating_sub(1);
                if loop_count > 0 {
                    // Back to the op after the matching LoopStart.
                    let mut s = pc;
                    while !matches!(ops[s], Op::LoopStart { .. }) {
                        s -= 1;
                    }
                    pc = s + 1;
                } else {
                    pc += 1;
                }
            }
            Op::Resubmit { addr } => {
                return HopRun {
                    outcome: Outcome::Resubmit {
                        offset: st.regs[usize::from(addr)],
                    },
                    steps,
                };
            }
            Op::Return => {
                return HopRun {
                    outcome: Outcome::Return,
                    steps,
                };
            }
            Op::Fail { code } => {
                return HopRun {
                    outcome: Outcome::Fail { code },
                    steps,
                };
            }
        }
    }
}

/// A host decide callback: the next byte offset, or `None` when the
/// block just read is the chain's result.
pub type HostDecide<'a> = &'a mut (dyn FnMut(&[u8]) -> Option<u64> + Send);

/// Decides one chain's hops, within the [`MAX_HOPS`] budget. The
/// executor reads a block, calls [`HopStepper::step`] on it, charges
/// `steps ×` [`crate::STEP_NS`], and follows the outcome.
pub struct HopStepper<'a> {
    decide: Decide<'a>,
    hops: u32,
}

enum Decide<'a> {
    Host(HostDecide<'a>),
    Program(&'a Program, ChainState),
}

impl<'a> HopStepper<'a> {
    /// A chain decided by host code, at 0 interpreter steps per hop.
    pub fn host(next: HostDecide<'a>) -> HopStepper<'a> {
        HopStepper {
            decide: Decide::Host(next),
            hops: 0,
        }
    }

    /// A chain decided by a verified program seeded with `regs`.
    pub fn program(prog: &'a Program, regs: [u64; NUM_REGS]) -> HopStepper<'a> {
        HopStepper {
            decide: Decide::Program(prog, ChainState::new(regs)),
            hops: 0,
        }
    }

    /// Decides the hop after one completed read of `block`. A
    /// `Resubmit` past the budget becomes `Fail {` [`TRAP_HOPS`] `}`,
    /// so no executor reads more than [`MAX_HOPS`] blocks per chain.
    pub fn step(&mut self, block: &[u8]) -> HopRun {
        self.hops += 1;
        let run = match &mut self.decide {
            Decide::Host(next) => HopRun {
                outcome: next(block).map_or(Outcome::Return, |offset| Outcome::Resubmit { offset }),
                steps: 0,
            },
            Decide::Program(prog, st) => run_hop(prog, st, block),
        };
        match run.outcome {
            Outcome::Resubmit { .. } if self.hops >= MAX_HOPS => HopRun {
                outcome: Outcome::Fail { code: TRAP_HOPS },
                steps: run.steps,
            },
            _ => run,
        }
    }

    /// Blocks decided so far (one per completed read).
    pub fn hops(&self) -> u32 {
        self.hops
    }
}

fn load(block: &[u8], off: u64, width: Width) -> Option<u64> {
    let n = width.bytes();
    let start = usize::try_from(off).ok()?;
    let end = start.checked_add(n)?;
    if end > block.len() {
        return None;
    }
    let mut v = 0u64;
    for (i, &b) in block[start..end].iter().enumerate() {
        v |= u64::from(b) << (8 * i);
    }
    Some(v)
}

fn alu(op: AluOp, a: u64, b: u64) -> u64 {
    match op {
        AluOp::Mov => b,
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Shl => a << (b & 63),
        AluOp::Shr => a >> (b & 63),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Cond, BLOCK};

    fn block_with(pairs: &[(usize, u64)]) -> Vec<u8> {
        let mut b = vec![0u8; BLOCK];
        for &(off, v) in pairs {
            b[off..off + 8].copy_from_slice(&v.to_le_bytes());
        }
        b
    }

    #[test]
    fn straight_line_arithmetic() {
        let prog = Program::verify(vec![
            Op::Imm { dst: 0, imm: 40 },
            Op::AluImm {
                op: AluOp::Add,
                dst: 0,
                imm: 2,
            },
            Op::Resubmit { addr: 0 },
        ])
        .unwrap();
        let mut st = ChainState::new([0; NUM_REGS]);
        let run = run_hop(&prog, &mut st, &[0u8; BLOCK]);
        assert_eq!(run.outcome, Outcome::Resubmit { offset: 42 });
        assert_eq!(run.steps, 3);
    }

    #[test]
    fn loads_are_little_endian() {
        let prog = Program::verify(vec![
            Op::Imm { dst: 0, imm: 16 },
            Op::Load {
                dst: 1,
                width: Width::U16,
                base: 0,
                disp: 2,
            },
            Op::Return,
        ])
        .unwrap();
        let mut block = vec![0u8; BLOCK];
        block[18] = 0x34;
        block[19] = 0x12;
        let mut st = ChainState::new([0; NUM_REGS]);
        run_hop(&prog, &mut st, &block);
        assert_eq!(st.regs[1], 0x1234);
    }

    #[test]
    fn jump_taken_and_not_taken() {
        let prog = Program::verify(vec![
            Op::Jmp {
                cond: Cond::Eq,
                a: 0,
                b: 1,
                skip: 1,
            },
            Op::Imm { dst: 2, imm: 7 },
            Op::Return,
        ])
        .unwrap();
        // Taken: r0 == r1 skips the Imm.
        let mut st = ChainState::new([5, 5, 0, 0, 0, 0, 0, 0]);
        let run = run_hop(&prog, &mut st, &[0u8; BLOCK]);
        assert_eq!((st.regs[2], run.steps), (0, 2));
        // Not taken: the Imm executes.
        let mut st = ChainState::new([5, 6, 0, 0, 0, 0, 0, 0]);
        let run = run_hop(&prog, &mut st, &[0u8; BLOCK]);
        assert_eq!((st.regs[2], run.steps), (7, 3));
    }

    #[test]
    fn counted_loop_runs_exactly_count_times() {
        let prog = Program::verify(vec![
            Op::Imm { dst: 0, imm: 0 },
            Op::LoopStart { count: 5 },
            Op::AluImm {
                op: AluOp::Add,
                dst: 0,
                imm: 3,
            },
            Op::LoopEnd,
            Op::Return,
        ])
        .unwrap();
        let mut st = ChainState::new([0; NUM_REGS]);
        let run = run_hop(&prog, &mut st, &[0u8; BLOCK]);
        assert_eq!(st.regs[0], 15);
        // 1 Imm + 1 LoopStart + 5 × (Add + LoopEnd) + 1 Return.
        assert_eq!(run.steps, 13);
        assert_eq!(run.outcome, Outcome::Return);
    }

    #[test]
    fn zero_count_loop_skips_body() {
        let prog = Program::verify(vec![
            Op::Imm { dst: 0, imm: 9 },
            Op::LoopStart { count: 0 },
            Op::Imm { dst: 0, imm: 1 },
            Op::LoopEnd,
            Op::Return,
        ])
        .unwrap();
        let mut st = ChainState::new([0; NUM_REGS]);
        run_hop(&prog, &mut st, &[0u8; BLOCK]);
        assert_eq!(st.regs[0], 9);
    }

    #[test]
    fn registers_persist_across_hops() {
        // Hop 1 computes r1 = block[0..8]; hop 2 returns it via Fail code
        // logic — here simply assert the state carries over.
        let prog = Program::verify(vec![
            Op::Imm { dst: 0, imm: 0 },
            Op::Load {
                dst: 1,
                width: Width::U64,
                base: 0,
                disp: 0,
            },
            Op::Alu {
                op: AluOp::Add,
                dst: 2,
                src: 1,
            },
            Op::Resubmit { addr: 1 },
        ])
        .unwrap();
        let mut st = ChainState::new([0; NUM_REGS]);
        let b1 = block_with(&[(0, 100)]);
        let b2 = block_with(&[(0, 50)]);
        assert_eq!(
            run_hop(&prog, &mut st, &b1).outcome,
            Outcome::Resubmit { offset: 100 }
        );
        assert_eq!(
            run_hop(&prog, &mut st, &b2).outcome,
            Outcome::Resubmit { offset: 50 }
        );
        assert_eq!(st.regs[2], 150, "r2 accumulated across hops");
    }

    #[test]
    fn short_block_traps_instead_of_panicking() {
        let prog = Program::verify(vec![
            Op::Imm { dst: 0, imm: 504 },
            Op::Load {
                dst: 1,
                width: Width::U64,
                base: 0,
                disp: 0,
            },
            Op::Return,
        ])
        .unwrap();
        let mut st = ChainState::new([0; NUM_REGS]);
        let run = run_hop(&prog, &mut st, &[0u8; 64]);
        assert_eq!(run.outcome, Outcome::Fail { code: TRAP_OOB });
    }

    #[test]
    fn stepper_stops_a_cycle_at_the_hop_budget() {
        let prog =
            Program::verify(vec![Op::Imm { dst: 0, imm: 0 }, Op::Resubmit { addr: 0 }]).unwrap();
        let mut calls = 0u32;
        let mut cycle = |_: &[u8]| {
            calls += 1;
            Some(0)
        };
        let steppers = [
            (HopStepper::program(&prog, [0; NUM_REGS]), 2),
            (HopStepper::host(&mut cycle), 0),
        ];
        for (mut hops, steps) in steppers {
            let resubmit = Outcome::Resubmit { offset: 0 };
            for _ in 1..MAX_HOPS {
                assert_eq!(
                    hops.step(&[0u8; BLOCK]),
                    HopRun {
                        outcome: resubmit,
                        steps
                    }
                );
            }
            let fail = Outcome::Fail { code: TRAP_HOPS };
            assert_eq!(
                hops.step(&[0u8; BLOCK]),
                HopRun {
                    outcome: fail,
                    steps
                }
            );
            assert_eq!(hops.hops(), MAX_HOPS);
        }
        assert_eq!(calls, MAX_HOPS);
    }

    #[test]
    fn run_is_deterministic() {
        let prog = Program::verify(vec![
            Op::Imm { dst: 0, imm: 0 },
            Op::LoopStart { count: 9 },
            Op::AluImm {
                op: AluOp::And,
                dst: 2,
                imm: 0xFF,
            },
            Op::Load {
                dst: 1,
                width: Width::U8,
                base: 2,
                disp: 3,
            },
            Op::Alu {
                op: AluOp::Xor,
                dst: 0,
                src: 1,
            },
            Op::LoopEnd,
            Op::Return,
        ])
        .unwrap();
        let block: Vec<u8> = (0..BLOCK as u32).map(|i| (i * 7) as u8).collect();
        let mut a = ChainState::new([1, 2, 3, 4, 5, 6, 7, 8]);
        let mut b = a;
        let ra = run_hop(&prog, &mut a, &block);
        let rb = run_hop(&prog, &mut b, &block);
        assert_eq!((ra, a), (rb, b));
    }
}
