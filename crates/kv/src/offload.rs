//! The offload IR program for BPF-KV: the verifying point lookup (a
//! B-tree descent plus a key check), expressed in the operation IR so one
//! program drives the device engine (BypassD+offload), the kernel hook
//! (XRP), and host-side interpretation (every other backend) identically.
//!
//! Register conventions (seeded by the host, persistent across hops):
//!
//! | reg | meaning                                   |
//! |-----|-------------------------------------------|
//! | r0  | lookup key                                |
//! | r1  | remaining index levels (`levels` at seed) |
//! | r2  | entry cursor (byte offset into the node)  |
//! | r3  | chosen child offset                       |
//! | r4  | scratch: entry first-key / object key     |
//! | r7  | constant zero                             |
//!
//! Node layout (see [`crate::bpfkv`]): `level u8 @0`, `count u16 @1`,
//! then `fanout` entries of `(first_key u64, child_off u64)` from byte 4.
//! The builder fills every entry, so the programs scan all `fanout`
//! entries and keep the last whose `first_key ≤ key` — identical to the
//! host-side lookup logic in [`crate::BpfKv::get`].

use bypassd_offload::{AluOp, Cond, Op, Width};

/// Mask applied to the entry cursor: the verifier's bounds proof. Nodes
/// are 512 B and the cursor never exceeds `4 + fanout·16 ≤ 255` for any
/// fanout the node layout admits (`fanout ≤ 15` entries after the 4-byte
/// header would already overflow 255 — see the assert in
/// [`point_lookup_ops`]), so masking is value-preserving.
const CURSOR_MASK: u64 = 0xFF;

/// The point-lookup program: while index levels remain (`r1 > 0`), scan
/// the node's entries for the last `first_key ≤ key`, decrement `r1`, and
/// resubmit at the chosen child offset. At `r1 == 0` the block is the log
/// object, verified device-side: its embedded key must equal `r0`, else
/// the chain fails with [`LOOKUP_MISS`] instead of returning a wrong
/// block.
///
/// # Panics
/// Panics if `fanout` entries cannot fit the masked cursor range (the
/// node layout itself caps fanout well below this).
pub fn point_lookup_ops(fanout: usize) -> Vec<Op> {
    assert!(
        4 + fanout * 16 + 16 <= CURSOR_MASK as usize + 1,
        "fanout too large for the cursor bounds proof"
    );
    let mut ops = vec![
        Op::Imm { dst: 7, imm: 0 },
        Op::Jmp {
            cond: Cond::Ne,
            a: 1,
            b: 7,
            skip: 4,
        },
        // Log level: verify the object key at byte 0.
        Op::Load {
            dst: 4,
            width: Width::U64,
            base: 7,
            disp: 0,
        },
        Op::Jmp {
            cond: Cond::Eq,
            a: 4,
            b: 0,
            skip: 1,
        },
        Op::Fail { code: LOOKUP_MISS },
        Op::Return,
    ];
    ops.extend(scan_and_resubmit(fanout));
    ops
}

/// Failure code surfaced when a point lookup lands on an object whose
/// key differs from `r0` (index corruption or an out-of-range key that
/// slipped past the host).
pub const LOOKUP_MISS: u16 = 0x0001;

/// The shared index-node scan: entry cursor in `r2`, chosen child in
/// `r3`, masked against [`CURSOR_MASK`] so the verifier can prove every
/// load in-bounds.
fn scan_and_resubmit(fanout: usize) -> Vec<Op> {
    vec![
        Op::Imm { dst: 2, imm: 4 },
        Op::Imm { dst: 3, imm: 0 },
        Op::LoopStart {
            count: fanout as u16,
        },
        Op::Load {
            dst: 4,
            width: Width::U64,
            base: 2,
            disp: 0,
        },
        // first_key > key → keep the previous child.
        Op::Jmp {
            cond: Cond::Gt,
            a: 4,
            b: 0,
            skip: 1,
        },
        Op::Load {
            dst: 3,
            width: Width::U64,
            base: 2,
            disp: 8,
        },
        Op::AluImm {
            op: AluOp::Add,
            dst: 2,
            imm: 16,
        },
        Op::AluImm {
            op: AluOp::And,
            dst: 2,
            imm: CURSOR_MASK,
        },
        Op::LoopEnd,
        Op::AluImm {
            op: AluOp::Sub,
            dst: 1,
            imm: 1,
        },
        Op::Resubmit { addr: 3 },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use bypassd_offload::{run_hop, ChainState, Outcome, Program};

    fn node(entries: &[(u64, u64)]) -> Vec<u8> {
        let mut n = vec![0u8; 512];
        n[1..3].copy_from_slice(&(entries.len() as u16).to_le_bytes());
        for (i, (k, c)) in entries.iter().enumerate() {
            let off = 4 + i * 16;
            n[off..off + 8].copy_from_slice(&k.to_le_bytes());
            n[off + 8..off + 16].copy_from_slice(&c.to_le_bytes());
        }
        n
    }

    #[test]
    fn descent_verifies() {
        assert!(Program::verify(point_lookup_ops(8)).is_ok());
    }

    #[test]
    fn descent_picks_last_entry_at_most_key() {
        // Program fanout matches the node's entry count — the store
        // builder always fills every entry.
        let prog = Program::verify(point_lookup_ops(4)).unwrap();
        let mut regs = [0u64; 8];
        regs[0] = 20; // key
        regs[1] = 1; // one index level
        let mut st = ChainState::new(regs);
        let blk = node(&[(0, 1000), (10, 2000), (20, 3000), (30, 4000)]);
        let run = run_hop(&prog, &mut st, &blk);
        assert_eq!(run.outcome, Outcome::Resubmit { offset: 3000 });
        assert_eq!(st.regs[1], 0, "level budget decremented");
        // Next hop (r1 == 0): the log object carrying the key returns.
        let mut obj = vec![0u8; 512];
        obj[..8].copy_from_slice(&20u64.to_le_bytes());
        let run2 = run_hop(&prog, &mut st, &obj);
        assert_eq!(run2.outcome, Outcome::Return);
    }

    #[test]
    fn point_lookup_fails_on_key_mismatch() {
        let prog = Program::verify(point_lookup_ops(8)).unwrap();
        let mut regs = [0u64; 8];
        regs[0] = 42;
        regs[1] = 0; // straight to the log level
        let mut st = ChainState::new(regs);
        let mut obj = vec![0u8; 512];
        obj[..8].copy_from_slice(&41u64.to_le_bytes());
        let run = run_hop(&prog, &mut st, &obj);
        assert_eq!(run.outcome, Outcome::Fail { code: LOOKUP_MISS });
        obj[..8].copy_from_slice(&42u64.to_le_bytes());
        let mut st2 = ChainState::new(regs);
        let run2 = run_hop(&prog, &mut st2, &obj);
        assert_eq!(run2.outcome, Outcome::Return);
    }
}
