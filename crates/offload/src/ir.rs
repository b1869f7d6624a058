//! The operation IR: a register machine over one completed block.
//!
//! Execution model (per *hop* of a chain):
//!
//! * [`NUM_REGS`] general-purpose `u64` registers. Registers **persist
//!   across hops** of one chain (the executing engine keeps them in the
//!   chain's context), so a program can count levels or carry the lookup
//!   key without re-deriving it from the block.
//! * The current 512 B block ([`BLOCK`]) is read-only; [`Op::Load`]
//!   fetches little-endian fields at `regs[base] + disp`.
//! * Control flow is forward-only ([`Op::Jmp`] skips ahead) except the
//!   counted loop [`Op::LoopStart`]/[`Op::LoopEnd`], whose trip count is
//!   an instruction immediate — the verifier multiplies it into the
//!   static step bound.
//! * Every hop ends in `Resubmit` (offset of the next block, as an
//!   absolute byte offset in the chain's window), `Return`, or `Fail`.

/// Block size a program executes against (512 B, one NVMe sector — the
/// BPF-KV node/object size).
pub const BLOCK: usize = 512;

/// Number of general-purpose registers.
pub const NUM_REGS: usize = 8;

/// Maximum instructions per program.
pub const MAX_OPS: usize = 64;

/// Hard per-hop step limit. The verifier proves a static bound ≤ this;
/// the interpreter additionally enforces it at run time (defense in
/// depth — a verifier bug must not yield an unbounded device-side loop).
pub const MAX_STEPS: u64 = 4096;

/// A register index (`0..NUM_REGS`).
pub type Reg = u8;

/// Load width; loads are little-endian and unaligned-tolerant (the block
/// is a byte buffer, not host memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Width {
    /// One byte.
    U8,
    /// Two bytes, little-endian.
    U16,
    /// Four bytes, little-endian.
    U32,
    /// Eight bytes, little-endian.
    U64,
}

impl Width {
    /// Bytes read.
    pub fn bytes(self) -> usize {
        match self {
            Width::U8 => 1,
            Width::U16 => 2,
            Width::U32 => 4,
            Width::U64 => 8,
        }
    }

    /// Largest value a load of this width can produce.
    pub fn max_value(self) -> u64 {
        match self {
            Width::U8 => u64::from(u8::MAX),
            Width::U16 => u64::from(u16::MAX),
            Width::U32 => u64::from(u32::MAX),
            Width::U64 => u64::MAX,
        }
    }
}

/// ALU operation. Arithmetic wraps; shifts mask the amount to `0..64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AluOp {
    /// `dst = src`.
    Mov,
    /// `dst = dst + src` (wrapping).
    Add,
    /// `dst = dst - src` (wrapping).
    Sub,
    /// `dst = dst * src` (wrapping).
    Mul,
    /// `dst = dst & src` — the canonical bounds proof: masking with a
    /// constant gives the verifier a tight interval.
    And,
    /// `dst = dst | src`.
    Or,
    /// `dst = dst ^ src`.
    Xor,
    /// `dst = dst << (src & 63)`.
    Shl,
    /// `dst = dst >> (src & 63)`.
    Shr,
}

/// Jump condition over two registers (unsigned compare).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cond {
    /// `a == b`.
    Eq,
    /// `a != b`.
    Ne,
    /// `a < b`.
    Lt,
    /// `a <= b`.
    Le,
    /// `a > b`.
    Gt,
    /// `a >= b`.
    Ge,
}

impl Cond {
    /// Evaluates the condition.
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => a < b,
            Cond::Le => a <= b,
            Cond::Gt => a > b,
            Cond::Ge => a >= b,
        }
    }
}

/// One instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `regs[dst] = imm`.
    Imm {
        /// Destination register.
        dst: Reg,
        /// Immediate value.
        imm: u64,
    },
    /// `regs[dst] = LE load of `width` bytes at block[regs[base] + disp]`.
    /// The verifier proves `regs[base] + disp + width ≤ BLOCK` on every
    /// reachable path.
    Load {
        /// Destination register.
        dst: Reg,
        /// Load width.
        width: Width,
        /// Base-offset register.
        base: Reg,
        /// Constant displacement added to the base.
        disp: u16,
    },
    /// `regs[dst] = regs[dst] op regs[src]`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination (and left operand).
        dst: Reg,
        /// Right operand register.
        src: Reg,
    },
    /// `regs[dst] = regs[dst] op imm`.
    AluImm {
        /// Operation.
        op: AluOp,
        /// Destination (and left operand).
        dst: Reg,
        /// Right operand immediate.
        imm: u64,
    },
    /// If `cond(regs[a], regs[b])`, skip the next `skip` instructions
    /// (i.e. `pc = pc + 1 + skip`). Forward-only by construction.
    Jmp {
        /// Condition.
        cond: Cond,
        /// Left operand register.
        a: Reg,
        /// Right operand register.
        b: Reg,
        /// Instructions to skip when the condition holds.
        skip: u16,
    },
    /// Counted loop header: the body (up to the matching [`Op::LoopEnd`])
    /// executes exactly `count` times (zero ⇒ skipped). The only backward
    /// edge in the IR; `count` is an immediate so the verifier can bound
    /// total steps statically. Loops do not nest.
    LoopStart {
        /// Trip count.
        count: u16,
    },
    /// Loop back edge: jumps to the instruction after the matching
    /// [`Op::LoopStart`] while iterations remain.
    LoopEnd,
    /// Terminator — resubmit the chain: the engine reads the block at
    /// absolute byte offset `regs[addr]` of the chain's window (for
    /// BypassD, VBA-translated and permission-checked per hop exactly
    /// like a host submission) and re-enters the program on completion.
    Resubmit {
        /// Register holding the next byte offset.
        addr: Reg,
    },
    /// Terminator — return the current block to the host as the chain's
    /// result.
    Return,
    /// Terminator — abort the chain; surfaces to the host as a failed
    /// completion carrying `code`.
    Fail {
        /// Program-defined code (`0xFF00..` is reserved for engine traps).
        code: u16,
    },
}

impl Op {
    /// True for instructions that end a hop.
    pub fn is_terminator(self) -> bool {
        matches!(self, Op::Resubmit { .. } | Op::Return | Op::Fail { .. })
    }
}

/// Handle naming a loaded (verified) program in the engine that holds it
/// (kernel program table, device program table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProgHandle(pub u32);

/// Everything a chain-read submission carries besides the first read
/// itself: which verified program to run on each completed block, the
/// initial register file (lookup key, level budget, …), and the base of
/// the chain's address window. `Resubmit` offsets are relative to
/// `base_vba`, so for BypassD user queues every hop is still translated
/// and permission-checked by the IOMMU against the submitting PASID —
/// offload does not bypass the protection model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainSpec {
    /// Verified program, previously loaded/attached on this engine.
    pub prog: ProgHandle,
    /// Initial register file (persists across hops).
    pub regs: [u64; NUM_REGS],
    /// Raw VBA of byte offset 0 of the chain's window (the file's fmap
    /// base for BypassD).
    pub base_vba: u64,
}
