//! BPF-KV: the key-value store XRP was evaluated with (§6.5, Fig. 15).
//!
//! A fixed-depth B+-tree index (the paper's store has a 6-level index
//! over 920 M objects) locates objects in an unsorted log; every lookup
//! costs exactly `levels` index reads plus one data read — 7 dependent
//! 512 B I/Os with a 6-level index. Caching is disabled, as in the
//! paper's configuration, to isolate the I/O path cost.
//!
//! Scaling note: the paper's 920 M-object store gets its depth from
//! fanout ≈ 31 (512 B nodes). We keep the *depth* (the figure's
//! determinant) and shrink the fanout so a laptop-scale store still
//! produces 6 index levels; see DESIGN.md.

use bypassd::System;
use bypassd_backends::{Backend, ChainDecider, Handle, OffloadProg};
use bypassd_os::{Errno, SysResult};
use bypassd_sim::engine::ActorCtx;
use bypassd_sim::time::Nanos;

use crate::util::FileWriter;

/// Node/object size (512 B, O_DIRECT-aligned).
pub const NODE: u64 = 512;
/// Bytes per index entry: first key (8) + child offset (8).
const ENTRY: usize = 16;

/// Store configuration.
#[derive(Debug, Clone)]
pub struct BpfKvConfig {
    /// Object count (≤ fanout^levels).
    pub n: u64,
    /// Index fanout.
    pub fanout: usize,
    /// Index depth (the paper's store: 6).
    pub levels: usize,
    /// Backing file.
    pub file: String,
    /// CPU per node processed (the eBPF-equivalent lookup logic).
    pub node_cpu: Nanos,
    /// CPU per request (request setup, result copy).
    pub op_cpu: Nanos,
}

impl BpfKvConfig {
    /// A 6-level store of `n` objects (fanout 8 ⇒ up to 262 144).
    pub fn new(file: &str, n: u64) -> Self {
        BpfKvConfig {
            n,
            fanout: 8,
            levels: 6,
            file: file.into(),
            node_cpu: Nanos(300),
            op_cpu: Nanos(500),
        }
    }
}

/// The store.
#[derive(Debug)]
pub struct BpfKv {
    cfg: BpfKvConfig,
    /// Nodes per level (level 0 = root).
    level_nodes: Vec<u64>,
    /// First byte of the log region.
    log_base: u64,
}

impl BpfKv {
    /// Builds the index and log on disk (untimed setup).
    ///
    /// # Errors
    /// `Inval` for an infeasible configuration: `n` of zero or beyond
    /// the index's key capacity (`fanout^levels`), or a fanout whose
    /// entries overflow the 512 B node; file-creation errors otherwise.
    pub fn build(system: &System, cfg: BpfKvConfig) -> SysResult<BpfKv> {
        let f = cfg.fanout as u64;
        let capacity = f.checked_pow(cfg.levels as u32).ok_or(Errno::Inval)?;
        if cfg.n == 0 || cfg.n > capacity {
            return Err(Errno::Inval);
        }
        if 4 + cfg.fanout * ENTRY > NODE as usize {
            return Err(Errno::Inval);
        }

        let mut level_nodes = Vec::with_capacity(cfg.levels);
        for l in 0..cfg.levels {
            level_nodes.push(f.pow(l as u32));
        }
        let index_nodes: u64 = level_nodes.iter().sum();
        let log_base = index_nodes * NODE;
        let total = log_base + cfg.n * NODE;
        let mut w = FileWriter::create(system, &cfg.file, total).map_err(Errno::from)?;

        // Index, level by level (root first).
        let mut node = vec![0u8; NODE as usize];
        let mut level_base = vec![0u64; cfg.levels + 1];
        for l in 0..cfg.levels {
            level_base[l + 1] = level_base[l] + level_nodes[l];
        }
        for l in 0..cfg.levels {
            let stride = f.pow((cfg.levels - l) as u32); // keys per node
            let child_stride = stride / f;
            for j in 0..level_nodes[l] {
                node.fill(0);
                node[0] = l as u8;
                node[1..3].copy_from_slice(&(cfg.fanout as u16).to_le_bytes());
                for i in 0..cfg.fanout as u64 {
                    let first_key = j * stride + i * child_stride;
                    let child_off = if l + 1 < cfg.levels {
                        (level_base[l + 1] + j * f + i) * NODE
                    } else {
                        // Bottom index level points into the log.
                        log_base + first_key * NODE
                    };
                    let off = 4 + (i as usize) * ENTRY;
                    node[off..off + 8].copy_from_slice(&first_key.to_le_bytes());
                    node[off + 8..off + 16].copy_from_slice(&child_off.to_le_bytes());
                }
                w.write_chunk(&node);
            }
        }
        // Log: object k at log_base + k*512.
        let mut obj = vec![0u8; NODE as usize];
        for k in 0..cfg.n {
            obj.fill(0);
            obj[..8].copy_from_slice(&k.to_le_bytes());
            for (i, b) in obj[8..72].iter_mut().enumerate() {
                *b = (k as usize + i) as u8;
            }
            w.write_chunk(&obj);
        }
        Ok(BpfKv {
            cfg,
            level_nodes,
            log_base,
        })
    }

    /// The backing file path.
    pub fn file(&self) -> &str {
        &self.cfg.file
    }

    /// I/Os per lookup (index levels + data).
    pub fn ios_per_lookup(&self) -> usize {
        self.cfg.levels + 1
    }

    /// Looks up `key`, returning its 64 B value, via `levels + 1`
    /// dependent reads issued through the backend's chained-read path,
    /// decided host-side at `node_cpu` per node.
    ///
    /// # Errors
    /// `Inval` for out-of-range keys or corrupted nodes.
    pub fn get(
        &self,
        ctx: &mut ActorCtx,
        backend: &mut Backend,
        h: Handle,
        key: u64,
    ) -> SysResult<[u8; 64]> {
        self.lookup(ctx, backend, h, key, None)
    }

    /// The operation-IR point-lookup program for this store's geometry:
    /// load it once with [`Backend::prog_load`], then drive
    /// [`BpfKv::get_offload`]. The same ops run on the device engine
    /// (BypassD+offload), the kernel hook (XRP), and host interpretation.
    pub fn lookup_ops(&self) -> Vec<bypassd_offload::Op> {
        crate::offload::point_lookup_ops(self.cfg.fanout)
    }

    /// Looks up `key` through a previously loaded offload program: the
    /// whole `levels + 1`-hop descent is **one** chained-read request —
    /// one submission on BypassD+offload, one syscall on XRP — instead
    /// of `levels + 1` host round trips.
    ///
    /// The per-node lookup CPU (`node_cpu`) is replaced by the
    /// program's exact interpreter step cost, charged by the executing
    /// engine; only the per-request CPU (`op_cpu`) remains host-side.
    ///
    /// # Errors
    /// `Inval` for out-of-range keys, a key-mismatched object
    /// (device-side [`crate::offload::LOOKUP_MISS`]), or backend errors.
    pub fn get_offload(
        &self,
        ctx: &mut ActorCtx,
        backend: &mut Backend,
        h: Handle,
        prog: &OffloadProg,
        key: u64,
    ) -> SysResult<[u8; 64]> {
        self.lookup(ctx, backend, h, key, Some(prog))
    }

    /// The one lookup behind [`BpfKv::get`] and [`BpfKv::get_offload`]:
    /// the descent is decided by `prog` when given, else by host code.
    fn lookup(
        &self,
        ctx: &mut ActorCtx,
        backend: &mut Backend,
        h: Handle,
        key: u64,
        prog: Option<&OffloadProg>,
    ) -> SysResult<[u8; 64]> {
        if key >= self.cfg.n {
            return Err(Errno::Inval);
        }
        ctx.delay(self.cfg.op_cpu);
        let buf = if let Some(prog) = prog {
            let mut regs = [0u64; bypassd_offload::NUM_REGS];
            regs[0] = key;
            regs[1] = self.cfg.levels as u64;
            backend.chained_read(ctx, h, 0, NODE, ChainDecider::Prog(prog, regs))?
        } else {
            let levels = self.cfg.levels;
            let (mut hop, mut decided) = (0usize, 0u64);
            let mut next = |buf: &[u8]| {
                decided += 1;
                if hop == levels {
                    return None; // buf is the log object
                }
                let count = u16::from_le_bytes([buf[1], buf[2]]) as usize;
                let mut child = None;
                for i in 0..count {
                    let off = 4 + i * ENTRY;
                    let first = u64::from_le_bytes(buf[off..off + 8].try_into().unwrap());
                    if first <= key {
                        child = Some(u64::from_le_bytes(
                            buf[off + 8..off + 16].try_into().unwrap(),
                        ));
                    } else {
                        break;
                    }
                }
                hop += 1;
                child
            };
            let buf = backend.chained_read(ctx, h, 0, NODE, ChainDecider::Host(&mut next))?;
            ctx.delay(Nanos(self.cfg.node_cpu.as_nanos() * decided));
            buf
        };
        // Verify we landed on the right object.
        let got = u64::from_le_bytes(buf[..8].try_into().unwrap());
        if got != key {
            return Err(Errno::Inval);
        }
        let mut value = [0u8; 64];
        value.copy_from_slice(&buf[8..72]);
        Ok(value)
    }

    /// Index geometry: nodes per level.
    pub fn level_nodes(&self) -> &[u64] {
        &self.level_nodes
    }

    /// First byte of the log region (index size in bytes).
    pub fn log_base(&self) -> u64 {
        self.log_base
    }
}
