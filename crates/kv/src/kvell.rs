//! KVell: fast persistent KV design the paper compares against (§6.5,
//! Fig. 16).
//!
//! KVell keeps a full index in memory, stores items unsorted in
//! fixed-size on-disk slots, and batches I/O to exploit device
//! parallelism. The paper runs it at queue depth 1 (`KVell_1`) and 64
//! (`KVell_64`): deep queues buy throughput at a latency cost of two
//! orders of magnitude — which is the trade BypassD's low-latency
//! synchronous path sidesteps.

use std::collections::HashMap;

use bypassd::System;
use bypassd_backends::{Backend, Handle};
use bypassd_os::{Errno, SysResult};
use bypassd_sim::engine::ActorCtx;
use bypassd_sim::stats::Throughput;
use bypassd_sim::time::Nanos;
use bypassd_trace::Histogram;

use crate::util::FileWriter;
use crate::ycsb::{YcsbGen, YcsbOp};

/// Store configuration.
#[derive(Debug, Clone)]
pub struct KvellConfig {
    /// Item count.
    pub n: u64,
    /// On-disk slot size (the paper: 1 KB values).
    pub slot: u64,
    /// Backing slab file.
    pub file: String,
    /// CPU per in-memory index lookup.
    pub index_cpu: Nanos,
    /// CPU per request (batching, enqueue bookkeeping).
    pub op_cpu: Nanos,
}

impl KvellConfig {
    /// A store of `n` 1 KB items.
    pub fn new(file: &str, n: u64) -> Self {
        KvellConfig {
            n,
            slot: 1024,
            file: file.into(),
            index_cpu: Nanos(300),
            op_cpu: Nanos(400),
        }
    }
}

/// The store: in-memory index over on-disk slots.
#[derive(Debug)]
pub struct Kvell {
    cfg: KvellConfig,
}

/// Result of one YCSB run.
#[derive(Debug)]
pub struct KvellRun {
    /// Per-request latency (enqueue → completion).
    pub latency: Histogram,
    /// Completed requests.
    pub throughput: Throughput,
    /// Virtual time of the run.
    pub elapsed: Nanos,
}

impl Kvell {
    /// Builds the slab file (untimed setup).
    ///
    /// # Errors
    /// File creation failures.
    pub fn build(system: &System, cfg: KvellConfig) -> Result<Kvell, bypassd_ext4::Ext4Error> {
        assert!(cfg.slot.is_multiple_of(512) && cfg.slot >= 512);
        let mut w = FileWriter::create(system, &cfg.file, cfg.n * cfg.slot)?;
        let mut slotbuf = vec![0u8; cfg.slot as usize];
        for k in 0..cfg.n {
            slotbuf.fill(0);
            slotbuf[..8].copy_from_slice(&k.to_le_bytes());
            slotbuf[8] = 1; // live
            w.write_chunk(&slotbuf);
        }
        Ok(Kvell { cfg })
    }

    /// The backing file path.
    pub fn file(&self) -> &str {
        &self.cfg.file
    }

    /// Slot byte offset of `key` (the in-memory index — dense here, a
    /// B-tree in real KVell; the lookup cost is modelled as CPU time).
    fn slot_of(&self, key: u64) -> SysResult<u64> {
        if key >= self.cfg.n {
            return Err(Errno::Inval);
        }
        Ok(key * self.cfg.slot)
    }

    /// Runs `ops` YCSB operations at queue depth `qd` through `backend`,
    /// measuring enqueue→completion latency per request (the Fig. 16
    /// methodology: `KVell_64`'s latency includes queueing delay).
    ///
    /// # Errors
    /// Backend-path errors.
    pub fn run_ycsb(
        &self,
        ctx: &mut ActorCtx,
        backend: &mut Backend,
        h: Handle,
        gen: &mut YcsbGen,
        ops: u64,
        qd: usize,
    ) -> SysResult<KvellRun> {
        let qd = qd.max(1);
        let mut latency = Histogram::new();
        let mut throughput = Throughput::new();
        let start = ctx.now();
        let mut issued = 0u64;
        let mut completed = 0u64;
        let mut inflight: HashMap<u64, Nanos> = HashMap::new();
        let slot_usize = self.cfg.slot as usize;

        while completed < ops {
            while issued < ops && inflight.len() < qd {
                ctx.delay(self.cfg.op_cpu + self.cfg.index_cpu);
                let op = gen.next_op();
                let (key, write) = match op {
                    YcsbOp::Read(k) | YcsbOp::Scan(k, _) => (k, false),
                    YcsbOp::Update(k) | YcsbOp::Insert(k) | YcsbOp::Rmw(k) => (k, true),
                };
                let key = key.min(self.cfg.n - 1);
                let offset = self.slot_of(key)?;
                let token = issued;
                let payload = if write {
                    let mut d = vec![0u8; slot_usize];
                    d[..8].copy_from_slice(&key.to_le_bytes());
                    d[8] = 1;
                    d[9] = (issued % 251) as u8;
                    Err(d)
                } else {
                    Ok(slot_usize)
                };
                let enqueued = ctx.now();
                backend.submit(ctx, h, write, offset, payload, token)?;
                inflight.insert(token, enqueued);
                issued += 1;
            }
            let events = backend.poll(ctx, 1)?;
            for (token, data) in events {
                if let Some(enq) = inflight.remove(&token) {
                    latency.record(ctx.now() - enq);
                    throughput.record(self.cfg.slot);
                    completed += 1;
                    if !data.is_empty() {
                        debug_assert_eq!(data[8], 1, "read a dead slot");
                    }
                }
            }
        }
        Ok(KvellRun {
            latency,
            throughput,
            elapsed: ctx.now() - start,
        })
    }

    /// Synchronous point read (for tests).
    ///
    /// # Errors
    /// `Inval`, backend-path errors.
    pub fn get(
        &self,
        ctx: &mut ActorCtx,
        backend: &mut Backend,
        h: Handle,
        key: u64,
    ) -> SysResult<Vec<u8>> {
        ctx.delay(self.cfg.op_cpu + self.cfg.index_cpu);
        let offset = self.slot_of(key)?;
        let mut buf = vec![0u8; self.cfg.slot as usize];
        backend.pread(ctx, h, &mut buf, offset)?;
        Ok(buf)
    }
}
