//! A WiredTiger-like B-tree store (§6.4).
//!
//! Structure follows the paper's description: one file, 512 B pages (set
//! equal to the Optane sector size), a B-tree indexed by key with values
//! in the leaves, and an in-memory page cache shared by all threads.
//! Lookups descend from the root; runs of consecutive cache misses are
//! issued as *chained* reads, which is the access pattern XRP accelerates
//! and — as the cache grows (Fig. 14) — the reason XRP's benefit fades
//! while BypassD's per-I/O benefit persists.
//!
//! Scaled-down faithfulness: the tree is bulk-loaded dense (no splits;
//! YCSB D/E "inserts" activate preallocated keys), which preserves the
//! figures' determinants: descent depth, cache hit rate, and I/O count
//! per operation.

use std::sync::Arc;

use parking_lot::Mutex;

use bypassd::System;
use bypassd_backends::{Backend, ChainDecider, Handle};
use bypassd_ext4::layout::Ino;
use bypassd_os::pagecache::PageCache;
use bypassd_os::{Errno, SysResult};
use bypassd_sim::engine::ActorCtx;
use bypassd_sim::time::Nanos;

use crate::util::FileWriter;
use crate::ycsb::YcsbOp;

/// Page size (equals the device sector size, as the paper configures).
pub const PAGE: u64 = 512;
/// Leaf entry: key (8) + value (16).
const LEAF_ENTRY: usize = 24;
/// Internal entry: first key (8) + child page (4).
const NODE_ENTRY: usize = 12;

/// Store configuration.
#[derive(Debug, Clone)]
pub struct BtreeConfig {
    /// Keys live at build time.
    pub n_keys: u64,
    /// Extra preallocated keys activatable by YCSB inserts.
    pub max_keys: u64,
    /// Page-cache budget in bytes.
    pub cache_bytes: u64,
    /// Backing file path.
    pub file: String,
    /// Key-value pairs per leaf page.
    pub leaf_entries: usize,
    /// Children per internal page.
    pub fanout: usize,
    /// Engine CPU per operation (hashing, locks, cursor setup).
    pub op_cpu: Nanos,
    /// Engine CPU per page visited.
    pub page_cpu: Nanos,
}

impl BtreeConfig {
    /// A store of `n_keys` with the given cache budget.
    pub fn new(file: &str, n_keys: u64, cache_bytes: u64) -> Self {
        BtreeConfig {
            n_keys,
            max_keys: n_keys + n_keys / 4,
            cache_bytes,
            file: file.into(),
            leaf_entries: 21,
            fanout: 40,
            op_cpu: Nanos(4_000),
            page_cpu: Nanos(600),
        }
    }
}

struct Shared {
    cache: PageCache,
}

/// The B-tree store. One instance per simulated process; threads share
/// the cache and use their own backend handles.
pub struct BtreeStore {
    cfg: BtreeConfig,
    /// (first page id, page count) per level; `[0]` = leaves, last = root.
    levels: Vec<(u64, u64)>,
    root: u64,
    shared: Arc<Mutex<Shared>>,
}

fn decode_child(buf: &[u8], key: u64) -> u64 {
    let count = u16::from_le_bytes([buf[1], buf[2]]) as usize;
    let mut child = 0u64;
    for i in 0..count {
        let off = 4 + i * NODE_ENTRY;
        let first = u64::from_le_bytes(buf[off..off + 8].try_into().unwrap());
        if first <= key {
            child = u32::from_le_bytes(buf[off + 8..off + 12].try_into().unwrap()) as u64;
        } else {
            break;
        }
    }
    child
}

fn leaf_entry(buf: &[u8], key: u64, leaf_entries: usize) -> Option<(usize, [u8; 16])> {
    let count = u16::from_le_bytes([buf[1], buf[2]]) as usize;
    debug_assert!(count <= leaf_entries);
    for i in 0..count {
        let off = 4 + i * LEAF_ENTRY;
        let k = u64::from_le_bytes(buf[off..off + 8].try_into().unwrap());
        if k == key {
            let mut v = [0u8; 16];
            v.copy_from_slice(&buf[off + 8..off + 24]);
            return Some((off, v));
        }
    }
    None
}

impl BtreeStore {
    /// Builds the store on disk (untimed setup) and returns the engine.
    ///
    /// # Errors
    /// File creation/allocation failures.
    ///
    /// # Panics
    /// Panics on degenerate configurations (zero keys, fanout < 2).
    pub fn build(system: &System, cfg: BtreeConfig) -> Result<BtreeStore, bypassd_ext4::Ext4Error> {
        assert!(cfg.n_keys > 0 && cfg.max_keys >= cfg.n_keys);
        assert!(cfg.fanout >= 2 && cfg.leaf_entries >= 1);
        assert!(4 + cfg.leaf_entries * LEAF_ENTRY <= PAGE as usize);
        assert!(4 + cfg.fanout * NODE_ENTRY <= PAGE as usize);

        // Level geometry.
        let mut levels = Vec::new();
        let leaves = cfg.max_keys.div_ceil(cfg.leaf_entries as u64);
        levels.push((0u64, leaves));
        while levels.last().unwrap().1 > 1 {
            let (prev_start, prev_count) = *levels.last().unwrap();
            let count = prev_count.div_ceil(cfg.fanout as u64);
            levels.push((prev_start + prev_count, count));
        }
        let total_pages = levels.last().unwrap().0 + levels.last().unwrap().1;
        let mut w = FileWriter::create(system, &cfg.file, total_pages * PAGE)?;

        // Leaves.
        let mut page = vec![0u8; PAGE as usize];
        for leaf in 0..leaves {
            page.fill(0);
            page[0] = 0; // leaf
            let first = leaf * cfg.leaf_entries as u64;
            let count = cfg.leaf_entries.min((cfg.max_keys - first) as usize);
            page[1..3].copy_from_slice(&(count as u16).to_le_bytes());
            for i in 0..count {
                let key = first + i as u64;
                let off = 4 + i * LEAF_ENTRY;
                page[off..off + 8].copy_from_slice(&key.to_le_bytes());
                // Value: live flag + key echo.
                page[off + 8] = u8::from(key < cfg.n_keys);
                page[off + 9..off + 17].copy_from_slice(&key.to_le_bytes());
            }
            w.write_chunk(&page);
        }
        // Internal levels.
        for lvl in 1..levels.len() {
            let (child_start, child_count) = levels[lvl - 1];
            let (_, count) = levels[lvl];
            let child_keys_span =
                (cfg.leaf_entries as u64) * (cfg.fanout as u64).pow((lvl - 1) as u32);
            for node in 0..count {
                page.fill(0);
                page[0] = 1; // internal
                let first_child = node * cfg.fanout as u64;
                let n_children = (cfg.fanout as u64).min(child_count - first_child) as usize;
                page[1..3].copy_from_slice(&(n_children as u16).to_le_bytes());
                for i in 0..n_children {
                    let child = first_child + i as u64;
                    let first_key = child * child_keys_span;
                    let off = 4 + i * NODE_ENTRY;
                    page[off..off + 8].copy_from_slice(&first_key.to_le_bytes());
                    page[off + 8..off + 12]
                        .copy_from_slice(&((child_start + child) as u32).to_le_bytes());
                }
                w.write_chunk(&page);
            }
        }
        let root = levels.last().unwrap().0;
        let cache_pages = (cfg.cache_bytes / PAGE).max(8) as usize;
        Ok(BtreeStore {
            shared: Arc::new(Mutex::new(Shared {
                cache: PageCache::new(cache_pages),
            })),
            root,
            levels,
            cfg,
        })
    }

    /// The backing file path.
    pub fn file(&self) -> &str {
        &self.cfg.file
    }

    /// Tree depth (levels including leaves).
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Cache (hits, misses).
    pub fn cache_stats(&self) -> (u64, u64) {
        self.shared.lock().cache.stats()
    }

    /// Drops all cached pages (benchmark fairness: every configuration
    /// starts from the same cold state and is warmed identically).
    pub fn clear_cache(&self) {
        let mut sh = self.shared.lock();
        let pages = (self.cfg.cache_bytes / PAGE).max(8) as usize;
        sh.cache = PageCache::new(pages);
    }

    fn cache_get(&self, page: u64) -> Option<Vec<u8>> {
        self.shared.lock().cache.get(Ino(1), page)
    }

    fn cache_put(&self, page: u64, bytes: Vec<u8>) {
        let _ = self.shared.lock().cache.insert(Ino(1), page, bytes, false);
    }

    /// Descends to the leaf holding `key`; returns `(leaf page, bytes)`.
    fn descend(
        &self,
        ctx: &mut ActorCtx,
        backend: &mut Backend,
        h: Handle,
        key: u64,
    ) -> SysResult<(u64, Vec<u8>)> {
        if key >= self.cfg.max_keys {
            return Err(Errno::Inval);
        }
        let mut page = self.root;
        let mut level = self.levels.len() - 1;
        loop {
            if let Some(bytes) = self.cache_get(page) {
                ctx.delay(self.cfg.page_cpu);
                if level == 0 {
                    return Ok((page, bytes));
                }
                page = decode_child(&bytes, key);
                level -= 1;
                continue;
            }
            // Miss: chain dependent reads until a cached page or the leaf.
            let shared = &self.shared;
            let start = page * PAGE;
            let (mut visited, mut leaf) = (0u64, false);
            let mut next = |buf: &[u8]| {
                let _ = shared
                    .lock()
                    .cache
                    .insert(Ino(1), page, buf.to_vec(), false);
                visited += 1;
                leaf = level == 0;
                if leaf {
                    return None;
                }
                page = decode_child(buf, key);
                level -= 1;
                // Stop the chain when the child is already cached.
                let cached = shared.lock().cache.get(Ino(1), page).is_some();
                (!cached).then_some(page * PAGE)
            };
            let buf = backend.chained_read(ctx, h, start, PAGE, ChainDecider::Host(&mut next))?;
            ctx.delay(Nanos(self.cfg.page_cpu.as_nanos() * visited));
            if leaf {
                return Ok((page, buf));
            }
        }
    }

    /// Point read; `None` when the key has not been inserted yet.
    ///
    /// # Errors
    /// `Inval` for out-of-range keys, backend-path errors.
    pub fn read(
        &self,
        ctx: &mut ActorCtx,
        backend: &mut Backend,
        h: Handle,
        key: u64,
    ) -> SysResult<Option<[u8; 16]>> {
        ctx.delay(self.cfg.op_cpu);
        let (_, bytes) = self.descend(ctx, backend, h, key)?;
        Ok(leaf_entry(&bytes, key, self.cfg.leaf_entries)
            .filter(|(_, v)| v[0] == 1)
            .map(|(_, v)| v))
    }

    /// Update (or insert-activate) a key's value; write-through.
    ///
    /// # Errors
    /// `Inval`, backend-path errors.
    pub fn update(
        &self,
        ctx: &mut ActorCtx,
        backend: &mut Backend,
        h: Handle,
        key: u64,
        value: &[u8; 15],
    ) -> SysResult<()> {
        ctx.delay(self.cfg.op_cpu);
        let (leaf_page, mut bytes) = self.descend(ctx, backend, h, key)?;
        let (off, _) = leaf_entry(&bytes, key, self.cfg.leaf_entries).ok_or(Errno::Inval)?;
        bytes[off + 8] = 1;
        bytes[off + 9..off + 24].copy_from_slice(value);
        backend.pwrite(ctx, h, &bytes, leaf_page * PAGE)?;
        self.cache_put(leaf_page, bytes);
        Ok(())
    }

    /// Range scan from `key` over `items` pairs: one descent plus a
    /// single contiguous read of the remaining leaves (the YCSB E shape
    /// where XRP cannot help, §6.4).
    ///
    /// # Errors
    /// `Inval`, backend-path errors.
    pub fn scan(
        &self,
        ctx: &mut ActorCtx,
        backend: &mut Backend,
        h: Handle,
        key: u64,
        items: usize,
    ) -> SysResult<usize> {
        ctx.delay(self.cfg.op_cpu);
        let (leaf_page, first) = self.descend(ctx, backend, h, key)?;
        let le = self.cfg.leaf_entries as u64;
        let pos_in_leaf = key % le;
        let total = (pos_in_leaf + items as u64).div_ceil(le);
        let last_leaf = (leaf_page + total - 1).min(self.levels[0].1 - 1);
        let extra_pages = last_leaf.saturating_sub(leaf_page);
        if extra_pages > 0 {
            let mut buf = vec![0u8; (extra_pages * PAGE) as usize];
            backend.pread(ctx, h, &mut buf, (leaf_page + 1) * PAGE)?;
            ctx.delay(Nanos(self.cfg.page_cpu.as_nanos() * extra_pages));
        }
        let _ = first;
        let available = ((last_leaf + 1) * le - key).min(items as u64);
        Ok(available as usize)
    }

    /// Executes one YCSB operation.
    ///
    /// # Errors
    /// As the underlying operations.
    pub fn execute(
        &self,
        ctx: &mut ActorCtx,
        backend: &mut Backend,
        h: Handle,
        op: YcsbOp,
    ) -> SysResult<()> {
        match op {
            YcsbOp::Read(k) => {
                self.read(ctx, backend, h, k)?;
            }
            YcsbOp::Update(k) | YcsbOp::Insert(k) => {
                self.update(ctx, backend, h, k, &[7u8; 15])?;
            }
            YcsbOp::Scan(k, n) => {
                self.scan(ctx, backend, h, k, n)?;
            }
            YcsbOp::Rmw(k) => {
                self.read(ctx, backend, h, k)?;
                self.update(ctx, backend, h, k, &[8u8; 15])?;
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for BtreeStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BtreeStore")
            .field("keys", &self.cfg.n_keys)
            .field("depth", &self.levels.len())
            .field("pages", &(self.levels.last().unwrap().0 + 1))
            .finish()
    }
}
