//! Bitmap block allocator with contiguous (extent) allocation.
//!
//! Allocations return runs of contiguous blocks — like ext4's multi-block
//! allocator — so a freshly-created large file is a handful of extents and
//! the IOMMU can coalesce its translations. A `max_run` knob forces
//! fragmentation for experiments that need it.

use crate::layout::BLOCK_SIZE;
use std::collections::BTreeSet;

/// A run of allocated blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// First block.
    pub start: u64,
    /// Length in blocks.
    pub len: u64,
}

/// Bitmap allocator over device blocks `[data_start, blocks)`.
#[derive(Debug)]
pub struct BlockAllocator {
    words: Vec<u64>,
    data_start: u64,
    blocks: u64,
    free: u64,
    hint: u64,
    max_run: u64,
    dirty_words: BTreeSet<usize>,
}

impl BlockAllocator {
    /// Creates an allocator for a device of `blocks` blocks whose data
    /// region starts at `data_start`. Metadata blocks are pre-marked used.
    pub fn new(blocks: u64, data_start: u64) -> Self {
        let words = vec![0u64; blocks.div_ceil(64) as usize];
        let mut a = BlockAllocator {
            words,
            data_start,
            blocks,
            free: blocks,
            hint: data_start,
            max_run: u64::MAX,
            dirty_words: BTreeSet::new(),
        };
        for b in 0..data_start {
            a.set(b);
        }
        // Mark padding bits past the end as used.
        for b in blocks..(a.words.len() as u64 * 64) {
            let w = (b / 64) as usize;
            a.words[w] |= 1 << (b % 64);
        }
        a.free = blocks - data_start;
        a.dirty_words.clear();
        a
    }

    /// Limits the maximum contiguous run returned by [`Self::alloc`]
    /// (fragmentation knob for experiments; default unlimited).
    pub fn set_max_run(&mut self, max_run: u64) {
        self.max_run = max_run.max(1);
    }

    fn set(&mut self, block: u64) {
        let w = (block / 64) as usize;
        let bit = 1u64 << (block % 64);
        debug_assert_eq!(self.words[w] & bit, 0, "double allocation of {block}");
        self.words[w] |= bit;
        self.free -= 1;
        self.dirty_words.insert(w);
    }

    fn clear(&mut self, block: u64) {
        let w = (block / 64) as usize;
        let bit = 1u64 << (block % 64);
        debug_assert_ne!(self.words[w] & bit, 0, "free of unallocated {block}");
        self.words[w] &= !bit;
        self.free += 1;
        self.dirty_words.insert(w);
    }

    /// True if `block` is allocated.
    pub fn is_allocated(&self, block: u64) -> bool {
        self.words[(block / 64) as usize] & (1 << (block % 64)) != 0
    }

    /// Free block count.
    pub fn free_blocks(&self) -> u64 {
        self.free
    }

    fn find_free_from(&self, from: u64) -> Option<u64> {
        let mut w = (from / 64) as usize;
        if w >= self.words.len() {
            return None;
        }
        // Mask off bits below `from` in the first word.
        let mut cur = self.words[w] | ((1u64 << (from % 64)) - 1);
        loop {
            if cur != u64::MAX {
                let bit = cur.trailing_ones() as u64;
                let block = w as u64 * 64 + bit;
                return (block < self.blocks).then_some(block);
            }
            w += 1;
            if w >= self.words.len() {
                return None;
            }
            cur = self.words[w];
        }
    }

    /// Allocates up to `want` blocks as one contiguous run (first-fit from
    /// the rotating hint). Returns fewer than `want` blocks if the free
    /// run is shorter; call again for the remainder.
    ///
    /// Returns `None` when the device is full.
    pub fn alloc(&mut self, want: u64) -> Option<Run> {
        if self.free == 0 || want == 0 {
            return None;
        }
        let want = want.min(self.max_run);
        let start = match self.find_free_from(self.hint) {
            Some(b) => b,
            None => self.find_free_from(self.data_start)?,
        };
        let mut len = 0u64;
        while len < want && start + len < self.blocks && !self.is_allocated(start + len) {
            len += 1;
        }
        for b in start..start + len {
            self.set(b);
        }
        self.hint = start + len;
        Some(Run { start, len })
    }

    /// Allocates exactly one block.
    pub fn alloc_one(&mut self) -> Option<u64> {
        self.alloc(1).map(|r| r.start)
    }

    /// Frees a run of blocks.
    ///
    /// # Panics
    /// Panics (debug) if any block was not allocated.
    pub fn free_run(&mut self, start: u64, len: u64) {
        for b in start..start + len {
            self.clear(b);
        }
    }

    /// Serialises the whole bitmap region (`bitmap_blocks` blocks worth).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.words.len() * 8);
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        let blocks = (out.len() as u64).div_ceil(BLOCK_SIZE);
        out.resize((blocks * BLOCK_SIZE) as usize, 0);
        out
    }

    /// Rebuilds from serialised form.
    pub fn decode(buf: &[u8], blocks: u64, data_start: u64) -> Self {
        let n_words = blocks.div_ceil(64) as usize;
        let mut words = Vec::with_capacity(n_words);
        for i in 0..n_words {
            words.push(u64::from_le_bytes(
                buf[i * 8..(i + 1) * 8].try_into().unwrap(),
            ));
        }
        let mut free = 0;
        for b in 0..blocks {
            if words[(b / 64) as usize] & (1 << (b % 64)) == 0 {
                free += 1;
            }
        }
        BlockAllocator {
            words,
            data_start,
            blocks,
            free,
            hint: data_start,
            max_run: u64::MAX,
            dirty_words: BTreeSet::new(),
        }
    }

    /// Takes the set of bitmap *blocks* dirtied since the last call
    /// (for journaling).
    pub fn take_dirty_blocks(&mut self) -> Vec<u64> {
        let words_per_block = (BLOCK_SIZE / 8) as usize;
        let mut blocks: Vec<u64> = self
            .dirty_words
            .iter()
            .map(|w| (w / words_per_block) as u64)
            .collect();
        blocks.dedup();
        self.dirty_words.clear();
        blocks
    }

    /// Returns the raw bytes of bitmap block `idx` (relative to the
    /// bitmap region).
    pub fn block_bytes(&self, idx: u64) -> Vec<u8> {
        let words_per_block = (BLOCK_SIZE / 8) as usize;
        let start = idx as usize * words_per_block;
        let mut out = Vec::with_capacity(BLOCK_SIZE as usize);
        for i in start..start + words_per_block {
            let w = self.words.get(i).copied().unwrap_or(u64::MAX);
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc() -> BlockAllocator {
        BlockAllocator::new(10_000, 100)
    }

    #[test]
    fn metadata_region_premarked() {
        let a = alloc();
        assert!(a.is_allocated(0));
        assert!(a.is_allocated(99));
        assert!(!a.is_allocated(100));
        assert_eq!(a.free_blocks(), 9_900);
    }

    #[test]
    fn alloc_is_contiguous_when_space_allows() {
        let mut a = alloc();
        let r = a.alloc(4096).unwrap();
        assert_eq!(r.len, 4096);
        for b in r.start..r.start + r.len {
            assert!(a.is_allocated(b));
        }
        assert_eq!(a.free_blocks(), 9_900 - 4096);
    }

    #[test]
    fn alloc_shrinks_at_fragmentation() {
        let mut a = alloc();
        let first = a.alloc(10).unwrap();
        a.free_run(first.start, 4); // free a 4-block hole at the start
        a.hint = 100; // rewind hint into the hole
        let r = a.alloc(100).unwrap();
        assert_eq!(r.len, 4, "run should stop at the allocated boundary");
    }

    #[test]
    fn max_run_fragmenting_knob() {
        let mut a = alloc();
        a.set_max_run(8);
        let r = a.alloc(1000).unwrap();
        assert_eq!(r.len, 8);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut a = BlockAllocator::new(200, 100);
        assert_eq!(a.alloc(500).unwrap().len, 100);
        assert!(a.alloc(1).is_none());
        assert_eq!(a.free_blocks(), 0);
    }

    #[test]
    fn free_then_realloc() {
        let mut a = alloc();
        let r = a.alloc(50).unwrap();
        a.free_run(r.start, r.len);
        assert_eq!(a.free_blocks(), 9_900);
        a.hint = 100;
        let r2 = a.alloc(50).unwrap();
        assert_eq!(r2.start, r.start);
    }

    #[test]
    fn wraps_hint_when_tail_full() {
        let mut a = BlockAllocator::new(300, 100);
        let _ = a.alloc(200).unwrap(); // fills device
        a.free_run(120, 10);
        let r = a.alloc(10).unwrap();
        assert_eq!(r.start, 120);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut a = alloc();
        let _ = a.alloc(1234);
        let enc = a.encode();
        let b = BlockAllocator::decode(&enc, 10_000, 100);
        assert_eq!(b.free_blocks(), a.free_blocks());
        for blk in [0u64, 99, 100, 100 + 1233, 100 + 1234, 9_999] {
            assert_eq!(a.is_allocated(blk), b.is_allocated(blk), "block {blk}");
        }
    }

    #[test]
    fn dirty_tracking_maps_to_blocks() {
        let mut a = alloc();
        let _ = a.take_dirty_blocks();
        let _ = a.alloc(10).unwrap();
        let dirty = a.take_dirty_blocks();
        assert_eq!(dirty, vec![0], "early blocks live in bitmap block 0");
        assert!(a.take_dirty_blocks().is_empty(), "dirty set must reset");
    }

    #[test]
    fn large_allocation_is_fast_and_single_run() {
        // 16GB file = 4M blocks; must come back as one run on a fresh FS.
        let mut a = BlockAllocator::new(8 << 20, 1000);
        let r = a.alloc(4 << 20).unwrap();
        assert_eq!(r.len, 4 << 20);
    }
}
