//! Per-inode extent trees and the extent-status cache.
//!
//! The in-memory [`ExtentTree`] is ext4's *extent status tree*: once
//! loaded it answers block lookups without touching the device, which is
//! what makes warm `fmap()` and cached `map_range` cheap (§4.1). Loading a
//! cold tree reads the inode's overflow extent blocks from the device —
//! the I/O cost the paper attributes to cold `fmap()` on unmapped files.

use crate::layout::{Extent, BLOCK_SIZE};
use bypassd_hw::types::Lba;

/// An in-memory extent map: non-overlapping extents sorted by first
/// file block.
///
/// A sorted `Vec` rather than an ordered map: lookups are a binary
/// search, appends push at the end, and [`ExtentTree::as_slice`] hands
/// the extents out in file order with no walk, so an inode flush can
/// compare overflow-block-sized chunks against what it last staged.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExtentTree {
    extents: Vec<Extent>,
}

impl ExtentTree {
    /// An empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds from a list of (non-overlapping) extents.
    pub fn from_extents(extents: impl IntoIterator<Item = Extent>) -> Self {
        let mut t = Self::new();
        for e in extents {
            t.insert(e);
        }
        t
    }

    /// Number of extents.
    pub fn len(&self) -> usize {
        self.extents.len()
    }

    /// True if no extents.
    pub fn is_empty(&self) -> bool {
        self.extents.is_empty()
    }

    /// The extents in file-block order.
    pub fn as_slice(&self) -> &[Extent] {
        &self.extents
    }

    /// Index of the first extent starting at or after file block `fb`.
    fn first_at_or_after(&self, fb: u64) -> usize {
        self.extents.partition_point(|e| e.file_block < fb)
    }

    /// The extent containing file block `fb`, if mapped.
    pub fn lookup(&self, fb: u64) -> Option<Extent> {
        let i = self.extents.partition_point(|e| e.file_block <= fb);
        let e = *self.extents.get(i.checked_sub(1)?)?;
        (fb < e.end()).then_some(e)
    }

    /// Device LBA of file block `fb`, if mapped.
    pub fn lba_of(&self, fb: u64) -> Option<Lba> {
        self.lookup(fb).map(|e| e.lba_of(fb))
    }

    /// One past the last mapped file block.
    pub fn end_block(&self) -> u64 {
        self.extents.last().map_or(0, |e| e.end())
    }

    /// Inserts an extent, merging with a physically-contiguous
    /// predecessor when possible.
    ///
    /// # Panics
    /// Panics if the extent overlaps an existing mapping or has zero
    /// length.
    pub fn insert(&mut self, e: Extent) {
        assert!(e.len > 0, "zero-length extent");
        if let Some(prev) = self.lookup(e.file_block) {
            panic!("extent overlaps existing mapping {prev:?}");
        }
        let i = self.first_at_or_after(e.file_block);
        if let Some(next) = self.extents.get(i) {
            assert!(e.end() <= next.file_block, "extent overlaps successor");
        }
        // Merge with predecessor if file- and device-contiguous.
        if let Some(prev) = i.checked_sub(1).map(|p| &mut self.extents[p]) {
            if prev.end() == e.file_block
                && prev.start_block + prev.len as u64 == e.start_block
                && prev.len as u64 + e.len as u64 <= u32::MAX as u64
            {
                prev.len += e.len;
                return;
            }
        }
        self.extents.insert(i, e);
    }

    /// Removes all extents at or beyond file block `from`, splitting the
    /// straddling extent if needed. Returns the freed device runs.
    pub fn truncate(&mut self, from: u64) -> Vec<(u64, u64)> {
        let mut freed = Vec::new();
        let i = self.first_at_or_after(from);
        // Split a straddling extent.
        if let Some(e) = i.checked_sub(1).map(|p| &mut self.extents[p]) {
            if from < e.end() {
                let keep = (from - e.file_block) as u32;
                freed.push((e.start_block + keep as u64, (e.len - keep) as u64));
                e.len = keep;
            }
        }
        freed.extend(
            self.extents
                .drain(i..)
                .map(|e| (e.start_block, e.len as u64)),
        );
        freed
    }

    /// Iterates extents in file-block order.
    pub fn iter(&self) -> impl Iterator<Item = &Extent> {
        self.extents.iter()
    }

    /// Extents intersecting file blocks `[from, to)`.
    pub fn range(&self, from: u64, to: u64) -> &[Extent] {
        // Ends ascend too: the extents are sorted and non-overlapping.
        let lo = self.extents.partition_point(|e| e.end() <= from);
        let hi = lo + self.extents[lo..].partition_point(|e| e.file_block < to);
        &self.extents[lo..hi]
    }

    /// Resolves a byte range to `(Lba, bytes)` segments, coalescing
    /// device-contiguous blocks. Returns `None` if any block in the range
    /// is unmapped (hole).
    pub fn resolve_bytes(&self, offset: u64, len: u64) -> Option<Vec<(Lba, u64)>> {
        if len == 0 {
            return Some(Vec::new());
        }
        let first_fb = offset / BLOCK_SIZE;
        let last_fb = (offset + len - 1) / BLOCK_SIZE;
        let mut segments: Vec<(Lba, u64)> = Vec::new();
        for fb in first_fb..=last_fb {
            let e = self.lookup(fb)?;
            let block_base = fb * BLOCK_SIZE;
            let lo = offset.max(block_base);
            let hi = (offset + len).min(block_base + BLOCK_SIZE);
            let lba = Lba(e.lba_of(fb).0 + (lo - block_base) / 512);
            let n = hi - lo;
            if let Some(last) = segments.last_mut() {
                if Lba(last.0 .0 + last.1 / 512) == lba {
                    last.1 += n;
                    continue;
                }
            }
            segments.push((lba, n));
        }
        Some(segments)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(fb: u64, sb: u64, len: u32) -> Extent {
        Extent {
            file_block: fb,
            start_block: sb,
            len,
        }
    }

    #[test]
    fn lookup_within_and_outside() {
        let t = ExtentTree::from_extents([e(0, 100, 4), e(10, 200, 2)]);
        assert_eq!(t.lookup(0), Some(e(0, 100, 4)));
        assert_eq!(t.lookup(3), Some(e(0, 100, 4)));
        assert_eq!(t.lookup(4), None, "hole after first extent");
        assert_eq!(t.lookup(11), Some(e(10, 200, 2)));
        assert_eq!(t.lookup(12), None);
        assert_eq!(t.end_block(), 12);
    }

    #[test]
    fn contiguous_inserts_merge() {
        let mut t = ExtentTree::new();
        t.insert(e(0, 100, 4));
        t.insert(e(4, 104, 4));
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(7), Some(e(0, 100, 8)));
    }

    #[test]
    fn non_contiguous_inserts_do_not_merge() {
        let mut t = ExtentTree::new();
        t.insert(e(0, 100, 4));
        t.insert(e(4, 300, 4)); // file-contiguous, device-discontiguous
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlap_rejected() {
        let mut t = ExtentTree::new();
        t.insert(e(0, 100, 4));
        t.insert(e(2, 500, 4));
    }

    #[test]
    fn truncate_removes_and_splits() {
        let mut t = ExtentTree::from_extents([e(0, 100, 4), e(4, 300, 4)]);
        let freed = t.truncate(2);
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(1), Some(e(0, 100, 2)));
        assert_eq!(t.lookup(2), None);
        let total: u64 = freed.iter().map(|(_, l)| l).sum();
        assert_eq!(total, 6);
        assert!(freed.contains(&(102, 2)));
        assert!(freed.contains(&(300, 4)));
    }

    #[test]
    fn truncate_to_zero_clears() {
        let mut t = ExtentTree::from_extents([e(0, 100, 4)]);
        let freed = t.truncate(0);
        assert!(t.is_empty());
        assert_eq!(freed, vec![(100, 4)]);
    }

    #[test]
    fn range_query() {
        let t = ExtentTree::from_extents([e(0, 100, 4), e(4, 300, 4), e(8, 500, 4)]);
        let r = t.range(2, 9);
        assert_eq!(r, [e(0, 100, 4), e(4, 300, 4), e(8, 500, 4)]);
        let r = t.range(4, 8);
        assert_eq!(r, [e(4, 300, 4)]);
    }

    #[test]
    fn resolve_bytes_coalesces() {
        let t = ExtentTree::from_extents([e(0, 100, 2), e(2, 102, 2), e(4, 500, 1)]);
        // blocks 0..4 are device-contiguous (100..104), block 4 jumps.
        let segs = t.resolve_bytes(0, 5 * BLOCK_SIZE).unwrap();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0], (Lba::from_block(100), 4 * BLOCK_SIZE));
        assert_eq!(segs[1], (Lba::from_block(500), BLOCK_SIZE));
    }

    #[test]
    fn resolve_bytes_sub_block() {
        let t = ExtentTree::from_extents([e(0, 100, 1)]);
        let segs = t.resolve_bytes(1024, 512).unwrap();
        assert_eq!(segs, vec![(Lba(100 * 8 + 2), 512)]);
    }

    #[test]
    fn resolve_bytes_hole_is_none() {
        let t = ExtentTree::from_extents([e(0, 100, 1), e(2, 200, 1)]);
        assert!(t.resolve_bytes(0, 3 * BLOCK_SIZE).is_none());
        assert!(t.resolve_bytes(0, BLOCK_SIZE).is_some());
    }

    #[test]
    fn resolve_zero_len() {
        let t = ExtentTree::new();
        assert_eq!(t.resolve_bytes(0, 0), Some(vec![]));
    }
}
