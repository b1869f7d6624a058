//! Differential test for the sorted-`Vec` [`ExtentTree`]: random
//! sequences of inserts (merging with a device-contiguous predecessor or
//! not, at the end or into holes), truncates (at extent boundaries and
//! through a straddling extent) and queries must leave it in exactly the
//! state of the original `BTreeMap`-keyed tree, kept here as the
//! reference, and every `lookup`, `lba_of`, `range`, `resolve_bytes`,
//! `end_block` and `len` must agree.

use std::collections::BTreeMap;

use bypassd_ext4::extent::ExtentTree;
use bypassd_ext4::layout::{Extent, BLOCK_SIZE};
use bypassd_hw::types::Lba;
use proptest::prelude::*;

/// The extent map as it was before the sorted `Vec`: keyed by first
/// file block.
#[derive(Default)]
struct MapTree {
    map: BTreeMap<u64, Extent>,
}

impl MapTree {
    fn len(&self) -> usize {
        self.map.len()
    }

    fn lookup(&self, fb: u64) -> Option<Extent> {
        let (_, e) = self.map.range(..=fb).next_back()?;
        (fb < e.end()).then_some(*e)
    }

    fn end_block(&self) -> u64 {
        self.map.values().next_back().map_or(0, |e| e.end())
    }

    fn insert(&mut self, e: Extent) {
        assert!(e.len > 0, "zero-length extent");
        if let Some(prev) = self.lookup(e.file_block) {
            panic!("extent overlaps existing mapping {prev:?}");
        }
        if let Some(next) = self.map.range(e.file_block..).next() {
            assert!(e.end() <= *next.0, "extent overlaps successor");
        }
        if let Some((&k, &prev)) = self.map.range(..e.file_block).next_back() {
            if prev.end() == e.file_block
                && prev.start_block + prev.len as u64 == e.start_block
                && prev.len as u64 + e.len as u64 <= u32::MAX as u64
            {
                let merged = Extent {
                    file_block: prev.file_block,
                    start_block: prev.start_block,
                    len: prev.len + e.len,
                };
                self.map.insert(k, merged);
                return;
            }
        }
        self.map.insert(e.file_block, e);
    }

    fn truncate(&mut self, from: u64) -> Vec<(u64, u64)> {
        let mut freed = Vec::new();
        if let Some(e) = self.lookup(from) {
            if e.file_block < from {
                let keep = (from - e.file_block) as u32;
                let drop_len = e.len - keep;
                self.map.insert(
                    e.file_block,
                    Extent {
                        file_block: e.file_block,
                        start_block: e.start_block,
                        len: keep,
                    },
                );
                freed.push((e.start_block + keep as u64, drop_len as u64));
            }
        }
        let to_remove: Vec<u64> = self.map.range(from..).map(|(k, _)| *k).collect();
        for k in to_remove {
            let e = self.map.remove(&k).unwrap();
            freed.push((e.start_block, e.len as u64));
        }
        freed
    }

    fn extents(&self) -> Vec<Extent> {
        self.map.values().copied().collect()
    }

    fn range(&self, from: u64, to: u64) -> Vec<Extent> {
        let mut out = Vec::new();
        if let Some(e) = self.lookup(from) {
            out.push(e);
        }
        for (_, e) in self.map.range(from..to) {
            if out.last() != Some(e) {
                out.push(*e);
            }
        }
        out.retain(|e| e.end() > from && e.file_block < to);
        out
    }

    fn resolve_bytes(&self, offset: u64, len: u64) -> Option<Vec<(Lba, u64)>> {
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

/// Device block right after `fb`'s predecessor extent, so an insert
/// there merges; a far-away block otherwise.
fn start_for(reference: &MapTree, fb: u64, contiguous: bool, salt: u64) -> u64 {
    let prev = reference.map.range(..fb).next_back().map(|(_, e)| *e);
    match prev {
        Some(p) if contiguous => p.start_block + p.len as u64,
        _ => 10_000 + salt * 37,
    }
}

/// Clips `[fb, fb + len)` to the hole at `fb`; `None` if `fb` is mapped.
fn clip_to_hole(reference: &MapTree, fb: u64, len: u32) -> Option<u32> {
    if reference.lookup(fb).is_some() {
        return None;
    }
    let room = reference
        .map
        .range(fb..)
        .next()
        .map_or(u64::MAX, |(k, _)| k - fb);
    Some((len as u64).min(room) as u32)
}

/// Every query on both trees, over the mapped span and a little past it.
fn assert_same(tree: &ExtentTree, reference: &MapTree, probe: u64) {
    let want = reference.extents();
    assert_eq!(tree.as_slice(), want.as_slice());
    assert_eq!(tree.iter().copied().collect::<Vec<_>>(), want);
    assert_eq!(tree.len(), reference.len());
    assert_eq!(tree.is_empty(), reference.len() == 0);
    let end = reference.end_block();
    assert_eq!(tree.end_block(), end);
    for fb in 0..end + 3 {
        assert_eq!(tree.lookup(fb), reference.lookup(fb), "lookup({fb})");
        assert_eq!(
            tree.lba_of(fb),
            reference.lookup(fb).map(|e| e.lba_of(fb)),
            "lba_of({fb})"
        );
    }
    let span = end + 3;
    let from = probe % span;
    for to in [from, from + 1, from + 1 + (probe >> 8) % span, span + 5] {
        assert_eq!(
            tree.range(from, to),
            reference.range(from, to).as_slice(),
            "range({from}, {to})"
        );
    }
    let offset = (probe >> 16) % (span * BLOCK_SIZE);
    for len in [0, 1, 512, BLOCK_SIZE, (probe >> 32) % (4 * BLOCK_SIZE) + 1] {
        assert_eq!(
            tree.resolve_bytes(offset, len),
            reference.resolve_bytes(offset, len),
            "resolve_bytes({offset}, {len})"
        );
    }
}

proptest! {
    /// Op codes: 0–1 append right after the last extent (device-
    /// contiguous, so it merges); 2 append after a gap or at a far
    /// device block (no merge); 3 insert into a hole at a random block,
    /// contiguous with its predecessor on odd salts; 4 truncate at a
    /// random block (often through a straddling extent); 5 queries only.
    #[test]
    fn sorted_vec_tree_matches_the_btreemap_tree(
        ops in prop::collection::vec((0u8..6, 0u64..96, 1u32..6, any::<u64>()), 1..80)
    ) {
        let mut tree = ExtentTree::new();
        let mut reference = MapTree::default();
        for (op, at, len, salt) in ops {
            match op {
                0..=2 => {
                    let gap = if op == 2 { salt % 3 } else { 0 };
                    let fb = reference.end_block() + gap;
                    let e = Extent {
                        file_block: fb,
                        start_block: start_for(&reference, fb, op < 2, salt % 1_000),
                        len,
                    };
                    tree.insert(e);
                    reference.insert(e);
                }
                3 => {
                    if let Some(len) = clip_to_hole(&reference, at, len) {
                        let e = Extent {
                            file_block: at,
                            start_block: start_for(&reference, at, salt % 2 == 1, salt % 1_000),
                            len,
                        };
                        tree.insert(e);
                        reference.insert(e);
                    }
                }
                4 => {
                    let from = at % (reference.end_block() + 2);
                    prop_assert_eq!(tree.truncate(from), reference.truncate(from));
                }
                _ => {}
            }
            assert_same(&tree, &reference, salt);
        }
        let rebuilt = ExtentTree::from_extents(reference.extents());
        prop_assert_eq!(&rebuilt, &tree);
    }
}

#[test]
fn overlapping_inserts_panic_in_both_trees() {
    let e = |fb, sb, len| Extent {
        file_block: fb,
        start_block: sb,
        len,
    };
    for bad in [e(2, 900, 1), e(0, 900, 4), e(3, 900, 4)] {
        let mut tree = ExtentTree::from_extents([e(1, 100, 2), e(5, 300, 2)]);
        let mut reference = MapTree::default();
        reference.insert(e(1, 100, 2));
        reference.insert(e(5, 300, 2));
        let a = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| tree.insert(bad)));
        let b = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| reference.insert(bad)));
        assert!(a.is_err() && b.is_err(), "{bad:?} must be rejected by both");
    }
}
