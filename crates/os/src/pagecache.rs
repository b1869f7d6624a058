//! A block-granular LRU page cache for the buffered I/O path.
//!
//! The paper's experiments run O_DIRECT; the cache exists for the
//! buffered kernel interface (e.g. the conflicting opener in Fig. 12) and
//! completeness. Write-back with explicit dirty tracking; `fsync` drains.

use std::collections::{HashMap, VecDeque};

use bypassd_ext4::layout::Ino;

/// Cache key: (inode, file block).
pub type Key = (u64, u64);

struct Entry {
    data: Box<[u8]>,
    dirty: bool,
    stamp: u64,
}

/// An LRU page cache of 4 KB blocks.
pub struct PageCache {
    map: HashMap<Key, Entry>,
    lru: VecDeque<(Key, u64)>,
    capacity: usize,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl PageCache {
    /// Creates a cache of `capacity` blocks.
    pub fn new(capacity: usize) -> Self {
        PageCache {
            map: HashMap::new(),
            lru: VecDeque::new(),
            capacity: capacity.max(1),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn touch(&mut self, key: Key) {
        self.clock += 1;
        let stamp = self.clock;
        if let Some(e) = self.map.get_mut(&key) {
            e.stamp = stamp;
        }
        self.lru.push_back((key, stamp));
    }

    /// Looks up a block, refreshing recency. Returns a copy.
    pub fn get(&mut self, ino: Ino, block: u64) -> Option<Vec<u8>> {
        let key = (ino.0, block);
        if self.map.contains_key(&key) {
            self.touch(key);
            self.hits += 1;
            Some(self.map[&key].data.to_vec())
        } else {
            self.misses += 1;
            None
        }
    }

    /// Inserts (or replaces) a block. Returns blocks evicted as
    /// `(ino, block, data, dirty)` for the caller to write back if dirty.
    pub fn insert(
        &mut self,
        ino: Ino,
        block: u64,
        data: Vec<u8>,
        dirty: bool,
    ) -> Vec<(u64, u64, Box<[u8]>, bool)> {
        let key = (ino.0, block);
        let was_dirty = self.map.get(&key).is_some_and(|e| e.dirty);
        self.map.insert(
            key,
            Entry {
                data: data.into_boxed_slice(),
                dirty: dirty || was_dirty,
                stamp: 0,
            },
        );
        self.touch(key);
        let mut evicted = Vec::new();
        while self.map.len() > self.capacity {
            match self.lru.pop_front() {
                Some((k, stamp)) => {
                    let fresh = self.map.get(&k).map(|e| e.stamp) == Some(stamp);
                    if fresh {
                        let e = self.map.remove(&k).unwrap();
                        evicted.push((k.0, k.1, e.data, e.dirty));
                    }
                }
                None => break,
            }
        }
        evicted
    }

    /// Takes all dirty blocks of `ino` (clearing their dirty bits).
    pub fn take_dirty(&mut self, ino: Ino) -> Vec<(u64, Vec<u8>)> {
        let mut out = Vec::new();
        for (k, e) in &mut self.map {
            if k.0 == ino.0 && e.dirty {
                e.dirty = false;
                out.push((k.1, e.data.to_vec()));
            }
        }
        out.sort_by_key(|(b, _)| *b);
        out
    }

    /// Drops all blocks of `ino` (close/unlink), returning dirty ones.
    pub fn invalidate(&mut self, ino: Ino) -> Vec<(u64, Vec<u8>)> {
        let dirty = self.take_dirty(ino);
        self.map.retain(|k, _| k.0 != ino.0);
        dirty
    }

    /// (hits, misses).
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Cached block count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl std::fmt::Debug for PageCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageCache")
            .field("blocks", &self.map.len())
            .field("capacity", &self.capacity)
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(v: u8) -> Vec<u8> {
        vec![v; 4096]
    }

    #[test]
    fn hit_after_insert() {
        let mut c = PageCache::new(10);
        assert!(c.get(Ino(1), 0).is_none());
        c.insert(Ino(1), 0, block(7), false);
        assert_eq!(c.get(Ino(1), 0).unwrap()[0], 7);
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = PageCache::new(2);
        c.insert(Ino(1), 0, block(0), false);
        c.insert(Ino(1), 1, block(1), false);
        let _ = c.get(Ino(1), 0); // refresh 0
        let ev = c.insert(Ino(1), 2, block(2), false);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].1, 1, "block 1 was least recently used");
        assert!(c.get(Ino(1), 0).is_some());
        assert!(c.get(Ino(1), 1).is_none());
    }

    #[test]
    fn eviction_reports_dirty() {
        let mut c = PageCache::new(1);
        c.insert(Ino(1), 0, block(9), true);
        let ev = c.insert(Ino(1), 1, block(1), false);
        assert_eq!(ev.len(), 1);
        assert!(ev[0].3, "dirty flag must survive eviction");
    }

    #[test]
    fn take_dirty_clears_flags() {
        let mut c = PageCache::new(10);
        c.insert(Ino(1), 3, block(3), true);
        c.insert(Ino(1), 1, block(1), true);
        c.insert(Ino(2), 0, block(0), true);
        c.insert(Ino(1), 2, block(2), false);
        let d = c.take_dirty(Ino(1));
        assert_eq!(d.iter().map(|(b, _)| *b).collect::<Vec<_>>(), vec![1, 3]);
        assert!(c.take_dirty(Ino(1)).is_empty());
        assert_eq!(c.take_dirty(Ino(2)).len(), 1);
    }

    #[test]
    fn overwrite_keeps_dirty_bit() {
        let mut c = PageCache::new(10);
        c.insert(Ino(1), 0, block(1), true);
        c.insert(Ino(1), 0, block(2), false);
        let d = c.take_dirty(Ino(1));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].1[0], 2);
    }

    #[test]
    fn invalidate_drops_all() {
        let mut c = PageCache::new(10);
        c.insert(Ino(1), 0, block(0), true);
        c.insert(Ino(1), 1, block(1), false);
        let d = c.invalidate(Ino(1));
        assert_eq!(d.len(), 1);
        assert!(c.is_empty());
    }
}
