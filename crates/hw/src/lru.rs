//! `PasidLru`: the O(1) translation-cache structure shared by the IOMMU's
//! IOTLB and page-walk cache and the SSD's device-side ATC.
//!
//! Entries are keyed `(Pasid, u64)` — the `u64` is a virtual page number
//! (IOTLB/ATC) or a 2 MB prefix (PWC). The structure keeps three indexes:
//!
//! * a fixed-key `HashMap` from key to slot for O(1) lookup;
//! * an intrusive doubly-linked recency list threaded through a slot slab
//!   (no allocation per touch), giving O(1) touch-on-hit, insert, and
//!   LRU eviction — replacing the seed's `Vec` order list whose
//!   `Vec::remove(0)` made every eviction O(n);
//! * a residency bitmap: one `u64` word per `(Pasid, index / 64)`, a bit
//!   per cached index, so a range invalidation probes one word per 64
//!   indexes and visits only the entries actually dropped. Insert/evict
//!   churn in a full cache never allocates, which an ordered set's node
//!   splits and merges would (the steady-state read path must not).
//!
//! Ranges wider than the cache, and whole-PASID invalidations, walk the
//! recency list instead: O(entries cached), never more.

use std::collections::HashMap;

use bypassd_sim::FixedState;

use crate::types::Pasid;

const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct Slot<V> {
    pasid: Pasid,
    index: u64,
    value: V,
    prev: u32,
    next: u32,
}

/// A fixed-capacity true-LRU cache keyed by `(Pasid, u64)`.
///
/// `get` refreshes recency; `insert` evicts the least-recently-used entry
/// when full. All single-entry operations are O(1) amortized (hash map
/// plus list splice); a range invalidation costs one probe per 64
/// indexes of the range (capped at one list walk) plus O(1) per entry
/// dropped.
#[derive(Debug)]
pub struct PasidLru<V> {
    map: HashMap<(Pasid, u64), u32, FixedState>,
    slots: Vec<Slot<V>>,
    free: Vec<u32>,
    /// `(pasid, index / 64)` → bit `index % 64` set for each cached
    /// index; a word leaves the map when its last bit clears.
    resident: HashMap<(Pasid, u64), u64, FixedState>,
    head: u32,
    tail: u32,
    capacity: usize,
}

impl<V: Default> PasidLru<V> {
    /// Creates a cache holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        PasidLru {
            map: HashMap::with_capacity_and_hasher(capacity.min(1 << 16), FixedState::default()),
            slots: Vec::new(),
            free: Vec::new(),
            resident: HashMap::default(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Current number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Resizes the cache, evicting least-recently-used entries until the
    /// contents fit.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
        while self.map.len() > self.capacity {
            self.evict_lru();
        }
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.resident.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    fn unlink(&mut self, slot: u32) {
        let (prev, next) = {
            let s = &self.slots[slot as usize];
            (s.prev, s.next)
        };
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
    }

    fn push_front(&mut self, slot: u32) {
        let old_head = self.head;
        {
            let s = &mut self.slots[slot as usize];
            s.prev = NIL;
            s.next = old_head;
        }
        if old_head != NIL {
            self.slots[old_head as usize].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    /// Removes `slot` from every index and returns its value.
    fn discard(&mut self, slot: u32) -> V {
        self.unlink(slot);
        let s = &mut self.slots[slot as usize];
        let (pasid, index) = (s.pasid, s.index);
        let value = std::mem::take(&mut s.value);
        self.map.remove(&(pasid, index));
        let word_key = (pasid, index / 64);
        let word = self
            .resident
            .get_mut(&word_key)
            .expect("a cached index has its residency bit");
        *word &= !(1u64 << (index % 64));
        if *word == 0 {
            self.resident.remove(&word_key);
        }
        self.free.push(slot);
        value
    }

    fn evict_lru(&mut self) {
        let tail = self.tail;
        if tail != NIL {
            self.discard(tail);
        }
    }

    /// Looks up `key` and refreshes its recency (true LRU touch-on-hit).
    pub fn get(&mut self, pasid: Pasid, index: u64) -> Option<&V> {
        let slot = *self.map.get(&(pasid, index))?;
        if self.head != slot {
            self.unlink(slot);
            self.push_front(slot);
        }
        Some(&self.slots[slot as usize].value)
    }

    /// Looks up `key` without touching recency.
    pub fn peek(&self, pasid: Pasid, index: u64) -> Option<&V> {
        let slot = *self.map.get(&(pasid, index))?;
        Some(&self.slots[slot as usize].value)
    }

    /// True if `key` is cached (no recency effect).
    pub fn contains(&self, pasid: Pasid, index: u64) -> bool {
        self.map.contains_key(&(pasid, index))
    }

    /// Inserts (or refreshes) an entry, evicting the LRU entry when the
    /// cache is full. Returns true when the key was newly inserted.
    pub fn insert(&mut self, pasid: Pasid, index: u64, value: V) -> bool {
        if let Some(&slot) = self.map.get(&(pasid, index)) {
            self.slots[slot as usize].value = value;
            if self.head != slot {
                self.unlink(slot);
                self.push_front(slot);
            }
            return false;
        }
        if self.map.len() >= self.capacity {
            self.evict_lru();
        }
        let slot = match self.free.pop() {
            Some(s) => {
                let slot_ref = &mut self.slots[s as usize];
                slot_ref.pasid = pasid;
                slot_ref.index = index;
                slot_ref.value = value;
                s
            }
            None => {
                let s = self.slots.len() as u32;
                self.slots.push(Slot {
                    pasid,
                    index,
                    value,
                    prev: NIL,
                    next: NIL,
                });
                s
            }
        };
        self.push_front(slot);
        self.map.insert((pasid, index), slot);
        *self.resident.entry((pasid, index / 64)).or_insert(0) |= 1u64 << (index % 64);
        true
    }

    /// Removes one entry, returning its value.
    pub fn remove(&mut self, pasid: Pasid, index: u64) -> Option<V> {
        let slot = *self.map.get(&(pasid, index))?;
        Some(self.discard(slot))
    }

    /// Drops every entry of `pasid`; returns how many were dropped.
    /// Cost: one walk of the recency list (O(entries cached)).
    pub fn invalidate_pasid(&mut self, pasid: Pasid) -> usize {
        self.discard_where(|s| s.pasid == pasid)
    }

    /// Drops `pasid`'s entries with secondary index in `[first, last]`;
    /// returns how many were dropped. Cost: one residency-word probe per
    /// 64 indexes of the range plus O(1) per dropped entry, or one walk
    /// of the recency list when the range spans more words than the
    /// cache holds entries — a single-range shootdown never scans more
    /// than the cache.
    pub fn invalidate_range(&mut self, pasid: Pasid, first: u64, last: u64) -> usize {
        // An inverted bound means an empty shootdown, not a panic.
        if first > last {
            return 0;
        }
        let (w0, w1) = (first / 64, last / 64);
        if w1 - w0 >= self.map.len() as u64 {
            return self.discard_where(|s| s.pasid == pasid && (first..=last).contains(&s.index));
        }
        let mut dropped = 0;
        for w in w0..=w1 {
            let Some(&bits) = self.resident.get(&(pasid, w)) else {
                continue;
            };
            let lo = if w == w0 { first % 64 } else { 0 };
            let hi = if w == w1 { last % 64 } else { 63 };
            let mut doomed = bits & (u64::MAX << lo) & (u64::MAX >> (63 - hi));
            while doomed != 0 {
                let index = w * 64 + u64::from(doomed.trailing_zeros());
                doomed &= doomed - 1;
                let slot = self.map[&(pasid, index)];
                self.discard(slot);
                dropped += 1;
            }
        }
        dropped
    }

    /// Drops every entry whose slot matches, walking the recency list;
    /// returns how many were dropped.
    fn discard_where(&mut self, doomed: impl Fn(&Slot<V>) -> bool) -> usize {
        let mut dropped = 0;
        let mut cur = self.head;
        while cur != NIL {
            let next = self.slots[cur as usize].next;
            if doomed(&self.slots[cur as usize]) {
                self.discard(cur);
                dropped += 1;
            }
            cur = next;
        }
        dropped
    }

    /// Keys from most- to least-recently used (test/debug helper).
    pub fn recency_order(&self) -> Vec<(Pasid, u64)> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut cur = self.head;
        while cur != NIL {
            let s = &self.slots[cur as usize];
            out.push((s.pasid, s.index));
            cur = s.next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P1: Pasid = Pasid(1);
    const P2: Pasid = Pasid(2);

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut c: PasidLru<u64> = PasidLru::new(4);
        assert!(c.insert(P1, 10, 100));
        assert!(!c.insert(P1, 10, 101), "re-insert is an update");
        assert_eq!(c.get(P1, 10), Some(&101));
        assert_eq!(c.remove(P1, 10), Some(101));
        assert_eq!(c.get(P1, 10), None);
        assert!(c.is_empty());
    }

    #[test]
    fn eviction_is_true_lru_with_touch_on_hit() {
        let mut c: PasidLru<u64> = PasidLru::new(3);
        c.insert(P1, 1, 1);
        c.insert(P1, 2, 2);
        c.insert(P1, 3, 3);
        // Touch 1: recency becomes [1, 3, 2]; FIFO would still evict 1.
        assert!(c.get(P1, 1).is_some());
        c.insert(P1, 4, 4);
        assert!(c.contains(P1, 1), "touched entry must survive");
        assert!(!c.contains(P1, 2), "LRU entry must be evicted");
        assert_eq!(c.recency_order(), vec![(P1, 4), (P1, 1), (P1, 3)]);
        // Fill again: 3 is now LRU (peek must not refresh).
        assert!(c.peek(P1, 3).is_some());
        c.insert(P1, 5, 5);
        assert!(!c.contains(P1, 3), "peek must not refresh recency");
    }

    #[test]
    fn capacity_shrink_evicts_lru_first() {
        let mut c: PasidLru<u64> = PasidLru::new(8);
        for i in 0..8 {
            c.insert(P1, i, i);
        }
        c.get(P1, 0); // protect the oldest
        c.set_capacity(2);
        assert_eq!(c.len(), 2);
        assert!(c.contains(P1, 0));
        assert!(c.contains(P1, 7));
    }

    #[test]
    fn pasid_invalidation_is_scoped() {
        let mut c: PasidLru<u64> = PasidLru::new(16);
        for i in 0..4 {
            c.insert(P1, i, i);
            c.insert(P2, i, i);
        }
        assert_eq!(c.invalidate_pasid(P1), 4);
        assert_eq!(c.len(), 4);
        for i in 0..4 {
            assert!(!c.contains(P1, i));
            assert!(c.contains(P2, i));
        }
        assert_eq!(c.invalidate_pasid(P1), 0, "second shootdown is a no-op");
    }

    #[test]
    fn range_invalidation_drops_exactly_the_range() {
        let mut c: PasidLru<u64> = PasidLru::new(16);
        for i in 0..10 {
            c.insert(P1, i, i);
        }
        c.insert(P2, 5, 5);
        assert_eq!(c.invalidate_range(P1, 3, 6), 4);
        for i in 0..10 {
            assert_eq!(c.contains(P1, i), !(3..=6).contains(&i), "index {i}");
        }
        assert!(c.contains(P2, 5), "other PASID untouched");
    }

    #[test]
    fn inverted_range_invalidation_is_an_empty_shootdown() {
        // Regression: `invalidate_range(7, 3)` once panicked inside an
        // ordered-set range seek ("range start is greater than range
        // end") instead of dropping nothing.
        let mut c: PasidLru<u64> = PasidLru::new(8);
        c.insert(P1, 5, 5);
        assert_eq!(c.invalidate_range(P1, 7, 3), 0);
        assert_eq!(c.invalidate_range(P1, u64::MAX, 0), 0);
        assert!(c.contains(P1, 5), "empty shootdown must not drop entries");
        // Degenerate single-point range still works.
        assert_eq!(c.invalidate_range(P1, 5, 5), 1);
        assert!(!c.contains(P1, 5));
    }

    /// Random inserts, touches and shootdowns against a plain recency
    /// `Vec`: narrow ranges (word probes, straddling 64-index words),
    /// ranges wider than the cache (list walk), and PASID drops.
    #[test]
    fn invalidations_match_a_naive_model() {
        let mut c: PasidLru<u64> = PasidLru::new(48);
        let mut model: Vec<(Pasid, u64)> = Vec::new(); // MRU first
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        for step in 0..20_000u64 {
            let p = Pasid(next(3) as u32 + 1);
            let i = next(400);
            match next(10) {
                0..=5 => {
                    c.insert(p, i, step);
                    model.retain(|&k| k != (p, i));
                    model.insert(0, (p, i));
                    model.truncate(48);
                }
                6 | 7 => {
                    let hit = c.get(p, i).is_some();
                    assert_eq!(hit, model.contains(&(p, i)));
                    if hit {
                        model.retain(|&k| k != (p, i));
                        model.insert(0, (p, i));
                    }
                }
                8 => {
                    let last = i + [0, 3, 70, 200, 5_000][next(5) as usize];
                    let before = model.len();
                    model.retain(|&(kp, ki)| kp != p || !(i..=last).contains(&ki));
                    assert_eq!(c.invalidate_range(p, i, last), before - model.len());
                }
                _ => {
                    let before = model.len();
                    model.retain(|&(kp, _)| kp != p);
                    assert_eq!(c.invalidate_pasid(p), before - model.len());
                }
            }
            assert_eq!(c.recency_order(), model, "step {step}");
        }
    }

    #[test]
    fn slots_are_reused_after_invalidation() {
        let mut c: PasidLru<u64> = PasidLru::new(4);
        for round in 0..100u64 {
            for i in 0..4 {
                c.insert(P1, round * 4 + i, i);
            }
            c.invalidate_pasid(P1);
        }
        for i in 0..4 {
            c.insert(P1, i, i);
        }
        // The slab never grows past capacity + nothing leaked.
        assert_eq!(c.len(), 4);
        assert!(c.recency_order().len() == 4);
    }

    #[test]
    fn eviction_pressure_keeps_indexes_consistent() {
        let mut c: PasidLru<u64> = PasidLru::new(8);
        for i in 0..1000u64 {
            c.insert(Pasid((i % 3) as u32 + 1), i, i);
            assert!(c.len() <= 8);
        }
        let order = c.recency_order();
        assert_eq!(order.len(), c.len());
        for (p, i) in order {
            assert_eq!(c.peek(p, i), Some(&i));
        }
    }
}
