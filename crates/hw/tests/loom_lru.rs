//! Loom model tests for `PasidLru` touch/invalidate races.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"` (run via `cargo xtask
//! loom`); without the cfg this file is empty. `PasidLru` is `&mut
//! self` and is shared in the simulator behind a mutex (the IOMMU's
//! IOTLB, the SSD's device ATC), so the races that matter are
//! lock-serialized *sequences*: a translation touch interleaving with a
//! PASID or range shootdown. What must hold after any interleaving is
//! that the three internal indexes (hash map, intrusive recency list,
//! residency bitmap) agree — a desync here silently revives revoked
//! translations, which is exactly the permission bug BypassD's
//! revocation path (§3.6) exists to prevent.
#![cfg(loom)]

use bypassd_hw::lru::PasidLru;
use bypassd_hw::types::Pasid;
use loom::sync::{Arc, Mutex};

const P1: Pasid = Pasid(1);
const P2: Pasid = Pasid(2);

/// All three indexes agree: every key in the recency list resolves via
/// the map, the list length matches the map, and capacity holds.
fn check_consistent(c: &PasidLru<u64>) {
    let order = c.recency_order();
    assert_eq!(order.len(), c.len(), "recency list and map disagree");
    assert!(c.len() <= c.capacity(), "capacity exceeded");
    for (p, i) in order {
        assert!(
            c.peek(p, i).is_some(),
            "listed key ({p:?}, {i}) missing from map"
        );
    }
}

/// Touch/insert traffic on P1 races full-PASID shootdowns of P1 while
/// P2 traffic proceeds. After the dust settles, a final shootdown must
/// leave zero P1 entries — a stale survivor would be a revoked
/// translation still serving hits.
#[test]
fn touch_races_pasid_shootdown() {
    loom::model(|| {
        let cache = Arc::new(Mutex::new(PasidLru::<u64>::new(8)));
        let toucher = {
            let cache = Arc::clone(&cache);
            loom::thread::spawn(move || {
                for i in 0..12u64 {
                    let mut c = cache.lock().unwrap();
                    c.insert(P1, i % 4, i);
                    c.get(P1, (i + 1) % 4);
                    check_consistent(&c);
                }
            })
        };
        let shooter = {
            let cache = Arc::clone(&cache);
            loom::thread::spawn(move || {
                for _ in 0..4 {
                    let mut c = cache.lock().unwrap();
                    c.invalidate_pasid(P1);
                    check_consistent(&c);
                    drop(c);
                    loom::thread::yield_now();
                }
            })
        };
        let bystander = {
            let cache = Arc::clone(&cache);
            loom::thread::spawn(move || {
                for i in 0..12u64 {
                    let mut c = cache.lock().unwrap();
                    c.insert(P2, i % 3, i);
                    check_consistent(&c);
                }
            })
        };
        toucher.join().unwrap();
        shooter.join().unwrap();
        bystander.join().unwrap();

        let mut c = cache.lock().unwrap();
        c.invalidate_pasid(P1);
        for i in 0..4 {
            assert!(!c.contains(P1, i), "P1 entry {i} survived its shootdown");
        }
        for i in 0..3 {
            assert!(c.contains(P2, i), "bystander P2 entry {i} was collateral");
        }
        check_consistent(&c);
    });
}

/// Range shootdowns race touches that keep re-inserting inside and
/// outside the doomed range. The invariant is scoping: a shootdown of
/// `[4, 7]` may race insertions, but it must never clip keys outside
/// the range, and the indexes must stay consistent throughout.
#[test]
fn touch_races_range_shootdown() {
    loom::model(|| {
        let cache = Arc::new(Mutex::new(PasidLru::<u64>::new(16)));
        let toucher = {
            let cache = Arc::clone(&cache);
            loom::thread::spawn(move || {
                for i in 0..20u64 {
                    let mut c = cache.lock().unwrap();
                    c.insert(P1, i % 10, i);
                    check_consistent(&c);
                }
            })
        };
        let shooter = {
            let cache = Arc::clone(&cache);
            loom::thread::spawn(move || {
                for _ in 0..5 {
                    let mut c = cache.lock().unwrap();
                    c.invalidate_range(P1, 4, 7);
                    // Outside-range keys must be untouched by this call;
                    // consistency must hold mid-race, not just at the end.
                    check_consistent(&c);
                    drop(c);
                    loom::thread::yield_now();
                }
            })
        };
        toucher.join().unwrap();
        shooter.join().unwrap();

        let mut c = cache.lock().unwrap();
        c.invalidate_range(P1, 4, 7);
        for i in 0..10u64 {
            if (4..=7).contains(&i) {
                assert!(!c.contains(P1, i), "in-range key {i} survived");
            }
        }
        check_consistent(&c);
    });
}

/// Eviction pressure from competing threads: capacity 4, three PASIDs
/// inserting disjoint keys. The slab recycles slots across evictions
/// and shootdowns; the cache must never exceed capacity and the free
/// list must never hand out a slot still reachable from an index.
#[test]
fn eviction_pressure_from_many_threads() {
    loom::model(|| {
        let cache = Arc::new(Mutex::new(PasidLru::<u64>::new(4)));
        let handles: Vec<_> = (1..=3u32)
            .map(|p| {
                let cache = Arc::clone(&cache);
                loom::thread::spawn(move || {
                    for i in 0..10u64 {
                        let mut c = cache.lock().unwrap();
                        c.insert(Pasid(p), i, u64::from(p) * 1000 + i);
                        check_consistent(&c);
                        if i % 4 == 3 {
                            c.invalidate_pasid(Pasid(p));
                            check_consistent(&c);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let c = cache.lock().unwrap();
        check_consistent(&c);
    });
}
