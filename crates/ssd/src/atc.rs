//! Device-side ATS translation cache (ATC).
//!
//! PCIe ATS lets an endpoint cache translations it received from the
//! IOMMU and reuse them on later requests, skipping the PCIe round trip
//! to the translation agent. BypassD's evaluation models the IOMMU-side
//! caches only; this module adds the device side as an **ablation knob**
//! (disabled by default, so default modeled timings are unchanged).
//!
//! When enabled, the device fills the ATC with the per-page VBA→LBA
//! translations returned by each IOMMU walk. A later request whose pages
//! all hit (with sufficient permission) is translated locally for
//! [`AtsCache::hit_cost`] instead of the full `pcie_rtt + ...` ATS cost.
//!
//! Coherence: the cache implements [`AtsSink`] and is registered with the
//! IOMMU at device creation, so every kernel-initiated shootdown (FTE
//! detach, revocation, PASID unregister, range invalidation) also drops
//! the device-cached entries. A revoked mapping therefore misses the ATC,
//! reaches the IOMMU, faults, and surfaces as a failed completion — the
//! §3.6 fault-and-fallback path is preserved bit-for-bit.

use std::sync::atomic::{AtomicBool, Ordering};

use parking_lot::Mutex;

use bypassd_hw::iommu::{AccessKind, AtsSink, PageTranslation};
use bypassd_hw::lru::PasidLru;
use bypassd_hw::types::{Lba, Pasid, Vba, PAGE_SIZE, SECTOR_SIZE};
use bypassd_sim::time::Nanos;

/// Default ATC capacity in page entries (4 MB of coverage at 4 KB pages —
/// small, as befits on-device SRAM).
pub const DEFAULT_ATC_CAPACITY: usize = 1024;

/// One cached page translation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct AtcEntry {
    lba: Lba,
    writable: bool,
}

#[derive(Debug)]
struct AtcInner {
    cache: PasidLru<AtcEntry>,
    hits: u64,
    misses: u64,
    shootdowns: u64,
}

/// Hit/miss/shootdown counters of an [`AtsCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AtcStats {
    /// Requests fully served from the ATC.
    pub hits: u64,
    /// Requests that fell through to the IOMMU (counted only while the
    /// cache is enabled).
    pub misses: u64,
    /// Invalidation messages received from the IOMMU.
    pub shootdowns: u64,
}

/// The device-side ATS translation cache.
///
/// Lives in its own `Arc` + `Mutex`, separate from the device state lock:
/// the IOMMU broadcasts invalidations into it (lock order IOMMU → ATC),
/// while the device probes it *before* taking the IOMMU lock, so no lock
/// cycle exists.
#[derive(Debug)]
pub struct AtsCache {
    /// Written only under `inner`'s lock; read lock-free first, so a
    /// disabled cache (the default) costs every command one relaxed
    /// load instead of a lock round trip.
    enabled: AtomicBool,
    inner: Mutex<AtcInner>,
    /// Modeled cost of a device-local translation hit. The lookup is an
    /// on-device SRAM access, comparable to an IOTLB tag match (14 ns);
    /// crucially it avoids the 345 ns PCIe round trip.
    hit_cost: Nanos,
}

impl AtsCache {
    /// Creates a disabled cache of `capacity` page entries.
    pub fn new(capacity: usize) -> Self {
        AtsCache {
            enabled: AtomicBool::new(false),
            inner: Mutex::new(AtcInner {
                cache: PasidLru::new(capacity),
                hits: 0,
                misses: 0,
                shootdowns: 0,
            }),
            hit_cost: Nanos(14),
        }
    }

    /// Enables or disables the cache (ablation knob). Disabling drops all
    /// entries so a later re-enable starts cold.
    pub fn set_enabled(&self, enabled: bool) {
        let mut inner = self.inner.lock();
        // ordering: Relaxed — stored under the `inner` lock, which orders it against
        // every locked re-check; lock-free readers only skip a disabled cache early.
        self.enabled.store(enabled, Ordering::Relaxed);
        if !enabled {
            inner.cache.clear();
        }
    }

    /// Whether the cache is currently enabled.
    pub fn enabled(&self) -> bool {
        // ordering: Relaxed — a knob read; the locked paths re-check it under `inner`.
        self.enabled.load(Ordering::Relaxed)
    }

    /// Modeled latency of an ATC hit.
    pub fn hit_cost(&self) -> Nanos {
        self.hit_cost
    }

    /// Counters.
    pub fn stats(&self) -> AtcStats {
        let inner = self.inner.lock();
        AtcStats {
            hits: inner.hits,
            misses: inner.misses,
            shootdowns: inner.shootdowns,
        }
    }

    /// Current number of cached page entries.
    pub fn len(&self) -> usize {
        self.inner.lock().cache.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Attempts to translate `len` bytes at `vba` entirely from the cache,
    /// appending coalesced `(Lba, sectors)` extents to `extents` (the
    /// device's reusable scratch, so a hit allocates nothing). Returns
    /// the modeled hit cost, or `None` — with `extents` as it was — when
    /// disabled, any page misses, or a write lacks permission (the IOMMU
    /// then performs — and faults — the request).
    pub fn translate_into(
        &self,
        pasid: Pasid,
        vba: Vba,
        len: u64,
        access: AccessKind,
        extents: &mut Vec<(Lba, u32)>,
    ) -> Option<Nanos> {
        // Lock-free early out for the default disabled cache, re-checked
        // under the lock (a concurrent `set_enabled(false)` clears it).
        if !self.enabled() {
            return None;
        }
        let mut inner = self.inner.lock();
        if !self.enabled() {
            return None;
        }
        let base = extents.len();
        let first_page = vba.0 / PAGE_SIZE;
        let last_page = (vba.0 + len.max(1) - 1) / PAGE_SIZE;
        for page in first_page..=last_page {
            let entry = match inner.cache.get(pasid, page) {
                // Insufficient write permission counts as a miss: let
                // the IOMMU walk and fault.
                Some(e) if access == AccessKind::Read || e.writable => *e,
                _ => {
                    inner.misses += 1;
                    // `drain`, not `truncate`: the lock-order lint resolves
                    // calls by name, and ext4's `truncate` takes its lock.
                    extents.drain(base..);
                    return None;
                }
            };
            let page_start = page * PAGE_SIZE;
            let lo = vba.0.max(page_start);
            let hi = (vba.0 + len).min(page_start + PAGE_SIZE);
            let sector_off = (lo - page_start) / SECTOR_SIZE;
            let sectors = ((hi - lo) / SECTOR_SIZE) as u32;
            let lba = entry.lba.advance(sector_off);
            match extents[base..].last_mut() {
                Some(last) if last.0.advance(last.1 as u64) == lba => last.1 += sectors,
                _ => extents.push((lba, sectors)),
            }
        }
        inner.hits += 1;
        Some(self.hit_cost)
    }

    /// Installs the per-page translations returned by an IOMMU walk.
    /// No-op while disabled.
    pub fn fill(&self, pasid: Pasid, pages: &[PageTranslation]) {
        let mut inner = self.inner.lock();
        if !self.enabled() {
            return;
        }
        for p in pages {
            inner.cache.insert(
                pasid,
                p.vpn,
                AtcEntry {
                    lba: p.lba,
                    writable: p.writable,
                },
            );
        }
    }
}

impl AtsSink for AtsCache {
    fn ats_invalidate_pasid(&self, pasid: Pasid) {
        let mut inner = self.inner.lock();
        inner.shootdowns += 1;
        inner.cache.invalidate_pasid(pasid);
    }

    fn ats_invalidate_range(&self, pasid: Pasid, vba: Vba, len: u64) {
        let mut inner = self.inner.lock();
        inner.shootdowns += 1;
        let first = vba.0 / PAGE_SIZE;
        let last = (vba.0 + len.max(1) - 1) / PAGE_SIZE;
        inner.cache.invalidate_range(pasid, first, last);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: Pasid = Pasid(3);

    fn page(vpn: u64, block: u64, writable: bool) -> PageTranslation {
        PageTranslation {
            vpn,
            lba: Lba::from_block(block),
            writable,
        }
    }

    /// `translate_into` on a fresh extent list.
    fn translate(
        atc: &AtsCache,
        vba: Vba,
        len: u64,
        access: AccessKind,
    ) -> Option<(Vec<(Lba, u32)>, Nanos)> {
        let mut extents = Vec::new();
        let cost = atc.translate_into(P, vba, len, access, &mut extents)?;
        Some((extents, cost))
    }

    #[test]
    fn translate_into_appends_on_hit_and_restores_on_miss() {
        let atc = AtsCache::new(16);
        atc.set_enabled(true);
        atc.fill(P, &[page(0, 10, true), page(1, 11, true)]);
        let prior = (Lba::from_block(10).advance(8), 4);
        let mut extents = vec![prior];
        // A hit never coalesces into an extent it did not produce.
        assert!(atc
            .translate_into(P, Vba(0), 2 * PAGE_SIZE, AccessKind::Read, &mut extents)
            .is_some());
        assert_eq!(extents, vec![prior, (Lba::from_block(10), 16)]);
        // Pages 0-1 hit, page 2 misses: the partial extents are dropped.
        assert!(atc
            .translate_into(P, Vba(0), 3 * PAGE_SIZE, AccessKind::Read, &mut extents)
            .is_none());
        assert_eq!(extents, vec![prior, (Lba::from_block(10), 16)]);
    }

    #[test]
    fn disabled_cache_never_answers() {
        let atc = AtsCache::new(16);
        atc.fill(P, &[page(1, 10, true)]);
        assert!(translate(&atc, Vba(PAGE_SIZE), PAGE_SIZE, AccessKind::Read).is_none());
        assert_eq!(atc.stats(), AtcStats::default(), "disabled: no counters");
    }

    #[test]
    fn hit_coalesces_and_costs_local_lookup() {
        let atc = AtsCache::new(16);
        atc.set_enabled(true);
        atc.fill(
            P,
            &[page(0, 10, true), page(1, 11, true), page(2, 40, true)],
        );
        let (extents, cost) = translate(&atc, Vba(0), 3 * PAGE_SIZE, AccessKind::Read).unwrap();
        assert_eq!(
            extents,
            vec![(Lba::from_block(10), 16), (Lba::from_block(40), 8)]
        );
        assert_eq!(cost, atc.hit_cost());
        assert_eq!(atc.stats().hits, 1);
    }

    #[test]
    fn partial_coverage_is_a_miss() {
        let atc = AtsCache::new(16);
        atc.set_enabled(true);
        atc.fill(P, &[page(0, 10, true)]);
        assert!(translate(&atc, Vba(0), 2 * PAGE_SIZE, AccessKind::Read).is_none());
        assert_eq!(atc.stats().misses, 1);
    }

    #[test]
    fn write_through_readonly_entry_is_a_miss() {
        let atc = AtsCache::new(16);
        atc.set_enabled(true);
        atc.fill(P, &[page(0, 10, false)]);
        assert!(translate(&atc, Vba(0), PAGE_SIZE, AccessKind::Write).is_none());
        assert!(translate(&atc, Vba(0), PAGE_SIZE, AccessKind::Read).is_some());
    }

    #[test]
    fn shootdowns_drop_entries() {
        let atc = AtsCache::new(16);
        atc.set_enabled(true);
        atc.fill(P, &[page(0, 10, true), page(1, 11, true)]);
        atc.ats_invalidate_range(P, Vba(0), PAGE_SIZE);
        assert!(translate(&atc, Vba(0), PAGE_SIZE, AccessKind::Read).is_none());
        assert!(translate(&atc, Vba(PAGE_SIZE), PAGE_SIZE, AccessKind::Read).is_some());
        atc.ats_invalidate_pasid(P);
        assert!(atc.is_empty());
        assert_eq!(atc.stats().shootdowns, 2);
    }

    #[test]
    fn disable_clears_entries() {
        let atc = AtsCache::new(16);
        atc.set_enabled(true);
        atc.fill(P, &[page(0, 10, true)]);
        atc.set_enabled(false);
        atc.set_enabled(true);
        assert!(translate(&atc, Vba(0), PAGE_SIZE, AccessKind::Read).is_none());
    }
}
