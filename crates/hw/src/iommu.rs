//! The BypassD-enhanced IOMMU (§3.5, §4.3).
//!
//! Devices send PCIe ATS translation requests carrying a PASID, the VBA,
//! the access size and the access kind. The IOMMU walks the process page
//! table for that PASID, interprets leaf entries with the `FT` bit set as
//! file table entries, enforces read/write permission and the DevID check,
//! and returns coalesced `(LBA, sector count)` extents.
//!
//! Timing is calibrated to the paper's measurements (§6.2):
//! * PCIe round trip: **345 ns** (their Optane register-read experiment);
//! * page walk on IOTLB miss: **183 ns** (Table 4, 1317 − 1134 ns);
//! * IOTLB hit: **14 ns** (Table 4, 1134 − 1120 ns);
//! * overhead grows slightly from 2→3 translations per request then
//!   flattens, because one 64 B cacheline holds 8 entries (Fig. 5);
//! * minimum end-to-end VBA translation ≈ **550 ns**, the delay the
//!   authors inject in their own emulation.
//!
//! The IOTLB and page-walk cache are true LRU structures backed by
//! [`PasidLru`]: hits refresh recency, evictions and invalidations are
//! O(1) amortized per entry dropped. Devices with an ATS translation
//! cache register an [`AtsSink`]; the IOMMU broadcasts every PASID/range
//! invalidation to them, so device-side caches are shot down on the same
//! events that clear the IOTLB (FTE detach, revocation, unregister).

use std::collections::HashMap;
use std::sync::Arc;

use bypassd_sim::time::Nanos;
use bypassd_sim::FixedState;

use crate::lru::PasidLru;
use crate::mem::PhysMem;
use crate::page_table::walk_raw;
use crate::pte::Pte;
use crate::types::{DevId, Lba, Pasid, PhysAddr, Vba, VirtAddr, PAGE_SIZE, SECTOR_SIZE};

/// Read or write access, for permission checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Read access (requires a present FTE).
    Read,
    /// Write access (additionally requires effective write permission).
    Write,
}

/// A device-side consumer of ATS invalidations (PCIe ATS "invalidation
/// request" messages, §3.5). Registered sinks are notified whenever the
/// IOMMU drops cached translations, so device translation caches (ATCs)
/// never outlive the page-table state they mirror — revocation still
/// reaches the device and the §3.6 fault-and-fallback path still fires.
pub trait AtsSink: Send + Sync {
    /// Drop every device-cached translation for `pasid`.
    fn ats_invalidate_pasid(&self, pasid: Pasid);
    /// Drop device-cached translations covering `[vba, vba+len)`.
    fn ats_invalidate_range(&self, pasid: Pasid, vba: Vba, len: u64);
}

/// Why a translation was refused. The device surfaces these to userspace
/// as failed NVMe completions, which is what triggers UserLib's re-`fmap()`
/// and kernel fallback (§3.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TranslateError {
    /// No context-table entry for the PASID.
    UnknownPasid,
    /// The walk found no present entry (detached/revoked or never mapped).
    NotMapped,
    /// The leaf entry is a regular PTE, not a file table entry.
    NotFileTable,
    /// The FTE's DevID does not match the requesting device.
    WrongDevice,
    /// Write requested through a read-only mapping.
    PermissionDenied,
}

impl std::fmt::Display for TranslateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            TranslateError::UnknownPasid => "unknown PASID",
            TranslateError::NotMapped => "address not mapped",
            TranslateError::NotFileTable => "entry is not a file table entry",
            TranslateError::WrongDevice => "file table entry device mismatch",
            TranslateError::PermissionDenied => "write permission denied",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for TranslateError {}

/// A successful VBA translation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Translation {
    /// Coalesced extents: `(first sector, sector count)`.
    pub extents: Vec<(Lba, u32)>,
    /// Modelled translation latency for this ATS request.
    pub cost: Nanos,
    /// Pages whose leaf lookup missed the IOTLB (0 = pure IOTLB hit).
    pub walks: u64,
    /// Whether the page-walk cache covered the request's 2 MB prefix.
    pub pwc_hit: bool,
}

/// Metadata of a successful translation whose extents were appended to a
/// caller-provided buffer (see [`Iommu::translate_extents_into`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TranslationInfo {
    /// Modelled translation latency for this ATS request.
    pub cost: Nanos,
    /// Pages whose leaf lookup missed the IOTLB (0 = pure IOTLB hit).
    pub walks: u64,
    /// Whether the page-walk cache covered the request's 2 MB prefix.
    pub pwc_hit: bool,
}

/// One page's worth of translation, as exported to a device-side ATC:
/// the virtual page number, the LBA of the page's first sector, and
/// whether the mapping is effectively writable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageTranslation {
    /// Virtual page number (`vba / PAGE_SIZE`).
    pub vpn: u64,
    /// LBA of the page's first sector.
    pub lba: Lba,
    /// Effective write permission of the mapping.
    pub writable: bool,
}

/// The modeled PCIe round trip between host and device/IOMMU: the
/// default [`IommuTiming::pcie_rtt`], and the delay of every
/// cross-machine hop in the fleet harness.
pub const PCIE_RTT: Nanos = Nanos(345);

/// Timing constants of the translation path (see module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IommuTiming {
    /// PCIe round-trip between device and IOMMU.
    pub pcie_rtt: Nanos,
    /// Cost of an IOTLB hit.
    pub iotlb_hit: Nanos,
    /// Cost of one page walk (upper levels warm in the walk caches).
    pub walk_miss: Nanos,
    /// Additional cost once a request needs ≥ 3 translations (Fig. 5).
    pub multi_translation: Nanos,
    /// Additional cost per extra 64 B cacheline of leaf entries fetched.
    pub extra_cacheline: Nanos,
    /// Additional cost when the upper levels miss the page-walk cache.
    pub pwc_miss: Nanos,
}

impl Default for IommuTiming {
    fn default() -> Self {
        IommuTiming {
            pcie_rtt: PCIE_RTT,
            iotlb_hit: Nanos(14),
            walk_miss: Nanos(183),
            multi_translation: Nanos(25),
            extra_cacheline: Nanos(8),
            pwc_miss: Nanos(120),
        }
    }
}

/// Entries per 64 B cacheline of page table.
const ENTRIES_PER_CACHELINE: u64 = 8;

#[derive(Debug, Default)]
struct IommuStats {
    ats_requests: u64,
    pages_translated: u64,
    faults: u64,
    iotlb_hits: u64,
    iotlb_misses: u64,
    pwc_hits: u64,
    pwc_misses: u64,
}

/// The IOMMU: context table, IOTLB, page-walk cache, and the enhanced
/// VBA→LBA translation path.
///
/// ```rust
/// use bypassd_hw::*;
/// use bypassd_hw::types::*;
/// let mem = PhysMem::new();
/// let mut asid = AddressSpace::new(&mem);
/// let vba = Vba(0x4000_0000);
/// asid.map_page(vba.as_virt(), Pte::fte(Lba::from_block(42), DevId(1), true));
/// let mut iommu = Iommu::new(&mem);
/// iommu.register(Pasid(7), asid.root_frame());
/// let t = iommu
///     .translate(Pasid(7), vba, 4096, AccessKind::Read, DevId(1))
///     .unwrap();
/// assert_eq!(t.extents, vec![(Lba::from_block(42), 8)]);
/// ```
pub struct Iommu {
    mem: PhysMem,
    context: HashMap<Pasid, u64, FixedState>,
    timing: IommuTiming,
    /// (pasid, virtual page number) → leaf entry, true LRU. Per the paper,
    /// FTEs are *not* cached here unless [`Iommu::set_cache_ftes`] enables
    /// it (ablation), to avoid IOTLB pollution (§4.3).
    iotlb: PasidLru<Pte>,
    /// Page-walk cache over (pasid, 2 MB-aligned prefix), true LRU.
    pwc: PasidLru<()>,
    cache_ftes: bool,
    /// Device-side ATCs to notify on invalidation.
    sinks: Vec<Arc<dyn AtsSink>>,
    stats: IommuStats,
    /// Inline repeat-translation memo consulted before the walk. A
    /// request identical to the immediately-preceding one is a fixed
    /// point of the IOTLB/PWC LRU state (re-touching the top-N MRU
    /// entries in the same order leaves the recency order unchanged), so
    /// its extents, cost and stats deltas can be replayed without
    /// touching the caches. Any cache mutation (invalidation, PASID
    /// churn, knob change, IOVA lookup) drops the memo, so results stay
    /// bit-identical to the unmemoized path.
    repeat: RepeatMemo,
}

/// State of the inline repeat-translation memo.
#[derive(Debug, Default)]
struct RepeatMemo {
    /// The previous successful request, if nothing mutated caches since.
    key: Option<(Pasid, u64, u64, AccessKind, DevId)>,
    /// True once the same key has run twice consecutively (the second
    /// run observed the fixed-point cache state its result describes).
    armed: bool,
    extents: Vec<(Lba, u32)>,
    info: TranslationInfo,
    n_pages: u64,
}

impl Default for TranslationInfo {
    fn default() -> Self {
        TranslationInfo {
            cost: Nanos::ZERO,
            walks: 0,
            pwc_hit: false,
        }
    }
}

impl Iommu {
    /// Creates an IOMMU over `mem` with default (paper-calibrated) timing.
    pub fn new(mem: &PhysMem) -> Self {
        Iommu {
            mem: mem.clone(),
            context: HashMap::default(),
            timing: IommuTiming::default(),
            iotlb: PasidLru::new(4096),
            pwc: PasidLru::new(64),
            cache_ftes: false,
            sinks: Vec::new(),
            stats: IommuStats::default(),
            repeat: RepeatMemo::default(),
        }
    }

    /// Forgets the repeat-translation memo. Called by every operation
    /// that can change cache contents, recency, or modelled costs.
    fn memo_clear(&mut self) {
        self.repeat.key = None;
        self.repeat.armed = false;
    }

    /// Overrides the timing model.
    pub fn set_timing(&mut self, timing: IommuTiming) {
        self.timing = timing;
        self.memo_clear();
    }

    /// Current timing model.
    pub fn timing(&self) -> IommuTiming {
        self.timing
    }

    /// Sets the page-walk cache capacity in 2 MB-prefix entries. The
    /// paper notes BypassD "would benefit from larger translation caches
    /// but not necessarily a larger IOTLB" (§4.3) — this is that knob.
    /// Shrinking evicts least-recently-used prefixes, O(1) each.
    pub fn set_pwc_capacity(&mut self, entries: usize) {
        self.pwc.set_capacity(entries);
        self.memo_clear();
    }

    /// Enables/disables caching FTEs in the IOTLB (ablation; the paper's
    /// default is off).
    pub fn set_cache_ftes(&mut self, enabled: bool) {
        self.cache_ftes = enabled;
        if !enabled {
            self.iotlb.clear();
        }
        self.memo_clear();
    }

    /// Registers a device-side ATS translation cache. The sink receives
    /// every subsequent PASID/range invalidation this IOMMU performs.
    pub fn register_ats_sink(&mut self, sink: Arc<dyn AtsSink>) {
        self.sinks.push(sink);
    }

    /// Registers a process page table root under a PASID (done by the
    /// driver when creating user queues, §3.3).
    pub fn register(&mut self, pasid: Pasid, root_frame: u64) {
        self.context.insert(pasid, root_frame);
        self.memo_clear();
    }

    /// Removes a PASID and all cached state for it (here and in every
    /// registered device-side ATC).
    pub fn unregister(&mut self, pasid: Pasid) {
        self.context.remove(&pasid);
        self.invalidate_pasid(pasid);
    }

    /// Tears down every registered PASID (unmount / power-cycle
    /// semantics): no pre-existing FTE may translate afterwards, so a
    /// remount after a crash cannot leak reassigned blocks through a
    /// stale mapping.
    pub fn unregister_all(&mut self) {
        let mut pasids: Vec<Pasid> = self.context.keys().copied().collect();
        // Sorted drain: each unregister broadcasts an ATS shootdown, and
        // those land in traces — HashMap order is bucket order, not PASID order.
        pasids.sort_unstable();
        for p in pasids {
            self.unregister(p);
        }
    }

    /// Drops all cached translations for `pasid` (called by the kernel
    /// after detaching FTEs, so revocation is visible immediately), and
    /// broadcasts the shootdown to registered device-side ATCs. Cost is
    /// proportional to the entries actually dropped.
    pub fn invalidate_pasid(&mut self, pasid: Pasid) {
        self.memo_clear();
        self.iotlb.invalidate_pasid(pasid);
        self.pwc.invalidate_pasid(pasid);
        for sink in &self.sinks {
            sink.ats_invalidate_pasid(pasid);
        }
    }

    /// Drops cached translations covering `[vba, vba+len)` for `pasid`
    /// (IOTLB pages and PWC prefixes touched by the range), and broadcasts
    /// the shootdown to registered device-side ATCs. Cost is proportional
    /// to the entries actually dropped, not the cache size.
    pub fn invalidate_range(&mut self, pasid: Pasid, vba: Vba, len: u64) {
        self.memo_clear();
        let first = vba.0 / PAGE_SIZE;
        let last = (vba.0 + len.max(1) - 1) / PAGE_SIZE;
        self.iotlb.invalidate_range(pasid, first, last);
        let pfx_first = vba.0 >> 21;
        let pfx_last = (vba.0 + len.max(1) - 1) >> 21;
        self.pwc.invalidate_range(pasid, pfx_first, pfx_last);
        for sink in &self.sinks {
            sink.ats_invalidate_range(pasid, vba, len);
        }
    }

    /// Looks up one leaf entry, tracking cache behaviour. Returns the
    /// entry and whether it was an IOTLB hit.
    fn lookup_leaf(&mut self, pasid: Pasid, root: u64, va: VirtAddr) -> (Option<Pte>, bool) {
        let vpn = va.0 / PAGE_SIZE;
        if let Some(&pte) = self.iotlb.get(pasid, vpn) {
            self.stats.iotlb_hits += 1;
            return (Some(pte), true);
        }
        self.stats.iotlb_misses += 1;
        let walk = walk_raw(&self.mem, root, va);
        let pte = walk.map(|w| {
            // Effective writability is folded into the cached entry so a
            // read-only attachment is honoured even via the IOTLB.
            if w.effective_writable {
                w.pte
            } else {
                w.pte.read_only()
            }
        });
        if let Some(p) = pte {
            let cacheable = self.cache_ftes || !p.is_fte();
            if cacheable {
                self.iotlb.insert(pasid, vpn, p);
            }
        }
        (pte, false)
    }

    /// Translation latency for an ATS request of `n_pages` translations,
    /// with `walks` of them missing the IOTLB and `pwc_hit` describing the
    /// upper-level cache.
    fn request_cost(&self, n_pages: u64, walks: u64, pwc_hit: bool) -> Nanos {
        let t = self.timing;
        let mut cost = t.pcie_rtt;
        if walks == 0 {
            cost += t.iotlb_hit;
            return cost;
        }
        cost += t.walk_miss;
        if !pwc_hit {
            cost += t.pwc_miss;
        }
        if n_pages >= 3 {
            cost += t.multi_translation;
        }
        let cachelines = n_pages.div_ceil(ENTRIES_PER_CACHELINE);
        cost += Nanos(t.extra_cacheline.as_nanos() * cachelines.saturating_sub(1));
        cost
    }

    /// Translates an ATS request: `len` bytes starting at `vba` (sector
    /// aligned), on behalf of device `requester`, for process `pasid`.
    ///
    /// Returns coalesced LBA extents plus the modelled latency of this
    /// request, or the fault (faults still cost a round trip and walk).
    ///
    /// # Errors
    /// See [`TranslateError`].
    ///
    /// # Panics
    /// Panics if `vba`/`len` are not sector aligned or `len` is zero.
    pub fn translate(
        &mut self,
        pasid: Pasid,
        vba: Vba,
        len: u64,
        access: AccessKind,
        requester: DevId,
    ) -> Result<Translation, (TranslateError, Nanos)> {
        let mut extents = Vec::new();
        let info =
            self.translate_extents_into(pasid, vba, len, access, requester, None, &mut extents)?;
        Ok(Translation {
            extents,
            cost: info.cost,
            walks: info.walks,
            pwc_hit: info.pwc_hit,
        })
    }

    /// As [`Iommu::translate`], but appends the coalesced extents
    /// to a caller-provided buffer instead of allocating — the device's
    /// steady-state path. Extents coalesce only within this request,
    /// never with entries already in `extents`.
    ///
    /// # Errors
    /// See [`TranslateError`].
    ///
    /// # Panics
    /// Panics if `vba`/`len` are not sector aligned or `len` is zero.
    #[allow(clippy::too_many_arguments)]
    pub fn translate_extents_into(
        &mut self,
        pasid: Pasid,
        vba: Vba,
        len: u64,
        access: AccessKind,
        requester: DevId,
        mut collect: Option<&mut Vec<PageTranslation>>,
        extents: &mut Vec<(Lba, u32)>,
    ) -> Result<TranslationInfo, (TranslateError, Nanos)> {
        assert!(len > 0, "zero-length translation");
        assert!(
            vba.0.is_multiple_of(SECTOR_SIZE) && len.is_multiple_of(SECTOR_SIZE),
            "translation must be sector aligned"
        );
        let key = (pasid, vba.0, len, access, requester);
        if collect.is_none() && self.repeat.armed && self.repeat.key == Some(key) {
            // Inline repeat memo hit: replay the fixed-point result,
            // including the exact stats deltas the real path would make.
            self.stats.ats_requests += 1;
            self.stats.pwc_hits += 1;
            self.stats.pages_translated += self.repeat.n_pages;
            self.stats.iotlb_misses += self.repeat.info.walks;
            self.stats.iotlb_hits += self.repeat.n_pages - self.repeat.info.walks;
            extents.extend_from_slice(&self.repeat.extents);
            return Ok(self.repeat.info);
        }
        self.stats.ats_requests += 1;

        // The real path mutates cache recency; results from before it are
        // no longer replayable. (Re-armed below on a consecutive repeat.)
        let prev_key = self.repeat.key.take();
        self.repeat.armed = false;

        let fault_cost = self.timing.pcie_rtt + self.timing.walk_miss;
        let root = match self.context.get(&pasid) {
            Some(&r) => r,
            None => {
                self.stats.faults += 1;
                return Err((TranslateError::UnknownPasid, fault_cost));
            }
        };

        // Page-walk cache keyed by 2MB prefix of the first page; a hit
        // refreshes the prefix's recency (true LRU).
        let pwc_pfx = vba.0 >> 21;
        let pwc_hit = self.pwc.get(pasid, pwc_pfx).is_some();
        if pwc_hit {
            self.stats.pwc_hits += 1;
        } else {
            self.stats.pwc_misses += 1;
        }

        let first_page = vba.0 / PAGE_SIZE;
        let last_page = (vba.0 + len - 1) / PAGE_SIZE;
        let n_pages = last_page - first_page + 1;
        let mut walks = 0u64;
        let base = extents.len();

        for page in first_page..=last_page {
            let va = VirtAddr(page * PAGE_SIZE);
            let (pte, hit) = self.lookup_leaf(pasid, root, va);
            if !hit {
                walks += 1;
            }
            let pte = match pte {
                Some(p) => p,
                None => {
                    self.stats.faults += 1;
                    return Err((TranslateError::NotMapped, fault_cost));
                }
            };
            if !pte.is_fte() {
                self.stats.faults += 1;
                return Err((TranslateError::NotFileTable, fault_cost));
            }
            if pte.dev_id() != requester {
                self.stats.faults += 1;
                return Err((TranslateError::WrongDevice, fault_cost));
            }
            if access == AccessKind::Write && !pte.writable() {
                self.stats.faults += 1;
                return Err((TranslateError::PermissionDenied, fault_cost));
            }
            self.stats.pages_translated += 1;
            if let Some(pages) = collect.as_deref_mut() {
                pages.push(PageTranslation {
                    vpn: page,
                    lba: pte.lba(),
                    writable: pte.writable(),
                });
            }

            // Sector range of this page covered by the request.
            let page_start = page * PAGE_SIZE;
            let lo = vba.0.max(page_start);
            let hi = (vba.0 + len).min(page_start + PAGE_SIZE);
            let sector_off = (lo - page_start) / SECTOR_SIZE;
            let sectors = ((hi - lo) / SECTOR_SIZE) as u32;
            let lba = pte.lba().advance(sector_off);

            // Coalesce with the previous extent when physically
            // contiguous (only within this request, never with entries
            // the caller already had in the buffer).
            if extents.len() > base {
                if let Some(last) = extents.last_mut() {
                    if last.0.advance(last.1 as u64) == lba {
                        last.1 += sectors;
                        continue;
                    }
                }
            }
            extents.push((lba, sectors));
        }

        self.pwc.insert(pasid, pwc_pfx, ());
        debug_assert_eq!(
            extents[base..].iter().map(|e| e.1 as u64).sum::<u64>() * SECTOR_SIZE,
            len
        );
        let cost = self.request_cost(n_pages, walks, pwc_hit);
        let info = TranslationInfo {
            cost,
            walks,
            pwc_hit,
        };
        if collect.is_none() {
            // Arm the memo only on the second consecutive identical
            // request: that run observed the fixed-point cache state, so
            // its result (and stats deltas) replay exactly.
            if prev_key == Some(key) {
                self.repeat.armed = true;
                self.repeat.extents.clear();
                self.repeat.extents.extend_from_slice(&extents[base..]);
                self.repeat.info = info;
                self.repeat.n_pages = n_pages;
            }
            self.repeat.key = Some(key);
        }
        Ok(info)
    }

    /// Translates a regular IOVA (DMA buffer address) to a physical
    /// address — the IOMMU's pre-existing job. Functional only; DMA
    /// latency is part of the device service time.
    ///
    /// # Errors
    /// Returns the fault if unmapped, an FTE, or permission fails.
    pub fn translate_iova(
        &mut self,
        pasid: Pasid,
        va: VirtAddr,
        write: bool,
    ) -> Result<PhysAddr, TranslateError> {
        // Touches IOTLB contents/recency, so the repeat memo is stale.
        self.memo_clear();
        let root = *self
            .context
            .get(&pasid)
            .ok_or(TranslateError::UnknownPasid)?;
        let (pte, _) = self.lookup_leaf(pasid, root, va.page_base());
        let pte = pte.ok_or(TranslateError::NotMapped)?;
        if pte.is_fte() {
            return Err(TranslateError::NotFileTable);
        }
        if write && !pte.writable() {
            return Err(TranslateError::PermissionDenied);
        }
        Ok(PhysAddr::from_frame(pte.frame(), va.page_offset()))
    }

    /// Like [`Iommu::translate_iova`] but also returns the modelled
    /// translation latency (Table 4's IOAT experiment: IOTLB hit vs miss
    /// during a DMA copy).
    ///
    /// # Errors
    /// As [`Iommu::translate_iova`].
    pub fn translate_iova_timed(
        &mut self,
        pasid: Pasid,
        va: VirtAddr,
        write: bool,
    ) -> Result<(PhysAddr, Nanos), TranslateError> {
        let vpn = va.0 / PAGE_SIZE;
        let was_hit = self.iotlb.contains(pasid, vpn);
        let pa = self.translate_iova(pasid, va, write)?;
        let cost = if was_hit {
            self.timing.iotlb_hit
        } else {
            self.timing.walk_miss
        };
        Ok((pa, cost))
    }

    /// (ATS requests, pages translated, faults) counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.stats.ats_requests,
            self.stats.pages_translated,
            self.stats.faults,
        )
    }

    /// (IOTLB hits, IOTLB misses, PWC hits, PWC misses) counters.
    pub fn cache_stats(&self) -> (u64, u64, u64, u64) {
        (
            self.stats.iotlb_hits,
            self.stats.iotlb_misses,
            self.stats.pwc_hits,
            self.stats.pwc_misses,
        )
    }

    /// Current (IOTLB entries, PWC entries) occupancy, for tests and
    /// debugging.
    pub fn cache_occupancy(&self) -> (usize, usize) {
        (self.iotlb.len(), self.pwc.len())
    }
}

/// Metrics adapter for the system's shared `Arc<Mutex<Iommu>>` handle
/// (the orphan rule blocks implementing the registry trait on the
/// mutex wrapper itself). Holds a weak handle, so registering it never
/// extends the IOMMU's lifetime; once the IOMMU is gone it emits
/// nothing.
pub struct IommuMetrics(pub std::sync::Weak<parking_lot::Mutex<Iommu>>);

impl bypassd_trace::MetricSource for IommuMetrics {
    fn collect(&self, out: &mut Vec<bypassd_trace::Metric>) {
        let Some(iommu) = self.0.upgrade() else {
            return;
        };
        let g = iommu.lock();
        let (ats, pages, faults) = g.stats();
        let (ih, im, ph, pm) = g.cache_stats();
        let (iotlb_occ, pwc_occ) = g.cache_occupancy();
        out.push(bypassd_trace::Metric::counter("ats_requests", ats));
        out.push(bypassd_trace::Metric::counter("pages_translated", pages));
        out.push(bypassd_trace::Metric::counter("faults", faults));
        out.push(bypassd_trace::Metric::counter("iotlb_hits", ih));
        out.push(bypassd_trace::Metric::counter("iotlb_misses", im));
        out.push(bypassd_trace::Metric::counter("pwc_hits", ph));
        out.push(bypassd_trace::Metric::counter("pwc_misses", pm));
        out.push(bypassd_trace::Metric::gauge(
            "iotlb_entries",
            iotlb_occ as i64,
        ));
        out.push(bypassd_trace::Metric::gauge("pwc_entries", pwc_occ as i64));
    }
}

impl std::fmt::Debug for Iommu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Iommu")
            .field("pasids", &self.context.len())
            .field("iotlb_entries", &self.iotlb.len())
            .field("cache_ftes", &self.cache_ftes)
            .field("ats_sinks", &self.sinks.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page_table::AddressSpace;
    use std::sync::Mutex;

    const DEV: DevId = DevId(1);
    const P: Pasid = Pasid(10);

    fn setup_file(n_blocks: u64, contiguous: bool) -> (PhysMem, AddressSpace, Iommu, Vba) {
        let mem = PhysMem::new();
        let mut asid = AddressSpace::new(&mem);
        let vba = Vba(0x4000_0000);
        for i in 0..n_blocks {
            let block = if contiguous { 100 + i } else { 100 + i * 7 };
            asid.map_page(
                vba.as_virt().offset(i * PAGE_SIZE),
                Pte::fte(Lba::from_block(block), DEV, true),
            );
        }
        let mut iommu = Iommu::new(&mem);
        iommu.register(P, asid.root_frame());
        (mem, asid, iommu, vba)
    }

    #[test]
    fn translate_single_page() {
        let (_m, _a, mut iommu, vba) = setup_file(1, true);
        let t = iommu
            .translate(P, vba, PAGE_SIZE, AccessKind::Read, DEV)
            .unwrap();
        assert_eq!(t.extents, vec![(Lba::from_block(100), 8)]);
        // ~550ns end to end: pcie 345 + walk 183 + pwc miss (first touch).
        assert!(t.cost >= Nanos(500), "cost too low: {}", t.cost);
    }

    #[test]
    fn contiguous_pages_coalesce() {
        let (_m, _a, mut iommu, vba) = setup_file(4, true);
        let t = iommu
            .translate(P, vba, 4 * PAGE_SIZE, AccessKind::Read, DEV)
            .unwrap();
        assert_eq!(t.extents, vec![(Lba::from_block(100), 32)]);
    }

    #[test]
    fn fragmented_pages_do_not_coalesce() {
        let (_m, _a, mut iommu, vba) = setup_file(3, false);
        let t = iommu
            .translate(P, vba, 3 * PAGE_SIZE, AccessKind::Read, DEV)
            .unwrap();
        assert_eq!(t.extents.len(), 3);
        assert_eq!(t.extents[0], (Lba::from_block(100), 8));
        assert_eq!(t.extents[1], (Lba::from_block(107), 8));
    }

    #[test]
    fn sub_page_sector_translation() {
        let (_m, _a, mut iommu, vba) = setup_file(1, true);
        // 512B at byte offset 1024 into the block: sectors 2..3 of block 100.
        let t = iommu
            .translate(P, vba.offset(1024), 512, AccessKind::Read, DEV)
            .unwrap();
        assert_eq!(t.extents, vec![(Lba::from_block(100).advance(2), 1)]);
    }

    #[test]
    fn unmapped_faults() {
        let (_m, _a, mut iommu, vba) = setup_file(1, true);
        let err = iommu
            .translate(P, vba.offset(PAGE_SIZE), PAGE_SIZE, AccessKind::Read, DEV)
            .unwrap_err();
        assert_eq!(err.0, TranslateError::NotMapped);
        assert!(err.1 > Nanos::ZERO, "faults still cost time");
    }

    #[test]
    fn unknown_pasid_faults() {
        let (_m, _a, mut iommu, vba) = setup_file(1, true);
        let err = iommu
            .translate(Pasid(99), vba, PAGE_SIZE, AccessKind::Read, DEV)
            .unwrap_err();
        assert_eq!(err.0, TranslateError::UnknownPasid);
    }

    #[test]
    fn wrong_device_rejected() {
        let (_m, _a, mut iommu, vba) = setup_file(1, true);
        let err = iommu
            .translate(P, vba, PAGE_SIZE, AccessKind::Read, DevId(9))
            .unwrap_err();
        assert_eq!(err.0, TranslateError::WrongDevice);
    }

    #[test]
    fn write_to_readonly_rejected() {
        let mem = PhysMem::new();
        let mut asid = AddressSpace::new(&mem);
        let vba = Vba(0x4000_0000);
        asid.map_page(vba.as_virt(), Pte::fte(Lba::from_block(5), DEV, false));
        let mut iommu = Iommu::new(&mem);
        iommu.register(P, asid.root_frame());
        assert!(iommu
            .translate(P, vba, PAGE_SIZE, AccessKind::Read, DEV)
            .is_ok());
        let err = iommu
            .translate(P, vba, PAGE_SIZE, AccessKind::Write, DEV)
            .unwrap_err();
        assert_eq!(err.0, TranslateError::PermissionDenied);
    }

    #[test]
    fn readonly_attachment_blocks_write_through_shared_rw_fte() {
        // Shared fragment has RW preset; a read-only private attachment
        // must still deny writes (the paper's per-open permission story).
        let mem = PhysMem::new();
        let mut asid = AddressSpace::new(&mem);
        let fragment = mem.alloc_frame();
        mem.write_u64(
            PhysAddr::from_frame(fragment, 0),
            Pte::fte(Lba::from_block(8), DEV, true).bits(),
        );
        let vba = Vba(0x4000_0000);
        asid.attach_fragment(
            vba.as_virt(),
            crate::page_table::AttachLevel::Pmd,
            fragment,
            false,
        );
        let mut iommu = Iommu::new(&mem);
        iommu.register(P, asid.root_frame());
        assert!(iommu
            .translate(P, vba, PAGE_SIZE, AccessKind::Read, DEV)
            .is_ok());
        let err = iommu
            .translate(P, vba, PAGE_SIZE, AccessKind::Write, DEV)
            .unwrap_err();
        assert_eq!(err.0, TranslateError::PermissionDenied);
    }

    #[test]
    fn regular_pte_is_not_translatable_as_vba() {
        let mem = PhysMem::new();
        let mut asid = AddressSpace::new(&mem);
        let frame = mem.alloc_frame();
        let va = VirtAddr(0x4000_0000);
        asid.map_page(va, Pte::leaf(frame, true));
        let mut iommu = Iommu::new(&mem);
        iommu.register(P, asid.root_frame());
        let err = iommu
            .translate(P, Vba(va.0), PAGE_SIZE, AccessKind::Read, DEV)
            .unwrap_err();
        assert_eq!(err.0, TranslateError::NotFileTable);
    }

    #[test]
    fn revocation_takes_effect_after_invalidate() {
        let (_m, mut asid, mut iommu, vba) = setup_file(1, true);
        assert!(iommu
            .translate(P, vba, PAGE_SIZE, AccessKind::Read, DEV)
            .is_ok());
        asid.unmap_page(vba.as_virt());
        iommu.invalidate_pasid(P);
        let err = iommu
            .translate(P, vba, PAGE_SIZE, AccessKind::Read, DEV)
            .unwrap_err();
        assert_eq!(err.0, TranslateError::NotMapped);
    }

    #[test]
    fn ftes_not_cached_in_iotlb_by_default() {
        let (_m, _a, mut iommu, vba) = setup_file(1, true);
        for _ in 0..3 {
            iommu
                .translate(P, vba, PAGE_SIZE, AccessKind::Read, DEV)
                .unwrap();
        }
        let (hits, misses, _, _) = iommu.cache_stats();
        assert_eq!(hits, 0, "FTE must not hit IOTLB by default");
        assert_eq!(misses, 3);
    }

    #[test]
    fn fte_caching_ablation() {
        let (_m, _a, mut iommu, vba) = setup_file(1, true);
        iommu.set_cache_ftes(true);
        let first = iommu
            .translate(P, vba, PAGE_SIZE, AccessKind::Read, DEV)
            .unwrap();
        let second = iommu
            .translate(P, vba, PAGE_SIZE, AccessKind::Read, DEV)
            .unwrap();
        assert!(second.cost < first.cost, "IOTLB hit should be cheaper");
        let (hits, _, _, _) = iommu.cache_stats();
        assert_eq!(hits, 1);
    }

    #[test]
    fn cost_grows_gently_with_translations_fig5_shape() {
        // Reproduces Fig. 5's shape: flat 1→2, small step at 3, nearly
        // flat afterwards (a cacheline holds 8 entries).
        let (_m, _a, mut iommu, vba) = setup_file(12, true);
        let mut costs = Vec::new();
        for n in 1..=12u64 {
            iommu.invalidate_pasid(P); // fresh walk each time
            let t = iommu
                .translate(P, vba, n * PAGE_SIZE, AccessKind::Read, DEV)
                .unwrap();
            // Remove the constant PCIe and PWC components for comparison.
            costs.push(t.cost.as_nanos());
        }
        assert_eq!(costs[0], costs[1], "1 vs 2 translations should match");
        assert!(costs[2] > costs[1], "step at 3 translations");
        assert!(costs[7] == costs[2], "flat within one cacheline");
        assert!(costs[8] > costs[7], "second cacheline adds slightly");
        assert!(
            costs[11] - costs[0] < 60,
            "overall growth stays small: {costs:?}"
        );
    }

    #[test]
    fn pwc_warm_second_request_cheaper() {
        let (_m, _a, mut iommu, vba) = setup_file(2, true);
        let c1 = iommu
            .translate(P, vba, PAGE_SIZE, AccessKind::Read, DEV)
            .unwrap()
            .cost;
        let c2 = iommu
            .translate(P, vba.offset(PAGE_SIZE), PAGE_SIZE, AccessKind::Read, DEV)
            .unwrap()
            .cost;
        assert!(c2 < c1, "warm PWC should shave the upper-level cost");
        // Warm-path minimum: pcie + walk = 345 + 183 = 528ns ≈ paper's 550.
        assert_eq!(c2, Nanos(528));
    }

    #[test]
    fn iova_translation_functional() {
        let mem = PhysMem::new();
        let mut asid = AddressSpace::new(&mem);
        let frame = mem.alloc_frame();
        let va = VirtAddr(0x2000_0000);
        asid.map_page(va, Pte::leaf(frame, true));
        let mut iommu = Iommu::new(&mem);
        iommu.register(P, asid.root_frame());
        let pa = iommu.translate_iova(P, va.offset(123), false).unwrap();
        assert_eq!(pa, PhysAddr::from_frame(frame, 123));
        // FTE rejected on the IOVA path.
        asid.map_page(
            va.offset(PAGE_SIZE),
            Pte::fte(Lba::from_block(1), DEV, true),
        );
        assert_eq!(
            iommu.translate_iova(P, va.offset(PAGE_SIZE), false),
            Err(TranslateError::NotFileTable)
        );
    }

    #[test]
    fn invalidate_range_is_scoped() {
        let (_m, _a, mut iommu, vba) = setup_file(2, true);
        iommu.set_cache_ftes(true);
        iommu
            .translate(P, vba, 2 * PAGE_SIZE, AccessKind::Read, DEV)
            .unwrap();
        iommu.invalidate_range(P, vba, PAGE_SIZE);
        // First page misses now, second still hits.
        iommu
            .translate(P, vba, PAGE_SIZE, AccessKind::Read, DEV)
            .unwrap();
        iommu
            .translate(P, vba.offset(PAGE_SIZE), PAGE_SIZE, AccessKind::Read, DEV)
            .unwrap();
        let (hits, _, _, _) = iommu.cache_stats();
        assert!(hits >= 1);
    }

    #[test]
    fn pwc_eviction_is_true_lru_touch_on_hit() {
        // Regression for the old FIFO order-list: a re-referenced entry
        // must be protected from eviction, and capacity must hold exactly.
        // The PWC has a public capacity knob, and it shares the same
        // PasidLru backing as the IOTLB.
        let mem = PhysMem::new();
        let mut iommu = Iommu::new(&mem);
        iommu.set_pwc_capacity(3);
        // Four distinct 2MB prefixes: A, B, C, D.
        let vb = |i: u64| Vba(0x4000_0000 + (i << 21));
        let mut fte_space = AddressSpace::new(&mem);
        for i in 0..4 {
            fte_space.map_page(
                vb(i).as_virt(),
                Pte::fte(Lba::from_block(500 + i), DEV, true),
            );
        }
        let p2 = Pasid(11);
        iommu.register(p2, fte_space.root_frame());
        for i in 0..3 {
            iommu
                .translate(p2, vb(i), PAGE_SIZE, AccessKind::Read, DEV)
                .unwrap();
        }
        // Re-reference prefix A, making B the LRU; then insert D.
        iommu
            .translate(p2, vb(0), PAGE_SIZE, AccessKind::Read, DEV)
            .unwrap();
        iommu
            .translate(p2, vb(3), PAGE_SIZE, AccessKind::Read, DEV)
            .unwrap();
        let (_, _, hits_before, _) = iommu.cache_stats();
        // A must still hit (would have been evicted under FIFO); B must miss.
        iommu
            .translate(p2, vb(0), PAGE_SIZE, AccessKind::Read, DEV)
            .unwrap();
        let (_, _, hits_a, _) = iommu.cache_stats();
        assert_eq!(hits_a, hits_before + 1, "touched prefix must survive");
        iommu
            .translate(p2, vb(1), PAGE_SIZE, AccessKind::Read, DEV)
            .unwrap();
        let (_, _, hits_b, misses_b) = iommu.cache_stats();
        assert_eq!(hits_b, hits_a, "LRU prefix must have been evicted");
        assert!(misses_b > 0);
        let (_, pwc_len) = iommu.cache_occupancy();
        assert!(pwc_len <= 3, "capacity must hold: {pwc_len}");
    }

    #[test]
    fn pwc_capacity_shrink_evicts_down_to_new_capacity() {
        // Regression for the old set_pwc_capacity loop built on
        // `Vec::remove(0)`: shrinking must evict down to the new size.
        let (_m, _a, mut iommu, _vba) = setup_file(1, true);
        let mut asid2 = AddressSpace::new(&_m);
        for i in 0..8u64 {
            asid2.map_page(
                Vba(0x4000_0000 + (i << 21)).as_virt(),
                Pte::fte(Lba::from_block(900 + i), DEV, true),
            );
        }
        let p2 = Pasid(12);
        iommu.register(p2, asid2.root_frame());
        for i in 0..8u64 {
            iommu
                .translate(
                    p2,
                    Vba(0x4000_0000 + (i << 21)),
                    PAGE_SIZE,
                    AccessKind::Read,
                    DEV,
                )
                .unwrap();
        }
        let (_, before) = iommu.cache_occupancy();
        assert_eq!(before, 8);
        iommu.set_pwc_capacity(2);
        let (_, after) = iommu.cache_occupancy();
        assert_eq!(after, 2, "shrink must evict down to the new capacity");
    }

    #[derive(Default)]
    struct RecordingSink {
        pasids: Mutex<Vec<Pasid>>,
        ranges: Mutex<Vec<(Pasid, Vba, u64)>>,
    }

    impl AtsSink for RecordingSink {
        fn ats_invalidate_pasid(&self, pasid: Pasid) {
            self.pasids.lock().unwrap().push(pasid);
        }
        fn ats_invalidate_range(&self, pasid: Pasid, vba: Vba, len: u64) {
            self.ranges.lock().unwrap().push((pasid, vba, len));
        }
    }

    #[test]
    fn ats_sinks_receive_every_shootdown() {
        let (_m, _a, mut iommu, vba) = setup_file(1, true);
        let sink = Arc::new(RecordingSink::default());
        iommu.register_ats_sink(sink.clone());
        iommu.invalidate_range(P, vba, PAGE_SIZE);
        iommu.invalidate_pasid(P);
        iommu.unregister(P);
        assert_eq!(&*sink.ranges.lock().unwrap(), &[(P, vba, PAGE_SIZE)]);
        // invalidate_pasid once directly, once via unregister.
        assert_eq!(&*sink.pasids.lock().unwrap(), &[P, P]);
    }
}
