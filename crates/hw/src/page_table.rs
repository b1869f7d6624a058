//! x86-64-style 4-level radix page tables backed by simulated physical
//! memory, with subtree attachment.
//!
//! BypassD's `fmap()` builds *shared, pre-populated* file tables cached in
//! the file's inode and attaches them to a process address space with a
//! single pointer update at PMD (2 MB) or PUD (1 GB) granularity (§4.1).
//! Because tables here are real frames in [`PhysMem`], attachment is
//! exactly that: writing one entry that points at a shared frame. Per-open
//! read-only permission is applied on the private attachment entry, leaving
//! the shared fragment's preset maximum rights untouched.

use crate::mem::PhysMem;
use crate::pte::Pte;
use crate::types::{PhysAddr, VirtAddr, PAGE_SIZE};
use std::collections::HashSet;

/// Granularity at which a shared file-table fragment is attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttachLevel {
    /// 2 MB: one leaf table (512 FTEs) shared per entry.
    Pmd,
    /// 1 GB: one mid-level table (512 leaf tables) shared per entry.
    Pud,
}

impl AttachLevel {
    /// The page-table level number of the *entry* written (PMD entry lives
    /// in the level-2 table, PUD entry in the level-3 table).
    pub fn level(self) -> u8 {
        match self {
            AttachLevel::Pmd => 2,
            AttachLevel::Pud => 3,
        }
    }

    /// Bytes covered by one attachment at this level.
    pub fn span(self) -> u64 {
        match self {
            AttachLevel::Pmd => 2 << 20,
            AttachLevel::Pud => 1 << 30,
        }
    }
}

/// Result of a full page-table walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Walk {
    /// The leaf entry found (level 1).
    pub pte: Pte,
    /// Writable only if every level of the walk permits writes — this is
    /// where private read-only attachments take effect.
    pub effective_writable: bool,
    /// Number of table levels read from memory (for timing models).
    pub levels: u8,
}

/// Walks the tables rooted at `root` for `va` without an [`AddressSpace`]
/// (used by the IOMMU, which only holds PASID → root mappings).
///
/// Returns `None` if any level is not present.
pub fn walk_raw(mem: &PhysMem, root: u64, va: VirtAddr) -> Option<Walk> {
    mem.with_u64_reader(|read| {
        let mut table = root;
        let mut writable = true;
        for level in (2..=4).rev() {
            let entry = Pte(read(PhysAddr::from_frame(
                table,
                8 * va.index(level) as u64,
            )));
            if !entry.present() {
                return None;
            }
            writable &= entry.writable();
            table = entry.frame();
        }
        let pte = Pte(read(PhysAddr::from_frame(table, 8 * va.index(1) as u64)));
        if !pte.present() {
            return None;
        }
        Some(Walk {
            pte,
            effective_writable: writable && pte.writable(),
            levels: 4,
        })
    })
}

/// A process (or kernel) address space: a 4-level page table plus a simple
/// bump allocator for virtual regions.
///
/// ```rust
/// use bypassd_hw::{AddressSpace, PhysMem, Pte};
/// use bypassd_hw::types::VirtAddr;
/// let mem = PhysMem::new();
/// let mut asid = AddressSpace::new(&mem);
/// let frame = mem.alloc_frame();
/// let va = VirtAddr(0x4000_0000);
/// asid.map_page(va, Pte::leaf(frame, true));
/// assert_eq!(asid.walk(va).unwrap().pte.frame(), frame);
/// ```
#[derive(Debug)]
pub struct AddressSpace {
    mem: PhysMem,
    root: u64,
    owned_tables: HashSet<u64>,
    next_region: u64,
}

/// Base of the bump-allocated mapping region (64 GiB).
const REGION_BASE: u64 = 0x10_0000_0000;

impl AddressSpace {
    /// Creates an empty address space (allocates the root table).
    pub fn new(mem: &PhysMem) -> Self {
        let root = mem.alloc_frame();
        let mut owned = HashSet::new();
        owned.insert(root);
        AddressSpace {
            mem: mem.clone(),
            root,
            owned_tables: owned,
            next_region: REGION_BASE,
        }
    }

    /// Frame number of the root (PGD) table, registered with the IOMMU
    /// context table for this process's PASID.
    pub fn root_frame(&self) -> u64 {
        self.root
    }

    /// Reserves a virtual region of `size` bytes aligned to `align`.
    ///
    /// # Panics
    /// Panics if `align` is zero or not a power of two.
    pub fn alloc_region(&mut self, size: u64, align: u64) -> VirtAddr {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let base = (self.next_region + align - 1) & !(align - 1);
        self.next_region = base + size.max(PAGE_SIZE);
        VirtAddr(base)
    }

    fn entry_addr(&self, table: u64, va: VirtAddr, level: u8) -> PhysAddr {
        PhysAddr::from_frame(table, 8 * va.index(level) as u64)
    }

    /// Descends to the table holding the entry for `va` at `level`,
    /// creating intermediate tables as needed. Returns the table frame.
    fn table_for(&mut self, va: VirtAddr, level: u8) -> u64 {
        let mut table = self.root;
        for l in ((level + 1)..=4).rev() {
            let addr = self.entry_addr(table, va, l);
            let entry = Pte(self.mem.read_u64(addr));
            if entry.present() {
                table = entry.frame();
            } else {
                let frame = self.mem.alloc_frame();
                self.owned_tables.insert(frame);
                self.mem.write_u64(addr, Pte::table(frame).bits());
                table = frame;
            }
        }
        table
    }

    /// Reads the raw entry for `va` at `level` (4 = PGD … 1 = PTE),
    /// returning `Pte::EMPTY` if an upper level is absent.
    pub fn entry(&self, va: VirtAddr, level: u8) -> Pte {
        let mut table = self.root;
        for l in ((level + 1)..=4).rev() {
            let entry = Pte(self.mem.read_u64(self.entry_addr(table, va, l)));
            if !entry.present() {
                return Pte::EMPTY;
            }
            table = entry.frame();
        }
        Pte(self.mem.read_u64(self.entry_addr(table, va, level)))
    }

    /// Writes the raw entry for `va` at `level`, creating intermediate
    /// tables as needed.
    pub fn set_entry(&mut self, va: VirtAddr, level: u8, pte: Pte) {
        let table = self.table_for(va, level);
        let addr = self.entry_addr(table, va, level);
        self.mem.write_u64(addr, pte.bits());
    }

    /// Maps one 4 KB page (or installs one FTE) at `va`.
    ///
    /// # Panics
    /// Panics if `va` is not page-aligned.
    pub fn map_page(&mut self, va: VirtAddr, pte: Pte) {
        assert!(va.is_page_aligned(), "map_page requires page alignment");
        self.set_entry(va, 1, pte);
    }

    /// Removes the mapping at `va` (leaf level). No-op if absent.
    pub fn unmap_page(&mut self, va: VirtAddr) {
        if self.entry(va, 1).present() {
            self.set_entry(va, 1, Pte::EMPTY);
        }
    }

    /// Attaches a shared table fragment so that `va` (aligned to the
    /// attach span) resolves through `fragment_frame`. With
    /// `writable = false` the private attachment entry is read-only,
    /// implementing per-open permissions over shared FTEs (§4.1).
    ///
    /// # Panics
    /// Panics if `va` is not aligned to the attachment span.
    pub fn attach_fragment(
        &mut self,
        va: VirtAddr,
        level: AttachLevel,
        fragment_frame: u64,
        writable: bool,
    ) {
        assert!(
            va.0.is_multiple_of(level.span()),
            "attach va {va} not aligned to {:?} span",
            level
        );
        let mut entry = Pte::table(fragment_frame);
        if !writable {
            entry = entry.read_only();
        }
        self.set_entry(va, level.level(), entry);
    }

    /// Detaches whatever is attached at `va`/`level`; the shared fragment
    /// frame itself is untouched (it belongs to the inode cache).
    pub fn detach_fragment(&mut self, va: VirtAddr, level: AttachLevel) {
        self.set_entry(va, level.level(), Pte::EMPTY);
    }

    /// Full 4-level walk for `va`.
    pub fn walk(&self, va: VirtAddr) -> Option<Walk> {
        walk_raw(&self.mem, self.root, va)
    }

    /// Releases every table frame this address space allocated itself
    /// (shared fragments attached from inode caches are *not* freed).
    pub fn destroy(mut self) {
        for frame in self.owned_tables.drain() {
            self.mem.free_frame(frame);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{DevId, Lba};

    fn setup() -> (PhysMem, AddressSpace) {
        let mem = PhysMem::new();
        let asid = AddressSpace::new(&mem);
        (mem, asid)
    }

    #[test]
    fn map_then_walk() {
        let (mem, mut asid) = setup();
        let frame = mem.alloc_frame();
        let va = VirtAddr(0x7000_1000);
        asid.map_page(va, Pte::leaf(frame, true));
        let w = asid.walk(va).unwrap();
        assert_eq!(w.pte.frame(), frame);
        assert!(w.effective_writable);
        assert_eq!(w.levels, 4);
    }

    #[test]
    fn walk_absent_returns_none() {
        let (_, asid) = setup();
        assert!(asid.walk(VirtAddr(0x1234_0000)).is_none());
    }

    #[test]
    fn unmap_removes_leaf() {
        let (mem, mut asid) = setup();
        let frame = mem.alloc_frame();
        let va = VirtAddr(0x5000_0000);
        asid.map_page(va, Pte::leaf(frame, false));
        assert!(asid.walk(va).is_some());
        asid.unmap_page(va);
        assert!(asid.walk(va).is_none());
    }

    #[test]
    fn region_allocator_respects_alignment() {
        let (_, mut asid) = setup();
        let a = asid.alloc_region(10 * PAGE_SIZE, 2 << 20);
        assert_eq!(a.0 % (2 << 20), 0);
        let b = asid.alloc_region(PAGE_SIZE, 1 << 30);
        assert_eq!(b.0 % (1 << 30), 0);
        assert!(b.0 >= a.0 + 10 * PAGE_SIZE);
    }

    #[test]
    fn ftes_resolve_via_walk() {
        let (_, mut asid) = setup();
        let va = VirtAddr(0x9000_0000);
        let lba = Lba::from_block(77);
        asid.map_page(va, Pte::fte(lba, DevId(4), true));
        let w = asid.walk(va).unwrap();
        assert!(w.pte.is_fte());
        assert_eq!(w.pte.lba(), lba);
        assert_eq!(w.pte.dev_id(), DevId(4));
    }

    #[test]
    fn shared_fragment_visible_in_two_spaces() {
        let mem = PhysMem::new();
        let mut a = AddressSpace::new(&mem);
        let mut b = AddressSpace::new(&mem);

        // Build a shared leaf table holding one FTE (as the inode cache
        // would), then attach it to both address spaces at PMD level.
        let fragment = mem.alloc_frame();
        let lba = Lba::from_block(1000);
        mem.write_u64(
            PhysAddr::from_frame(fragment, 0),
            Pte::fte(lba, DevId(1), true).bits(),
        );

        let va_a = VirtAddr(0x4000_0000); // 2MB-aligned
        let va_b = VirtAddr(0x8060_0000); // different VA, also 2MB-aligned
        a.attach_fragment(va_a, AttachLevel::Pmd, fragment, true);
        b.attach_fragment(va_b, AttachLevel::Pmd, fragment, false);

        let wa = a.walk(va_a).unwrap();
        let wb = b.walk(va_b).unwrap();
        assert_eq!(wa.pte.lba(), lba);
        assert_eq!(wb.pte.lba(), lba);
        assert!(wa.effective_writable, "rw attachment should be writable");
        assert!(
            !wb.effective_writable,
            "ro attachment must mask shared rw FTE"
        );
    }

    #[test]
    fn fragment_update_propagates_to_all_attachments() {
        // File grows: the FS adds an FTE to the shared fragment; every
        // process that attached it sees the new block with no re-fmap.
        let mem = PhysMem::new();
        let mut a = AddressSpace::new(&mem);
        let fragment = mem.alloc_frame();
        let va = VirtAddr(0x4000_0000);
        a.attach_fragment(va, AttachLevel::Pmd, fragment, true);
        assert!(a.walk(va).is_none(), "no FTE yet");
        mem.write_u64(
            PhysAddr::from_frame(fragment, 0),
            Pte::fte(Lba::from_block(5), DevId(0), true).bits(),
        );
        assert_eq!(a.walk(va).unwrap().pte.lba(), Lba::from_block(5));
    }

    #[test]
    fn detach_revokes_translation() {
        let mem = PhysMem::new();
        let mut a = AddressSpace::new(&mem);
        let fragment = mem.alloc_frame();
        mem.write_u64(
            PhysAddr::from_frame(fragment, 0),
            Pte::fte(Lba::from_block(9), DevId(0), true).bits(),
        );
        let va = VirtAddr(0x4000_0000);
        a.attach_fragment(va, AttachLevel::Pmd, fragment, true);
        assert!(a.walk(va).is_some());
        a.detach_fragment(va, AttachLevel::Pmd);
        assert!(a.walk(va).is_none(), "walk must fail after revocation");
        // Fragment contents survive for other/later attachments.
        assert_eq!(
            Pte(mem.read_u64(PhysAddr::from_frame(fragment, 0))).lba(),
            Lba::from_block(9)
        );
    }

    #[test]
    fn pud_level_attachment() {
        let mem = PhysMem::new();
        let mut a = AddressSpace::new(&mem);
        // Mid-level (PMD) table whose entry 0 points to a leaf table.
        let leaf = mem.alloc_frame();
        mem.write_u64(
            PhysAddr::from_frame(leaf, 0),
            Pte::fte(Lba::from_block(3), DevId(0), true).bits(),
        );
        let mid = mem.alloc_frame();
        mem.write_u64(PhysAddr::from_frame(mid, 0), Pte::table(leaf).bits());
        let va = VirtAddr(1 << 30); // 1GB aligned
        a.attach_fragment(va, AttachLevel::Pud, mid, true);
        assert_eq!(a.walk(va).unwrap().pte.lba(), Lba::from_block(3));
    }

    #[test]
    #[should_panic(expected = "not aligned")]
    fn attach_rejects_misaligned_va() {
        let mem = PhysMem::new();
        let mut a = AddressSpace::new(&mem);
        let fragment = mem.alloc_frame();
        a.attach_fragment(VirtAddr(0x1000), AttachLevel::Pmd, fragment, true);
    }

    #[test]
    fn destroy_frees_owned_but_not_shared() {
        let mem = PhysMem::new();
        let fragment = mem.alloc_frame();
        let before = mem.allocated_frames();
        let mut a = AddressSpace::new(&mem);
        a.attach_fragment(VirtAddr(0x4000_0000), AttachLevel::Pmd, fragment, true);
        assert!(mem.allocated_frames() > before);
        a.destroy();
        assert_eq!(mem.allocated_frames(), before, "owned tables not freed");
    }

    #[test]
    fn walk_raw_matches_address_space_walk() {
        let (mem, mut asid) = setup();
        let frame = mem.alloc_frame();
        let va = VirtAddr(0x6000_0000);
        asid.map_page(va, Pte::leaf(frame, true));
        let via_as = asid.walk(va).unwrap();
        let via_raw = walk_raw(&mem, asid.root_frame(), va).unwrap();
        assert_eq!(via_as, via_raw);
    }
}
