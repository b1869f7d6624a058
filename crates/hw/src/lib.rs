//! # bypassd-hw
//!
//! The hardware substrate of the BypassD reproduction:
//!
//! * [`types`] — address/ID newtypes ([`types::VirtAddr`], [`types::Vba`],
//!   [`types::PhysAddr`], [`types::Lba`], [`types::Pasid`],
//!   [`types::DevId`]) and geometry constants.
//! * [`mem`] — simulated physical memory with a frame allocator; page
//!   tables live in these frames, so "shared file table fragments" are
//!   literally shared frames. Upper-level tables use sparse table frames
//!   that hold only their non-zero entries, and a data frame holds a host
//!   page only from its first write until it is released.
//! * [`pte`] — bit-packed page table entries, including the paper's **file
//!   table entry** format (Fig. 3): `FT` marker bit, device ID, and an LBA
//!   payload in place of the page frame number.
//! * [`page_table`] — x86-64-style 4-level radix page tables with subtree
//!   attachment at PMD/PUD granularity (how `fmap()` shares pre-populated
//!   file tables, §4.1).
//! * [`iommu`] — the enhanced IOMMU (§4.3): ATS translation requests carry
//!   a PASID; the walker resolves VBAs through the process page table,
//!   enforces permissions/device checks on FTEs, coalesces contiguous
//!   LBAs, and models translation latency calibrated to Table 4 / Fig. 5.

pub mod iommu;
pub mod lru;
pub mod mem;
pub mod page_table;
pub mod pte;
pub mod types;

pub use iommu::{
    AccessKind, AtsSink, Iommu, IommuTiming, PageTranslation, TranslateError, Translation,
};
pub use lru::PasidLru;
pub use mem::PhysMem;
pub use page_table::{AddressSpace, AttachLevel};
pub use pte::Pte;
pub use types::{
    DevId, Lba, Pasid, PhysAddr, Vba, VirtAddr, PAGE_SIZE, SECTORS_PER_PAGE, SECTOR_SIZE,
};
