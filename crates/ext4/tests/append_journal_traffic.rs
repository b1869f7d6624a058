//! Journal traffic of a kernel append does not grow with the file's
//! extent count: an append stages the inode-table block, the bitmap and
//! the one overflow extent block it changed, however long the chain.
//! After a remount the chain, read back cold, maps every block as the
//! warm tree did, and fsck passes.

use std::sync::Arc;

use parking_lot::Mutex;

use bypassd_ext4::layout::{BLOCK_SIZE, EXTENTS_PER_BLOCK, INLINE_EXTENTS};
use bypassd_ext4::{Ext4, Ext4Options, Ino};
use bypassd_hw::iommu::Iommu;
use bypassd_hw::types::{DevId, Lba};
use bypassd_hw::PhysMem;
use bypassd_ssd::device::NvmeDevice;
use bypassd_ssd::timing::MediaTiming;

const LOGS: usize = 4;

/// One kernel append of one block: allocate past EOF, then commit the
/// new size.
fn append(fs: &Ext4, ino: Ino) {
    let size = fs.size_of(ino).unwrap();
    fs.allocate_keep_size(ino, size, BLOCK_SIZE).unwrap();
    fs.set_size(ino, size + BLOCK_SIZE).unwrap();
}

/// The file's block map as `(lba, bytes)` runs; every run is one
/// extent here, since interleaved appends never land contiguously.
fn block_map(fs: &Ext4, ino: Ino) -> Vec<(Option<Lba>, u64)> {
    let size = fs.size_of(ino).unwrap();
    fs.resolve(ino, 0, size).unwrap().0
}

#[test]
fn append_journal_traffic_is_flat_in_chain_length() {
    let mem = PhysMem::new();
    let iommu = Arc::new(Mutex::new(Iommu::new(&mem)));
    let dev = NvmeDevice::new(DevId(5), 1 << 20, MediaTiming::default(), iommu);
    let fs = Ext4::format(&dev, &mem, Ext4Options::default());
    let logs: Vec<Ino> = (0..LOGS)
        .map(|l| fs.create(&format!("/log{l}"), 0o644, 0, 0).unwrap())
        .collect();

    // Log 0 at the middle of its first, second and third overflow block,
    // so the measured append neither opens nor fills a chain block.
    let mut per_append = Vec::new();
    for chain_blocks in 1..=3 {
        let target =
            INLINE_EXTENTS + (chain_blocks - 1) * EXTENTS_PER_BLOCK + EXTENTS_PER_BLOCK / 2;
        while block_map(&fs, logs[0]).len() < target {
            for &ino in &logs {
                append(&fs, ino);
            }
        }
        // The last append went to another log: this one is a new extent.
        let (commits0, blocks0) = fs.journal_stats();
        append(&fs, logs[0]);
        let (commits1, blocks1) = fs.journal_stats();
        assert_eq!(block_map(&fs, logs[0]).len(), target + 1);
        per_append.push((commits1 - commits0, blocks1 - blocks0));
    }
    // Two commits, each logging a descriptor and a commit record around
    // its blocks: the inode-table block, the bitmap and the changed
    // chain block, then the inode-table block alone.
    assert_eq!(per_append, vec![(2, 3 + 2 + 1 + 2); 3], "{per_append:?}");

    let warm: Vec<_> = logs.iter().map(|&ino| block_map(&fs, ino)).collect();
    assert!(warm[0].len() > INLINE_EXTENTS + 2 * EXTENTS_PER_BLOCK);
    drop(fs);
    let fs = Ext4::mount(&dev, &mem).unwrap();
    let cold: Vec<_> = logs.iter().map(|&ino| block_map(&fs, ino)).collect();
    assert_eq!(cold, warm, "cold chain load differs from the warm tree");
    let report = bypassd_ext4::fsck(&dev);
    assert!(report.clean(), "fsck: {:?}", report.errors);
}
