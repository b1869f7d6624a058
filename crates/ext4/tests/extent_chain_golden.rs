//! Golden image for overflow extent chains: a seeded run of interleaved
//! appends over several files, each outgrowing its inline extents and
//! first overflow block, must leave byte-identical media. Pins
//! `NvmeDevice::media_fingerprint()` so any change to how an inode's
//! extent chain is staged (block numbers, encoding, allocation order)
//! shows up as a fingerprint change.

use std::sync::Arc;

use parking_lot::Mutex;

use bypassd_ext4::layout::{BLOCK_SIZE, EXTENTS_PER_BLOCK, INLINE_EXTENTS};
use bypassd_ext4::{Ext4, Ext4Options, Ino};
use bypassd_hw::iommu::Iommu;
use bypassd_hw::types::DevId;
use bypassd_hw::PhysMem;
use bypassd_sim::rng::Rng;
use bypassd_ssd::device::NvmeDevice;
use bypassd_ssd::timing::MediaTiming;

/// Media digest after [`workload`] on the reference implementation.
const GOLDEN: u64 = 0xc1b8_2db0_f17f_0b44;

const FILES: usize = 4;
/// Appends per file: every append lands on a block another file's
/// append just took, so each one starts a new extent.
const APPENDS: u64 = 2 * (INLINE_EXTENTS + EXTENTS_PER_BLOCK) as u64 + 37;

fn append(fs: &Ext4, ino: Ino, blocks: u64) {
    let size = fs.size_of(ino).unwrap();
    fs.allocate_keep_size(ino, size, blocks * BLOCK_SIZE)
        .unwrap();
    fs.set_size(ino, size + blocks * BLOCK_SIZE).unwrap();
}

/// Interleaved appends, a shrink and regrow of one chain, an unlink of
/// a file with a chain, and a remount that reloads chains cold before
/// more appends.
fn workload() -> (u64, Vec<usize>) {
    let mem = PhysMem::new();
    let iommu = Arc::new(Mutex::new(Iommu::new(&mem)));
    let dev = NvmeDevice::new(DevId(3), 1 << 20, MediaTiming::default(), iommu);
    let fs = Ext4::format(&dev, &mem, Ext4Options::default());
    let inos: Vec<Ino> = (0..FILES)
        .map(|f| fs.create(&format!("/log{f}"), 0o644, 0, 0).unwrap())
        .collect();
    let mut rng = Rng::new(0x00E7_4C4A_1A5E);
    for _ in 0..APPENDS * FILES as u64 {
        let f = rng.gen_range(FILES as u64) as usize;
        append(&fs, inos[f], 1 + rng.gen_range(2));
        if rng.gen_bool(0.01) {
            fs.touch(
                inos[f],
                bypassd_sim::Nanos(rng.next_u64() >> 20),
                true,
                true,
            )
            .unwrap();
        }
    }
    // Shrink file 0 back inside its inline extents, then regrow it.
    fs.truncate(inos[0], 3 * BLOCK_SIZE).unwrap();
    fs.sync_point();
    for _ in 0..APPENDS {
        append(&fs, inos[0], 1);
        append(&fs, inos[2], 1);
    }
    fs.unlink("/log1", 0, 0).unwrap();
    fs.sync_point();
    drop(fs);

    let fs = Ext4::mount(&dev, &mem).unwrap();
    for _ in 0..EXTENTS_PER_BLOCK as u64 {
        append(&fs, inos[2], 1);
        append(&fs, inos[3], 1);
    }
    // Physically discontiguous runs: a lower bound on each extent count.
    let runs = [0, 2, 3]
        .iter()
        .map(|&f| {
            let size = fs.size_of(inos[f]).unwrap();
            fs.resolve(inos[f], 0, size).unwrap().0.len()
        })
        .collect();
    (dev.media_fingerprint(), runs)
}

#[test]
fn interleaved_appends_stage_identical_extent_chains() {
    let (fp, runs) = workload();
    for r in &runs {
        assert!(
            *r > INLINE_EXTENTS + EXTENTS_PER_BLOCK,
            "a file's extents fit in one overflow block: {runs:?}"
        );
    }
    assert_eq!(fp, workload().0, "media fingerprint is not reproducible");
    assert_eq!(fp, GOLDEN, "media fingerprint {fp:#018x}");
}
