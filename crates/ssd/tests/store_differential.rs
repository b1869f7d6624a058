//! Differential test for the media store's direct block index: seeded
//! random sequences of aligned and sector-granular writes (uniform and
//! mixed bytes), fills, whole-block and partial `write_zeroes`, and
//! reads at arbitrary sector ranges, on a device of several index
//! leaves, must leave exactly the bytes, `resident_blocks()` and
//! `fingerprint()` of the map store the index replaced, which kept one
//! heap block per resident 4 KB behind a `HashMap` and is kept here as
//! the reference. A second test checks that a store built after another
//! was dropped reads none of the dropped store's bytes.
//!
//! CI runs this file in release mode with a raised `PROPTEST_CASES`.

use std::collections::HashMap;

use bypassd_hw::types::{Lba, PAGE_SIZE, SECTORS_PER_PAGE, SECTOR_SIZE};
use bypassd_sim::rng::{Fnv64, Rng};
use bypassd_ssd::store::SectorStore;
use proptest::prelude::*;

const PAGE: usize = PAGE_SIZE as usize;
/// Sectors one index leaf maps (512 blocks).
const LEAF_SECTORS: u64 = 512 * SECTORS_PER_PAGE;
/// Four leaves and a partial block past the last whole one.
const CAPACITY: u64 = 4 * LEAF_SECTORS - 3;

/// One resident block of the map store.
enum Block {
    /// Every byte equals this one.
    Fill(u8),
    /// Arbitrary content, `PAGE_SIZE` bytes.
    Data(Box<[u8]>),
}

impl Block {
    fn bytes_mut(&mut self) -> &mut [u8] {
        if let Block::Fill(b) = *self {
            *self = Block::Data(vec![b; PAGE].into_boxed_slice());
        }
        match self {
            Block::Data(d) => d,
            Block::Fill(_) => unreachable!("materialized above"),
        }
    }
}

/// The map store: a whole block that repeats one byte is kept as that
/// byte, a partial write materializes its block, whole-block zeroing
/// removes it, and partial zeroing leaves holes and zero fills alone.
#[derive(Default)]
struct MapStore {
    blocks: HashMap<u64, Block>,
}

impl MapStore {
    fn read(&self, lba: Lba, buf: &mut [u8]) {
        let (mut pos, mut done) = (lba.byte_offset(), 0);
        for (off, n) in chunks(pos, buf.len()) {
            let dst = &mut buf[done..done + n];
            match self.blocks.get(&(pos / PAGE_SIZE)) {
                Some(Block::Data(d)) => dst.copy_from_slice(&d[off..off + n]),
                Some(Block::Fill(b)) => dst.fill(*b),
                None => dst.fill(0),
            }
            done += n;
            pos += n as u64;
        }
    }

    fn write(&mut self, lba: Lba, data: &[u8]) {
        let (mut pos, mut done) = (lba.byte_offset(), 0);
        for (off, n) in chunks(pos, data.len()) {
            let block = pos / PAGE_SIZE;
            let src = &data[done..done + n];
            if n == PAGE {
                let whole = match uniform(src) {
                    Some(b) => Block::Fill(b),
                    None => Block::Data(src.into()),
                };
                self.blocks.insert(block, whole);
            } else {
                let b = self.blocks.entry(block).or_insert(Block::Fill(0));
                b.bytes_mut()[off..off + n].copy_from_slice(src);
            }
            done += n;
            pos += n as u64;
        }
    }

    fn write_zeroes(&mut self, lba: Lba, sectors: u64) {
        let mut pos = lba.byte_offset();
        for (off, n) in chunks(pos, (sectors * SECTOR_SIZE) as usize) {
            let block = pos / PAGE_SIZE;
            if n == PAGE {
                self.blocks.remove(&block);
            } else if let Some(b) = self.blocks.get_mut(&block) {
                if !matches!(b, Block::Fill(0)) {
                    b.bytes_mut()[off..off + n].fill(0);
                }
            }
            pos += n as u64;
        }
    }

    fn resident_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Resident blocks in index order, all-zero ones skipped; each is
    /// its index, then its 4 KB, byte at a time.
    fn fingerprint(&self) -> u64 {
        let mut keys: Vec<u64> = self.blocks.keys().copied().collect();
        keys.sort_unstable();
        let mut h = Fnv64::new();
        let mut data = vec![0u8; PAGE];
        for k in keys {
            self.read(Lba(k * SECTORS_PER_PAGE), &mut data);
            if data.iter().all(|&b| b == 0) {
                continue;
            }
            h.write_u64(k);
            h.write(&data);
        }
        h.finish()
    }
}

/// `(offset in block, length)` of each block-bounded piece of `len`
/// bytes from device byte `pos`.
fn chunks(mut pos: u64, len: usize) -> impl Iterator<Item = (usize, usize)> {
    let mut left = len;
    std::iter::from_fn(move || {
        (left > 0).then(|| {
            let off = (pos % PAGE_SIZE) as usize;
            let n = (PAGE - off).min(left);
            pos += n as u64;
            left -= n;
            (off, n)
        })
    })
}

fn uniform(data: &[u8]) -> Option<u8> {
    data.iter().all(|&b| b == data[0]).then_some(data[0])
}

/// Blocks the sequences keep returning to, spread over every leaf
/// (including the device's last whole block), so writes, zeroing and
/// slot reuse meet on the same blocks.
const HOT: [u64; 12] = [0, 1, 2, 511, 512, 513, 1024, 1100, 1535, 1536, 1700, 2046];

fn hot_lba(rng: &mut Rng) -> Lba {
    let block = HOT[rng.gen_range(HOT.len() as u64) as usize];
    Lba(block * SECTORS_PER_PAGE + rng.gen_range(SECTORS_PER_PAGE))
}

/// `sectors` of uniform or mixed bytes: one repeated byte (zero often),
/// that byte with one sector-aligned or stray byte changed, or noise.
fn payload(rng: &mut Rng, sectors: u64) -> Vec<u8> {
    let len = (sectors * SECTOR_SIZE) as usize;
    let byte = [0x00, 0x42, 0xAB, 0xFF][rng.gen_range(4) as usize];
    let mut data = vec![byte; len];
    match rng.gen_range(4) {
        0 => {}
        1 => data[rng.gen_range(len as u64) as usize] ^= 0x5A,
        2 => data[len - 1] ^= 1,
        _ => data.iter_mut().for_each(|b| *b = rng.next_u64() as u8),
    }
    data
}

/// A sector count from `lba` that stays on the device.
fn span(rng: &mut Rng, lba: Lba, max: u64) -> u64 {
    (1 + rng.gen_range(max)).min(CAPACITY - lba.0)
}

/// The store under test and the map store, taking the same writes.
struct Pair {
    store: SectorStore,
    map: MapStore,
}

impl Pair {
    fn new() -> Self {
        Pair {
            store: SectorStore::new(CAPACITY),
            map: MapStore::default(),
        }
    }

    fn write(&mut self, lba: Lba, data: &[u8]) {
        self.store.write(lba, data);
        self.map.write(lba, data);
    }

    fn write_zeroes(&mut self, lba: Lba, sectors: u64) {
        self.store.write_zeroes(lba, sectors);
        self.map.write_zeroes(lba, sectors);
    }

    /// Both stores' bytes over `[lba, lba+sectors)`, or the first byte
    /// where they differ.
    fn same(&self, lba: Lba, sectors: u64) -> Result<(), String> {
        let len = (sectors * SECTOR_SIZE) as usize;
        let (mut got, mut want) = (vec![0xEEu8; len], vec![0x11u8; len]);
        self.store.read(lba, &mut got);
        self.map.read(lba, &mut want);
        match got.iter().zip(&want).position(|(g, w)| g != w) {
            None => Ok(()),
            Some(i) => Err(format!(
                "sector {} + byte {i}: store {:#04x}, map {:#04x}",
                lba.0, got[i], want[i]
            )),
        }
    }
}

proptest! {
    #[test]
    fn direct_index_matches_the_map_store(seed: u64) {
        let mut rng = Rng::new(seed);
        let mut p = Pair::new();
        for step in 0..32 {
            let (lba, sectors) = match rng.gen_range(7) {
                // Whole aligned blocks.
                0 | 1 => {
                    let lba = Lba(hot_lba(&mut rng).block() * SECTORS_PER_PAGE);
                    let sectors = (span(&mut rng, lba, 3) * SECTORS_PER_PAGE).min(CAPACITY - lba.0);
                    p.write(lba, &payload(&mut rng, sectors));
                    (lba, sectors)
                }
                // Sector-granular, crossing blocks.
                2 => {
                    let lba = hot_lba(&mut rng);
                    let sectors = span(&mut rng, lba, 20);
                    p.write(lba, &payload(&mut rng, sectors));
                    (lba, sectors)
                }
                // A fill is a write of one repeated byte.
                3 => {
                    let lba = hot_lba(&mut rng);
                    let sectors = span(&mut rng, lba, 24);
                    let byte = [0x00, 0x42, 0xC3][rng.gen_range(3) as usize];
                    p.store.fill(lba, sectors, byte);
                    p.map.write(lba, &vec![byte; (sectors * SECTOR_SIZE) as usize]);
                    (lba, sectors)
                }
                // Whole-block or partial zeroing.
                4 | 5 => {
                    let mut lba = hot_lba(&mut rng);
                    if rng.gen_range(2) == 0 {
                        lba = Lba(lba.block() * SECTORS_PER_PAGE);
                    }
                    let sectors = span(&mut rng, lba, 16);
                    p.write_zeroes(lba, sectors);
                    (lba, sectors)
                }
                // A read anywhere, hot or not.
                _ => {
                    let lba = Lba(rng.gen_range(CAPACITY));
                    (lba, span(&mut rng, lba, 40))
                }
            };
            let at = format!("seed {seed:#x}, step {step}");
            let other = Lba(rng.gen_range(CAPACITY));
            let other_sectors = span(&mut rng, other, 40);
            if let Err(e) = p.same(lba, sectors).and(p.same(other, other_sectors)) {
                prop_assert!(false, "{at}: {e}");
            }
            prop_assert_eq!(p.store.resident_blocks(), p.map.resident_blocks(), "{}", at);
            prop_assert_eq!(p.store.fingerprint(), p.map.fingerprint(), "{}", at);
        }
        for block in HOT {
            let lba = Lba(block * SECTORS_PER_PAGE);
            if let Err(e) = p.same(lba, SECTORS_PER_PAGE.min(CAPACITY - lba.0)) {
                prop_assert!(false, "seed {seed:#x}, final: {e}");
            }
        }
    }
}

/// A store full of 0xAB data is dropped, and its frames go to the next
/// store: that store must read zeroes in unwritten blocks, and in the
/// untouched sectors of blocks it wrote in part: into a hole, into the
/// slot a whole-block zeroing released, and over a block zeroed in part.
#[test]
fn a_dropped_store_leaks_no_byte_into_the_next() {
    const BLOCKS: u64 = 1024;
    let mut stale = vec![0xABu8; PAGE];
    stale[100] = 0xAC; // not one repeated byte: a data slot
    let mut mixed: Vec<u8> = (0..PAGE).map(|i| i as u8).collect();
    mixed[0] = 0xAB;
    for _ in 0..4 {
        {
            let mut old = SectorStore::new(CAPACITY);
            for b in 0..BLOCKS {
                old.write(Lba(b * SECTORS_PER_PAGE), &stale);
            }
        }
        let mut p = Pair::new();
        for b in 0..BLOCKS {
            let base = Lba(b * SECTORS_PER_PAGE);
            match b % 3 {
                0 => {}
                1 => {
                    p.write(base, &mixed);
                    p.write_zeroes(base, SECTORS_PER_PAGE);
                }
                _ => {
                    p.write(base, &[7u8; PAGE]);
                    p.write_zeroes(base.advance(1), 5);
                }
            }
            p.write(
                base.advance(b % SECTORS_PER_PAGE),
                &[0x11; SECTOR_SIZE as usize],
            );
        }
        // Past the written blocks: unwritten ones.
        p.same(Lba(0), (BLOCKS + 512) * SECTORS_PER_PAGE)
            .expect("no stale byte");
        assert_eq!(p.store.resident_blocks(), p.map.resident_blocks());
    }
}
