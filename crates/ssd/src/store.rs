//! Sparse sector store: the device's persistent media.
//!
//! Data is stored in 4 KB chunks keyed by device block; blocks that were
//! never written read back as zeroes without allocating memory, and a
//! block that repeats one byte (a populated file, a fill pattern) is
//! kept as that byte. Both are what let large simulated datasets stay
//! affordable.

use bypassd_hw::types::{Lba, PAGE_SIZE, SECTORS_PER_PAGE, SECTOR_SIZE};
use bypassd_sim::rng::Fnv64;
use std::collections::HashMap;

/// One resident 4 KB block.
enum Block {
    /// Every byte equals this one.
    Fill(u8),
    /// Arbitrary content, `PAGE_SIZE` bytes.
    Data(Box<[u8]>),
}

impl Block {
    /// The block's bytes, materializing a fill block first.
    fn bytes_mut(&mut self) -> &mut [u8] {
        if let Block::Fill(b) = *self {
            *self = Block::Data(vec![b; PAGE_SIZE as usize].into_boxed_slice());
        }
        match self {
            Block::Data(d) => d,
            Block::Fill(_) => unreachable!("materialized above"),
        }
    }
}

/// The device media: a sparse map of 4 KB blocks.
#[derive(Default)]
pub struct SectorStore {
    blocks: HashMap<u64, Block>,
    capacity_sectors: u64,
}

impl SectorStore {
    /// Creates a store with the given capacity in 512 B sectors.
    pub fn new(capacity_sectors: u64) -> Self {
        SectorStore {
            blocks: HashMap::new(),
            capacity_sectors,
        }
    }

    /// Capacity in sectors.
    pub fn capacity_sectors(&self) -> u64 {
        self.capacity_sectors
    }

    /// True if the range `[lba, lba+sectors)` is within the device.
    pub fn in_range(&self, lba: Lba, sectors: u64) -> bool {
        sectors > 0
            && lba
                .0
                .checked_add(sectors)
                .is_some_and(|end| end <= self.capacity_sectors)
    }

    /// Reads `buf.len()` bytes starting at sector `lba`.
    ///
    /// # Panics
    /// Panics if the range is out of bounds or `buf` is not
    /// sector-multiple sized.
    pub fn read(&self, lba: Lba, buf: &mut [u8]) {
        assert!(
            (buf.len() as u64).is_multiple_of(SECTOR_SIZE),
            "unaligned read size"
        );
        assert!(
            self.in_range(lba, buf.len() as u64 / SECTOR_SIZE),
            "read out of device range"
        );
        let mut done = 0usize;
        let mut pos = lba.byte_offset();
        while done < buf.len() {
            let block = pos / PAGE_SIZE;
            let off = (pos % PAGE_SIZE) as usize;
            let n = ((PAGE_SIZE as usize) - off).min(buf.len() - done);
            let out = &mut buf[done..done + n];
            match self.blocks.get(&block) {
                Some(Block::Data(data)) => out.copy_from_slice(&data[off..off + n]),
                Some(Block::Fill(b)) => out.fill(*b),
                None => out.fill(0),
            }
            done += n;
            pos += n as u64;
        }
    }

    /// Writes `data` starting at sector `lba`.
    ///
    /// # Panics
    /// Panics if the range is out of bounds or `data` is not
    /// sector-multiple sized.
    pub fn write(&mut self, lba: Lba, data: &[u8]) {
        assert!(
            (data.len() as u64).is_multiple_of(SECTOR_SIZE),
            "unaligned write size"
        );
        assert!(
            self.in_range(lba, data.len() as u64 / SECTOR_SIZE),
            "write out of device range"
        );
        let mut done = 0usize;
        let mut pos = lba.byte_offset();
        while done < data.len() {
            let block = pos / PAGE_SIZE;
            let off = (pos % PAGE_SIZE) as usize;
            let n = ((PAGE_SIZE as usize) - off).min(data.len() - done);
            let src = &data[done..done + n];
            if n == PAGE_SIZE as usize {
                match (uniform_fill(src), self.blocks.get_mut(&block)) {
                    (Some(b), _) => drop(self.blocks.insert(block, Block::Fill(b))),
                    // Overwrite in place: a fresh buffer per write would
                    // scatter blocks over the writers' malloc arenas.
                    (None, Some(Block::Data(d))) => d.copy_from_slice(src),
                    (None, _) => drop(self.blocks.insert(block, Block::Data(src.into()))),
                }
            } else {
                let chunk = self.blocks.entry(block).or_insert(Block::Fill(0));
                chunk.bytes_mut()[off..off + n].copy_from_slice(src);
            }
            done += n;
            pos += n as u64;
        }
    }

    /// Writes zeroes over `[lba, lba+sectors)`, dropping whole blocks from
    /// the map when possible (keeps the store sparse).
    pub fn write_zeroes(&mut self, lba: Lba, sectors: u64) {
        assert!(self.in_range(lba, sectors), "zero out of device range");
        let mut remaining = sectors;
        let mut cur = lba;
        while remaining > 0 {
            let block = cur.block();
            let off_sectors = cur.0 % SECTORS_PER_PAGE;
            let n = (SECTORS_PER_PAGE - off_sectors).min(remaining);
            if n == SECTORS_PER_PAGE {
                self.blocks.remove(&block);
            } else if let Some(chunk) = self.blocks.get_mut(&block) {
                if !matches!(chunk, Block::Fill(0)) {
                    let start = (off_sectors * SECTOR_SIZE) as usize;
                    let len = (n * SECTOR_SIZE) as usize;
                    chunk.bytes_mut()[start..start + len].fill(0);
                }
            }
            cur = cur.advance(n);
            remaining -= n;
        }
    }

    /// Number of resident (written, not zeroed) 4 KB blocks.
    pub fn resident_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Deterministic FNV digest of the logical contents: blocks visited
    /// in index order, all-zero blocks skipped (so a sparse hole and an
    /// explicitly zeroed block hash identically).
    pub fn fingerprint(&self) -> u64 {
        let mut keys: Vec<u64> = self.blocks.keys().copied().collect();
        keys.sort_unstable();
        let mut h = Fnv64::new();
        let mut uniform = UniformBlocks::new();
        for k in keys {
            let block = &self.blocks[&k];
            let fill = match block {
                Block::Fill(b) => Some(*b),
                Block::Data(data) => uniform_fill(data),
            };
            match (fill, block) {
                (Some(0), _) => {}
                (Some(byte), _) => {
                    h.write_u64(k);
                    h = Fnv64::resume(uniform.absorb(h.finish(), byte));
                }
                (None, Block::Data(data)) => {
                    h.write_u64(k);
                    h.write(data);
                }
                (None, Block::Fill(_)) => unreachable!("a fill block has its byte"),
            }
        }
        h.finish()
    }
}

/// The byte a block repeats, if it is one byte throughout.
fn uniform_fill(data: &[u8]) -> Option<u8> {
    let first = data[0];
    data.chunks_exact(64)
        .all(|c| c.iter().fold(0, |acc, &b| acc | (b ^ first)) == 0)
        .then_some(first)
}

/// FNV absorption of uniform 4 KB blocks in O(1). Absorbing a fixed
/// block from state `s` yields `s·P^4096 + c(s mod 256)` (see
/// [`Fnv64::prime_pow`]), so `c` is computed once per (fill byte, low
/// byte) and reused. Populated files and fleet writes are uniform
/// blocks, which makes hashing a whole device a multiply-add per block.
struct UniformBlocks {
    pow: u64,
    /// `c` by fill byte, then by the state's low byte.
    memo: Vec<Option<Box<[Option<u64>; 256]>>>,
}

impl UniformBlocks {
    fn new() -> Self {
        UniformBlocks {
            pow: Fnv64::prime_pow(PAGE_SIZE),
            memo: vec![None; 256],
        }
    }

    /// The FNV state after absorbing a block of `fill` bytes from `state`.
    fn absorb(&mut self, state: u64, fill: u8) -> u64 {
        let pow = self.pow;
        let table = self.memo[usize::from(fill)].get_or_insert_with(|| Box::new([None; 256]));
        let low = state & 0xFF;
        let c = *table[low as usize].get_or_insert_with(|| {
            let mut h = Fnv64::resume(low);
            h.write(&[fill; PAGE_SIZE as usize]);
            h.finish().wrapping_sub(low.wrapping_mul(pow))
        });
        state.wrapping_mul(pow).wrapping_add(c)
    }
}

impl std::fmt::Debug for SectorStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SectorStore")
            .field("capacity_sectors", &self.capacity_sectors)
            .field("resident_blocks", &self.blocks.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time digest the memoized one must match.
    fn naive_fingerprint(s: &SectorStore) -> u64 {
        let mut keys: Vec<u64> = s.blocks.keys().copied().collect();
        keys.sort_unstable();
        let mut h = Fnv64::new();
        for k in keys {
            let mut data = vec![0u8; PAGE_SIZE as usize];
            s.read(Lba(k * SECTORS_PER_PAGE), &mut data);
            if data.iter().all(|&b| b == 0) {
                continue;
            }
            h.write_u64(k);
            h.write(&data);
        }
        h.finish()
    }

    #[test]
    fn uniform_block_memo_matches_byte_at_a_time_fnv() {
        let mut s = store();
        let mut rng = bypassd_sim::rng::Rng::new(7);
        for i in 0..400u64 {
            let block = rng.gen_range(4_000);
            let mut data = vec![(rng.gen_range(6) * 51) as u8; PAGE_SIZE as usize];
            if i % 5 == 0 {
                // Mixed content, including a block that differs only in
                // its last byte.
                let at = if i % 10 == 0 {
                    data.len() - 1
                } else {
                    rng.gen_range(4096) as usize
                };
                data[at] ^= 0x5A;
            }
            s.write(Lba(block * SECTORS_PER_PAGE), &data);
        }
        s.write_zeroes(Lba(10 * SECTORS_PER_PAGE), 8);
        assert_eq!(s.fingerprint(), naive_fingerprint(&s));
    }

    fn store() -> SectorStore {
        SectorStore::new(1 << 20) // 512 MB
    }

    #[test]
    fn unwritten_reads_zero_without_allocating() {
        let s = store();
        let mut buf = [0xAAu8; 1024];
        s.read(Lba(100), &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!(s.resident_blocks(), 0);
    }

    #[test]
    fn write_read_roundtrip_aligned() {
        let mut s = store();
        let data: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
        s.write(Lba::from_block(3), &data);
        let mut buf = vec![0u8; 4096];
        s.read(Lba::from_block(3), &mut buf);
        assert_eq!(buf, data);
    }

    #[test]
    fn sector_granular_write_within_block() {
        let mut s = store();
        s.write(Lba(10), &[7u8; 512]);
        let mut buf = vec![0u8; 4096];
        s.read(Lba::from_block(1), &mut buf); // sectors 8..16
        assert!(buf[..1024].iter().all(|&b| b == 0));
        assert!(buf[1024..1536].iter().all(|&b| b == 7));
        assert!(buf[1536..].iter().all(|&b| b == 0));
    }

    #[test]
    fn cross_block_write() {
        let mut s = store();
        let data = vec![9u8; 8192 + 512];
        s.write(Lba(6), &data); // starts mid-block, spans 3 blocks
        let mut buf = vec![0u8; 8192 + 512];
        s.read(Lba(6), &mut buf);
        assert_eq!(buf, data);
        assert_eq!(s.resident_blocks(), 3);
    }

    #[test]
    fn write_zeroes_frees_whole_blocks() {
        let mut s = store();
        s.write(Lba::from_block(5), &[1u8; 8192]); // blocks 5,6
        assert_eq!(s.resident_blocks(), 2);
        s.write_zeroes(Lba::from_block(5), 8);
        assert_eq!(s.resident_blocks(), 1);
        let mut buf = [1u8; 4096];
        s.read(Lba::from_block(5), &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn write_zeroes_partial_block() {
        let mut s = store();
        s.write(Lba::from_block(2), &[3u8; 4096]);
        s.write_zeroes(Lba::from_block(2).advance(2), 2); // sectors 2,3
        let mut buf = [0u8; 4096];
        s.read(Lba::from_block(2), &mut buf);
        assert!(buf[..1024].iter().all(|&b| b == 3));
        assert!(buf[1024..2048].iter().all(|&b| b == 0));
        assert!(buf[2048..].iter().all(|&b| b == 3));
    }

    #[test]
    fn in_range_checks() {
        let s = SectorStore::new(100);
        assert!(s.in_range(Lba(0), 100));
        assert!(!s.in_range(Lba(0), 101));
        assert!(!s.in_range(Lba(100), 1));
        assert!(!s.in_range(Lba(0), 0));
        assert!(!s.in_range(Lba(u64::MAX), 2));
    }

    #[test]
    #[should_panic(expected = "out of device range")]
    fn out_of_range_write_panics() {
        let mut s = SectorStore::new(8);
        s.write(Lba(8), &[0u8; 512]);
    }
}
