//! Sparse sector store: the device's persistent media.
//!
//! A direct block index holds one `u32` code per 4 KB device block: a
//! hole (never written, or zeroed whole; reads back as zeroes), a fill
//! byte (the block repeats one byte, as a populated file does), or a
//! data slot. The index has one leaf per 2 MB region, allocated on the
//! region's first resident block, so a large device with a small
//! dataset costs a few leaves, and a read is two array loads and one
//! copy.
//!
//! Data slots are page-aligned 4 KB frames cut from large
//! zero-allocated chunks. A dropped store hands its chunks to a
//! process-wide spare list that the next store draws from first, so a
//! fresh machine's set-up writes land in memory that is already mapped.
//! A slot's bytes are stale until written, and every slot is fully
//! copied or filled before a block code points at it: no byte of a
//! dropped device is ever readable.

use bypassd_hw::types::{Lba, PAGE_SIZE, SECTORS_PER_PAGE, SECTOR_SIZE};
use bypassd_sim::rng::Fnv64;
use parking_lot::Mutex;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

const PAGE: usize = PAGE_SIZE as usize;
/// log2 of the blocks one index leaf maps (512 blocks: 2 MB of device).
const LEAF_SHIFT: u32 = 9;
const LEAF_BLOCKS: usize = 1 << LEAF_SHIFT;
/// log2 of the frames in one chunk (512 frames: 2 MB). A slot number is
/// its chunk's index shifted left by this, plus the frame.
const FRAME_SHIFT: u32 = 9;
const CHUNK_FRAMES: usize = 1 << FRAME_SHIFT;
/// Spare chunks kept for later stores, in bytes; a dropped store's
/// chunks beyond this go back to the allocator.
const SPARE_LIMIT: usize = 256 << 20;

/// Block codes: `HOLE`, `FILL + byte`, or `SLOT + slot number`.
const HOLE: u32 = 0;
const FILL: u32 = 1;
const SLOT: u32 = FILL + 256;

/// A decoded block code.
enum Code {
    Hole,
    Fill(u8),
    Slot(u32),
}

fn decode(code: u32) -> Code {
    match code {
        HOLE => Code::Hole,
        c if c < SLOT => Code::Fill((c - FILL) as u8),
        c => Code::Slot(c - SLOT),
    }
}

/// `CHUNK_FRAMES` page-aligned 4 KB frames in one zero-allocated buffer.
/// The buffer has a page to spare, so the frames start at whatever
/// offset aligns them.
struct Chunk {
    buf: Box<[u8]>,
    start: usize,
}

impl Chunk {
    fn new() -> Self {
        let buf = vec![0u8; CHUNK_FRAMES * PAGE + PAGE].into_boxed_slice();
        // `align_offset` may decline to align; alignment only keeps a
        // frame on one page, so the buffer's start then serves.
        let start = Some(buf.as_ptr().align_offset(PAGE))
            .filter(|&o| o < PAGE)
            .unwrap_or(0);
        Chunk { buf, start }
    }

    fn frame(&self, i: usize) -> &[u8] {
        let at = self.start + i * PAGE;
        &self.buf[at..at + PAGE]
    }

    fn frame_mut(&mut self, i: usize) -> &mut [u8] {
        let at = self.start + i * PAGE;
        &mut self.buf[at..at + PAGE]
    }
}

/// Chunks of dropped stores, handed to the next store that needs one.
/// A leaf lock: taken under the device state lock, and no other lock is
/// taken while it is held.
static SPARE_CHUNKS: Mutex<Vec<Chunk>> = Mutex::new(Vec::new());

/// The device media: a direct index of 4 KB block codes over an arena
/// of data frames.
#[derive(Default)]
pub struct SectorStore {
    /// One leaf of block codes per 2 MB region, `None` until the
    /// region's first resident block.
    leaves: Vec<Option<Box<[u32; LEAF_BLOCKS]>>>,
    arena: Arena,
    /// Blocks whose code is not a hole.
    resident: usize,
    capacity_sectors: u64,
}

impl SectorStore {
    /// Creates a store with the given capacity in 512 B sectors.
    pub fn new(capacity_sectors: u64) -> Self {
        let blocks = capacity_sectors.div_ceil(SECTORS_PER_PAGE);
        SectorStore {
            leaves: vec![None; blocks.div_ceil(LEAF_BLOCKS as u64) as usize],
            arena: Arena::default(),
            resident: 0,
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
        self.read_bytes_at(lba.byte_offset(), buf);
    }

    /// Reads `buf.len()` bytes at device byte position `pos`, with no
    /// alignment requirement: the device's single-copy path reads media
    /// straight into DMA frames, whose chunks follow frame boundaries.
    /// The caller has range-checked the command.
    pub(crate) fn read_bytes_at(&self, mut pos: u64, buf: &mut [u8]) {
        let mut done = 0usize;
        while done < buf.len() {
            let off = (pos % PAGE_SIZE) as usize;
            let n = (PAGE - off).min(buf.len() - done);
            let out = &mut buf[done..done + n];
            match decode(self.code(pos / PAGE_SIZE)) {
                Code::Slot(s) => out.copy_from_slice(&self.arena.frame(s)[off..off + n]),
                Code::Fill(b) => out.fill(b),
                Code::Hole => out.fill(0),
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
        self.write_bytes_at(lba.byte_offset(), data);
    }

    /// Writes `data` at device byte position `pos`, with no alignment
    /// requirement (the write-side twin of [`SectorStore::read_bytes_at`]).
    /// A whole block that repeats one byte is kept as that byte; any
    /// other whole block overwrites its slot in place.
    pub(crate) fn write_bytes_at(&mut self, mut pos: u64, data: &[u8]) {
        let mut done = 0usize;
        while done < data.len() {
            let block = pos / PAGE_SIZE;
            let off = (pos % PAGE_SIZE) as usize;
            let n = (PAGE - off).min(data.len() - done);
            let src = &data[done..done + n];
            if n == PAGE {
                match (uniform_fill(src), decode(self.code(block))) {
                    (Some(b), _) => self.set(block, FILL + u32::from(b)),
                    (None, Code::Slot(s)) => self.arena.frame_mut(s).copy_from_slice(src),
                    (None, _) => {
                        let s = self.arena.new_slot();
                        self.arena.frame_mut(s).copy_from_slice(src);
                        self.set(block, SLOT + s);
                    }
                }
            } else {
                let s = self.materialize(block);
                self.arena.frame_mut(s)[off..off + n].copy_from_slice(src);
            }
            done += n;
            pos += n as u64;
        }
    }

    /// Writes `sectors` sectors of `byte` starting at `lba`: what
    /// [`SectorStore::write`] of a buffer holding only `byte` does,
    /// without the buffer or the scan that finds its fill byte.
    pub fn fill(&mut self, lba: Lba, sectors: u64, byte: u8) {
        assert!(self.in_range(lba, sectors), "fill out of device range");
        for (block, bytes) in blocks(lba, sectors) {
            if bytes.len() == PAGE {
                self.set(block, FILL + u32::from(byte));
            } else {
                let s = self.materialize(block);
                self.arena.frame_mut(s)[bytes].fill(byte);
            }
        }
    }

    /// Writes zeroes over `[lba, lba+sectors)`, turning whole blocks
    /// into holes (keeps the store sparse).
    pub fn write_zeroes(&mut self, lba: Lba, sectors: u64) {
        assert!(self.in_range(lba, sectors), "zero out of device range");
        for (block, bytes) in blocks(lba, sectors) {
            if bytes.len() == PAGE {
                self.set(block, HOLE);
            } else if !matches!(decode(self.code(block)), Code::Hole | Code::Fill(0)) {
                let s = self.materialize(block);
                self.arena.frame_mut(s)[bytes].fill(0);
            }
        }
    }

    /// Number of resident (written, not zeroed) 4 KB blocks.
    pub fn resident_blocks(&self) -> usize {
        self.resident
    }

    /// Deterministic FNV digest of the logical contents: blocks visited
    /// in index order, all-zero blocks skipped (so a sparse hole and an
    /// explicitly zeroed block hash identically).
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        let absorb_fill = |h: &mut Fnv64, block: u64, byte: u8| {
            if byte != 0 {
                h.write_u64(block);
                *h = Fnv64::resume(absorb_uniform(h.finish(), byte));
            }
        };
        for (r, leaf) in self.leaves.iter().enumerate() {
            let Some(leaf) = leaf else { continue };
            for (i, &code) in leaf.iter().enumerate() {
                let block = ((r << LEAF_SHIFT) + i) as u64;
                match decode(code) {
                    Code::Hole => {}
                    Code::Fill(b) => absorb_fill(&mut h, block, b),
                    Code::Slot(s) => {
                        let data = self.arena.frame(s);
                        match uniform_fill(data) {
                            Some(b) => absorb_fill(&mut h, block, b),
                            None => {
                                h.write_u64(block);
                                h.write(data);
                            }
                        }
                    }
                }
            }
        }
        h.finish()
    }

    /// The code of `block`, which the caller has range-checked.
    fn code(&self, block: u64) -> u32 {
        self.leaves[(block >> LEAF_SHIFT) as usize]
            .as_ref()
            .map_or(HOLE, |leaf| leaf[block as usize % LEAF_BLOCKS])
    }

    /// Points `block` at `code`, releasing the slot it leaves.
    fn set(&mut self, block: u64, code: u32) {
        let leaf = &mut self.leaves[(block >> LEAF_SHIFT) as usize];
        if leaf.is_none() && code == HOLE {
            return;
        }
        let leaf = leaf.get_or_insert_with(|| Box::new([HOLE; LEAF_BLOCKS]));
        let old = std::mem::replace(&mut leaf[block as usize % LEAF_BLOCKS], code);
        if old >= SLOT && old != code {
            self.arena.free_slots.push(old - SLOT);
        }
        match (old == HOLE, code == HOLE) {
            (true, false) => self.resident += 1,
            (false, true) => self.resident -= 1,
            _ => {}
        }
    }

    /// `block`'s slot, first moving a hole or fill block into a new one
    /// filled with its byte.
    fn materialize(&mut self, block: u64) -> u32 {
        let byte = match decode(self.code(block)) {
            Code::Slot(s) => return s,
            Code::Fill(b) => b,
            Code::Hole => 0,
        };
        let s = self.arena.new_slot();
        self.arena.frame_mut(s).fill(byte);
        self.set(block, SLOT + s);
        s
    }
}

/// The store's data frames: chunks, each cut frame by frame, and the
/// slots released back to it.
#[derive(Default)]
struct Arena {
    chunks: Vec<Chunk>,
    /// Slots released by overwrites and zeroing, reused first.
    free_slots: Vec<u32>,
    /// Frames of the last chunk handed out so far.
    cut: usize,
}

impl Arena {
    /// A slot no block points at, its bytes stale: a released one, else
    /// the next frame of the last chunk, else a spare chunk's first
    /// frame, else a new chunk's.
    fn new_slot(&mut self) -> u32 {
        if let Some(s) = self.free_slots.pop() {
            return s;
        }
        if self.chunks.is_empty() || self.cut == CHUNK_FRAMES {
            let spare = SPARE_CHUNKS.lock().pop();
            self.chunks.push(spare.unwrap_or_else(Chunk::new));
            self.cut = 0;
        }
        let s = (self.chunks.len() - 1) << FRAME_SHIFT | self.cut;
        self.cut += 1;
        u32::try_from(s)
            .ok()
            .filter(|&s| s <= u32::MAX - SLOT)
            .expect("media store slots exhausted")
    }

    fn frame(&self, s: u32) -> &[u8] {
        self.chunks[(s >> FRAME_SHIFT) as usize].frame(s as usize % CHUNK_FRAMES)
    }

    fn frame_mut(&mut self, s: u32) -> &mut [u8] {
        self.chunks[(s >> FRAME_SHIFT) as usize].frame_mut(s as usize % CHUNK_FRAMES)
    }
}

impl Drop for Arena {
    fn drop(&mut self) {
        if self.chunks.is_empty() {
            return;
        }
        let mut spare = SPARE_CHUNKS.lock();
        let room = (SPARE_LIMIT / (CHUNK_FRAMES * PAGE)).saturating_sub(spare.len());
        let keep = self.chunks.len().min(room);
        spare.extend(self.chunks.drain(..keep));
    }
}

/// The blocks `[lba, lba+sectors)` touches, each with the byte range it
/// covers inside the block.
fn blocks(lba: Lba, sectors: u64) -> impl Iterator<Item = (u64, Range<usize>)> {
    let (start, end) = (lba.0, lba.0 + sectors);
    (start / SECTORS_PER_PAGE..end.div_ceil(SECTORS_PER_PAGE)).map(move |block| {
        let first = block * SECTORS_PER_PAGE;
        let lo = start.max(first) - first;
        let hi = end.min(first + SECTORS_PER_PAGE) - first;
        (
            block,
            (lo * SECTOR_SIZE) as usize..(hi * SECTOR_SIZE) as usize,
        )
    })
}

/// The byte a block repeats, if it is one byte throughout.
fn uniform_fill(data: &[u8]) -> Option<u8> {
    let first = data[0];
    data.chunks_exact(64)
        .all(|c| c.iter().fold(0, |acc, &b| acc | (b ^ first)) == 0)
        .then_some(first)
}

/// FNV absorption of uniform 4 KB blocks in O(1). Absorbing a block of
/// n = 4096 fill bytes from state `s` yields `s·P^n + c(s mod 256)` (see
/// [`Fnv64::prime_pow`]), so `c` is computed once per (fill byte, low
/// byte) and reused. Populated files and fleet writes are uniform
/// blocks, which makes hashing a whole device a multiply-add per block.
///
/// A byte step moves the state's low byte `l` to `((l ^ fill)·P) mod
/// 256`. Bit k of the result depends only on bits ≤ k of `l`, so this
/// permutation's cycles have power-of-two lengths, which divide n: a
/// block leaves the low byte where it found it. With `δ(l) = (l ^ fill)
/// − l`, `c(l) = Σ_{i<n} δ(l_i)·P^(n−i)` over the low bytes `l_i` the
/// block passes through, so the next low byte's constant is
/// `c(l') = P·(c(l) − δ(l)·(P^n − 1))`, and one block pass fills a whole
/// cycle of the table.
fn absorb_uniform(state: u64, fill: u8) -> u64 {
    const PRIME: u64 = Fnv64::prime_pow(1);
    const POW: u64 = Fnv64::prime_pow(PAGE_SIZE);
    let table = &UNIFORM_BLOCKS[usize::from(fill)];
    let low = state & 0xFF;
    // ordering: Relaxed — each entry is a pure function of its indices; a stale 0 only recomputes the same value.
    let mut c = table[low as usize].load(Ordering::Relaxed);
    if c == 0 {
        let fill = u64::from(fill);
        let delta = |l: u64| (l ^ fill).wrapping_sub(l);
        let step = |l: u64| (l ^ fill).wrapping_mul(PRIME) & 0xFF;
        let mut h = Fnv64::resume(low);
        h.write(&[fill as u8; PAGE]);
        let end = h.finish();
        debug_assert_eq!(end & 0xFF, low, "a block returns to its low byte");
        c = end.wrapping_sub(low.wrapping_mul(POW));
        let (mut l, mut cl) = (low, c);
        loop {
            // ordering: Relaxed — racing writers store the same value.
            table[l as usize].store(cl, Ordering::Relaxed);
            cl = cl
                .wrapping_sub(delta(l).wrapping_mul(POW.wrapping_sub(1)))
                .wrapping_mul(PRIME);
            l = step(l);
            if l == low {
                break;
            }
        }
    }
    state.wrapping_mul(POW).wrapping_add(c)
}

/// [`absorb_uniform`]'s `c`, by fill byte and then by the state's low
/// byte, shared by every store in the process since an entry depends on
/// nothing else. 0 marks an entry not yet computed, so a true 0 is
/// recomputed on every use. Untouched pages of this 512 KB table are
/// never made resident.
static UNIFORM_BLOCKS: [[AtomicU64; 256]; 256] =
    [const { [const { AtomicU64::new(0) }; 256] }; 256];

impl std::fmt::Debug for SectorStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SectorStore")
            .field("capacity_sectors", &self.capacity_sectors)
            .field("resident_blocks", &self.resident)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time digest the memoized one must match.
    fn naive_fingerprint(s: &SectorStore) -> u64 {
        let keys = s.leaves.iter().enumerate().flat_map(|(r, leaf)| {
            let codes = leaf.as_deref().map_or(&[][..], |l| &l[..]);
            (0..codes.len())
                .filter(move |&i| codes[i] != HOLE)
                .map(move |i| ((r << LEAF_SHIFT) + i) as u64)
        });
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

    #[test]
    fn uniform_block_table_matches_a_direct_block_hash() {
        use bypassd_sim::rng::fnv1a_64;
        let fills = [
            0x00, 0x01, 0x02, 0x0F, 0x10, 0x33, 0x42, 0x55, 0x5A, 0x7F, 0x80, 0x99, 0xA5, 0xC3,
            0xF0, 0xFE, 0xFF,
        ];
        for fill in fills {
            let block = [fill; PAGE_SIZE as usize];
            for low in 0..256u64 {
                // The high bytes must not matter; vary them per low byte.
                let state = low | fnv1a_64(low ^ u64::from(fill)) << 8;
                let mut h = Fnv64::resume(state);
                h.write(&block);
                assert_eq!(
                    absorb_uniform(state, fill),
                    h.finish(),
                    "fill {fill:#04x}, low {low:#04x}"
                );
            }
        }
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
