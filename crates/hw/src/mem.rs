//! Simulated physical memory.
//!
//! Frames are 4 KB and lazily allocated. Page tables, file-table fragments
//! and DMA buffers all live here, which makes sharing literal: two address
//! spaces pointing at the same fragment frame see the same entries.
//!
//! A frame is one of two kinds, and both read the same bytes. A data
//! frame ([`PhysMem::alloc_frame`]) holds a 4 KB host page only from its
//! first write until it is released ([`PhysMem::release`]) or freed;
//! before that it reads as zeros. A released page goes on a spare list
//! of at most [`SPARE_PAGES`] pages that the next write takes from first,
//! so a pinned DMA buffer costs host memory only while an I/O uses it.
//! A table frame ([`PhysMem::alloc_table_frame`]), meant for the upper
//! page-table levels, stores only its non-zero 8-byte entries, sorted by
//! index; it turns into a data frame when it would hold more than
//! [`TABLE_SPARSE_MAX`] of them or when it takes a byte-level write. A
//! process's private upper tables hold one or two entries each, so they
//! cost tens of bytes of host memory instead of 4 KB.

use crate::types::{PhysAddr, PAGE_SIZE};
use parking_lot::Mutex;
use std::sync::Arc;

/// Most non-zero entries a table frame stores before it becomes a 4 KB
/// data frame.
pub const TABLE_SPARSE_MAX: usize = 32;

/// Most released pages a [`PhysMem`] keeps for its next writes; a page
/// released past this bound goes back to the host allocator.
pub const SPARE_PAGES: usize = 256;

const PAGE: usize = PAGE_SIZE as usize;

/// What an unbacked frame reads as.
static ZEROS: [u8; PAGE] = [0; PAGE];

/// The byte a debug build fills a recycled page with before lending it
/// to a whole-frame write, so a writer that leaves lent bytes unwritten
/// reads this instead of plausible stale data.
const POISON: u8 = 0x6B;

/// One 4 KB physical frame.
enum Frame {
    /// A data frame with no host page: all zeros.
    Unbacked,
    /// All 4 KB of bytes.
    Dense(Box<[u8]>),
    /// A table frame's non-zero little-endian `u64` entries as
    /// `(index, value)`, sorted by index; every other byte is zero.
    Sparse(Vec<(u16, u64)>),
}

/// Copies the bytes of the sparse frame `entries` starting at byte `off`
/// into `out`, as a dense frame would hold them.
fn sparse_bytes(entries: &[(u16, u64)], off: usize, out: &mut [u8]) {
    out.fill(0);
    let end = off + out.len();
    let first = entries.partition_point(|&(i, _)| 8 * usize::from(i) + 8 <= off);
    for &(i, value) in &entries[first..] {
        let at = 8 * usize::from(i);
        if at >= end {
            break;
        }
        let (lo, hi) = (at.max(off), (at + 8).min(end));
        out[lo - off..hi - off].copy_from_slice(&value.to_le_bytes()[lo - at..hi - at]);
    }
}

impl Frame {
    /// The little-endian `u64` at byte `off`.
    fn load_word(&self, off: usize) -> u64 {
        match self {
            Frame::Unbacked => 0,
            Frame::Dense(bytes) => {
                u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8 bytes"))
            }
            Frame::Sparse(entries) if off.is_multiple_of(8) => {
                let index = (off / 8) as u16;
                entries
                    .binary_search_by_key(&index, |&(i, _)| i)
                    .map_or(0, |pos| entries[pos].1)
            }
            Frame::Sparse(entries) => {
                let mut word = [0u8; 8];
                sparse_bytes(entries, off, &mut word);
                u64::from_le_bytes(word)
            }
        }
    }

    /// Stores the little-endian `u64` `value` at byte `off` as an entry
    /// of a sparse frame, dropping one set to zero. Returns false, storing
    /// nothing, if the frame is not sparse, or if the store is unaligned
    /// or one entry more than [`TABLE_SPARSE_MAX`]: the caller then
    /// stores the bytes into the frame made dense.
    fn store_entry(&mut self, off: usize, value: u64) -> bool {
        let (Frame::Sparse(entries), true) = (self, off.is_multiple_of(8)) else {
            return false;
        };
        let index = (off / 8) as u16;
        match entries.binary_search_by_key(&index, |&(i, _)| i) {
            Ok(pos) if value == 0 => {
                entries.remove(pos);
            }
            Ok(pos) => entries[pos].1 = value,
            Err(_) if value == 0 => {}
            Err(pos) if entries.len() < TABLE_SPARSE_MAX => {
                // Exact growth: a table holds a handful of entries.
                entries.reserve_exact(1);
                entries.insert(pos, (index, value));
            }
            Err(_) => return false,
        }
        true
    }
}

/// A host page for a frame's first write, from `spare` if it has one. A
/// write covering the whole frame (`whole`) gets the page as it is,
/// poisoned in debug builds; any other write gets it zeroed.
fn take_page(spare: &mut Vec<Box<[u8]>>, whole: bool) -> Box<[u8]> {
    match spare.pop() {
        Some(mut page) => {
            if !whole {
                page.fill(0);
            } else if cfg!(debug_assertions) {
                page.fill(POISON);
            }
            page
        }
        None => vec![0u8; PAGE].into_boxed_slice(),
    }
}

#[derive(Default)]
struct MemInner {
    frames: Vec<Option<Frame>>,
    free: Vec<u64>,
    /// Pages of released and freed data frames, at most [`SPARE_PAGES`].
    spare: Vec<Box<[u8]>>,
    allocated: u64,
}

impl MemInner {
    /// Puts `frame` in a free slot (or a new one) and returns its number.
    fn place(&mut self, frame: Frame) -> u64 {
        self.allocated += 1;
        if let Some(f) = self.free.pop() {
            self.frames[f as usize] = Some(frame);
            f
        } else {
            self.frames.push(Some(frame));
            self.frames.len() as u64 - 1
        }
    }

    /// Keeps a retired frame's page, if it has one, for the next write.
    fn retire(&mut self, frame: Frame) {
        if let Frame::Dense(page) = frame {
            if self.spare.len() < SPARE_PAGES {
                self.spare.push(page);
            }
        }
    }

    /// The allocated frame numbered `frame`.
    fn slot(&mut self, frame: u64) -> &mut Frame {
        self.frames
            .get_mut(frame as usize)
            .and_then(Option::as_mut)
            .unwrap_or_else(|| panic!("access to unallocated frame {frame}"))
    }

    /// Makes `frame` read as zeros: a data frame's page goes to the
    /// spare list, a table frame drops its entries.
    fn unback(&mut self, frame: u64) {
        match self.slot(frame) {
            Frame::Sparse(entries) => entries.clear(),
            slot => {
                let old = std::mem::replace(slot, Frame::Unbacked);
                self.retire(old);
            }
        }
    }

    /// The frame holding the `len` bytes at `addr`, which must lie in one
    /// allocated frame, and `addr`'s offset in it.
    fn frame(&self, addr: PhysAddr, len: usize) -> (&Frame, usize) {
        let off = addr.frame_offset() as usize;
        assert!(off + len <= PAGE, "read crosses frame boundary");
        let frame = self.frames[addr.frame() as usize]
            .as_ref()
            .unwrap_or_else(|| panic!("read from unallocated frame {}", addr.frame()));
        (frame, off)
    }

    /// The `len` bytes at `addr` (within one allocated frame) to write,
    /// giving the frame a page first: an unbacked frame takes one as
    /// [`take_page`] does, and a sparse frame turns dense.
    fn bytes_mut(&mut self, addr: PhysAddr, len: usize) -> &mut [u8] {
        let off = addr.frame_offset() as usize;
        assert!(off + len <= PAGE, "write crosses frame boundary");
        let MemInner { frames, spare, .. } = self;
        let frame = frames[addr.frame() as usize]
            .as_mut()
            .unwrap_or_else(|| panic!("write to unallocated frame {}", addr.frame()));
        match frame {
            Frame::Dense(_) => {}
            Frame::Unbacked => *frame = Frame::Dense(take_page(spare, len == PAGE)),
            Frame::Sparse(entries) => {
                let mut page = take_page(spare, false);
                sparse_bytes(entries, 0, &mut page);
                *frame = Frame::Dense(page);
            }
        }
        match frame {
            Frame::Dense(bytes) => &mut bytes[off..off + len],
            _ => unreachable!("backed above"),
        }
    }
}

/// Simulated physical memory with a frame allocator.
///
/// Cloning shares the underlying memory (it is an `Arc` handle), which is
/// how the kernel, the IOMMU and the device all see the same bytes.
///
/// ```rust
/// use bypassd_hw::mem::PhysMem;
/// use bypassd_hw::types::PhysAddr;
/// let mem = PhysMem::new();
/// let f = mem.alloc_frame();
/// mem.write(PhysAddr::from_frame(f, 8), &[1, 2, 3]);
/// let mut buf = [0u8; 3];
/// mem.read(PhysAddr::from_frame(f, 8), &mut buf);
/// assert_eq!(buf, [1, 2, 3]);
/// ```
#[derive(Clone, Default)]
pub struct PhysMem {
    inner: Arc<Mutex<MemInner>>,
}

impl PhysMem {
    /// Creates an empty physical memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a zeroed data frame and returns its frame number. It
    /// holds no host page until its first write.
    pub fn alloc_frame(&self) -> u64 {
        self.inner.lock().place(Frame::Unbacked)
    }

    /// Allocates a zeroed table frame and returns its frame number. It
    /// reads and writes as a data frame does, but holds host memory only
    /// for its non-zero entries until it has more than
    /// [`TABLE_SPARSE_MAX`] of them or takes a byte-level write.
    ///
    /// ```rust
    /// use bypassd_hw::mem::PhysMem;
    /// use bypassd_hw::types::PhysAddr;
    /// let mem = PhysMem::new();
    /// let t = mem.alloc_table_frame();
    /// mem.write_u64(PhysAddr::from_frame(t, 8 * 7), 0xABCD);
    /// assert_eq!(mem.read_u64(PhysAddr::from_frame(t, 8 * 7)), 0xABCD);
    /// assert_eq!(mem.sparse_entries(t), Some(1));
    /// ```
    pub fn alloc_table_frame(&self) -> u64 {
        self.inner.lock().place(Frame::Sparse(Vec::new()))
    }

    /// Frees a frame; its page, if it has one, goes to the spare list.
    ///
    /// # Panics
    /// Panics if the frame is not currently allocated.
    pub fn free_frame(&self, frame: u64) {
        let mut inner = self.inner.lock();
        let slot = inner
            .frames
            .get_mut(frame as usize)
            .unwrap_or_else(|| panic!("free of unknown frame {frame}"));
        let old = slot
            .take()
            .unwrap_or_else(|| panic!("double free of frame {frame}"));
        inner.retire(old);
        inner.free.push(frame);
        inner.allocated -= 1;
    }

    /// Releases `frames`, all under one memory-lock acquisition: each
    /// stays allocated under its number and reads as zeros, a data frame
    /// handing its page to the spare list and a table frame dropping its
    /// entries. The next write backs a data frame again.
    ///
    /// ```rust
    /// use bypassd_hw::mem::PhysMem;
    /// use bypassd_hw::types::PhysAddr;
    /// let mem = PhysMem::new();
    /// let f = mem.alloc_frame();
    /// mem.write(PhysAddr::from_frame(f, 0), &[9; 16]);
    /// assert!(mem.holds_page(f));
    /// mem.release(&[f]);
    /// assert!(!mem.holds_page(f));
    /// assert_eq!(mem.read_u64(PhysAddr::from_frame(f, 0)), 0);
    /// ```
    ///
    /// # Panics
    /// Panics if a frame is unallocated.
    pub fn release(&self, frames: &[u64]) {
        let mut inner = self.inner.lock();
        for &f in frames {
            inner.unback(f);
        }
    }

    /// Number of currently allocated frames.
    pub fn allocated_frames(&self) -> u64 {
        self.inner.lock().allocated
    }

    /// Whether the frame holds a 4 KB host page: a data frame from its
    /// first write until it is released, and a table frame once dense.
    ///
    /// # Panics
    /// Panics if the frame is unallocated.
    pub fn holds_page(&self, frame: u64) -> bool {
        matches!(self.inner.lock().slot(frame), Frame::Dense(_))
    }

    /// The number of entries a table frame stores while it is sparse;
    /// `None` once it is dense, and for a data frame.
    ///
    /// # Panics
    /// Panics if the frame is unallocated.
    pub fn sparse_entries(&self, frame: u64) -> Option<usize> {
        match self.inner.lock().slot(frame) {
            Frame::Sparse(entries) => Some(entries.len()),
            Frame::Dense(_) | Frame::Unbacked => None,
        }
    }

    /// Reads bytes starting at `addr` (must stay within one frame).
    ///
    /// # Panics
    /// Panics if the frame is unallocated or the range crosses the frame
    /// boundary.
    pub fn read(&self, addr: PhysAddr, buf: &mut [u8]) {
        self.read_with(addr, buf.len(), |src| buf.copy_from_slice(src));
    }

    /// Writes bytes starting at `addr` (must stay within one frame).
    ///
    /// # Panics
    /// Panics if the frame is unallocated or the range crosses the frame
    /// boundary.
    pub fn write(&self, addr: PhysAddr, data: &[u8]) {
        self.write_with(addr, data.len(), |dst| dst.copy_from_slice(data));
    }

    /// Lends `f` the `len` bytes at `addr` (within one frame) for
    /// reading, under the memory lock: a device can move them straight
    /// into its media with no staging copy. A sparse table frame lends a
    /// copy of the bytes it stands for. `f` must not touch this memory
    /// itself.
    ///
    /// # Panics
    /// Panics if the frame is unallocated or the range crosses the frame
    /// boundary.
    pub fn read_with<R>(&self, addr: PhysAddr, len: usize, f: impl FnOnce(&[u8]) -> R) -> R {
        self.lend_bytes(addr, len, false, f)
    }

    /// [`read_with`](Self::read_with), then [`release`](Self::release) of
    /// the frame, under one memory-lock acquisition: the consuming
    /// copy-out of a DMA buffer that is done with the frame's bytes.
    ///
    /// # Panics
    /// Panics if the frame is unallocated or the range crosses the frame
    /// boundary.
    pub fn consume_with<R>(&self, addr: PhysAddr, len: usize, f: impl FnOnce(&[u8]) -> R) -> R {
        self.lend_bytes(addr, len, true, f)
    }

    fn lend_bytes<R>(
        &self,
        addr: PhysAddr,
        len: usize,
        release: bool,
        f: impl FnOnce(&[u8]) -> R,
    ) -> R {
        let mut inner = self.inner.lock();
        let r = match inner.frame(addr, len) {
            (Frame::Unbacked, off) => f(&ZEROS[off..off + len]),
            (Frame::Dense(bytes), off) => f(&bytes[off..off + len]),
            (Frame::Sparse(entries), off) => {
                let mut copy = [0u8; PAGE];
                sparse_bytes(entries, off, &mut copy[..len]);
                f(&copy[..len])
            }
        };
        if release {
            inner.unback(addr.frame());
        }
        r
    }

    /// Lends `f` the `len` bytes at `addr` (within one frame) to fill,
    /// under the memory lock: a device can read its media straight into
    /// a DMA frame with no staging copy. `f` must not touch this memory
    /// itself.
    ///
    /// Lending rule: `f` must write every byte it is lent. A frame with
    /// no page takes one first; for a write of the whole frame that page
    /// is a recycled one whose old bytes are lent as they are (poisoned
    /// in debug builds), while a partial write's page is zeroed. A sparse
    /// table frame becomes dense, keeping its bytes.
    ///
    /// # Panics
    /// Panics if the frame is unallocated or the range crosses the frame
    /// boundary.
    pub fn write_with<R>(&self, addr: PhysAddr, len: usize, f: impl FnOnce(&mut [u8]) -> R) -> R {
        f(self.inner.lock().bytes_mut(addr, len))
    }

    /// Reads one little-endian u64 (for page table entries).
    pub fn read_u64(&self, addr: PhysAddr) -> u64 {
        self.with_u64_reader(|read| read(addr))
    }

    /// Runs `f` with a reader of little-endian u64s, all under one
    /// memory-lock acquisition: a page walk's four dependent entry reads
    /// pay for one lock, not four. `f` must not touch this memory
    /// through another handle.
    ///
    /// # Panics
    /// The reader panics on an unallocated frame or a read crossing the
    /// frame boundary.
    pub fn with_u64_reader<R>(&self, f: impl FnOnce(&dyn Fn(PhysAddr) -> u64) -> R) -> R {
        let inner = self.inner.lock();
        f(&|addr| {
            let (frame, off) = inner.frame(addr, 8);
            frame.load_word(off)
        })
    }

    /// Writes one little-endian u64 (for page table entries). An aligned
    /// write keeps a table frame sparse (a zero removes the entry); an
    /// unaligned one makes it dense.
    ///
    /// # Panics
    /// Panics if the frame is unallocated or the word crosses the frame
    /// boundary.
    pub fn write_u64(&self, addr: PhysAddr, value: u64) {
        let mut inner = self.inner.lock();
        let off = addr.frame_offset() as usize;
        assert!(off + 8 <= PAGE, "write crosses frame boundary");
        if !inner.slot(addr.frame()).store_entry(off, value) {
            inner
                .bytes_mut(addr, 8)
                .copy_from_slice(&value.to_le_bytes());
        }
    }
}

impl std::fmt::Debug for PhysMem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("PhysMem")
            .field("allocated", &inner.allocated)
            .field("capacity", &inner.frames.len())
            .field("spare", &inner.spare.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_returns_zeroed_frames() {
        let mem = PhysMem::new();
        let f = mem.alloc_frame();
        let mut buf = [0xFFu8; 64];
        mem.read(PhysAddr::from_frame(f, 0), &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mem = PhysMem::new();
        let f = mem.alloc_frame();
        let data: Vec<u8> = (0..=255).collect();
        mem.write(PhysAddr::from_frame(f, 256), &data);
        let mut buf = vec![0u8; 256];
        mem.read(PhysAddr::from_frame(f, 256), &mut buf);
        assert_eq!(buf, data);
    }

    #[test]
    fn u64_roundtrip() {
        let mem = PhysMem::new();
        let f = mem.alloc_frame();
        let addr = PhysAddr::from_frame(f, 8 * 13);
        mem.write_u64(addr, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(mem.read_u64(addr), 0xDEAD_BEEF_CAFE_F00D);
    }

    #[test]
    fn free_then_realloc_is_zeroed() {
        let mem = PhysMem::new();
        let f = mem.alloc_frame();
        mem.write(PhysAddr::from_frame(f, 0), &[0xAA; 16]);
        mem.free_frame(f);
        let f2 = mem.alloc_frame();
        assert_eq!(f, f2, "free list should recycle");
        let mut buf = [0xFFu8; 16];
        mem.read(PhysAddr::from_frame(f2, 0), &mut buf);
        assert!(buf.iter().all(|&b| b == 0), "recycled frame not zeroed");
    }

    #[test]
    fn allocated_count_tracks() {
        let mem = PhysMem::new();
        assert_eq!(mem.allocated_frames(), 0);
        let a = mem.alloc_frame();
        let _b = mem.alloc_frame();
        assert_eq!(mem.allocated_frames(), 2);
        mem.free_frame(a);
        assert_eq!(mem.allocated_frames(), 1);
    }

    #[test]
    fn clones_share_memory() {
        let mem = PhysMem::new();
        let f = mem.alloc_frame();
        let view = mem.clone();
        mem.write(PhysAddr::from_frame(f, 0), &[7]);
        let mut buf = [0u8];
        view.read(PhysAddr::from_frame(f, 0), &mut buf);
        assert_eq!(buf[0], 7);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mem = PhysMem::new();
        let f = mem.alloc_frame();
        mem.free_frame(f);
        mem.free_frame(f);
    }

    #[test]
    #[should_panic(expected = "crosses frame boundary")]
    fn cross_frame_read_panics() {
        let mem = PhysMem::new();
        let f = mem.alloc_frame();
        let mut buf = [0u8; 16];
        mem.read(PhysAddr::from_frame(f, PAGE_SIZE - 8), &mut buf);
    }

    #[test]
    fn lent_bytes_are_the_frame_bytes() {
        let mem = PhysMem::new();
        let f = mem.alloc_frame();
        let addr = PhysAddr::from_frame(f, 1000);
        mem.write_with(addr, 3, |dst| dst.copy_from_slice(&[4, 5, 6]));
        let sum = mem.read_with(addr, 3, |src| {
            src.iter().map(|&b| u32::from(b)).sum::<u32>()
        });
        assert_eq!(sum, 15);
        let mut buf = [0u8; 3];
        mem.read(addr, &mut buf);
        assert_eq!(buf, [4, 5, 6]);
    }

    #[test]
    #[should_panic(expected = "crosses frame boundary")]
    fn cross_frame_lend_panics() {
        let mem = PhysMem::new();
        let f = mem.alloc_frame();
        mem.write_with(PhysAddr::from_frame(f, PAGE_SIZE - 8), 16, |_| ());
    }

    #[test]
    fn table_frame_stores_only_non_zero_entries() {
        let mem = PhysMem::new();
        let t = mem.alloc_table_frame();
        assert_eq!(mem.sparse_entries(t), Some(0));
        mem.write_u64(PhysAddr::from_frame(t, 8 * 300), 7);
        mem.write_u64(PhysAddr::from_frame(t, 8 * 2), 9);
        mem.write_u64(PhysAddr::from_frame(t, 8 * 5), 0);
        assert_eq!(mem.sparse_entries(t), Some(2));
        assert_eq!(mem.read_u64(PhysAddr::from_frame(t, 8 * 300)), 7);
        assert_eq!(mem.read_u64(PhysAddr::from_frame(t, 8 * 5)), 0);
        mem.write_u64(PhysAddr::from_frame(t, 8 * 300), 0);
        assert_eq!(mem.sparse_entries(t), Some(1));
        assert_eq!(mem.read_u64(PhysAddr::from_frame(t, 8 * 300)), 0);
        // An unaligned read sees the bytes a dense frame would.
        let mut buf = [0xFFu8; 12];
        mem.read(PhysAddr::from_frame(t, 12), &mut buf);
        assert_eq!(buf, [0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(mem.read_u64(PhysAddr::from_frame(t, 15)), 9 << 8);
    }

    #[test]
    fn table_frame_turns_dense_past_the_threshold_keeping_entries() {
        let mem = PhysMem::new();
        let t = mem.alloc_table_frame();
        let entry = |i: u64| PhysAddr::from_frame(t, 8 * i);
        for i in 0..TABLE_SPARSE_MAX as u64 {
            mem.write_u64(entry(2 * i), i + 1);
        }
        assert_eq!(mem.sparse_entries(t), Some(TABLE_SPARSE_MAX));
        mem.write_u64(entry(1), 0xAB);
        assert_eq!(mem.sparse_entries(t), None);
        for i in 0..TABLE_SPARSE_MAX as u64 {
            assert_eq!(mem.read_u64(entry(2 * i)), i + 1);
        }
        assert_eq!(mem.read_u64(entry(1)), 0xAB);
    }

    #[test]
    fn byte_writes_make_a_table_frame_dense() {
        let mem = PhysMem::new();
        let t = mem.alloc_table_frame();
        mem.write_u64(PhysAddr::from_frame(t, 64), 0x1122);
        mem.write(PhysAddr::from_frame(t, 3), &[5]);
        assert_eq!(mem.sparse_entries(t), None);
        assert_eq!(mem.read_u64(PhysAddr::from_frame(t, 64)), 0x1122);
        assert_eq!(mem.read_u64(PhysAddr::from_frame(t, 0)), 5 << 24);
        let u = mem.alloc_table_frame();
        mem.write_u64(PhysAddr::from_frame(u, 4), u64::MAX);
        assert_eq!(mem.sparse_entries(u), None);
        assert_eq!(
            mem.read_u64(PhysAddr::from_frame(u, 0)),
            0xFFFF_FFFF_0000_0000
        );
    }

    #[test]
    fn freed_table_slot_reallocates_as_a_zeroed_data_frame() {
        let mem = PhysMem::new();
        let t = mem.alloc_table_frame();
        mem.write_u64(PhysAddr::from_frame(t, 8), 3);
        mem.release(&[t]);
        assert_eq!(mem.sparse_entries(t), Some(0));
        mem.write_u64(PhysAddr::from_frame(t, 8), 3);
        mem.free_frame(t);
        let f = mem.alloc_frame();
        assert_eq!(f, t, "free list should recycle");
        assert_eq!(mem.sparse_entries(f), None);
        assert_eq!(mem.read_u64(PhysAddr::from_frame(f, 8)), 0);
    }

    #[test]
    fn a_data_frame_holds_a_page_from_its_first_write_until_released() {
        let mem = PhysMem::new();
        let f = mem.alloc_frame();
        assert!(!mem.holds_page(f));
        mem.write(PhysAddr::from_frame(f, 100), &[1; 100]);
        assert!(mem.holds_page(f));
        mem.release(&[f]);
        assert!(!mem.holds_page(f));
        let mut buf = [1u8; 100];
        mem.read(PhysAddr::from_frame(f, 100), &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!(mem.inner.lock().spare.len(), 1);
    }

    #[test]
    fn a_partial_write_after_release_reads_zeros_around_it() {
        let mem = PhysMem::new();
        let f = mem.alloc_frame();
        mem.write(PhysAddr::from_frame(f, 0), &[0xEE; PAGE]);
        let page = mem.consume_with(PhysAddr::from_frame(f, 0), PAGE, <[u8]>::to_vec);
        assert!(page.iter().all(|&b| b == 0xEE));
        assert!(!mem.holds_page(f), "a consuming read releases the frame");
        mem.write(PhysAddr::from_frame(f, 10), &[7; 4]);
        let mut buf = [0xFFu8; PAGE];
        mem.read(PhysAddr::from_frame(f, 0), &mut buf);
        assert!(buf[..10].iter().chain(&buf[14..]).all(|&b| b == 0));
        assert_eq!(buf[10..14], [7; 4]);
    }

    #[test]
    fn a_whole_frame_write_is_lent_a_recycled_page_unzeroed() {
        let mem = PhysMem::new();
        let f = mem.alloc_frame();
        mem.write(PhysAddr::from_frame(f, 0), &[0xEE; PAGE]);
        mem.release(&[f]);
        let stale = mem.write_with(PhysAddr::from_frame(f, 0), PAGE, |dst| {
            let seen = dst[0];
            dst.fill(3);
            seen
        });
        let want = if cfg!(debug_assertions) { POISON } else { 0xEE };
        assert_eq!(stale, want);
        assert_eq!(
            mem.read_u64(PhysAddr::from_frame(f, 8)),
            0x0303_0303_0303_0303
        );
    }

    #[test]
    fn the_spare_list_is_bounded() {
        let mem = PhysMem::new();
        let frames: Vec<u64> = (0..SPARE_PAGES + 8).map(|_| mem.alloc_frame()).collect();
        for &f in &frames {
            mem.write(PhysAddr::from_frame(f, 0), &[1]);
        }
        mem.release(&frames);
        assert_eq!(mem.inner.lock().spare.len(), SPARE_PAGES);
        for &f in &frames[..4] {
            mem.write(PhysAddr::from_frame(f, 0), &[1]);
        }
        assert_eq!(mem.inner.lock().spare.len(), SPARE_PAGES - 4);
    }
}
