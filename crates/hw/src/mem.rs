//! Simulated physical memory.
//!
//! Frames are 4 KB and lazily allocated. Page tables, file-table fragments
//! and DMA buffers all live here, which makes sharing literal: two address
//! spaces pointing at the same fragment frame see the same entries.
//!
//! A frame is one of two kinds, and both read the same bytes. A data
//! frame ([`PhysMem::alloc_frame`]) holds all 4 KB. A table frame
//! ([`PhysMem::alloc_table_frame`]), meant for the upper page-table
//! levels, stores only its non-zero 8-byte entries, sorted by index; it
//! turns into a data frame when it would hold more than
//! [`TABLE_SPARSE_MAX`] of them or when it takes a byte-level write. A
//! process's private upper tables hold one or two entries each, so they
//! cost tens of bytes of host memory instead of 4 KB.

use crate::types::{PhysAddr, PAGE_SIZE};
use parking_lot::Mutex;
use std::sync::Arc;

/// Most non-zero entries a table frame stores before it becomes a 4 KB
/// data frame.
pub const TABLE_SPARSE_MAX: usize = 32;

const PAGE: usize = PAGE_SIZE as usize;

/// One 4 KB physical frame.
enum Frame {
    /// All 4 KB of bytes.
    Dense(Box<[u8]>),
    /// A table frame's non-zero little-endian `u64` entries as
    /// `(index, value)`, sorted by index; every other byte is zero.
    Sparse(Vec<(u16, u64)>),
}

fn zeroed_page() -> Box<[u8]> {
    vec![0u8; PAGE].into_boxed_slice()
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
    /// The frame's bytes, turning a sparse frame dense first.
    fn dense_mut(&mut self) -> &mut [u8] {
        if let Frame::Sparse(entries) = self {
            let mut bytes = zeroed_page();
            sparse_bytes(entries, 0, &mut bytes);
            *self = Frame::Dense(bytes);
        }
        match self {
            Frame::Dense(bytes) => bytes,
            Frame::Sparse(_) => unreachable!("made dense above"),
        }
    }

    /// The little-endian `u64` at byte `off`.
    fn load_word(&self, off: usize) -> u64 {
        match self {
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

    /// Stores the little-endian `u64` `value` at byte `off`. A sparse
    /// frame takes an aligned store as an entry, dropping one set to
    /// zero; an unaligned store, or one more entry than
    /// [`TABLE_SPARSE_MAX`], turns it dense.
    fn store_word(&mut self, off: usize, value: u64) {
        if let (Frame::Sparse(entries), true) = (&mut *self, off.is_multiple_of(8)) {
            let index = (off / 8) as u16;
            match entries.binary_search_by_key(&index, |&(i, _)| i) {
                Ok(pos) if value == 0 => {
                    entries.remove(pos);
                    return;
                }
                Ok(pos) => {
                    entries[pos].1 = value;
                    return;
                }
                Err(_) if value == 0 => return,
                Err(pos) if entries.len() < TABLE_SPARSE_MAX => {
                    // Exact growth: a table holds a handful of entries.
                    entries.reserve_exact(1);
                    entries.insert(pos, (index, value));
                    return;
                }
                Err(_) => {}
            }
        }
        self.dense_mut()[off..off + 8].copy_from_slice(&value.to_le_bytes());
    }
}

#[derive(Default)]
struct MemInner {
    frames: Vec<Option<Frame>>,
    free: Vec<u64>,
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

    /// Mutable [`MemInner::frame`].
    fn frame_mut(&mut self, addr: PhysAddr, len: usize) -> (&mut Frame, usize) {
        let off = addr.frame_offset() as usize;
        assert!(off + len <= PAGE, "write crosses frame boundary");
        let frame = self.frames[addr.frame() as usize]
            .as_mut()
            .unwrap_or_else(|| panic!("write to unallocated frame {}", addr.frame()));
        (frame, off)
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

    /// Allocates a zeroed data frame and returns its frame number.
    pub fn alloc_frame(&self) -> u64 {
        self.inner.lock().place(Frame::Dense(zeroed_page()))
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

    /// Frees a frame.
    ///
    /// # Panics
    /// Panics if the frame is not currently allocated.
    pub fn free_frame(&self, frame: u64) {
        let mut inner = self.inner.lock();
        let slot = inner
            .frames
            .get_mut(frame as usize)
            .unwrap_or_else(|| panic!("free of unknown frame {frame}"));
        assert!(slot.is_some(), "double free of frame {frame}");
        *slot = None;
        inner.free.push(frame);
        inner.allocated -= 1;
    }

    /// Number of currently allocated frames.
    pub fn allocated_frames(&self) -> u64 {
        self.inner.lock().allocated
    }

    /// The number of entries a table frame stores while it is sparse;
    /// `None` once it is dense, and for a data frame.
    ///
    /// # Panics
    /// Panics if the frame is unallocated.
    pub fn sparse_entries(&self, frame: u64) -> Option<usize> {
        match self.inner.lock().frame(PhysAddr::from_frame(frame, 0), 0) {
            (Frame::Sparse(entries), _) => Some(entries.len()),
            (Frame::Dense(_), _) => None,
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
        let inner = self.inner.lock();
        match inner.frame(addr, len) {
            (Frame::Dense(bytes), off) => f(&bytes[off..off + len]),
            (Frame::Sparse(entries), off) => {
                let mut copy = [0u8; PAGE];
                sparse_bytes(entries, off, &mut copy[..len]);
                f(&copy[..len])
            }
        }
    }

    /// Lends `f` the `len` bytes at `addr` (within one frame) to fill,
    /// under the memory lock: a device can read its media straight into
    /// a DMA frame with no staging copy. A sparse table frame becomes
    /// dense first. `f` must not touch this memory itself.
    ///
    /// # Panics
    /// Panics if the frame is unallocated or the range crosses the frame
    /// boundary.
    pub fn write_with<R>(&self, addr: PhysAddr, len: usize, f: impl FnOnce(&mut [u8]) -> R) -> R {
        let mut inner = self.inner.lock();
        let (frame, off) = inner.frame_mut(addr, len);
        f(&mut frame.dense_mut()[off..off + len])
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
        let (frame, off) = inner.frame_mut(addr, 8);
        frame.store_word(off, value);
    }

    /// Zeroes a whole frame; a table frame stays sparse, with no entries.
    ///
    /// # Panics
    /// Panics if the frame is unallocated.
    pub fn zero_frame(&self, frame: u64) {
        let mut inner = self.inner.lock();
        match inner.frame_mut(PhysAddr::from_frame(frame, 0), PAGE) {
            (Frame::Dense(bytes), _) => bytes.fill(0),
            (Frame::Sparse(entries), _) => entries.clear(),
        }
    }
}

impl std::fmt::Debug for PhysMem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("PhysMem")
            .field("allocated", &inner.allocated)
            .field("capacity", &inner.frames.len())
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
        mem.zero_frame(t);
        assert_eq!(mem.sparse_entries(t), Some(0));
        mem.write_u64(PhysAddr::from_frame(t, 8), 3);
        mem.free_frame(t);
        let f = mem.alloc_frame();
        assert_eq!(f, t, "free list should recycle");
        assert_eq!(mem.sparse_entries(f), None);
        assert_eq!(mem.read_u64(PhysAddr::from_frame(f, 8)), 0);
    }

    #[test]
    fn zero_frame_clears() {
        let mem = PhysMem::new();
        let f = mem.alloc_frame();
        mem.write(PhysAddr::from_frame(f, 100), &[1; 100]);
        mem.zero_frame(f);
        let mut buf = [1u8; 100];
        mem.read(PhysAddr::from_frame(f, 100), &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
    }
}
