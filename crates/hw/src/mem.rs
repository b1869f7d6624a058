//! Simulated physical memory.
//!
//! Frames are 4 KB and lazily allocated. Page tables, file-table fragments
//! and DMA buffers all live here, which makes sharing literal: two address
//! spaces pointing at the same fragment frame see the same entries.

use crate::types::{PhysAddr, PAGE_SIZE};
use parking_lot::Mutex;
use std::sync::Arc;

/// One 4 KB physical frame.
type Frame = Box<[u8]>;

fn new_frame() -> Frame {
    vec![0u8; PAGE_SIZE as usize].into_boxed_slice()
}

#[derive(Default)]
struct MemInner {
    frames: Vec<Option<Frame>>,
    free: Vec<u64>,
    allocated: u64,
}

impl MemInner {
    /// The `len` bytes at `addr`; they must lie in one allocated frame.
    fn bytes(&self, addr: PhysAddr, len: usize) -> &[u8] {
        let off = addr.frame_offset() as usize;
        assert!(
            off + len <= PAGE_SIZE as usize,
            "read crosses frame boundary"
        );
        let frame = self.frames[addr.frame() as usize]
            .as_ref()
            .unwrap_or_else(|| panic!("read from unallocated frame {}", addr.frame()));
        &frame[off..off + len]
    }

    /// Mutable [`MemInner::bytes`].
    fn bytes_mut(&mut self, addr: PhysAddr, len: usize) -> &mut [u8] {
        let off = addr.frame_offset() as usize;
        assert!(
            off + len <= PAGE_SIZE as usize,
            "write crosses frame boundary"
        );
        let frame = self.frames[addr.frame() as usize]
            .as_mut()
            .unwrap_or_else(|| panic!("write to unallocated frame {}", addr.frame()));
        &mut frame[off..off + len]
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

    /// Allocates a zeroed frame and returns its frame number.
    pub fn alloc_frame(&self) -> u64 {
        let mut inner = self.inner.lock();
        inner.allocated += 1;
        if let Some(f) = inner.free.pop() {
            inner.frames[f as usize] = Some(new_frame());
            f
        } else {
            inner.frames.push(Some(new_frame()));
            inner.frames.len() as u64 - 1
        }
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
    /// into its media with no staging copy. `f` must not touch this
    /// memory itself.
    ///
    /// # Panics
    /// Panics if the frame is unallocated or the range crosses the frame
    /// boundary.
    pub fn read_with<R>(&self, addr: PhysAddr, len: usize, f: impl FnOnce(&[u8]) -> R) -> R {
        f(self.inner.lock().bytes(addr, len))
    }

    /// Lends `f` the `len` bytes at `addr` (within one frame) to fill,
    /// under the memory lock: a device can read its media straight into
    /// a DMA frame with no staging copy. `f` must not touch this memory
    /// itself.
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
        f(&|addr| u64::from_le_bytes(inner.bytes(addr, 8).try_into().expect("8 bytes")))
    }

    /// Writes one little-endian u64 (for page table entries).
    pub fn write_u64(&self, addr: PhysAddr, value: u64) {
        self.write(addr, &value.to_le_bytes());
    }

    /// Zeroes a whole frame.
    pub fn zero_frame(&self, frame: u64) {
        self.write(PhysAddr::from_frame(frame, 0), &[0u8; PAGE_SIZE as usize]);
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
