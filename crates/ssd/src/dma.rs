//! Pinned DMA buffers.
//!
//! UserLib (like SPDK) allocates pinned pages at initialisation and copies
//! between user buffers and these DMA buffers (§4.2 — BypassD deliberately
//! does not do zero-copy I/O). The buffer is a run of physical frames in
//! simulated memory, so the device and the host genuinely exchange bytes.

use bypassd_hw::mem::PhysMem;
use bypassd_hw::types::{PhysAddr, PAGE_SIZE};

/// A pinned, physically-backed DMA buffer.
///
/// ```rust
/// use bypassd_hw::PhysMem;
/// use bypassd_ssd::DmaBuffer;
/// let mem = PhysMem::new();
/// let buf = DmaBuffer::alloc(&mem, 8192);
/// buf.write(0, b"hello");
/// let mut out = [0u8; 5];
/// buf.read(0, &mut out);
/// assert_eq!(&out, b"hello");
/// ```
#[derive(Debug)]
pub struct DmaBuffer {
    mem: PhysMem,
    frames: Vec<u64>,
    len: usize,
}

impl DmaBuffer {
    /// Allocates a pinned buffer of at least `len` bytes (rounded up to
    /// whole pages).
    ///
    /// # Panics
    /// Panics if `len` is zero.
    pub fn alloc(mem: &PhysMem, len: usize) -> Self {
        assert!(len > 0, "empty DMA buffer");
        let pages = (len as u64).div_ceil(PAGE_SIZE);
        let frames = (0..pages).map(|_| mem.alloc_frame()).collect();
        DmaBuffer {
            mem: mem.clone(),
            frames,
            len: (pages * PAGE_SIZE) as usize,
        }
    }

    /// Buffer capacity in bytes (page-rounded).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always false (buffers cannot be empty).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The backing frame numbers (what an NVMe PRP list would carry).
    pub fn frames(&self) -> &[u64] {
        &self.frames
    }

    fn for_each_chunk(&self, offset: usize, len: usize, mut f: impl FnMut(PhysAddr, usize, usize)) {
        assert!(offset + len <= self.len, "DMA access out of bounds");
        let mut done = 0usize;
        while done < len {
            let pos = offset + done;
            let page = pos / PAGE_SIZE as usize;
            let off = pos % PAGE_SIZE as usize;
            let n = (PAGE_SIZE as usize - off).min(len - done);
            f(PhysAddr::from_frame(self.frames[page], off as u64), done, n);
            done += n;
        }
    }

    /// Copies `data` into the buffer at `offset`.
    ///
    /// # Panics
    /// Panics if the range exceeds the buffer.
    pub fn write(&self, offset: usize, data: &[u8]) {
        self.fill_with(offset, data.len(), |done, dst| {
            dst.copy_from_slice(&data[done..done + dst.len()]);
        });
    }

    /// Copies from the buffer at `offset` into `out`, chunk by chunk —
    /// no staging allocation on the hot read path.
    ///
    /// # Panics
    /// Panics if the range exceeds the buffer.
    pub fn read(&self, offset: usize, out: &mut [u8]) {
        self.read_with(offset, out.len(), |done, src| {
            out[done..done + src.len()].copy_from_slice(src);
        });
    }

    /// Lends `f` the buffer's bytes `[offset, offset+len)` to fill, one
    /// frame-contiguous chunk at a time, as `f(done, chunk)` where `done`
    /// is the chunk's position within the range. This is the device's
    /// single-copy path: media bytes land in the frame directly.
    ///
    /// # Panics
    /// Panics if the range exceeds the buffer.
    pub fn fill_with(&self, offset: usize, len: usize, mut f: impl FnMut(usize, &mut [u8])) {
        self.for_each_chunk(offset, len, |pa, done, n| {
            self.mem.write_with(pa, n, |dst| f(done, dst));
        });
    }

    /// Lends `f` the buffer's bytes `[offset, offset+len)` to read, one
    /// frame-contiguous chunk at a time, as `f(done, chunk)`.
    ///
    /// # Panics
    /// Panics if the range exceeds the buffer.
    pub fn read_with(&self, offset: usize, len: usize, mut f: impl FnMut(usize, &[u8])) {
        self.for_each_chunk(offset, len, |pa, done, n| {
            self.mem.read_with(pa, n, |src| f(done, src));
        });
    }
}

impl Drop for DmaBuffer {
    fn drop(&mut self) {
        for f in &self.frames {
            self.mem.free_frame(*f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_rounds_to_pages() {
        let mem = PhysMem::new();
        let buf = DmaBuffer::alloc(&mem, 100);
        assert_eq!(buf.len(), PAGE_SIZE as usize);
        assert_eq!(buf.frames().len(), 1);
        let buf2 = DmaBuffer::alloc(&mem, PAGE_SIZE as usize + 1);
        assert_eq!(buf2.frames().len(), 2);
    }

    #[test]
    fn cross_page_roundtrip() {
        let mem = PhysMem::new();
        let buf = DmaBuffer::alloc(&mem, 3 * PAGE_SIZE as usize);
        let data: Vec<u8> = (0..2 * PAGE_SIZE as usize + 100)
            .map(|i| (i % 255) as u8)
            .collect();
        buf.write(500, &data);
        let mut out = vec![0u8; data.len()];
        buf.read(500, &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn lent_chunks_split_at_frame_boundaries() {
        let mem = PhysMem::new();
        let buf = DmaBuffer::alloc(&mem, 2 * PAGE_SIZE as usize);
        let mut seen = Vec::new();
        buf.fill_with(4000, 200, |done, dst| {
            seen.push((done, dst.len()));
            dst.fill(done as u8 + 1);
        });
        assert_eq!(seen, vec![(0, 96), (96, 104)]);
        let mut sums = Vec::new();
        buf.read_with(4000, 200, |done, src| {
            sums.push((done, src.iter().map(|&b| b as usize).sum::<usize>()));
        });
        assert_eq!(sums, vec![(0, 96), (96, 104 * 97)]);
    }

    #[test]
    fn drop_frees_frames() {
        let mem = PhysMem::new();
        let before = mem.allocated_frames();
        {
            let _buf = DmaBuffer::alloc(&mem, 10 * PAGE_SIZE as usize);
            assert_eq!(mem.allocated_frames(), before + 10);
        }
        assert_eq!(mem.allocated_frames(), before);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_access_panics() {
        let mem = PhysMem::new();
        let buf = DmaBuffer::alloc(&mem, 512);
        buf.write(PAGE_SIZE as usize - 1, &[0, 0]);
    }
}
