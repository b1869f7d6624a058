//! The `Ext4` facade: namespace, metadata, allocation, persistence.
//!
//! All metadata (superblock, bitmap, inode table, directory content,
//! overflow extent blocks) is serialised to the simulated device through
//! the write-ahead [`crate::journal`], then checkpointed home — so
//! [`Ext4::mount`] genuinely recovers a crashed file system. Data blocks
//! are written in place (ordered mode, no data journaling, matching the
//! paper's configuration).
//!
//! Methods that can be expensive on the real system return a modelled
//! [`Nanos`] cost (cold extent loads, block zeroing); cheap metadata ops
//! are covered by the flat VFS+ext4 term of the kernel cost model in
//! `bypassd-os`.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use bypassd_hw::iommu::Iommu;
use bypassd_hw::mem::PhysMem;
use bypassd_hw::types::Lba;
use bypassd_sim::time::Nanos;
use bypassd_ssd::device::NvmeDevice;

use crate::alloc::BlockAllocator;
use crate::dir::{access_ok, decode_dir, encode_dir, split_path, DirEntry};
use crate::extent::ExtentTree;
use crate::fmap::{FileTables, Mapping};
use crate::journal::{Journal, Tx};
use crate::layout::{
    decode_extent_block, encode_extent_block, mode, DiskInode, Extent, Ino, Superblock, BLOCK_SIZE,
    EXTENTS_PER_BLOCK, INLINE_EXTENTS, INODES_PER_BLOCK, INODE_SIZE, ROOT_INO, SB_MAGIC,
};

/// Errors returned by file system operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ext4Error {
    /// Path component or inode does not exist.
    NotFound,
    /// Create target already exists.
    Exists,
    /// Path component is not a directory.
    NotDir,
    /// Operation needs a regular file.
    IsDir,
    /// Device or inode table full.
    NoSpace,
    /// Permission denied.
    Perm,
    /// Malformed path.
    InvalidPath,
    /// Directory not empty / object busy.
    Busy,
}

impl std::fmt::Display for Ext4Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Ext4Error::NotFound => "no such file or directory",
            Ext4Error::Exists => "file exists",
            Ext4Error::NotDir => "not a directory",
            Ext4Error::IsDir => "is a directory",
            Ext4Error::NoSpace => "no space left on device",
            Ext4Error::Perm => "permission denied",
            Ext4Error::InvalidPath => "invalid path",
            Ext4Error::Busy => "resource busy",
        };
        f.write_str(s)
    }
}

impl std::error::Error for Ext4Error {}

/// Result alias for file system calls.
pub type Ext4Result<T> = Result<T, Ext4Error>;

/// `stat()` output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stat {
    /// Inode number.
    pub ino: Ino,
    /// Type + permissions.
    pub mode: u16,
    /// Owner uid.
    pub uid: u32,
    /// Owner gid.
    pub gid: u32,
    /// Size in bytes.
    pub size: u64,
    /// Allocated blocks.
    pub blocks: u64,
    /// Access time (virtual ns).
    pub atime: u64,
    /// Modification time (virtual ns).
    pub mtime: u64,
}

/// How a file handle accesses the file — the BypassD split (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileHandleKind {
    /// Data ops through the kernel (the pre-BypassD world, and the
    /// fallback after revocation).
    Kernel,
    /// Data ops directly from userspace through the BypassD interface.
    Direct,
}

/// Format-time options.
#[derive(Debug, Clone, Copy)]
pub struct Ext4Options {
    /// Journal region length in blocks.
    pub journal_blocks: u64,
    /// Inode table length in blocks (16 inodes per block).
    pub itable_blocks: u64,
    /// Optional maximum allocation run (fragmentation knob).
    pub max_run: Option<u64>,
}

impl Default for Ext4Options {
    fn default() -> Self {
        Ext4Options {
            journal_blocks: 1024,
            itable_blocks: 1024,
            max_run: None,
        }
    }
}

/// Mount-time options.
#[derive(Debug, Clone, Copy)]
pub struct MountOptions {
    /// Validate journal commit-record checksums during replay (default).
    /// The fault campaigns mount with this off to verify that the sweep
    /// catches a recovery that trusts torn commits (mutation testing).
    pub validate_journal_checksums: bool,
}

impl Default for MountOptions {
    fn default() -> Self {
        MountOptions {
            validate_journal_checksums: true,
        }
    }
}

/// Modelled costs of FS-internal work (calibrated in Table 5 terms).
#[derive(Debug, Clone, Copy)]
pub struct FsTiming {
    /// Building one 2 MB file-table fragment (frame alloc + 512 FTEs).
    pub cold_fragment_build: Nanos,
    /// Attaching one cached fragment to a page table (pointer update).
    pub warm_attach: Nanos,
    /// Allocator + extent-tree work per new extent.
    pub alloc_per_extent: Nanos,
    /// Journal commit overhead per transaction.
    pub journal_commit: Nanos,
}

impl Default for FsTiming {
    fn default() -> Self {
        FsTiming {
            cold_fragment_build: Nanos(2590),
            warm_attach: Nanos(31),
            alloc_per_extent: Nanos(400),
            journal_commit: Nanos(600),
        }
    }
}

/// One block of an inode's overflow extent chain, with the image last
/// staged there and the extents and next pointer that image encodes.
/// `image` is empty for a block read off the device and not yet staged
/// by this mount.
pub(crate) struct ChainBlock {
    block: u64,
    extents: Vec<Extent>,
    next: u64,
    image: Vec<u8>,
}

impl ChainBlock {
    fn unstaged(block: u64) -> Self {
        ChainBlock {
            block,
            extents: Vec::new(),
            next: 0,
            image: Vec::new(),
        }
    }
}

pub(crate) struct CachedInode {
    pub disk: DiskInode,
    pub extents: Option<ExtentTree>,
    /// The overflow chain behind `disk.overflow_block`; loaded together
    /// with `extents`.
    pub chain: Vec<ChainBlock>,
    pub ftab: Option<FileTables>,
    pub mappings: HashMap<u64, Mapping>,
    pub kernel_opens: usize,
    pub direct_denied: bool,
}

impl CachedInode {
    fn new(disk: DiskInode) -> Self {
        CachedInode {
            disk,
            extents: None,
            chain: Vec::new(),
            ftab: None,
            mappings: HashMap::new(),
            kernel_opens: 0,
            direct_denied: false,
        }
    }
}

pub(crate) struct FsInner {
    pub sb: Superblock,
    pub alloc: BlockAllocator,
    pub journal: Journal,
    pub icache: HashMap<u64, CachedInode>,
    pub free_inos: Vec<u64>,
    /// Blocks freed but not yet reusable (delayed until a sync point to
    /// close the revocation race, §3.6).
    pub pending_free: Vec<(u64, u64)>,
    pub timing: FsTiming,
}

/// The file system.
pub struct Ext4 {
    pub(crate) dev: Arc<NvmeDevice>,
    pub(crate) mem: PhysMem,
    pub(crate) iommu: Arc<Mutex<Iommu>>,
    pub(crate) inner: Mutex<FsInner>,
}

impl Ext4 {
    /// Formats the device and returns a mounted file system.
    pub fn format(dev: &Arc<NvmeDevice>, mem: &PhysMem, opts: Ext4Options) -> Ext4 {
        let blocks = dev.capacity_sectors() / (BLOCK_SIZE / 512);
        let journal_start = 1;
        let bitmap_start = journal_start + opts.journal_blocks;
        let bitmap_blocks = blocks.div_ceil(8 * BLOCK_SIZE);
        let itable_start = bitmap_start + bitmap_blocks;
        let data_start = itable_start + opts.itable_blocks;
        assert!(data_start < blocks, "device too small for metadata");
        let sb = Superblock {
            magic: SB_MAGIC,
            blocks,
            journal_start,
            journal_blocks: opts.journal_blocks,
            bitmap_start,
            bitmap_blocks,
            itable_start,
            itable_blocks: opts.itable_blocks,
            data_start,
            max_ino: 1,
        };
        dev.write_raw(Lba(0), &sb.encode());
        let mut alloc = BlockAllocator::new(blocks, data_start);
        if let Some(m) = opts.max_run {
            alloc.set_max_run(m);
        }
        let journal = Journal::new(Arc::clone(dev), journal_start, opts.journal_blocks);
        let fs = Ext4 {
            dev: Arc::clone(dev),
            mem: mem.clone(),
            iommu: Arc::clone(dev.iommu()),
            inner: Mutex::new(FsInner {
                sb,
                alloc,
                journal,
                icache: HashMap::new(),
                free_inos: Vec::new(),
                pending_free: Vec::new(),
                timing: FsTiming::default(),
            }),
        };
        // Root directory.
        {
            let mut inner = fs.inner.lock();
            // World-writable root (like /tmp) so unprivileged simulated
            // processes can create files directly under "/".
            let root = DiskInode::new(mode::DIR | 0o777, 0, 0);
            inner.icache.insert(ROOT_INO.0, CachedInode::new(root));
            let mut tx = Tx::default();
            fs.stage_inode(&mut inner, ROOT_INO, &mut tx);
            fs.stage_sb(&inner, &mut tx);
            fs.commit_meta(&mut inner, tx);
        }
        fs
    }

    /// Mounts an already-formatted device, replaying the journal.
    ///
    /// # Errors
    /// [`Ext4Error::NotFound`] when no valid superblock is present.
    pub fn mount(dev: &Arc<NvmeDevice>, mem: &PhysMem) -> Ext4Result<Ext4> {
        Self::mount_with(dev, mem, MountOptions::default())
    }

    /// [`Ext4::mount`] with explicit [`MountOptions`].
    ///
    /// # Errors
    /// [`Ext4Error::NotFound`] when no valid superblock is present.
    pub fn mount_with(
        dev: &Arc<NvmeDevice>,
        mem: &PhysMem,
        opts: MountOptions,
    ) -> Ext4Result<Ext4> {
        // Remounting implies a power cycle: if a fault-plane cut dropped
        // power on this device, restore it so recovery writes persist.
        dev.fault_plane().power_restore();
        // …and an unmount: every pre-crash PASID mapping is torn down so
        // no stale FTE can translate to blocks recovery may reassign to
        // another tenant (§3.6 / §5.3 confidentiality across a crash).
        dev.iommu().lock().unregister_all();
        let mut buf = vec![0u8; BLOCK_SIZE as usize];
        dev.read_raw(Lba(0), &mut buf);
        let sb = Superblock::decode(&buf).ok_or(Ext4Error::NotFound)?;
        let mut journal = Journal::new(Arc::clone(dev), sb.journal_start, sb.journal_blocks);
        journal.set_validate_checksums(opts.validate_journal_checksums);
        // Replay committed metadata before reading anything else.
        journal.recover(|home, data| {
            dev.write_raw(Lba::from_block(home), data);
        });
        // Superblock may have been replayed; reread.
        dev.read_raw(Lba(0), &mut buf);
        let sb = Superblock::decode(&buf).ok_or(Ext4Error::NotFound)?;
        // Load the bitmap.
        let mut bm = vec![0u8; (sb.bitmap_blocks * BLOCK_SIZE) as usize];
        for b in 0..sb.bitmap_blocks {
            let s = (b * BLOCK_SIZE) as usize;
            dev.read_raw(
                Lba::from_block(sb.bitmap_start + b),
                &mut bm[s..s + BLOCK_SIZE as usize],
            );
        }
        let alloc = BlockAllocator::decode(&bm, sb.blocks, sb.data_start);
        // Rebuild the free-inode list.
        let mut free_inos = Vec::new();
        let mut iblk = vec![0u8; BLOCK_SIZE as usize];
        for i in 1..=sb.max_ino {
            let (blk, off) = Self::ino_slot(&sb, Ino(i));
            dev.read_raw(Lba::from_block(blk), &mut iblk);
            let d = DiskInode::decode(&iblk[off..off + INODE_SIZE as usize]);
            if d.nlink == 0 {
                free_inos.push(i);
            }
        }
        Ok(Ext4 {
            dev: Arc::clone(dev),
            mem: mem.clone(),
            iommu: Arc::clone(dev.iommu()),
            inner: Mutex::new(FsInner {
                sb,
                alloc,
                journal,
                icache: HashMap::new(),
                free_inos,
                pending_free: Vec::new(),
                timing: FsTiming::default(),
            }),
        })
    }

    /// The device this FS lives on.
    pub fn device(&self) -> &Arc<NvmeDevice> {
        &self.dev
    }

    /// The IOMMU used for mapping invalidations.
    pub fn iommu(&self) -> &Arc<Mutex<Iommu>> {
        &self.iommu
    }

    /// Modelled FS timing constants.
    pub fn timing(&self) -> FsTiming {
        self.inner.lock().timing
    }

    /// Simulates a crash (compatibility shim over the fault plane): cuts
    /// device power *except* for the journal region, so all subsequent
    /// home-location and data writes are dropped while journal commits
    /// still reach the device — the historical `crashed`-flag semantics.
    /// In-memory state must be discarded; remount with [`Ext4::mount`]
    /// (which restores power).
    ///
    /// New code should drive the plane directly ([`Ext4::crash_at`] or
    /// `NvmeDevice::fault_plane`) for arbitrary-virtual-time cuts.
    pub fn crash(&self) {
        let (js, jb) = {
            let inner = self.inner.lock();
            (inner.sb.journal_start, inner.sb.journal_blocks)
        };
        let plane = self.dev.fault_plane();
        plane.activate();
        plane.cut_now_except(vec![(Lba::from_block(js), Lba::from_block(js + jb))]);
    }

    /// Schedules a *full* power cut at virtual time `t` (on the device's
    /// fault plane): every write observed at or after that instant — data,
    /// journal, everything — is lost. Remount with [`Ext4::mount`] to
    /// power-cycle and recover.
    pub fn crash_at(&self, t: Nanos) {
        let plane = self.dev.fault_plane();
        plane.activate();
        plane.cut_at_time(t);
    }

    // ---- internal persistence helpers ----

    fn ino_slot(sb: &Superblock, ino: Ino) -> (u64, usize) {
        let idx = ino.0 - 1;
        let blk = sb.itable_start + idx / INODES_PER_BLOCK;
        let off = ((idx % INODES_PER_BLOCK) * INODE_SIZE) as usize;
        (blk, off)
    }

    /// Current content of a metadata block, honouring blocks already
    /// staged in `tx` (so several updates within one transaction compose).
    fn block_image(&self, tx: &Tx, home: u64) -> Vec<u8> {
        if let Some(data) = tx.staged(home) {
            return data.to_vec();
        }
        let mut buf = vec![0u8; BLOCK_SIZE as usize];
        self.dev.read_raw(Lba::from_block(home), &mut buf);
        buf
    }

    fn stage_sb(&self, inner: &FsInner, tx: &mut Tx) {
        tx.stage(0, inner.sb.encode());
    }

    fn stage_bitmap(&self, inner: &mut FsInner, tx: &mut Tx) {
        let sb_bitmap_start = inner.sb.bitmap_start;
        for b in inner.alloc.take_dirty_blocks() {
            let bytes = inner.alloc.block_bytes(b);
            tx.stage(sb_bitmap_start + b, bytes);
        }
    }

    /// Serialises an inode (and its overflow extent chain if the extent
    /// cache is loaded) into `tx`.
    fn stage_inode(&self, inner: &mut FsInner, ino: Ino, tx: &mut Tx) {
        // Flush extents into the disk inode representation first.
        self.flush_extents_to_disk(inner, ino, tx);
        let ci = inner.icache.get(&ino.0).expect("stage of uncached inode");
        let (blk, off) = Self::ino_slot(&inner.sb, ino);
        let mut img = self.block_image(tx, blk);
        img[off..off + INODE_SIZE as usize].copy_from_slice(&ci.disk.encode());
        tx.stage(blk, img);
    }

    /// Rewrites the inode's extent representation: first
    /// [`INLINE_EXTENTS`] inline, the rest in a chain of overflow blocks.
    /// Every chain block is staged; one is re-encoded only when its
    /// extents or next pointer changed since it was last staged.
    fn flush_extents_to_disk(&self, inner: &mut FsInner, ino: Ino, tx: &mut Tx) {
        let Some(ci) = inner.icache.get_mut(&ino.0) else {
            return;
        };
        let Some(tree) = &ci.extents else {
            return;
        };
        ci.disk.extent_count = tree.len() as u32;
        ci.disk.inline = tree.iter().take(INLINE_EXTENTS).copied().collect();
        if ci.disk.overflow_block == 0 {
            // `unlink` detaches the chain without freeing its blocks.
            ci.chain.clear();
        }
        debug_assert_eq!(
            ci.chain.first().map_or(0, |c| c.block),
            ci.disk.overflow_block
        );
        let needed = (tree.len().saturating_sub(INLINE_EXTENTS)).div_ceil(EXTENTS_PER_BLOCK);
        while ci.chain.len() < needed {
            let blk = match inner.alloc.alloc_one() {
                Some(b) => b,
                None => panic!("no space for extent overflow block"),
            };
            ci.chain.push(ChainBlock::unstaged(blk));
        }
        for c in ci.chain.drain(needed..).rev() {
            inner.alloc.free_run(c.block, 1);
        }
        ci.disk.overflow_block = ci.chain.first().map_or(0, |c| c.block);
        let mut overflow = tree.iter().skip(INLINE_EXTENTS).copied();
        for i in 0..needed {
            let next = ci.chain.get(i + 1).map_or(0, |c| c.block);
            let extents: Vec<Extent> = overflow.by_ref().take(EXTENTS_PER_BLOCK).collect();
            let c = &mut ci.chain[i];
            if c.image.is_empty() || c.next != next || c.extents != extents {
                c.image = encode_extent_block(&extents, next);
                c.extents = extents;
                c.next = next;
            }
            tx.stage(c.block, c.image.clone());
        }
    }

    fn commit_meta(&self, inner: &mut FsInner, mut tx: Tx) {
        self.stage_bitmap(inner, &mut tx);
        if tx.is_empty() {
            return;
        }
        inner.journal.commit(&tx);
        // Checkpoint barrier: home-location writes must not overtake the
        // commit record in a volatile write cache (JBD2 waits for the
        // commit I/O before checkpointing). Without it a reorder cut can
        // leave a *discarded* transaction's homes partially applied.
        self.dev.fault_plane().note_barrier();
        for (home, data) in tx.records() {
            self.dev.write_raw(Lba::from_block(*home), data);
        }
    }

    /// Loads an inode into the cache, returning an error if free.
    fn load_inode(&self, inner: &mut FsInner, ino: Ino) -> Ext4Result<()> {
        if inner.icache.contains_key(&ino.0) {
            return Ok(());
        }
        if ino.0 == 0 || ino.0 > inner.sb.max_ino {
            return Err(Ext4Error::NotFound);
        }
        let (blk, off) = Self::ino_slot(&inner.sb, ino);
        let mut buf = vec![0u8; BLOCK_SIZE as usize];
        self.dev.read_raw(Lba::from_block(blk), &mut buf);
        let d = DiskInode::decode(&buf[off..off + INODE_SIZE as usize]);
        if d.nlink == 0 {
            return Err(Ext4Error::NotFound);
        }
        inner.icache.insert(ino.0, CachedInode::new(d));
        Ok(())
    }

    /// Ensures the extent-status cache is loaded; returns the modelled
    /// cost (device reads of the overflow chain when cold).
    pub(crate) fn ensure_extents(&self, inner: &mut FsInner, ino: Ino) -> Ext4Result<Nanos> {
        self.load_inode(inner, ino)?;
        let ci = inner.icache.get(&ino.0).unwrap();
        if ci.extents.is_some() {
            return Ok(Nanos::ZERO);
        }
        let mut extents: Vec<Extent> = ci.disk.inline.clone();
        let mut b = ci.disk.overflow_block;
        let mut chain = Vec::new();
        let mut buf = vec![0u8; BLOCK_SIZE as usize];
        while b != 0 {
            self.dev.read_raw(Lba::from_block(b), &mut buf);
            let (mut more, next) = decode_extent_block(&buf);
            extents.append(&mut more);
            chain.push(ChainBlock::unstaged(b));
            b = next;
        }
        let reads = chain.len() as u64;
        let ci = inner.icache.get_mut(&ino.0).unwrap();
        ci.extents = Some(ExtentTree::from_extents(extents));
        ci.chain = chain;
        // Each overflow block read is a real device read.
        let per_read = self.dev.timing().service(false, BLOCK_SIZE);
        Ok(Nanos(per_read.as_nanos() * reads))
    }

    // ---- directory data (metadata-journaled file content) ----

    fn read_dir_data(&self, inner: &mut FsInner, ino: Ino) -> Ext4Result<Vec<u8>> {
        self.ensure_extents(inner, ino)?;
        let ci = inner.icache.get(&ino.0).unwrap();
        let size = ci.disk.size as usize;
        let tree = ci.extents.as_ref().unwrap();
        let mut out = vec![0u8; size.div_ceil(BLOCK_SIZE as usize) * BLOCK_SIZE as usize];
        for e in tree.iter() {
            for i in 0..e.len as u64 {
                let fb = e.file_block + i;
                let s = (fb * BLOCK_SIZE) as usize;
                if s >= out.len() {
                    break;
                }
                self.dev.read_raw(
                    Lba::from_block(e.start_block + i),
                    &mut out[s..s + BLOCK_SIZE as usize],
                );
            }
        }
        out.truncate(size);
        Ok(out)
    }

    fn write_dir_data(
        &self,
        inner: &mut FsInner,
        ino: Ino,
        data: &[u8],
        tx: &mut Tx,
    ) -> Ext4Result<()> {
        self.ensure_extents(inner, ino)?;
        let blocks_needed = (data.len() as u64).div_ceil(BLOCK_SIZE).max(1);
        // Grow the mapping as needed.
        loop {
            let have = inner
                .icache
                .get(&ino.0)
                .unwrap()
                .extents
                .as_ref()
                .unwrap()
                .end_block();
            if have >= blocks_needed {
                break;
            }
            let run = inner
                .alloc
                .alloc(blocks_needed - have)
                .ok_or(Ext4Error::NoSpace)?;
            inner
                .icache
                .get_mut(&ino.0)
                .unwrap()
                .extents
                .as_mut()
                .unwrap()
                .insert(Extent {
                    file_block: have,
                    start_block: run.start,
                    len: run.len as u32,
                });
        }
        // Stage content blocks (directories are metadata).
        let tree = inner.icache.get(&ino.0).unwrap().extents.clone().unwrap();
        for fb in 0..blocks_needed {
            let e = tree.lookup(fb).unwrap();
            let s = (fb * BLOCK_SIZE) as usize;
            let mut blk = vec![0u8; BLOCK_SIZE as usize];
            if s < data.len() {
                let n = (data.len() - s).min(BLOCK_SIZE as usize);
                blk[..n].copy_from_slice(&data[s..s + n]);
            }
            tx.stage(e.start_block + (fb - e.file_block), blk);
        }
        inner.icache.get_mut(&ino.0).unwrap().disk.size = data.len() as u64;
        Ok(())
    }

    fn dir_entries(&self, inner: &mut FsInner, dir: Ino) -> Ext4Result<Vec<DirEntry>> {
        self.load_inode(inner, dir)?;
        if !inner.icache.get(&dir.0).unwrap().disk.is_dir() {
            return Err(Ext4Error::NotDir);
        }
        let data = self.read_dir_data(inner, dir)?;
        Ok(decode_dir(&data))
    }

    /// Resolves a path to an inode.
    fn resolve_path(&self, inner: &mut FsInner, path: &str) -> Ext4Result<Ino> {
        let comps = split_path(path).ok_or(Ext4Error::InvalidPath)?;
        let mut cur = ROOT_INO;
        for c in comps {
            let entries = self.dir_entries(inner, cur)?;
            cur = entries
                .iter()
                .find(|e| e.name == c)
                .map(|e| e.ino)
                .ok_or(Ext4Error::NotFound)?;
        }
        Ok(cur)
    }

    fn resolve_parent<'p>(&self, inner: &mut FsInner, path: &'p str) -> Ext4Result<(Ino, &'p str)> {
        let comps = split_path(path).ok_or(Ext4Error::InvalidPath)?;
        let (name, parents) = comps.split_last().ok_or(Ext4Error::InvalidPath)?;
        let mut cur = ROOT_INO;
        for c in parents {
            let entries = self.dir_entries(inner, cur)?;
            cur = entries
                .iter()
                .find(|e| e.name == *c)
                .map(|e| e.ino)
                .ok_or(Ext4Error::NotFound)?;
        }
        Ok((cur, name))
    }

    fn alloc_ino(&self, inner: &mut FsInner) -> Ext4Result<Ino> {
        if let Some(i) = inner.free_inos.pop() {
            return Ok(Ino(i));
        }
        let capacity = inner.sb.itable_blocks * INODES_PER_BLOCK;
        if inner.sb.max_ino >= capacity {
            return Err(Ext4Error::NoSpace);
        }
        inner.sb.max_ino += 1;
        Ok(Ino(inner.sb.max_ino))
    }

    fn make_node(&self, path: &str, m: u16, uid: u32, gid: u32) -> Ext4Result<Ino> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let (parent, name) = self.resolve_parent(inner, path)?;
        let mut entries = self.dir_entries(inner, parent)?;
        if entries.iter().any(|e| e.name == name) {
            return Err(Ext4Error::Exists);
        }
        {
            let p = &inner.icache.get(&parent.0).unwrap().disk;
            if !access_ok(p.mode, p.uid, p.gid, uid, gid, true) {
                return Err(Ext4Error::Perm);
            }
        }
        let ino = self.alloc_ino(inner)?;
        inner
            .icache
            .insert(ino.0, CachedInode::new(DiskInode::new(m, uid, gid)));
        inner.icache.get_mut(&ino.0).unwrap().extents = Some(ExtentTree::new());
        entries.push(DirEntry {
            ino,
            name: name.to_string(),
        });
        let mut tx = Tx::default();
        let data = encode_dir(&entries);
        self.write_dir_data(inner, parent, &data, &mut tx)?;
        self.stage_inode(inner, parent, &mut tx);
        self.stage_inode(inner, ino, &mut tx);
        self.stage_sb(inner, &mut tx);
        self.commit_meta(inner, tx);
        Ok(ino)
    }

    // ---- public namespace API ----

    /// Creates a regular file.
    ///
    /// # Errors
    /// `Exists`, `NotFound` (parent), `Perm`, `NoSpace`, `InvalidPath`.
    pub fn create(&self, path: &str, m: u16, uid: u32, gid: u32) -> Ext4Result<Ino> {
        self.make_node(path, mode::REG | (m & 0o777), uid, gid)
    }

    /// Creates a directory.
    ///
    /// # Errors
    /// Same as [`Ext4::create`].
    pub fn mkdir(&self, path: &str, m: u16, uid: u32, gid: u32) -> Ext4Result<Ino> {
        self.make_node(path, mode::DIR | (m & 0o777), uid, gid)
    }

    /// Looks up a path.
    ///
    /// # Errors
    /// `NotFound`, `NotDir`, `InvalidPath`.
    pub fn lookup(&self, path: &str) -> Ext4Result<Ino> {
        let mut inner = self.inner.lock();
        self.resolve_path(&mut inner, path)
    }

    /// Removes a file (directories must be empty).
    ///
    /// # Errors
    /// `NotFound`, `Perm`, `Busy` (non-empty directory or still mapped).
    pub fn unlink(&self, path: &str, uid: u32, gid: u32) -> Ext4Result<()> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let (parent, name) = self.resolve_parent(inner, path)?;
        let mut entries = self.dir_entries(inner, parent)?;
        let pos = entries
            .iter()
            .position(|e| e.name == name)
            .ok_or(Ext4Error::NotFound)?;
        let ino = entries[pos].ino;
        {
            let p = &inner.icache.get(&parent.0).unwrap().disk;
            if !access_ok(p.mode, p.uid, p.gid, uid, gid, true) {
                return Err(Ext4Error::Perm);
            }
        }
        self.load_inode(inner, ino)?;
        let ci = inner.icache.get(&ino.0).unwrap();
        if !ci.mappings.is_empty() || ci.kernel_opens > 0 {
            return Err(Ext4Error::Busy);
        }
        if ci.disk.is_dir() && !self.dir_entries(inner, ino)?.is_empty() {
            return Err(Ext4Error::Busy);
        }
        entries.remove(pos);
        // Free the file's blocks (delayed reuse happens naturally: the
        // allocator only hands them out after this commit).
        self.ensure_extents(inner, ino)?;
        let freed: Vec<(u64, u64)> = {
            let tree = inner
                .icache
                .get_mut(&ino.0)
                .unwrap()
                .extents
                .as_mut()
                .unwrap();
            tree.truncate(0)
        };
        for (s, l) in freed {
            inner.pending_free.push((s, l));
        }
        let mut tx = Tx::default();
        {
            let ci = inner.icache.get_mut(&ino.0).unwrap();
            ci.disk.nlink = 0;
            ci.disk.size = 0;
            ci.disk.overflow_block = 0;
            ci.disk.extent_count = 0;
        }
        let data = encode_dir(&entries);
        self.write_dir_data(inner, parent, &data, &mut tx)?;
        self.stage_inode(inner, parent, &mut tx);
        self.stage_inode(inner, ino, &mut tx);
        self.commit_meta(inner, tx);
        inner.icache.remove(&ino.0);
        inner.free_inos.push(ino.0);
        Ok(())
    }

    /// Lists a directory.
    ///
    /// # Errors
    /// `NotFound`, `NotDir`.
    pub fn readdir(&self, path: &str) -> Ext4Result<Vec<DirEntry>> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let ino = self.resolve_path(inner, path)?;
        self.dir_entries(inner, ino)
    }

    /// `stat()` by inode.
    ///
    /// # Errors
    /// `NotFound`.
    pub fn stat(&self, ino: Ino) -> Ext4Result<Stat> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        self.load_inode(inner, ino)?;
        let blocks = {
            let _ = self.ensure_extents(inner, ino)?;
            inner
                .icache
                .get(&ino.0)
                .unwrap()
                .extents
                .as_ref()
                .map_or(0, |t| t.iter().map(|e| e.len as u64).sum())
        };
        let d = &inner.icache.get(&ino.0).unwrap().disk;
        Ok(Stat {
            ino,
            mode: d.mode,
            uid: d.uid,
            gid: d.gid,
            size: d.size,
            blocks,
            atime: d.atime,
            mtime: d.mtime,
        })
    }

    /// Permission check against the inode's mode/owner.
    ///
    /// # Errors
    /// `NotFound`.
    pub fn access(&self, ino: Ino, uid: u32, gid: u32, write: bool) -> Ext4Result<bool> {
        let mut inner = self.inner.lock();
        self.load_inode(&mut inner, ino)?;
        let d = &inner.icache.get(&ino.0).unwrap().disk;
        Ok(access_ok(d.mode, d.uid, d.gid, uid, gid, write))
    }

    /// Current size in bytes.
    ///
    /// # Errors
    /// `NotFound`.
    pub fn size_of(&self, ino: Ino) -> Ext4Result<u64> {
        let mut inner = self.inner.lock();
        self.load_inode(&mut inner, ino)?;
        Ok(inner.icache.get(&ino.0).unwrap().disk.size)
    }

    /// Resolves a byte range to `(Option<Lba>, len)` segments (`None` =
    /// hole). Returns the segments plus the modelled cost of a cold
    /// extent-cache load.
    ///
    /// # Errors
    /// `NotFound`, `IsDir`.
    #[allow(clippy::type_complexity)]
    pub fn resolve(
        &self,
        ino: Ino,
        offset: u64,
        len: u64,
    ) -> Ext4Result<(Vec<(Option<Lba>, u64)>, Nanos)> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let cost = self.ensure_extents(inner, ino)?;
        let ci = inner.icache.get(&ino.0).unwrap();
        if ci.disk.is_dir() {
            return Err(Ext4Error::IsDir);
        }
        let tree = ci.extents.as_ref().unwrap();
        let mut out = Vec::new();
        if len == 0 {
            return Ok((out, cost));
        }
        let first_fb = offset / BLOCK_SIZE;
        let last_fb = (offset + len - 1) / BLOCK_SIZE;
        for fb in first_fb..=last_fb {
            let block_base = fb * BLOCK_SIZE;
            let lo = offset.max(block_base);
            let hi = (offset + len).min(block_base + BLOCK_SIZE);
            let n = hi - lo;
            match tree.lookup(fb) {
                Some(e) => {
                    let lba = Lba(e.lba_of(fb).0 + (lo - block_base) / 512);
                    if let Some((Some(last_lba), last_len)) = out.last_mut() {
                        if Lba(last_lba.0 + *last_len / 512) == lba {
                            *last_len += n;
                            continue;
                        }
                    }
                    out.push((Some(lba), n));
                }
                None => match out.last_mut() {
                    Some((None, last_len)) => *last_len += n,
                    _ => out.push((None, n)),
                },
            }
        }
        Ok((out, cost))
    }

    /// Allocates (and zeroes) blocks covering `[offset, offset+len)`,
    /// extending the size if the range goes past EOF (fallocate
    /// semantics). Returns the modelled cost: extent work + device
    /// zeroing. Updates attached file tables so mapped processes see the
    /// new blocks (§4.1).
    ///
    /// # Errors
    /// `NotFound`, `IsDir`, `NoSpace`.
    pub fn allocate(&self, ino: Ino, offset: u64, len: u64) -> Ext4Result<Nanos> {
        self.allocate_inner(ino, offset, len, true)
    }

    /// Like [`Ext4::allocate`] but with `FALLOC_FL_KEEP_SIZE` semantics:
    /// blocks are allocated and zeroed but the file size is unchanged
    /// (used by the optimized-append enhancement, §5.1).
    ///
    /// # Errors
    /// As [`Ext4::allocate`].
    pub fn allocate_keep_size(&self, ino: Ino, offset: u64, len: u64) -> Ext4Result<Nanos> {
        self.allocate_inner(ino, offset, len, false)
    }

    fn allocate_inner(&self, ino: Ino, offset: u64, len: u64, extend: bool) -> Ext4Result<Nanos> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let mut cost = self.ensure_extents(inner, ino)?;
        if inner.icache.get(&ino.0).unwrap().disk.is_dir() {
            return Err(Ext4Error::IsDir);
        }
        if len == 0 {
            return Ok(cost);
        }
        let first_fb = offset / BLOCK_SIZE;
        let last_fb = (offset + len - 1) / BLOCK_SIZE;
        let mut new_runs: Vec<(u64, u64, u64)> = Vec::new(); // (fb, start_block, len)
        let mut fb = first_fb;
        while fb <= last_fb {
            let existing = inner
                .icache
                .get(&ino.0)
                .unwrap()
                .extents
                .as_ref()
                .unwrap()
                .lookup(fb);
            if let Some(e) = existing {
                fb = e.end();
                continue;
            }
            // Allocate up to the next mapped block (or range end).
            let next_mapped = inner
                .icache
                .get(&ino.0)
                .unwrap()
                .extents
                .as_ref()
                .unwrap()
                .range(fb, last_fb + 1)
                .first()
                .map_or(last_fb + 1, |e| e.file_block);
            let want = next_mapped - fb;
            let run = inner.alloc.alloc(want).ok_or(Ext4Error::NoSpace)?;
            inner
                .icache
                .get_mut(&ino.0)
                .unwrap()
                .extents
                .as_mut()
                .unwrap()
                .insert(Extent {
                    file_block: fb,
                    start_block: run.start,
                    len: run.len as u32,
                });
            new_runs.push((fb, run.start, run.len));
            fb += run.len;
        }
        // Zero new blocks on the device (confidentiality, §5.3) and
        // charge the device write cost.
        let timing = self.dev.timing();
        for (_, start, len) in &new_runs {
            self.dev
                .zero_raw(Lba::from_block(*start), len * (BLOCK_SIZE / 512));
            // Zeroing uses the device's Write Zeroes command — a cheap
            // deallocate-style operation, not a data write (§5.3).
            cost += timing.write_zeroes_cost;
            let _ = len;
            cost += inner.timing.alloc_per_extent;
        }
        // Extend size and persist.
        let end = offset + len;
        if extend {
            let ci = inner.icache.get_mut(&ino.0).unwrap();
            if end > ci.disk.size {
                ci.disk.size = end;
            }
        }
        let mut tx = Tx::default();
        self.stage_inode(inner, ino, &mut tx);
        self.commit_meta(inner, tx);
        cost += inner.timing.journal_commit;
        // Propagate to file tables (shared fragments update in place).
        if !new_runs.is_empty() {
            cost += self.extend_file_tables(inner, ino, &new_runs);
        }
        Ok(cost)
    }

    /// Shrinks (or grows, sparsely) the file to `new_size`. Shrinking
    /// detaches the dropped blocks' FTEs and defers block reuse to the
    /// next sync point (§3.6). Returns the modelled cost.
    ///
    /// # Errors
    /// `NotFound`, `IsDir`.
    pub fn truncate(&self, ino: Ino, new_size: u64) -> Ext4Result<Nanos> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let mut cost = self.ensure_extents(inner, ino)?;
        if inner.icache.get(&ino.0).unwrap().disk.is_dir() {
            return Err(Ext4Error::IsDir);
        }
        let old_size = inner.icache.get(&ino.0).unwrap().disk.size;
        if new_size < old_size {
            let keep_blocks = new_size.div_ceil(BLOCK_SIZE);
            let freed = inner
                .icache
                .get_mut(&ino.0)
                .unwrap()
                .extents
                .as_mut()
                .unwrap()
                .truncate(keep_blocks);
            for (s, l) in freed {
                inner.pending_free.push((s, l));
            }
            cost += self.shrink_file_tables(inner, ino, keep_blocks);
        }
        inner.icache.get_mut(&ino.0).unwrap().disk.size = new_size;
        let mut tx = Tx::default();
        self.stage_inode(inner, ino, &mut tx);
        self.commit_meta(inner, tx);
        cost += inner.timing.journal_commit;
        Ok(cost)
    }

    /// Records a completed append: bumps the size (blocks were allocated
    /// beforehand via [`Ext4::allocate`]).
    ///
    /// # Errors
    /// `NotFound`.
    pub fn set_size(&self, ino: Ino, size: u64) -> Ext4Result<()> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        self.load_inode(inner, ino)?;
        inner.icache.get_mut(&ino.0).unwrap().disk.size = size;
        let mut tx = Tx::default();
        self.stage_inode(inner, ino, &mut tx);
        self.commit_meta(inner, tx);
        Ok(())
    }

    /// Updates access/modify timestamps — called at close/fsync rather
    /// than per-I/O, the paper's deviation from POSIX (§4.4).
    ///
    /// # Errors
    /// `NotFound`.
    pub fn touch(&self, ino: Ino, now: Nanos, read: bool, write: bool) -> Ext4Result<()> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        self.load_inode(inner, ino)?;
        {
            let d = &mut inner.icache.get_mut(&ino.0).unwrap().disk;
            if read {
                d.atime = now.as_nanos();
            }
            if write {
                d.mtime = now.as_nanos();
                d.ctime = now.as_nanos();
            }
        }
        let mut tx = Tx::default();
        self.stage_inode(inner, ino, &mut tx);
        self.commit_meta(inner, tx);
        Ok(())
    }

    /// Sync point: releases deferred-freed blocks for reuse (§3.6) and
    /// flushes metadata. Returns the count of released blocks.
    pub fn sync_point(&self) -> u64 {
        let mut inner = self.inner.lock();
        let pending = std::mem::take(&mut inner.pending_free);
        let mut released = 0;
        for (s, l) in pending {
            inner.alloc.free_run(s, l);
            released += l;
        }
        let mut tx = Tx::default();
        self.stage_bitmap(&mut inner, &mut tx);
        if !tx.is_empty() {
            inner.journal.commit(&tx);
            for (home, data) in tx.records() {
                self.dev.write_raw(Lba::from_block(*home), data);
            }
        }
        released
    }

    /// Untimed setup helper for benchmarks: creates (if needed) a file of
    /// `size` bytes, fully allocated, filled with `fill` unless zero.
    ///
    /// # Errors
    /// Propagates creation/allocation errors.
    pub fn populate(&self, path: &str, size: u64, fill: u8) -> Ext4Result<Ino> {
        // World-writable: populate() is setup tooling and the simulated
        // workloads run under arbitrary uids.
        let ino = match self.create(path, 0o666, 0, 0) {
            Ok(i) => i,
            Err(Ext4Error::Exists) => self.lookup(path)?,
            Err(e) => return Err(e),
        };
        let _ = self.allocate(ino, 0, size.max(1))?;
        if fill != 0 {
            // Fill whole blocks; the tail past `size` is invisible.
            let aligned = size.div_ceil(BLOCK_SIZE).max(1) * BLOCK_SIZE;
            let (segs, _) = self.resolve(ino, 0, aligned)?;
            let chunk = vec![fill; BLOCK_SIZE as usize];
            for (lba, len) in segs {
                if let Some(lba) = lba {
                    let mut written = 0;
                    while written < len {
                        let n = (len - written).min(BLOCK_SIZE);
                        self.dev
                            .write_raw(Lba(lba.0 + written / 512), &chunk[..n as usize]);
                        written += n;
                    }
                }
            }
        }
        self.set_size(ino, size)?;
        Ok(ino)
    }

    /// Free data blocks remaining.
    pub fn free_blocks(&self) -> u64 {
        self.inner.lock().alloc.free_blocks()
    }
}

impl std::fmt::Debug for Ext4 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Ext4")
            .field("blocks", &inner.sb.blocks)
            .field("free", &inner.alloc.free_blocks())
            .field("cached_inodes", &inner.icache.len())
            .finish()
    }
}
