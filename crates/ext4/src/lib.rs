//! # bypassd-ext4
//!
//! An ext4-like file system, the kernel-resident half of BypassD. The
//! paper modifies ext4 (~1300 lines); this crate reimplements the parts
//! that matter to the system:
//!
//! * [`layout`] — on-disk layout: superblock, inode table, block bitmap,
//!   extent records (all genuinely serialised to the simulated device, so
//!   `mount` after a crash has something real to recover).
//! * [`alloc`] — bitmap block allocator with extent (contiguous-run)
//!   allocation and an optional fragmentation knob.
//! * [`extent`] — per-inode extent trees: inline extents in the inode plus
//!   overflow extent blocks, and the in-memory extent-status cache that
//!   makes warm `fmap()` cheap (§4.1).
//! * [`journal`] — ordered metadata journaling (the paper's configuration
//!   is "ext4 without data journaling", §4): write-ahead descriptor /
//!   data / commit blocks with crash recovery.
//! * [`dir`] — directories, path resolution and POSIX permission checks.
//! * [`fs`] — the [`fs::Ext4`] facade: namespace and file operations.
//! * [`fsck`](mod@fsck) — offline checker: extent trees, bitmaps, directory
//!   structure and journal checksums, run by the crash campaigns after
//!   every simulated power cut.
//! * [`fmap`] — BypassD's contribution inside the FS: building shared,
//!   pre-populated **file table fragments** (one leaf table per 2 MB,
//!   bottom-up, cached in the inode), warm/cold `fmap()`, growth on
//!   append/fallocate, and revocation (§3.6, §4.1).

pub mod alloc;
pub mod dir;
pub mod extent;
pub mod fmap;
pub mod fs;
pub mod fsck;
pub mod journal;
pub mod layout;

pub use fmap::{FmapCost, FmapOutcome};
pub use fs::{Ext4, Ext4Error, Ext4Options, FileHandleKind, MountOptions, Stat};
pub use fsck::{fsck, FsckReport};
pub use layout::Ino;
