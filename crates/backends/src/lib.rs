//! # bypassd-backends
//!
//! One closed [`Backend`] type over the six I/O paths the paper's
//! evaluation compares (§6.3), picked by a [`BackendKind`] value:
//!
//! | kind | path |
//! |---|---|
//! | `Sync` | baseline Linux synchronous syscalls |
//! | `Libaio` | Linux native AIO (`io_submit`/`io_getevents`) |
//! | `IoUring` | io_uring with SQPOLL and fixed buffers |
//! | `Spdk` | userspace driver ([`SpdkBackend`]), no file system, **no sharing** |
//! | `Xrp` | eBPF resubmission from the NVMe driver |
//! | `Bypassd` | BypassD UserLib (this paper) |
//! | `BypassdOffload` | BypassD with device-side chain offload |
//!
//! A [`BackendProcess`] is one simulated process on one path; each
//! simulated workload thread owns the [`Backend`] it mints. Every
//! backend also has one `chained_read` (used by the B-tree/BPF-KV
//! engines), decided by a host closure or a loaded IR program
//! ([`ChainDecider`]): baselines and plain BypassD interpret it over
//! `pread`, XRP resubmits from the driver hook, and BypassD+offload runs
//! the program on the device; every path shares the offload crate's hop
//! budget. The `submit`/`poll` pair (used by KVell) is genuinely
//! overlapped only by libaio.

mod backend;
mod chain;
mod spdk;

pub use backend::{Backend, BackendProcess};
pub use chain::{ChainDecider, OffloadProg};
pub use spdk::SpdkBackend;

/// A file handle within a backend.
pub type Handle = i32;

/// Selects one of the compared I/O paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Baseline Linux synchronous syscalls.
    Sync,
    /// Linux native AIO.
    Libaio,
    /// io_uring with SQPOLL.
    IoUring,
    /// SPDK-style userspace driver (no FS, exclusive device).
    Spdk,
    /// XRP (eBPF resubmission in the driver).
    Xrp,
    /// BypassD (this paper).
    Bypassd,
    /// BypassD with device-side chain offload (one submission per
    /// chain, the device follows `Resubmit` offsets itself).
    BypassdOffload,
}

impl BackendKind {
    /// Display name matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Sync => "sync",
            BackendKind::Libaio => "libaio",
            BackendKind::IoUring => "io_uring",
            BackendKind::Spdk => "spdk",
            BackendKind::Xrp => "xrp",
            BackendKind::Bypassd => "bypassd",
            BackendKind::BypassdOffload => "bypassd+offload",
        }
    }

    /// All kinds, in the paper's usual legend order.
    pub fn all() -> [BackendKind; 7] {
        [
            BackendKind::Sync,
            BackendKind::Libaio,
            BackendKind::IoUring,
            BackendKind::Spdk,
            BackendKind::Xrp,
            BackendKind::Bypassd,
            BackendKind::BypassdOffload,
        ]
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}
