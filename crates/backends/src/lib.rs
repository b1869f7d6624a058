//! # bypassd-backends
//!
//! A uniform [`StorageBackend`] interface over the six I/O paths the
//! paper's evaluation compares (§6.3):
//!
//! | backend | path |
//! |---|---|
//! | [`SyncFactory`] | baseline Linux synchronous syscalls |
//! | [`LibaioFactory`] | Linux native AIO (`io_submit`/`io_getevents`) |
//! | [`UringFactory`] | io_uring with SQPOLL and fixed buffers |
//! | [`SpdkFactory`] | userspace driver, no file system, **no sharing** |
//! | [`XrpFactory`] | eBPF resubmission from the NVMe driver |
//! | [`BypassdFactory`] | BypassD UserLib (this paper) |
//!
//! A factory holds per-process state and mints per-thread backends (each
//! simulated workload thread owns one). The trait also exposes one
//! `chained_read` (used by the B-tree/BPF-KV engines), decided by a host
//! closure or a loaded IR program ([`ChainDecider`]): baselines and plain
//! BypassD interpret it over `pread`, XRP resubmits from the driver hook,
//! and BypassD+offload runs the program on the device; every path shares
//! the offload crate's hop budget. The async `submit`/`poll` pair (used
//! by KVell) is genuinely overlapped only by libaio.

pub mod aio_backend;
pub mod bypassd_backend;
pub mod spdk;
pub mod sync_backend;
pub mod traits;
pub mod uring_backend;
pub mod xrp_backend;

pub use aio_backend::LibaioFactory;
pub use bypassd_backend::BypassdFactory;
pub use spdk::{SpdkEnv, SpdkFactory};
pub use sync_backend::SyncFactory;
pub use traits::{BackendFactory, BackendKind, ChainDecider, OffloadProg, StorageBackend};
pub use uring_backend::UringFactory;
pub use xrp_backend::XrpFactory;

use bypassd::System;
use std::sync::Arc;

/// Builds a factory for `kind` over `system`, as user `uid`/`gid`.
/// Each factory models one *process*; call it once per simulated process.
pub fn make_factory(
    kind: BackendKind,
    system: &System,
    uid: u32,
    gid: u32,
) -> Arc<dyn BackendFactory> {
    match kind {
        BackendKind::Sync => Arc::new(SyncFactory::new(system, uid, gid)),
        BackendKind::Libaio => Arc::new(LibaioFactory::new(system, uid, gid, 1)),
        BackendKind::IoUring => Arc::new(UringFactory::new(system, uid, gid)),
        BackendKind::Spdk => Arc::new(SpdkFactory::new(system)),
        BackendKind::Xrp => Arc::new(XrpFactory::new(system, uid, gid)),
        BackendKind::Bypassd => Arc::new(BypassdFactory::new(system, uid, gid)),
        BackendKind::BypassdOffload => Arc::new(BypassdFactory::new_offload(system, uid, gid)),
    }
}
