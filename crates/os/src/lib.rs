//! # bypassd-os
//!
//! The simulated OS kernel the BypassD reproduction runs against:
//!
//! * [`cost`] — the latency model, calibrated to the paper's Table 1
//!   decomposition of a 4 KB `read()` on the Optane P5800X (mode switches,
//!   VFS+ext4, block layer, NVMe driver) plus copy bandwidths and the
//!   io_uring SQPOLL core-contention model (Fig. 9's collapse past 12
//!   threads).
//! * [`process`] — processes: credentials, page tables, PASID, fd table.
//! * [`pagecache`] — an LRU page cache for the buffered I/O path.
//! * [`kernel`] — the [`kernel::Kernel`]: POSIX-ish syscalls (`open`,
//!   `pread`, `pwrite`, `fsync`, `fallocate`, …), the BypassD `fmap()`
//!   syscall and user-queue creation ioctl, plus revocation plumbing.
//! * [`aio`] — libaio-style asynchronous contexts (`io_submit` /
//!   `io_getevents`).
//! * [`uring`] — io_uring with kernel-side submission-queue polling.
//! * [`offload`] — the verify-at-load `prog_load()` syscall and XRP's
//!   chained read, resubmitted from the driver's completion hook.
//!
//! ## Locking discipline
//!
//! Simulated actors run one-at-a-time, but they are real threads: holding
//! any lock across a virtual-time wait (`ActorCtx::delay`/`wait_until`)
//! deadlocks the simulation. Every method here computes under short lock
//! scopes and waits only with all locks released.

pub mod aio;
pub mod cost;
pub mod kernel;
pub mod offload;
pub mod pagecache;
pub mod process;
pub mod uring;

pub use cost::CostModel;
pub use kernel::{Errno, Kernel, OpenFlags, SysResult};
pub use process::Pid;
