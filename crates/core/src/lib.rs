//! # bypassd
//!
//! The paper's primary contribution: **UserLib**, the userspace shim that
//! gives unmodified POSIX applications direct, protected access to a
//! shared NVMe SSD (§3.2, §4.2).
//!
//! * Metadata operations (`open`, appends, `fallocate`, `fsync`, `close`)
//!   are forwarded to the kernel.
//! * Data operations (`read`/`write` and positional variants) are issued
//!   straight to the device on per-thread NVMe queues. Requests carry
//!   **virtual block addresses** (the file's `fmap()` base plus the file
//!   offset); the device has the IOMMU translate and permission-check
//!   them against the process page table, so a process can only ever
//!   reach blocks of files it legitimately opened.
//! * On a translation fault (kernel revoked the mapping, §3.6), UserLib
//!   re-`fmap()`s; a null VBA means direct access is gone and the file
//!   transparently falls back to the kernel interface.
//!
//! ## Quickstart
//!
//! ```rust
//! use std::sync::Arc;
//! use bypassd::{System, UserProcess};
//! use bypassd_sim::Simulation;
//!
//! let system = System::builder().build();
//! system.fs().populate("/hello", 8192, 0x42).unwrap();
//! let sim = Simulation::new();
//! let sys = system.clone();
//! sim.spawn("app", move |ctx| {
//!     let proc = UserProcess::start(&sys, 1000, 1000);
//!     let mut thread = proc.thread();
//!     let fd = thread.open(ctx, "/hello", false).unwrap();
//!     let mut buf = vec![0u8; 4096];
//!     let n = thread.pread(ctx, fd, &mut buf, 0).unwrap();
//!     assert_eq!(n, 4096);
//!     assert!(buf.iter().all(|&b| b == 0x42));
//!     thread.close(ctx, fd).unwrap();
//! });
//! sim.run();
//! ```

pub mod crashlab;
pub mod fleet;
pub mod system;
pub mod userlib;

pub use bypassd_qos::{QosConfig, RateLimit, Tenant, TenantShare};
pub use bypassd_trace::{
    chrome_trace, direct_read_check, write_chrome_trace, Breakdown, DirectReadCheck,
    MetricsRegistry, Recorder, TraceConfig,
};
pub use crashlab::{CrashLab, CrashWorkload};
pub use fleet::{FleetBuilder, FleetConfig, FleetReport, LaneReport};
pub use system::{System, SystemBuilder};
pub use userlib::{ChainReq, ReadReq, UserProcess, UserThread};
