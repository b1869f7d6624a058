//! # bypassd-ssd
//!
//! An NVMe SSD simulator calibrated to the Intel Optane P5800X envelope
//! the paper evaluates on:
//!
//! * [`store`] — a sparse in-memory sector store (512 B sectors, data is
//!   really kept and returned byte-for-byte).
//! * [`dma`] — pinned DMA buffers in simulated physical memory.
//! * [`queue`] — submission/completion queue pairs with doorbells; queues
//!   are bound to a PASID at creation (§3.3) so the device can issue ATS
//!   translation requests on behalf of the owning process.
//! * [`timing`] — the media/contention model: per-channel occupancy plus a
//!   shared transfer bus, yielding ~4 µs 4 KB reads at QD1 and ~1.5 M IOPS
//!   / ~7 GB/s at saturation (Fig. 9's envelope).
//! * [`device`] — the device itself: LBA commands (kernel & SPDK paths)
//!   and VBA commands that are translated through the BypassD-enhanced
//!   IOMMU, with reads serialising translation before media access and
//!   writes overlapping it (§4.3).

pub mod atc;
pub mod device;
pub mod dma;
pub mod queue;
pub mod store;
pub mod timing;

pub use atc::{AtcStats, AtsCache};
pub use device::{BlockAddr, Command, NvmeDevice, Opcode};
pub use dma::DmaBuffer;
pub use queue::{Completion, NvmeStatus, QueueId};
pub use timing::MediaTiming;
