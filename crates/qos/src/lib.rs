//! Multi-tenant I/O QoS for the shared SSD.
//!
//! BypassD's premise is a *shared* device (§3.1, Fig. 11), but once the
//! kernel is off the data path nothing stops one tenant with a deep
//! queue from starving a latency-sensitive neighbor. This crate is the
//! missing policy layer:
//!
//! * [`bucket`] — token buckets in virtual time, for per-tenant IOPS
//!   and bytes/s rate limits enforced at submission.
//! * [`arbiter`] — the device-facing [`arbiter::QosArbiter`]: it
//!   realises weighted fair shares under the simulator's eager
//!   completion model by capping each tenant's share-scaled media
//!   parallelism and pacing arrivals, and keeps per-tenant counters and
//!   latency histograms (always on; pacing only when enabled).
//! * [`config`] — [`config::QosConfig`] wired through
//!   `SystemBuilder::qos(..)`. The default (`enabled = false`) skips
//!   the admission logic entirely, so all paper figures stay
//!   bit-identical.
//!
//! Policy lives in the kernel (shares are registered at queue-pair bind
//! time, matching the paper's division of labor); the device only
//! enforces.

pub mod arbiter;
pub mod bucket;
pub mod config;
pub mod stats;

pub use arbiter::{Admission, QosArbiter, Tenant};
pub use bucket::{RateLimiter, TokenBucket};
pub use bypassd_trace::Histogram;
pub use config::{QosConfig, RateLimit, TenantShare};
pub use stats::TenantStats;
