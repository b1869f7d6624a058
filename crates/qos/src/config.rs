//! QoS policy configuration.

use bypassd_sim::time::Nanos;

/// Per-tenant rate limit, enforced by token buckets at submission.
///
/// `None` fields are unlimited. Burst sizes bound how far a briefly-idle
/// tenant may run ahead of its steady-state rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimit {
    /// Operations per second, if limited.
    pub iops: Option<u64>,
    /// Bytes per second, if limited.
    pub bytes_per_sec: Option<u64>,
    /// Burst allowance in operations.
    pub burst_ops: u64,
    /// Burst allowance in bytes.
    pub burst_bytes: u64,
}

impl RateLimit {
    /// An IOPS-only limit with a small default burst.
    pub fn iops(limit: u64) -> Self {
        RateLimit {
            iops: Some(limit),
            bytes_per_sec: None,
            burst_ops: (limit / 10).max(8),
            burst_bytes: 0,
        }
    }

    /// A bandwidth-only limit with a small default burst.
    pub fn bytes_per_sec(limit: u64) -> Self {
        RateLimit {
            iops: None,
            bytes_per_sec: Some(limit),
            burst_ops: 0,
            burst_bytes: (limit / 10).max(64 * 1024),
        }
    }

    /// Adds an IOPS cap to an existing limit.
    pub fn with_iops(mut self, limit: u64) -> Self {
        self.iops = Some(limit);
        self.burst_ops = (limit / 10).max(8);
        self
    }
}

/// A tenant's share of the device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantShare {
    /// Fair-scheduling weight (relative; clamped to ≥ 1).
    pub weight: u32,
    /// Optional hard rate limit on top of the fair share.
    pub limit: Option<RateLimit>,
}

impl TenantShare {
    /// A weight-only share.
    pub fn weight(weight: u32) -> Self {
        TenantShare {
            weight: weight.max(1),
            limit: None,
        }
    }

    /// Attaches a rate limit.
    pub fn with_limit(mut self, limit: RateLimit) -> Self {
        self.limit = Some(limit);
        self
    }
}

impl Default for TenantShare {
    fn default() -> Self {
        TenantShare::weight(1)
    }
}

/// QoS subsystem configuration, passed to `SystemBuilder::qos(..)`.
///
/// With `enabled = false` (the default) the device skips admission
/// entirely — the data path is bit-identical to a build without the QoS
/// subsystem — while per-tenant accounting stays on (it never moves
/// virtual time).
#[derive(Debug, Clone, PartialEq)]
pub struct QosConfig {
    /// Master switch for pacing, rate limits and backpressure signaling.
    pub enabled: bool,
    /// Share applied to tenants without an explicit registration.
    pub default_share: TenantShare,
    /// How long after its last scheduled media activity a tenant still
    /// counts as active for share scaling. Covers the host-side gap
    /// between a completion and the tenant's next submission, so a
    /// closed-loop QD1 tenant keeps its reservation between ops.
    pub active_grace: Nanos,
    /// Shares keyed by uid, registered with the kernel's policy table at
    /// build time (the kernel applies them when a process binds a queue
    /// pair).
    pub uid_shares: Vec<(u32, TenantShare)>,
}

impl Default for QosConfig {
    fn default() -> Self {
        QosConfig {
            enabled: false,
            default_share: TenantShare::default(),
            active_grace: Nanos(20_000),
            uid_shares: Vec::new(),
        }
    }
}

impl QosConfig {
    /// An enabled config with default shares.
    pub fn enabled() -> Self {
        QosConfig {
            enabled: true,
            ..QosConfig::default()
        }
    }

    /// Sets the share for a uid (applied at queue-pair bind time).
    pub fn uid_share(mut self, uid: u32, share: TenantShare) -> Self {
        self.uid_shares.retain(|(u, _)| *u != uid);
        self.uid_shares.push((uid, share));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled_and_neutral() {
        let c = QosConfig::default();
        assert!(!c.enabled);
        assert_eq!(c.default_share.weight, 1);
        assert!(c.default_share.limit.is_none());
        assert!(c.uid_shares.is_empty());
    }

    #[test]
    fn weight_clamps_to_one() {
        assert_eq!(TenantShare::weight(0).weight, 1);
    }

    #[test]
    fn uid_share_replaces_previous() {
        let c = QosConfig::enabled()
            .uid_share(7, TenantShare::weight(2))
            .uid_share(7, TenantShare::weight(5));
        assert_eq!(c.uid_shares, vec![(7, TenantShare::weight(5))]);
    }

    #[test]
    fn rate_limit_constructors_set_bursts() {
        let r = RateLimit::iops(1000);
        assert_eq!(r.burst_ops, 100);
        let r = RateLimit::bytes_per_sec(1 << 20);
        assert!(r.burst_bytes >= 64 * 1024);
        let r = RateLimit::bytes_per_sec(1 << 30).with_iops(50);
        assert_eq!(r.iops, Some(50));
        assert!(r.bytes_per_sec.is_some());
    }
}
