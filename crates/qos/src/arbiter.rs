//! The device-facing QoS arbiter.
//!
//! The simulated device computes every command's completion time at
//! submission (the eager ledger in `bypassd-ssd::timing`), so a
//! queue-based scheduler cannot reorder dispatch after the fact. The
//! arbiter therefore enforces weighted fair shares *at admission*, in two
//! composable steps:
//!
//! 1. **Token buckets** ([`crate::bucket`]) push the command's
//!    effective arrival to the earliest conforming virtual time
//!    (`throttled`).
//! 2. **Share-scaled media parallelism**: of the device's `channels`
//!    media channels, a tenant competing with other *active* tenants
//!    may only keep `channels × weight / Σ active weights` (≥ 1) booked
//!    ahead of time. Each tenant owns a private ledger of virtual
//!    "lanes"; a command is admitted on the earliest free lane of the
//!    tenant's current allocation, which delays its effective arrival
//!    while the allocation is saturated (`deferred`).
//!
//! This is the allocation a deficit-round-robin scheduler converges to
//! when every tenant is backlogged (service ∝ weight), but expressed as
//! arrival pacing: a deep-queue tenant's
//! backlog parks on its own future lanes instead of the shared channel
//! ledger, so a QD1 neighbor's commands find a free channel at `now`.
//! The active-set test (any media activity within `active_grace`) keeps
//! the scheme work-conserving at coarse grain: a tenant alone on the
//! device gets every lane, hence full throughput. The active set's
//! weight is maintained incrementally (`ActiveSet`), so admission
//! costs O(log tenants), not a walk over every registered tenant.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, HashMap};

use bypassd_hw::types::Pasid;
use bypassd_sim::time::Nanos;
use bypassd_sim::FixedState;

use crate::bucket::RateLimiter;
use crate::config::{QosConfig, TenantShare};
use crate::stats::TenantStats;

/// Who a command is accounted to: the queue pair's PASID binding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Tenant {
    /// Kernel-owned queues (no PASID): the kernel block layer, SPDK.
    Kernel,
    /// A PASID-bound user queue (BypassD direct I/O).
    User(Pasid),
}

impl std::fmt::Display for Tenant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tenant::Kernel => f.write_str("kernel"),
            Tenant::User(p) => write!(f, "pasid:{}", p.0),
        }
    }
}

/// Outcome of admitting one command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admission {
    /// Effective arrival time to hand to the media scheduler (≥ the
    /// submission time; equal to it when the command was not delayed).
    pub arrival: Nanos,
    /// Delayed by the tenant's token-bucket rate limit.
    pub throttled: bool,
    /// Delayed by the fair scheduler (tenant's lane allocation busy).
    pub deferred: bool,
}

#[derive(Debug)]
struct TenantState {
    tenant: Tenant,
    share: TenantShare,
    limiter: Option<RateLimiter>,
    /// Virtual per-tenant channel ledger (`free-at` times); only the
    /// first `k` lanes of the current allocation are bookable.
    lanes: Vec<Nanos>,
    /// Latest scheduled media activity; drives the active-set test.
    busy_until: Nanos,
    stats: TenantStats,
}

impl TenantState {
    fn new(tenant: Tenant, share: TenantShare, channels: usize) -> Self {
        TenantState {
            tenant,
            limiter: share.limit.as_ref().and_then(RateLimiter::from_limit),
            share,
            lanes: vec![Nanos::ZERO; channels],
            busy_until: Nanos::ZERO,
            stats: TenantStats::default(),
        }
    }
}

/// One tenant's entry in the [`ActiveSet`], kept apart from its
/// [`TenantState`] so that closing a window touches 24 bytes.
#[derive(Debug, Clone, Copy)]
struct Member {
    /// End of the activity window: `busy_until + grace`.
    end: Nanos,
    weight: u64,
    /// Counted in [`ActiveSet::weight`]: `end > clock`.
    active: bool,
}

/// The tenants active at `clock` (activity window `busy_until + grace`
/// still open) and their summed weight, maintained incrementally.
///
/// Every active tenant has exactly one `ends` entry, keyed at or before
/// its window's end (a window only grows while it is open, and the
/// entry is re-keyed when it surfaces); inactive tenants have none.
/// Moving the clock forward pops the entries that have come due:
/// O(log tenants) per tenant whose window closes. A clock moved
/// backward rebuilds the set by a scan, so the weight is exact for any
/// call order.
#[derive(Debug)]
struct ActiveSet {
    grace: Nanos,
    clock: Nanos,
    weight: u64,
    /// By tenant slot (index into [`QosArbiter::states`]).
    members: Vec<Member>,
    ends: BinaryHeap<Reverse<(Nanos, usize)>>,
}

impl ActiveSet {
    fn new(grace: Nanos) -> Self {
        ActiveSet {
            grace,
            clock: Nanos::ZERO,
            weight: 0,
            members: Vec::new(),
            ends: BinaryHeap::new(),
        }
    }

    /// Adds a tenant with no media activity yet, returning its slot.
    fn add(&mut self, weight: u64) -> usize {
        let slot = self.members.len();
        self.members.push(Member {
            end: self.grace,
            weight,
            active: false,
        });
        self.file(slot);
        slot
    }

    fn counts(&self, slot: usize) -> bool {
        self.members[slot].active
    }

    /// Records that the tenant's `busy_until` grew.
    fn extend(&mut self, slot: usize, busy_until: Nanos) {
        self.members[slot].end = busy_until.saturating_add(self.grace);
        self.file(slot);
    }

    fn set_weight(&mut self, slot: usize, weight: u64) {
        let m = &mut self.members[slot];
        if m.active {
            self.weight = self.weight - m.weight + weight;
        }
        m.weight = weight;
    }

    /// Counts the tenant if its window is open at the clock.
    fn file(&mut self, slot: usize) {
        let m = &mut self.members[slot];
        if !m.active && m.end > self.clock {
            m.active = true;
            self.weight += m.weight;
            self.ends.push(Reverse((m.end, slot)));
        }
    }

    /// Moves the clock to `now`, dropping tenants whose window closed.
    fn advance(&mut self, now: Nanos) {
        if now < self.clock {
            self.rebuild(now);
            return;
        }
        self.clock = now;
        while let Some(mut top) = self.ends.peek_mut() {
            let Reverse((key, slot)) = *top;
            if key > now {
                break;
            }
            let m = &mut self.members[slot];
            if m.end > now {
                *top = Reverse((m.end, slot));
            } else {
                m.active = false;
                self.weight -= m.weight;
                PeekMut::pop(top);
            }
        }
    }

    /// Recomputes the set at `clock` from every tenant's window.
    fn rebuild(&mut self, clock: Nanos) {
        self.clock = clock;
        self.weight = 0;
        self.ends.clear();
        for slot in 0..self.members.len() {
            self.members[slot].active = false;
            self.file(slot);
        }
    }

    /// Forgets all activity: every `busy_until` is back to zero.
    fn reset(&mut self) {
        for m in &mut self.members {
            m.end = self.grace;
        }
        self.rebuild(Nanos::ZERO);
    }
}

/// Per-device QoS enforcement state. The owning device serialises calls
/// under its own lock; the arbiter itself is plain mutable state.
#[derive(Debug)]
pub struct QosArbiter {
    config: QosConfig,
    channels: usize,
    /// Tenant → slot in `states` and the active set; lookups only (the
    /// reports walk `states`, which does not depend on hashing).
    slots: HashMap<Tenant, usize, FixedState>,
    /// By slot, in order of first sight.
    states: Vec<TenantState>,
    active: ActiveSet,
    /// Latest `busy_until` over all tenants.
    horizon: Nanos,
}

impl QosArbiter {
    /// An arbiter for a device with `channels` media channels.
    pub fn new(config: QosConfig, channels: usize) -> Self {
        QosArbiter {
            active: ActiveSet::new(config.active_grace),
            config,
            channels: channels.max(1),
            slots: HashMap::default(),
            states: Vec::new(),
            horizon: Nanos::ZERO,
        }
    }

    /// Whether pacing/throttling/backpressure are in force. When false,
    /// the device must not call [`QosArbiter::admit`]; accounting stays
    /// available either way.
    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    /// The configuration in force.
    pub fn config(&self) -> &QosConfig {
        &self.config
    }

    /// The share applied to unregistered tenants.
    pub fn default_share(&self) -> TenantShare {
        self.config.default_share
    }

    /// Registers (or updates) `tenant`'s share. Called by the kernel at
    /// queue-pair bind time; accounting history is preserved.
    pub fn register(&mut self, tenant: Tenant, share: TenantShare) {
        let slot = self.slot(tenant);
        let st = &mut self.states[slot];
        st.share = share;
        st.limiter = share.limit.as_ref().and_then(RateLimiter::from_limit);
        self.active.set_weight(slot, u64::from(share.weight));
    }

    /// `tenant`'s slot, created with the default share on first sight.
    fn slot(&mut self, tenant: Tenant) -> usize {
        let (share, channels) = (self.config.default_share, self.channels);
        let (states, active) = (&mut self.states, &mut self.active);
        *self.slots.entry(tenant).or_insert_with(|| {
            states.push(TenantState::new(tenant, share, channels));
            active.add(u64::from(share.weight))
        })
    }

    fn ensure(&mut self, tenant: Tenant) -> &mut TenantState {
        let slot = self.slot(tenant);
        &mut self.states[slot]
    }

    /// Admits one command submitted at `now` whose media service is
    /// estimated at `service_est`, returning its effective arrival.
    /// Only called when [`QosArbiter::enabled`].
    pub fn admit(
        &mut self,
        tenant: Tenant,
        now: Nanos,
        service_est: Nanos,
        bytes: u64,
    ) -> Admission {
        self.active.advance(now);
        let slot = self.slot(tenant);
        let st = &mut self.states[slot];
        // Sum of weights over tenants active at `now`, always counting
        // `tenant` itself.
        let weight = u64::from(st.share.weight);
        let own = if self.active.counts(slot) { 0 } else { weight };
        let active_weight = (self.active.weight + own).max(1);
        let channels = self.channels as u64;

        let mut eligible = now;
        let mut throttled = false;
        if let Some(limiter) = &mut st.limiter {
            let conforming = limiter.reserve(now, bytes);
            if conforming > eligible {
                eligible = conforming;
                throttled = true;
            }
        }

        // Lane allocation: this tenant's share of the device's internal
        // parallelism given who else is currently active.
        let k = (channels * weight / active_weight).clamp(1, channels) as usize;
        let (idx, &free) = st.lanes[..k]
            .iter()
            .enumerate()
            .min_by_key(|(i, &t)| (t, *i))
            .expect("k >= 1");
        let arrival = eligible.max(free);
        let deferred = arrival > eligible;
        st.lanes[idx] = arrival + service_est;
        st.busy_until = st.busy_until.max(st.lanes[idx]);
        self.horizon = self.horizon.max(st.busy_until);
        self.active.extend(slot, st.busy_until);

        if throttled {
            st.stats.throttled += 1;
        }
        if deferred {
            st.stats.deferred += 1;
        }
        Admission {
            arrival,
            throttled,
            deferred,
        }
    }

    /// Latest media activity booked on any tenant's lanes. The device's
    /// flush barrier drains to this horizon when QoS pacing (which
    /// bypasses the shared channel ledger) is in force.
    pub fn horizon(&self) -> Nanos {
        self.horizon
    }

    /// Accounts a command accepted into a queue pair.
    pub fn record_submit(&mut self, tenant: Tenant) {
        self.ensure(tenant).stats.submitted += 1;
    }

    /// Accounts a submission bounced with a full queue.
    pub fn record_rejected(&mut self, tenant: Tenant) {
        self.ensure(tenant).stats.rejected += 1;
    }

    /// Accounts device-side offload hops (chain `Resubmit` reads beyond
    /// the host-submitted first read) so per-tenant reporting sees the
    /// media work a chain performed on the tenant's behalf.
    pub fn record_offload_hops(&mut self, tenant: Tenant, hops: u64) {
        self.ensure(tenant).stats.offload_hops += hops;
    }

    /// Accounts a command's completion: `ok` selects completed/failed;
    /// successful data movement adds `read_bytes`/`written_bytes`.
    pub fn record_completion(
        &mut self,
        tenant: Tenant,
        latency: Nanos,
        ok: bool,
        read_bytes: u64,
        written_bytes: u64,
    ) {
        let st = self.ensure(tenant);
        if ok {
            st.stats.completed += 1;
            st.stats.read_bytes += read_bytes;
            st.stats.written_bytes += written_bytes;
            st.stats.latency.record(latency);
        } else {
            st.stats.failed += 1;
        }
    }

    /// Aggregate (throttled, deferred) across tenants.
    pub fn totals(&self) -> (u64, u64) {
        self.states.iter().fold((0, 0), |(t, d), st| {
            (t + st.stats.throttled, d + st.stats.deferred)
        })
    }

    /// One tenant's accounting.
    pub fn tenant_stats(&self, tenant: Tenant) -> Option<TenantStats> {
        let slot = *self.slots.get(&tenant)?;
        Some(self.states[slot].stats.clone())
    }

    /// All tenants' accounting, ordered by tenant for determinism.
    pub fn snapshot(&self) -> Vec<(Tenant, TenantStats)> {
        let mut all: Vec<(Tenant, TenantStats)> = self
            .states
            .iter()
            .map(|st| (st.tenant, st.stats.clone()))
            .collect();
        all.sort_unstable_by_key(|(t, _)| *t);
        all
    }

    /// Forgets absolute time (lane ledgers, activity marks, bucket
    /// clocks) so a fresh simulation starting at t=0 does not inherit
    /// backlog. Accounting is preserved, mirroring `DeviceStats` across
    /// `reset_timing`.
    pub fn reset_clock(&mut self) {
        for st in &mut self.states {
            st.lanes.fill(Nanos::ZERO);
            st.busy_until = Nanos::ZERO;
            if let Some(l) = &mut st.limiter {
                l.reset();
            }
        }
        self.horizon = Nanos::ZERO;
        self.active.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RateLimit;

    const SERVICE: Nanos = Nanos(4_000);

    fn arbiter() -> QosArbiter {
        QosArbiter::new(QosConfig::enabled(), 6)
    }

    fn t(p: u32) -> Tenant {
        Tenant::User(Pasid(p))
    }

    #[test]
    fn solo_tenant_is_never_delayed_at_low_depth() {
        let mut a = arbiter();
        let mut now = Nanos::ZERO;
        for _ in 0..32 {
            let adm = a.admit(t(1), now, SERVICE, 4096);
            assert_eq!(adm.arrival, now, "QD1 tenant must admit immediately");
            assert!(!adm.throttled && !adm.deferred);
            now = now + SERVICE + Nanos(500);
        }
    }

    #[test]
    fn solo_tenant_gets_all_lanes() {
        // A lone flooder books all 6 lanes before deferring: the scheme
        // is work-conserving when nobody competes.
        let mut a = arbiter();
        let mut deferred_at = None;
        for i in 0..8 {
            let adm = a.admit(t(1), Nanos::ZERO, SERVICE, 4096);
            if adm.deferred && deferred_at.is_none() {
                deferred_at = Some(i);
            }
        }
        assert_eq!(deferred_at, Some(6));
    }

    #[test]
    fn contended_equal_weights_halve_the_lanes() {
        let mut a = arbiter();
        // Make tenant 2 active.
        a.admit(t(2), Nanos::ZERO, SERVICE, 4096);
        // Tenant 1 now only gets 3 of 6 lanes.
        let mut deferred_at = None;
        for i in 0..6 {
            let adm = a.admit(t(1), Nanos::ZERO, SERVICE, 4096);
            if adm.deferred && deferred_at.is_none() {
                deferred_at = Some(i);
            }
        }
        assert_eq!(deferred_at, Some(3));
    }

    #[test]
    fn flooder_does_not_consume_a_light_tenants_lanes() {
        let mut a = arbiter();
        // Antagonist floods 16 deep at t=0.
        for _ in 0..16 {
            a.admit(t(2), Nanos::ZERO, SERVICE, 4096);
        }
        // The QD1 foreground still admits at now: its own lanes are free.
        let adm = a.admit(t(1), Nanos(100), SERVICE, 4096);
        assert_eq!(adm.arrival, Nanos(100));
        assert!(!adm.deferred);
    }

    #[test]
    fn weights_skew_lane_allocation() {
        let mut a = QosArbiter::new(QosConfig::enabled(), 6);
        a.register(t(1), TenantShare::weight(2));
        a.register(t(2), TenantShare::weight(1));
        a.admit(t(2), Nanos::ZERO, SERVICE, 4096);
        // weight 2 of total 3 → 4 of 6 lanes.
        let mut deferred_at = None;
        for i in 0..6 {
            let adm = a.admit(t(1), Nanos::ZERO, SERVICE, 4096);
            if adm.deferred && deferred_at.is_none() {
                deferred_at = Some(i);
            }
        }
        assert_eq!(deferred_at, Some(4));
    }

    #[test]
    fn idle_tenant_leaves_the_active_set() {
        let mut a = arbiter();
        a.admit(t(2), Nanos::ZERO, SERVICE, 4096);
        // Far beyond busy_until + grace, tenant 2 no longer halves
        // tenant 1's allocation.
        let later = Nanos::from_millis(10);
        let mut deferred_at = None;
        for i in 0..8 {
            let adm = a.admit(t(1), later, SERVICE, 4096);
            if adm.deferred && deferred_at.is_none() {
                deferred_at = Some(i);
            }
        }
        assert_eq!(deferred_at, Some(6));
    }

    #[test]
    fn iops_limit_throttles_and_spaces() {
        let mut a = QosArbiter::new(QosConfig::enabled(), 6);
        a.register(
            t(1),
            TenantShare::weight(1).with_limit(RateLimit {
                iops: Some(1000),
                bytes_per_sec: None,
                burst_ops: 1,
                burst_bytes: 0,
            }),
        );
        let first = a.admit(t(1), Nanos::ZERO, SERVICE, 4096);
        assert!(!first.throttled);
        let second = a.admit(t(1), Nanos::ZERO, SERVICE, 4096);
        assert!(second.throttled);
        assert_eq!(second.arrival, Nanos::from_millis(1));
        assert_eq!(a.tenant_stats(t(1)).unwrap().throttled, 1);
    }

    #[test]
    fn accounting_tracks_every_op() {
        let mut a = arbiter();
        a.record_submit(t(1));
        a.record_submit(t(1));
        a.record_submit(t(1));
        a.record_completion(t(1), Nanos(4000), true, 4096, 0);
        a.record_completion(t(1), Nanos(4000), true, 0, 4096);
        a.record_completion(t(1), Nanos(100), false, 0, 0);
        let s = a.tenant_stats(t(1)).unwrap();
        assert!(s.accounted());
        assert_eq!((s.completed, s.failed), (2, 1));
        assert_eq!((s.read_bytes, s.written_bytes), (4096, 4096));
        assert_eq!(s.latency.count(), 2);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let mut a = arbiter();
        a.record_submit(t(9));
        a.record_submit(Tenant::Kernel);
        a.record_submit(t(3));
        let snap = a.snapshot();
        let order: Vec<Tenant> = snap.iter().map(|(t, _)| *t).collect();
        assert_eq!(order, vec![Tenant::Kernel, t(3), t(9)]);
    }

    #[test]
    fn reset_clock_clears_backlog_but_keeps_stats() {
        let mut a = arbiter();
        for _ in 0..12 {
            a.admit(t(1), Nanos::ZERO, SERVICE, 4096);
        }
        a.record_submit(t(1));
        a.reset_clock();
        let adm = a.admit(t(1), Nanos::ZERO, SERVICE, 4096);
        assert!(!adm.deferred, "reset must clear the lane ledger");
        assert_eq!(a.tenant_stats(t(1)).unwrap().submitted, 1);
    }
}
