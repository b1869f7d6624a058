//! Differential test for the arbiter's incremental active set: random
//! `register` / `admit` / `reset_clock` sequences, over 1–1,500 tenants
//! with weight changes and with monotone or out-of-order admission
//! times, must produce exactly the `Admission`s and `horizon()`s of the
//! original arbiter, which walked every tenant on every admission and is
//! kept here as the reference.
//!
//! CI runs this file in release mode with a raised `PROPTEST_CASES`.

use std::collections::BTreeMap;

use bypassd_hw::types::Pasid;
use bypassd_qos::{Admission, QosArbiter, QosConfig, RateLimit, RateLimiter, Tenant, TenantShare};
use bypassd_sim::time::Nanos;
use proptest::prelude::*;

struct ScanTenant {
    weight: u32,
    limiter: Option<RateLimiter>,
    lanes: Vec<Nanos>,
    busy_until: Nanos,
}

/// The scan-based arbiter: `active_weight` sums every tenant whose
/// activity window is open at `now`, and `horizon` folds every tenant.
struct ScanArbiter {
    config: QosConfig,
    channels: usize,
    tenants: BTreeMap<Tenant, ScanTenant>,
}

impl ScanArbiter {
    fn new(config: QosConfig, channels: usize) -> Self {
        ScanArbiter {
            config,
            channels: channels.max(1),
            tenants: BTreeMap::new(),
        }
    }

    fn ensure(&mut self, tenant: Tenant) -> &mut ScanTenant {
        let (share, channels) = (self.config.default_share, self.channels);
        self.tenants.entry(tenant).or_insert_with(|| ScanTenant {
            weight: share.weight,
            limiter: share.limit.as_ref().and_then(RateLimiter::from_limit),
            lanes: vec![Nanos::ZERO; channels],
            busy_until: Nanos::ZERO,
        })
    }

    fn register(&mut self, tenant: Tenant, share: TenantShare) {
        let st = self.ensure(tenant);
        st.weight = share.weight;
        st.limiter = share.limit.as_ref().and_then(RateLimiter::from_limit);
    }

    fn active_weight(&self, tenant: Tenant, now: Nanos) -> u64 {
        let grace = self.config.active_grace;
        self.tenants
            .iter()
            .filter(|(t, st)| **t == tenant || st.busy_until + grace > now)
            .map(|(_, st)| u64::from(st.weight))
            .sum::<u64>()
            .max(1)
    }

    fn admit(&mut self, tenant: Tenant, now: Nanos, service_est: Nanos, bytes: u64) -> Admission {
        self.ensure(tenant);
        let active_weight = self.active_weight(tenant, now);
        let channels = self.channels as u64;
        let st = self.tenants.get_mut(&tenant).expect("ensured above");
        let mut eligible = now;
        let mut throttled = false;
        if let Some(limiter) = &mut st.limiter {
            let conforming = limiter.reserve(now, bytes);
            if conforming > eligible {
                eligible = conforming;
                throttled = true;
            }
        }
        let k = (channels * u64::from(st.weight) / active_weight).clamp(1, channels) as usize;
        let (idx, &free) = st.lanes[..k]
            .iter()
            .enumerate()
            .min_by_key(|(i, &t)| (t, *i))
            .expect("k >= 1");
        let arrival = eligible.max(free);
        let deferred = arrival > eligible;
        st.lanes[idx] = arrival + service_est;
        st.busy_until = st.busy_until.max(st.lanes[idx]);
        Admission {
            arrival,
            throttled,
            deferred,
        }
    }

    fn horizon(&self) -> Nanos {
        self.tenants
            .values()
            .map(|st| st.busy_until)
            .fold(Nanos::ZERO, Nanos::max)
    }

    fn reset_clock(&mut self) {
        for st in self.tenants.values_mut() {
            st.lanes.fill(Nanos::ZERO);
            st.busy_until = Nanos::ZERO;
            if let Some(l) = &mut st.limiter {
                l.reset();
            }
        }
    }
}

/// Population sizes: mostly small, sometimes up to a k10 device's 1,250
/// tenants and beyond.
fn tenant_count(rng: &mut TestRng) -> u32 {
    match rng.below(4) {
        0 => 1 + rng.below(4) as u32,
        1 => 1 + rng.below(32) as u32,
        2 => 1 + rng.below(300) as u32,
        _ => 1 + rng.below(1_500) as u32,
    }
}

fn tenant(rng: &mut TestRng, n: u32) -> Tenant {
    // PASID 0 stands for the kernel queue.
    match rng.below(u64::from(n)) as u32 {
        0 => Tenant::Kernel,
        p => Tenant::User(Pasid(p)),
    }
}

fn share(rng: &mut TestRng) -> TenantShare {
    // Raw weights include 0, which `TenantShare::weight` would clamp.
    let mut s = TenantShare {
        weight: rng.below(9) as u32,
        limit: None,
    };
    if rng.below(4) == 0 {
        s = s.with_limit(RateLimit::iops(50_000 + rng.below(500_000)));
    }
    s
}

/// Drives both arbiters through one random sequence over `n` tenants,
/// comparing every admission and horizon. With `monotone` false, one
/// admission in five goes back to a random earlier time.
fn run_case(rng: &mut TestRng, n: u32, monotone: bool) {
    let channels = 1 + rng.below(16) as usize;
    let mut config = QosConfig::enabled();
    config.active_grace = Nanos([0, 1, 500, 20_000, 200_000][rng.below(5) as usize]);
    let ops = 200 + rng.below(1_800);

    let mut fast = QosArbiter::new(config.clone(), channels);
    let mut scan = ScanArbiter::new(config, channels);
    // Pre-register part of the population, as the kernel does at bind.
    for _ in 0..rng.below(u64::from(n) + 1) {
        let (t, s) = (tenant(rng, n), share(rng));
        fast.register(t, s);
        scan.register(t, s);
    }
    let mut now = Nanos::ZERO;
    for op in 0..ops {
        match rng.below(100) {
            0..=4 => {
                let (t, s) = (tenant(rng, n), share(rng));
                fast.register(t, s);
                scan.register(t, s);
            }
            5 => {
                fast.reset_clock();
                scan.reset_clock();
                now = Nanos::ZERO;
            }
            6 => {
                // Accounting alone creates a tenant with the default share.
                let t = tenant(rng, n);
                fast.record_submit(t);
                scan.ensure(t);
            }
            _ => {
                let step = match rng.below(8) {
                    0 => 0,
                    1..=5 => rng.below(5_000),
                    6 => rng.below(50_000),
                    _ => rng.below(2_000_000),
                };
                now = Nanos(now.0 + step);
                let at = if !monotone && rng.below(5) == 0 {
                    Nanos(rng.below(now.0 + 1))
                } else {
                    now
                };
                let t = tenant(rng, n);
                let service = Nanos(rng.below(40_000));
                let bytes = 512 * (1 + rng.below(256));
                let got = fast.admit(t, at, service, bytes);
                let want = scan.admit(t, at, service, bytes);
                assert_eq!(
                    got, want,
                    "op {op}: admit({t}, {at:?}) with {n} tenants, {channels} channels"
                );
            }
        }
        assert_eq!(fast.horizon(), scan.horizon(), "op {op}: horizon");
    }
}

proptest! {
    #[test]
    fn incremental_active_set_matches_the_tenant_scan(seed: u64) {
        let mut rng = TestRng::new("admission_differential", seed as u32);
        let n = tenant_count(&mut rng);
        let monotone = rng.below(2) == 0;
        run_case(&mut rng, n, monotone);
    }
}

/// The population sizes the fleet runs (251 and 1,250 tenants per
/// device), with admission times in order and out of order.
#[test]
fn fleet_sized_populations_match_the_tenant_scan() {
    for (case, n) in [251, 1_250].into_iter().enumerate() {
        for monotone in [true, false] {
            let mut rng = TestRng::new("fleet_sized", case as u32 * 2 + u32::from(monotone));
            run_case(&mut rng, n, monotone);
        }
    }
}
