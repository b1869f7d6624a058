//! Regression tests for the arbiter-determinism fix found by the R5
//! taint pass: `QosArbiter` iterated its tenant table as a `HashMap`,
//! and `active_weight` / `snapshot` / `totals` results flow into
//! admission arrivals, `Nanos` delays and (through the fleet report)
//! FNV fingerprints. The arbiter now looks tenants up in a hash map
//! but never iterates it: its reports walk a slot vector and `snapshot`
//! sorts by tenant. These tests pin the observable contract so the
//! container types cannot silently regress.

use bypassd_hw::types::Pasid;
use bypassd_qos::{QosArbiter, QosConfig, Tenant, TenantShare};
use bypassd_sim::rng::Fnv64;
use bypassd_sim::time::Nanos;

fn tenants() -> Vec<(Tenant, TenantShare)> {
    vec![
        (Tenant::Kernel, TenantShare::weight(2)),
        (Tenant::User(Pasid(7)), TenantShare::weight(1)),
        (Tenant::User(Pasid(3)), TenantShare::weight(4)),
        (Tenant::User(Pasid(21)), TenantShare::weight(1)),
    ]
}

/// Drives a fixed workload and folds every admission decision and the
/// final snapshot into one FNV-64 digest.
fn run_fingerprint(registration_order: &[usize]) -> u64 {
    let mut arb = QosArbiter::new(QosConfig::enabled(), 4);
    let ts = tenants();
    for &i in registration_order {
        let (t, s) = ts[i];
        arb.register(t, s);
    }
    let mut h = Fnv64::new();
    for round in 0u64..32 {
        for (t, _) in &ts {
            let a = arb.admit(*t, Nanos(round * 1_000), Nanos(2_500), 4096);
            h.write_u64(a.arrival.0);
            h.write_u64(u64::from(a.throttled) << 1 | u64::from(a.deferred));
        }
    }
    for (t, stats) in arb.snapshot() {
        h.write(t.to_string().as_bytes());
        h.write_u64(stats.submitted);
        h.write_u64(stats.throttled);
        h.write_u64(stats.deferred);
    }
    let (throttled, deferred) = arb.totals();
    h.write_u64(throttled);
    h.write_u64(deferred);
    h.write_u64(arb.horizon().0);
    h.finish()
}

/// Registration order must not leak into any arbiter-derived value.
/// Under the old `HashMap` table this held only by accident of the
/// hasher; the ordered table makes it a structural guarantee.
#[test]
fn fingerprint_is_invariant_under_registration_order() {
    let a = run_fingerprint(&[0, 1, 2, 3]);
    let b = run_fingerprint(&[3, 2, 1, 0]);
    let c = run_fingerprint(&[2, 0, 3, 1]);
    assert_eq!(a, b);
    assert_eq!(a, c);
}

/// The exact digest, pinned. If this changes, either the admission
/// math changed on purpose (update the constant and say why in the
/// commit) or tenant-table iteration became order-dependent again.
#[test]
fn admission_fingerprint_is_pinned() {
    assert_eq!(run_fingerprint(&[0, 1, 2, 3]), 0x12FA_4B04_1752_5C29);
}

/// `snapshot()` reports tenants in `Tenant` order — the property the
/// fleet report's per-tenant sections rely on for bit-identical output.
#[test]
fn snapshot_order_is_sorted_by_tenant() {
    let mut arb = QosArbiter::new(QosConfig::enabled(), 2);
    for &i in &[2usize, 0, 3, 1] {
        let (t, s) = tenants()[i];
        arb.register(t, s);
        arb.admit(t, Nanos::ZERO, Nanos(1_000), 512);
    }
    let order: Vec<Tenant> = arb.snapshot().into_iter().map(|(t, _)| t).collect();
    assert_eq!(
        order,
        vec![
            Tenant::Kernel,
            Tenant::User(Pasid(3)),
            Tenant::User(Pasid(7)),
            Tenant::User(Pasid(21)),
        ]
    );
}
