//! Keyed `(tenant, value)` workloads for the multi-tenant arena.
//!
//! The scalar registry ([`mod@crate::registry`]) describes *one* stream;
//! these specs describe **who** each element belongs to as well as what
//! it is. Every generator is a pure function of
//! `(n, tenants, universe, seed)` — same inputs, same `(tenant, value)`
//! sequence bit for bit — so a serving-path run can be replayed offline
//! against isolated per-tenant summaries and compared exactly (the
//! tenant-isolation suite does exactly this).
//!
//! One shape is registered, **`tenant-zipf`** — *zipf of zipfs*:
//! tenant popularity is Zipf(1.2) over tenant ranks, and each tenant's
//! values are Zipf(1.1) over a tenant-private permutation of the
//! universe, so hot tenants dominate traffic while no two tenants share
//! a hot set.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::generators::{splitmix, ZipfTable};

/// A keyed workload generator: which tenant each element belongs to and
/// what the element is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyedSpec {
    /// Zipf(1.2) tenant popularity × per-tenant Zipf(1.1) values over a
    /// tenant-private permutation of the universe.
    ZipfOfZipfs,
}

impl KeyedSpec {
    /// Registry/CLI name.
    pub fn name(&self) -> &'static str {
        keyed_descriptor(self).name
    }

    /// Materialise the workload: `n` `(tenant, value)` pairs with
    /// `tenant < tenants` and `value < universe`.
    ///
    /// # Panics
    ///
    /// Panics if `tenants == 0` or `universe == 0`.
    pub fn generate(&self, n: usize, tenants: u64, universe: u64, seed: u64) -> Vec<(u64, u64)> {
        assert!(tenants > 0, "need at least one tenant");
        assert!(universe > 0, "universe must be non-empty");
        match self {
            KeyedSpec::ZipfOfZipfs => zipf_of_zipfs(n, tenants, universe, seed),
        }
    }
}

/// Map a per-tenant Zipf rank onto that tenant's private enumeration of
/// the universe: tenants agree on *how skewed* their traffic is but
/// never on *which* values are hot.
#[inline]
fn tenant_value(seed: u64, tenant: u64, rank: u64, universe: u64) -> u64 {
    splitmix(seed ^ tenant.wrapping_mul(0xA24B_AED4_963E_E407) ^ rank) % universe
}

fn zipf_of_zipfs(n: usize, tenants: u64, universe: u64, seed: u64) -> Vec<(u64, u64)> {
    let tenant_table = ZipfTable::cached(tenants, 1.2);
    let value_table = ZipfTable::cached(universe, 1.1);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let t = tenant_table.draw(&mut rng, tenants);
            let rank = value_table.draw(&mut rng, universe);
            (t, tenant_value(seed, t, rank, universe))
        })
        .collect()
}

/// One registered keyed workload: name, shape line, defaults, spec.
#[derive(Debug, Clone)]
pub struct KeyedWorkloadSpec {
    /// Registry name, as passed to [`keyed_workload`].
    pub name: &'static str,
    /// One-line shape description.
    pub shape: &'static str,
    /// Human-readable default parameters.
    pub params: &'static str,
    /// The generator behind the name.
    pub spec: KeyedSpec,
}

/// The keyed registry table. One row per workload; names are unique.
static KEYED_REGISTRY: &[KeyedWorkloadSpec] = &[KeyedWorkloadSpec {
    name: "tenant-zipf",
    shape: "Zipf tenant popularity x per-tenant Zipf values (private hot sets)",
    params: "tenant s = 1.2, value s = 1.1",
    spec: KeyedSpec::ZipfOfZipfs,
}];

/// All registered keyed workloads, in table order.
pub fn keyed_registry() -> &'static [KeyedWorkloadSpec] {
    KEYED_REGISTRY
}

/// Look a keyed workload up by its CLI/report name.
pub fn keyed_workload(name: &str) -> Option<&'static KeyedWorkloadSpec> {
    KEYED_REGISTRY.iter().find(|w| w.name == name)
}

/// The registry row describing a [`KeyedSpec`].
///
/// # Panics
///
/// Panics if the variant is unregistered — a bug, guarded by tests.
pub fn keyed_descriptor(spec: &KeyedSpec) -> &'static KeyedWorkloadSpec {
    KEYED_REGISTRY
        .iter()
        .find(|w| w.spec == *spec)
        .expect("every KeyedSpec variant has a registry row")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_round_trip() {
        for (i, a) in KEYED_REGISTRY.iter().enumerate() {
            for b in &KEYED_REGISTRY[i + 1..] {
                assert_ne!(a.name, b.name);
            }
            assert_eq!(keyed_workload(a.name).expect("resolves").name, a.name);
            assert_eq!(a.spec.name(), a.name);
        }
        assert!(keyed_workload("no-such-tenant-workload").is_none());
    }

    #[test]
    fn generation_is_deterministic_and_in_range() {
        for w in keyed_registry() {
            let a = w.spec.generate(5_000, 257, 1 << 16, 11);
            let b = w.spec.generate(5_000, 257, 1 << 16, 11);
            assert_eq!(a, b, "{}: same seed must replay bit-identically", w.name);
            assert_eq!(a.len(), 5_000);
            assert!(
                a.iter().all(|&(t, v)| t < 257 && v < (1 << 16)),
                "{}: out-of-range pair",
                w.name
            );
            let c = w.spec.generate(5_000, 257, 1 << 16, 12);
            assert_ne!(a, c, "{}: different seeds must differ", w.name);
        }
    }

    #[test]
    fn zipf_of_zipfs_has_a_dominant_head_with_private_hot_sets() {
        let xs = KeyedSpec::ZipfOfZipfs.generate(50_000, 64, 1 << 16, 3);
        let mut per_tenant = vec![0usize; 64];
        for &(t, _) in &xs {
            per_tenant[t as usize] += 1;
        }
        // Rank-0 tenant carries a clear plurality of the traffic.
        let max = *per_tenant.iter().max().expect("non-empty");
        assert_eq!(per_tenant[0], max, "tenant 0 is the Zipf head");
        assert!(per_tenant[0] > xs.len() / 10);
        // Hot sets are private: the two hottest tenants' modal values differ.
        let modal = |tenant: u64| -> u64 {
            let mut counts = std::collections::HashMap::new();
            for &(t, v) in &xs {
                if t == tenant {
                    *counts.entry(v).or_insert(0usize) += 1;
                }
            }
            counts.into_iter().max_by_key(|&(_, c)| c).expect("seen").0
        };
        assert_ne!(modal(0), modal(1), "tenant hot sets must not be shared");
    }
}
