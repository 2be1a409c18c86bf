//! Tenant isolation, pinned as a property: a [`TenantArena`] must be
//! observationally equivalent to `K` fully isolated per-tenant
//! summaries — one `ReservoirSampler` per tenant, seeded
//! `tenant_seed(base_seed, t)` — no matter how tenants interleave, how
//! traffic is framed, or how often the budget forces checkpoint-evict /
//! revive cycles. Three layers:
//!
//! * **arena ≡ isolated summaries** — arbitrary interleavings, frame
//!   sizes, budgets, and robust/break-scale sizing: every touched
//!   tenant's sample, item count, quantiles, and count estimates are
//!   bit-identical to its private sampler;
//! * **eviction transparency** — the same stream through a one-slot
//!   arena (every switch checkpoints) and a never-evicting arena leaves
//!   every tenant bit-identical, so the eviction *schedule* is
//!   unobservable;
//! * **over the wire** — the same contract holds through the binary TCP
//!   protocol (`TINGEST`/`TSNAP`/`TQUANTILE`/`TCOUNT` frames against a
//!   live [`ServiceServer`]), with running-total acks, real arena
//!   eviction churn under a three-slot budget, and `STATS` arena
//!   counters equal to an offline arena fed the same frames.
//!
//! In process, resident bytes stay within the budget after every frame.
//!
//! [`TenantArena`]: robust_sampling::service::tenant::TenantArena
//! [`ServiceServer`]: robust_sampling::service::ServiceServer

use proptest::prelude::*;
use robust_sampling::core::sampler::{ReservoirSampler, StreamSampler};
use robust_sampling::service::tenant::{tenant_seed, TenantArena, TenantArenaConfig};
use robust_sampling::service::{ServiceClient, ServiceConfig, ServiceServer, SummaryService};
use std::collections::BTreeMap;

const UNIVERSE: u64 = 1 << 16;
const BASE_SEED: u64 = 42;

/// An arena holding exactly `budget_slots` resident tenants.
fn squeezed(budget_slots: usize, robust: bool, base_seed: u64) -> TenantArena {
    let cfg = TenantArenaConfig {
        universe: UNIVERSE,
        eps: 0.2,
        delta: 0.1,
        budget_bytes: 1, // clamped to one slot; replaced below
        base_seed,
        robust,
    };
    let slot = TenantArena::new(cfg).slot_bytes();
    TenantArena::new(TenantArenaConfig {
        budget_bytes: budget_slots * slot,
        ..cfg
    })
}

/// Feed an interleaved `(tenant, value)` stream into `sink` as
/// maximal same-tenant runs within `split`-sized windows — the framing
/// an ingest path would batch, without reordering anything.
fn for_each_run(pairs: &[(u64, u64)], split: usize, mut sink: impl FnMut(u64, &[u64])) {
    let mut frame: Vec<u64> = Vec::new();
    for window in pairs.chunks(split.max(1)) {
        let mut i = 0;
        while i < window.len() {
            let tenant = window[i].0;
            frame.clear();
            while i < window.len() && window[i].0 == tenant {
                frame.push(window[i].1);
                i += 1;
            }
            sink(tenant, &frame);
        }
    }
}

/// The per-tenant isolated comparators for `pairs` under the arena's
/// seeding contract, keyed by tenant.
fn isolated(
    pairs: &[(u64, u64)],
    k: usize,
    base_seed: u64,
) -> BTreeMap<u64, ReservoirSampler<u64>> {
    let mut map: BTreeMap<u64, ReservoirSampler<u64>> = BTreeMap::new();
    for &(t, v) in pairs {
        map.entry(t)
            .or_insert_with(|| ReservoirSampler::with_seed(k, tenant_seed(base_seed, t)))
            .observe(v);
    }
    map
}

/// The arena's quantile convention, computed from a raw sample.
fn sample_quantile(sample: &[u64], q: f64) -> Option<u64> {
    let mut sorted = sample.to_vec();
    if sorted.is_empty() {
        return None;
    }
    sorted.sort_unstable();
    let target = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[target - 1])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The arena is `K` isolated summaries: for any interleaving, frame
    /// schedule, budget, and sizing mode, every touched tenant's whole
    /// observable surface matches its private sampler bit-for-bit —
    /// including tenants that are checkpointed cold when queried.
    #[test]
    fn arena_matches_isolated_summaries(
        budget_slots in 1usize..6,
        robust in any::<bool>(),
        base_seed in 0u64..10_000,
        pairs in proptest::collection::vec((0u64..12, 0u64..UNIVERSE), 0..600),
        split in 1usize..64,
    ) {
        let mut arena = squeezed(budget_slots, robust, base_seed);
        let budget = budget_slots * arena.slot_bytes();
        for_each_run(&pairs, split, |t, frame| {
            arena.ingest(t, frame);
            assert!(arena.resident_bytes() <= budget, "resident bytes over budget");
        });
        let iso = isolated(&pairs, arena.reservoir_k(), base_seed);
        if iso.len() > arena.max_resident() {
            prop_assert!(
                arena.counters().evictions > 0,
                "{} tenants through {} slots must evict",
                iso.len(),
                arena.max_resident()
            );
        }
        for (&t, sampler) in &iso {
            prop_assert_eq!(arena.sample(t), sampler.sample());
            prop_assert_eq!(arena.items(t), sampler.observed());
            for q in [0.0, 0.5, 1.0] {
                prop_assert_eq!(arena.quantile(t, q), sample_quantile(sampler.sample(), q));
            }
            if let Some(&(_, probe)) = pairs.iter().find(|&&(pt, _)| pt == t) {
                let sample = sampler.sample();
                let want = if sample.is_empty() {
                    0.0
                } else {
                    let hits = sample.iter().filter(|&&v| v == probe).count();
                    hits as f64 / sample.len() as f64 * sampler.observed() as f64
                };
                prop_assert_eq!(arena.count(t, probe), want);
            }
        }
    }

    /// The eviction schedule is unobservable: the same stream through a
    /// one-slot arena (every tenant switch is a checkpoint-evict plus a
    /// revival) and through a never-evicting arena leaves every tenant
    /// in the identical state.
    #[test]
    fn eviction_schedule_is_transparent(
        robust in any::<bool>(),
        base_seed in 0u64..10_000,
        pairs in proptest::collection::vec((0u64..8, 0u64..UNIVERSE), 0..400),
        split in 1usize..32,
    ) {
        let mut tight = squeezed(1, robust, base_seed);
        let mut loose = squeezed(64, robust, base_seed);
        for_each_run(&pairs, split, |t, frame| {
            tight.ingest(t, frame);
            loose.ingest(t, frame);
            assert!(tight.resident_bytes() <= tight.slot_bytes(), "one-slot arena over budget");
        });
        prop_assert_eq!(loose.counters().evictions, 0);
        let tenants: std::collections::BTreeSet<u64> = pairs.iter().map(|&(t, _)| t).collect();
        for &t in &tenants {
            prop_assert_eq!(tight.sample(t), loose.sample(t));
            prop_assert_eq!(tight.items(t), loose.items(t));
        }
    }
}

/// The isolation contract through the binary TCP protocol: interleaved
/// tenant frames against a live server whose arena holds three slots
/// (so the eight tenants churn through real evict/revive cycles), with
/// every ack checked as a running per-tenant total and every query
/// answer compared to the tenant's private sampler.
#[test]
fn wire_protocol_preserves_tenant_isolation() {
    let tenants_cfg = TenantArenaConfig {
        universe: UNIVERSE,
        eps: 0.2,
        delta: 0.1,
        budget_bytes: 1, // clamped to one slot; replaced below
        base_seed: BASE_SEED,
        robust: true,
    };
    let slot = TenantArena::new(tenants_cfg).slot_bytes();
    let tenants_cfg = TenantArenaConfig {
        budget_bytes: 3 * slot,
        ..tenants_cfg
    };
    let k = TenantArena::new(tenants_cfg).reservoir_k();

    let svc = SummaryService::start(2, 7, 4096, |_, s| ReservoirSampler::with_seed(256, s));
    let server = ServiceServer::spawn(
        svc,
        ServiceConfig {
            addr: "127.0.0.1:0".into(),
            universe: UNIVERSE,
            workers: 2,
            tenants: Some(tenants_cfg),
        },
    )
    .expect("spawn tenant-aware server");
    let client = ServiceClient::connect_binary(server.addr()).expect("connect binary client");

    // Eight tenants, interleaved in rotating frame sizes so frames of
    // different tenants alternate on one connection.
    let mut pairs: Vec<(u64, u64)> = Vec::new();
    let mut x = 0u64;
    for round in 0..40u64 {
        for t in 0..8u64 {
            let frame_len = 1 + ((round + t) % 7) as usize;
            for _ in 0..frame_len {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                pairs.push((t, x % UNIVERSE));
            }
        }
    }
    let mut sent: BTreeMap<u64, usize> = BTreeMap::new();
    let mut offline = TenantArena::new(tenants_cfg);
    for_each_run(&pairs, 16, |t, frame| {
        let acked = client.tenant_ingest(t, frame).expect("TINGEST frame");
        let total = sent.entry(t).or_insert(0);
        *total += frame.len();
        assert_eq!(acked, *total, "ack is the tenant's running item total");
        offline.ingest(t, frame);
    });

    // The server's arena took the same frames as `offline`, so its STATS
    // arena counters are `offline`'s, and its bytes are within budget.
    let stats = client.stats().expect("STATS");
    assert_eq!(stats.arena_tenants, offline.known_tenants());
    assert_eq!(stats.arena_bytes, offline.resident_bytes());
    assert_eq!(stats.arena_evictions, offline.counters().evictions);
    assert!(stats.arena_bytes <= tenants_cfg.budget_bytes);

    let iso = isolated(&pairs, k, BASE_SEED);
    for (&t, sampler) in &iso {
        let (items, sample) = client.tenant_snapshot(t).expect("TSNAP");
        assert_eq!(items, sampler.observed(), "tenant {t} item count");
        assert_eq!(sample, sampler.sample(), "tenant {t} sample");
        assert_eq!(
            client.tenant_quantile(t, 0.5).expect("TQUANTILE"),
            sample_quantile(sampler.sample(), 0.5),
            "tenant {t} median"
        );
        let probe = pairs.iter().find(|&&(pt, _)| pt == t).unwrap().1;
        let want = {
            let sample = sampler.sample();
            let hits = sample.iter().filter(|&&v| v == probe).count();
            hits as f64 / sample.len().max(1) as f64 * sampler.observed() as f64
        };
        assert_eq!(client.tenant_count(t, probe).expect("TCOUNT"), want);
    }

    let stats = client.stats().expect("STATS");
    assert_eq!(stats.arena_tenants, 8, "all eight tenants known");
    assert!(
        stats.arena_evictions > 0,
        "eight tenants through three slots must evict"
    );
    client.quit().expect("QUIT");
}
