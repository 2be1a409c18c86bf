//! Tenant isolation, pinned as a property: a [`TenantArena`] must be
//! observationally equivalent to `K` fully isolated per-tenant
//! summaries — one `ReservoirSampler` per tenant, seeded
//! `tenant_seed(base_seed, t)` — no matter how tenants interleave, how
//! traffic is framed, or how often the budget forces evict / revive
//! cycles. Four layers:
//!
//! * **arena ≡ isolated summaries** — arbitrary interleavings, frame
//!   sizes, budgets, and robust/break-scale sizing: every touched
//!   tenant's sample, item count, quantiles, and count estimates are
//!   bit-identical to its private sampler;
//! * **eviction transparency** — the same stream through a one-slot
//!   arena (every switch evicts) and a never-evicting arena leaves
//!   every tenant bit-identical, so the eviction *schedule* is
//!   unobservable;
//! * **tenants that cross k** — with a small static `k`, tenants fill
//!   mid-run, so full and partial tenants are evicted and revived in
//!   every combination; after every frame the touched tenant matches its
//!   private sampler and the cold tier is charged exactly its
//!   checkpoint size;
//! * **over the wire** — the same contract holds through the binary TCP
//!   protocol (`TINGEST`/`TSNAP`/`TQUANTILE`/`TCOUNT` frames against a
//!   live [`ServiceServer`]), with running-total acks, real arena
//!   eviction churn under a three-slot budget, and `STATS` arena
//!   counters equal to an offline arena fed the same frames; each
//!   tenant's `TSNAPSHOT` reads the same over the text protocol.
//!
//! In process, resident bytes stay within the budget after every frame.
//!
//! [`TenantArena`]: robust_sampling::service::tenant::TenantArena
//! [`ServiceServer`]: robust_sampling::service::ServiceServer

use proptest::prelude::*;
use robust_sampling::core::sampler::{ReservoirSampler, StreamSampler};
use robust_sampling::service::tenant::{tenant_seed, TenantArena, TenantArenaConfig};
use robust_sampling::service::{ServiceClient, ServiceConfig, ServiceServer, SummaryService};
use std::collections::{BTreeMap, BTreeSet};

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

/// An arena with the static sizing at ε = 0.5, so `k` = 32 and a few
/// frames fill a tenant, holding exactly `budget_slots` tenants.
fn small_k(budget_slots: usize, base_seed: u64) -> TenantArena {
    let cfg = TenantArenaConfig {
        universe: UNIVERSE,
        eps: 0.5,
        delta: 0.1,
        budget_bytes: 1, // clamped to one slot; replaced below
        base_seed,
        robust: false,
    };
    let slot = TenantArena::new(cfg).slot_bytes();
    TenantArena::new(TenantArenaConfig {
        budget_bytes: budget_slots * slot,
        ..cfg
    })
}

/// Misses seen by [`churn_across_k`], indexed `[victim full][revived
/// full]`: an eviction and a revival in the same frame.
type Crossings = [[usize; 2]; 2];

/// Feed `frames` of `(tenant, length)` into `arena` and into one isolated
/// sampler per tenant. After every frame: the tenant's sample, items and
/// quantiles equal its sampler's, resident bytes are within the budget,
/// and `cold_bytes()` is Σ over cold tenants of 80 + 8·|sample|.
fn churn_across_k(arena: &mut TenantArena, frames: &[(u64, usize)]) -> Crossings {
    let (k, base_seed) = (arena.reservoir_k(), arena.config().base_seed);
    let budget = arena.config().budget_bytes;
    let mut iso: BTreeMap<u64, ReservoirSampler<u64>> = BTreeMap::new();
    let mut crossings = [[0; 2]; 2];
    let mut x = base_seed;
    for &(t, len) in frames {
        let resident: BTreeSet<u64> = iso
            .keys()
            .copied()
            .filter(|&u| arena.is_resident(u))
            .collect();
        let revived_full =
            (iso.contains_key(&t) && !resident.contains(&t)).then(|| iso[&t].sample().len() == k);
        let frame: Vec<u64> = (0..len)
            .map(|_| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (x >> 33) % UNIVERSE
            })
            .collect();
        arena.ingest(t, &frame);
        let sampler = iso
            .entry(t)
            .or_insert_with(|| ReservoirSampler::with_seed(k, tenant_seed(base_seed, t)));
        for &v in &frame {
            sampler.observe(v);
        }

        let victim = resident.iter().find(|&&u| u != t && !arena.is_resident(u));
        if let (Some(v), Some(revived_full)) = (victim, revived_full) {
            crossings[usize::from(iso[v].sample().len() == k)][usize::from(revived_full)] += 1;
        }
        let sampler = &iso[&t];
        assert_eq!(arena.sample(t), sampler.sample(), "tenant {t} sample");
        assert_eq!(arena.items(t), sampler.observed(), "tenant {t} items");
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(arena.quantile(t, q), sample_quantile(sampler.sample(), q));
        }
        assert!(
            arena.resident_bytes() <= budget,
            "resident bytes over budget"
        );
        let cold: usize = iso
            .iter()
            .filter(|&(&u, _)| !arena.is_resident(u))
            .map(|(_, s)| 80 + 8 * s.sample().len())
            .sum();
        assert_eq!(arena.cold_bytes(), cold, "cold bytes after tenant {t}");
    }
    crossings
}

/// A fixed schedule through [`churn_across_k`] that goes through every
/// evict/revive combination of full and partial tenants at least once.
#[test]
fn full_and_partial_tenants_cross_in_every_combination() {
    let mut arena = small_k(2, BASE_SEED);
    assert_eq!(arena.reservoir_k(), 32);
    let mut x = 7u64;
    let frames: Vec<(u64, usize)> = (0..200)
        .map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((x >> 40) % 5, 1 + (x >> 20) as usize % 12)
        })
        .collect();
    let crossings = churn_across_k(&mut arena, &frames);
    for (victim_full, row) in crossings.iter().enumerate() {
        for (revived_full, &n) in row.iter().enumerate() {
            assert!(
                n > 0,
                "no miss evicted a {} tenant and revived a {} one: {crossings:?}",
                ["partial", "full"][victim_full],
                ["partial", "full"][revived_full]
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The arena is `K` isolated summaries: for any interleaving, frame
    /// schedule, budget, and sizing mode, every touched tenant's whole
    /// observable surface matches its private sampler bit-for-bit —
    /// including tenants that are cold when queried.
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

    /// Tenants that pass `k` mid-run stay isolated through every evict
    /// and revive, full or partial (see [`churn_across_k`]).
    #[test]
    fn tenants_crossing_k_stay_isolated(
        budget_slots in 1usize..4,
        base_seed in 0u64..10_000,
        frames in proptest::collection::vec((0u64..6, 1usize..16), 1..80),
    ) {
        churn_across_k(&mut small_k(budget_slots, base_seed), &frames);
    }

    /// The eviction schedule is unobservable: the same stream through a
    /// one-slot arena (every tenant switch is an eviction plus a
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
/// answer compared to the tenant's private sampler. A text client's
/// `TSNAPSHOT` of each tenant equals the binary one.
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

    let text = ServiceClient::connect(server.addr()).expect("connect text client");
    let iso = isolated(&pairs, k, BASE_SEED);
    for (&t, sampler) in &iso {
        let (items, sample) = client.tenant_snapshot(t).expect("TSNAP");
        assert_eq!(items, sampler.observed(), "tenant {t} item count");
        assert_eq!(sample, sampler.sample(), "tenant {t} sample");
        assert_eq!(
            text.tenant_snapshot(t).expect("text TSNAPSHOT"),
            (items, sample.clone()),
            "tenant {t} text snapshot"
        );
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
