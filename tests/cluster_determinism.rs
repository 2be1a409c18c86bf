//! Property tests for the cluster's two determinism contracts:
//!
//! 1. **Cluster ≡ offline sharded merge** — an `N`-node cluster fed any
//!    frame schedule of any registry workload answers bit-identically
//!    to the offline [`ShardedSummary`] run with `K = N` shards and the
//!    same base seed (and, transitively, to a local in-process
//!    [`SummaryService`] of the same shape): the distributed boundary —
//!    process isolation, TCP, the binary frame protocol, the
//!    coordinator's shard-order merge — adds no randomness.
//! 2. **Coordinator views are consistent at every cadence boundary** —
//!    with aligned frames (multiples of `N * E` elements), every
//!    boundary's global view equals the offline sharded prefix merge at
//!    exactly that boundary, and at *any* point the coordinator's
//!    merged view equals the hand-merge of the per-node epoch states it
//!    was built from — also when the coordinator reuses its cached view
//!    because no node has published since the last one.
//!
//! 3. **The tenant deal relocates no sample** — tenant `t` lives on node
//!    `t mod N`, and every node's arena is seeded with the cluster's base
//!    seed, so each tenant answers exactly like an isolated reservoir.
//!
//! Node processes are real: each case spawns `cluster_node` binaries on
//! ephemeral ports and speaks the binary admin protocol.

use proptest::prelude::*;
use robust_sampling::core::engine::{merge_in_shard_order, ShardedSummary, StreamSummary};
use robust_sampling::core::sampler::{ReservoirSampler, StreamSampler};
use robust_sampling::service::cluster::{ClusterConfig, ClusterRouter};
use robust_sampling::service::protocol::MAX_INGEST_FRAME;
use robust_sampling::service::tenant::tenant_seed;
use robust_sampling::service::{
    EpochSnapshot, ServiceClient, SummaryService, TenantArena, TenantArenaConfig,
};
use robust_sampling::streamgen;
use std::sync::Arc;

/// Split `stream` into frames whose sizes cycle through `splits`.
fn frames<'a>(stream: &'a [u64], splits: &[usize]) -> Vec<&'a [u64]> {
    let mut rest = stream;
    let mut out = Vec::new();
    let mut i = 0;
    while !rest.is_empty() {
        let take = if splits.is_empty() {
            rest.len()
        } else {
            (splits[i % splits.len()] % rest.len()).max(1)
        };
        out.push(&rest[..take]);
        rest = &rest[take..];
        i += 1;
    }
    out
}

fn workload_stream(which: usize, n: usize, seed: u64) -> Vec<u64> {
    let registry = streamgen::registry();
    registry[which % registry.len()].materialize(n, 1 << 16, seed)
}

fn cluster(nodes: usize, base_seed: u64, epoch_every: usize, cap: usize) -> ClusterRouter {
    ClusterRouter::start(ClusterConfig {
        nodes,
        base_seed,
        epoch_every,
        cap,
        universe: 1 << 16,
        workers: 1,
        tenant_budget_bytes: None,
    })
    .expect("start cluster")
}

/// The shard-order hand-merge of fresh, unconditional per-node epoch
/// pulls: `(per-node epochs, summed items, merged summary)`.
fn hand_merge(router: &ClusterRouter) -> (Vec<u64>, usize, ReservoirSampler<u64>) {
    let mut epochs = Vec::new();
    let mut items = 0;
    let mut parts = Vec::new();
    for j in 0..router.config().nodes {
        let (epoch, node_items, _, summary) = router
            .node_epoch_state::<ReservoirSampler<u64>>(j)
            .expect("node epoch state");
        epochs.push(epoch);
        items += node_items;
        parts.push(summary);
    }
    (epochs, items, merge_in_shard_order(parts))
}

/// Whether `view` is exactly the hand-merge of the nodes' current
/// published states: sample, observed count, epoch and items.
fn equals_hand_merge(view: &EpochSnapshot<ReservoirSampler<u64>>, router: &ClusterRouter) -> bool {
    let (epochs, items, merged) = hand_merge(router);
    view.summary().sample() == merged.sample()
        && view.summary().observed() == merged.observed()
        && Some(view.epoch()) == epochs.iter().copied().min()
        && view.items() == items
}

/// After `stream` is ingested in `splits` frames, a `nodes`-node
/// cluster's merged view is bit-identical to the offline sharded run —
/// same sample, same item counts — and every query kind
/// (COUNT/QUANTILE/HH/KS) answers exactly as a local in-process service
/// of the same shape does.
fn check_cluster_equals_offline(
    stream: &[u64],
    nodes: usize,
    cap: usize,
    seed: u64,
    splits: &[usize],
) -> Result<(), String> {
    let mut offline = ShardedSummary::new(nodes, seed, |_, s| {
        ReservoirSampler::<u64>::with_seed(cap, s)
    });
    let mut local = SummaryService::start(nodes, seed, 1, |_, s| {
        ReservoirSampler::<u64>::with_seed(cap, s)
    });
    let mut router = cluster(nodes, seed, 1, cap);
    for frame in frames(stream, splits) {
        offline.ingest_batch(frame);
        local.ingest_frame(frame);
        router.ingest(frame).expect("cluster ingest");
    }
    let view = router
        .global_view::<ReservoirSampler<u64>>()
        .expect("global view");
    let merged = offline.merged();
    prop_assert_eq!(view.items(), stream.len());
    prop_assert_eq!(view.summary().sample(), merged.sample());
    prop_assert_eq!(view.summary().observed(), stream.len());
    let snap = local.snapshot();
    prop_assert_eq!(view.quantile(0.5), snap.quantile(0.5));
    prop_assert_eq!(view.count(stream[0]), snap.count(stream[0]));
    prop_assert_eq!(view.heavy(0.05), snap.heavy(0.05));
    prop_assert_eq!(view.ks_uniform(1 << 16), snap.ks_uniform(1 << 16));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Fresh-view cadence (`E = 1`): any frame schedule of any registry
    /// workload, any cluster width and capacity.
    #[test]
    fn cluster_ingest_equals_offline_sharded_merge(
        which in 0usize..16,
        nodes in 1usize..5,
        cap in 8usize..64,
        seed in 0u64..1_000,
        n in 1usize..2_500,
        splits in proptest::collection::vec(1usize..700, 0..6),
    ) {
        let stream = workload_stream(which, n, seed.wrapping_add(11));
        check_cluster_equals_offline(&stream, nodes, cap, seed, &splits)?;
    }

    /// Aligned cadence (frames of exactly `N * E` elements): *every*
    /// cluster cadence boundary's global view equals the offline
    /// sharded prefix merge at that boundary, with all nodes in epoch
    /// lockstep.
    #[test]
    fn every_cadence_boundary_view_matches_the_offline_prefix(
        which in 0usize..16,
        nodes in 1usize..5,
        epoch_every in 1usize..64,
        seed in 0u64..500,
        windows in 1usize..12,
    ) {
        let cadence = nodes * epoch_every;
        let stream = workload_stream(which, cadence * windows, seed.wrapping_add(5));
        let mut offline = ShardedSummary::new(nodes, seed, |_, s| {
            ReservoirSampler::<u64>::with_seed(32, s)
        });
        let mut router = cluster(nodes, seed, epoch_every, 32);
        for (m, frame) in stream.chunks(cadence).enumerate() {
            offline.ingest_batch(frame);
            router.ingest(frame).expect("cluster ingest");
            let view = router.global_view::<ReservoirSampler<u64>>().expect("global view");
            prop_assert_eq!(view.epoch(), m as u64 + 1);
            prop_assert_eq!(view.items(), (m + 1) * cadence);
            let merged = offline.merged();
            prop_assert_eq!(view.summary().sample(), merged.sample());
        }
    }

    /// At *any* pull point — aligned or not — the coordinator's global
    /// view is exactly the shard-order hand-merge of the per-node epoch
    /// states it reads, and the per-node states it reads are the nodes'
    /// published boundaries (items ≡ 0 mod the per-node cadence).
    #[test]
    fn coordinator_view_is_the_shard_order_merge_of_node_states(
        which in 0usize..16,
        nodes in 1usize..5,
        epoch_every in 1usize..48,
        seed in 0u64..500,
        n in 1usize..2_000,
        splits in proptest::collection::vec(1usize..500, 0..5),
    ) {
        let stream = workload_stream(which, n, seed.wrapping_add(23));
        let mut router = cluster(nodes, seed, epoch_every, 24);
        for frame in frames(&stream, &splits) {
            router.ingest(frame).expect("cluster ingest");
        }
        let mut parts = Vec::new();
        let mut items = 0usize;
        for j in 0..nodes {
            let (epoch, node_items, _, summary) = router
                .node_epoch_state::<ReservoirSampler<u64>>(j)
                .expect("node epoch state");
            // A published boundary is epoch-aligned: `epoch` publishes
            // of >= epoch_every elements each have happened.
            prop_assert!(node_items >= epoch as usize * epoch_every);
            prop_assert_eq!(node_items, summary.observed());
            items += node_items;
            parts.push(summary);
        }
        let hand_merged: ReservoirSampler<u64> = merge_in_shard_order(parts);
        let view = router.global_view::<ReservoirSampler<u64>>().expect("global view");
        prop_assert_eq!(view.items(), items);
        prop_assert_eq!(view.summary().sample(), hand_merged.sample());
        prop_assert_eq!(view.summary().observed(), hand_merged.observed());
    }

    /// View-cache coherence: with a small cadence and small frames, some
    /// ingests cross a node's epoch boundary (the next view must merge
    /// afresh) and some do not (the cached view is reused). Either way
    /// every view equals the hand-merge of unconditional node pulls, a
    /// second view with no ingest in between is the same `Arc`, and the
    /// first view after an ingest is reused exactly when no node
    /// published.
    #[test]
    fn cached_views_equal_the_hand_merge_of_fresh_node_pulls(
        which in 0usize..16,
        nodes in 1usize..5,
        epoch_every in 1usize..24,
        seed in 0u64..500,
        n in 1usize..600,
        splits in proptest::collection::vec(1usize..40, 1..6),
    ) {
        let stream = workload_stream(which, n, seed.wrapping_add(31));
        let mut router = cluster(nodes, seed, epoch_every, 16);
        let mut last = None;
        for frame in frames(&stream, &splits) {
            router.ingest(frame).expect("cluster ingest");
            let first = router.global_view::<ReservoirSampler<u64>>().expect("global view");
            let second = router.global_view::<ReservoirSampler<u64>>().expect("global view");
            prop_assert!(Arc::ptr_eq(&first, &second), "a repeat view was rebuilt");
            prop_assert!(equals_hand_merge(&first, &router));
            let (epochs, _, _) = hand_merge(&router);
            if let Some((prev, prev_epochs)) = &last {
                prop_assert_eq!(Arc::ptr_eq(prev, &first), *prev_epochs == epochs);
            }
            last = Some((first, epochs));
        }
    }
}

/// The same law on inputs beyond the proptest's ranges: 30,000 elements
/// of each of the first three registry workloads (uniform, zipf,
/// sorted), three nodes of per-node k = 128, frames cycling 997, 64,
/// 513, 1 and 130 elements.
#[test]
fn cluster_equals_offline_sharded_merge_on_long_streams() {
    for which in 0..3 {
        let stream = workload_stream(which, 30_000, 17 + which as u64);
        check_cluster_equals_offline(&stream, 3, 128, 42, &[997, 64, 513, 1, 130])
            .expect("cluster == offline sharded merge");
    }
}

/// Failover between two views: the router drops its cached view when a
/// node is killed and restored, and the next view is again the
/// hand-merge of the nodes' states, identical to the view before the
/// fault.
#[test]
fn view_after_failover_equals_the_hand_merge() {
    let mut router = cluster(3, 29, 8, 16);
    let stream = workload_stream(2, 400, 29);
    let (head, tail) = stream.split_at(150);
    router.ingest(head).expect("cluster ingest");
    router.checkpoint_all().expect("checkpoint");
    router.ingest(tail).expect("cluster ingest");
    let before = router
        .global_view::<ReservoirSampler<u64>>()
        .expect("global view");
    assert!(equals_hand_merge(&before, &router));
    router.kill_node(1);
    router.restore_node(1).expect("restore node");
    let after = router
        .global_view::<ReservoirSampler<u64>>()
        .expect("global view");
    assert!(equals_hand_merge(&after, &router));
    assert_eq!(after.summary().sample(), before.summary().sample());
    assert_eq!(
        (after.epoch(), after.items()),
        (before.epoch(), before.items())
    );
    router.ingest(&[7; 40]).expect("cluster ingest");
    let next = router
        .global_view::<ReservoirSampler<u64>>()
        .expect("global view");
    assert!(equals_hand_merge(&next, &router));
}

/// One `ingest` call longer than a protocol frame: the router splits it
/// into `MAX_INGEST_FRAME` chunks, one frame per node each, and leaves
/// their acks owed. Started at an odd phase (a short prefix frame
/// first), so no chunk boundary lines up with the `mod N` deal; the
/// merged view still equals the offline sharded run.
#[test]
fn multi_frame_ingest_equals_offline_sharded_merge() {
    let (nodes, seed) = (3, 19);
    let stream = workload_stream(0, 5 + 3 * MAX_INGEST_FRAME + 17, seed);
    let (prefix, bulk) = stream.split_at(5);
    let mut offline = ShardedSummary::new(nodes, seed, |_, s| {
        ReservoirSampler::<u64>::with_seed(32, s)
    });
    let mut router = cluster(nodes, seed, 1, 32);
    for frame in [prefix, bulk] {
        offline.ingest_batch(frame);
        assert_eq!(
            router.ingest(frame).expect("cluster ingest"),
            offline.items_seen()
        );
    }
    let view = router
        .global_view::<ReservoirSampler<u64>>()
        .expect("global view");
    let merged = offline.into_merged();
    assert_eq!(view.items(), stream.len());
    assert_eq!(view.summary().sample(), merged.sample());
    assert_eq!(view.summary().observed(), merged.observed());
    for j in 0..nodes {
        let (_, _, hwm, _) = router
            .node_epoch_state::<ReservoirSampler<u64>>(j)
            .expect("node epoch state");
        // One prefix frame plus one frame per chunk of the bulk call.
        assert_eq!(hwm, 5, "node {j}");
        assert_eq!(router.frames_sent(j), 5, "node {j}");
    }
}

/// Non-property pin: the router's frame accounting and the nodes' acked
/// high-water marks advance in lockstep — the invariant replay-window
/// trimming relies on.
#[test]
fn frames_sent_equals_node_acked_high_water_mark() {
    let mut router = cluster(3, 7, 4, 16);
    let stream: Vec<u64> = (0..500).collect();
    for frame in stream.chunks(37) {
        router.ingest(frame).expect("cluster ingest");
    }
    for j in 0..3 {
        let (_, _, hwm, _) = router
            .node_epoch_state::<ReservoirSampler<u64>>(j)
            .expect("node epoch state");
        assert_eq!(hwm, router.frames_sent(j), "node {j}");
    }
}

/// `ingest` leaves up to 16 acks owed per node, and every other call on a
/// node reads past them to its own reply. Before each call below, 20
/// single-frame `ingest`s leave every node owing the maximum; each call
/// must still get its own typed reply. Then one `ingest` of more than 16
/// frames per node (the router reads acks mid-call) still lands on the
/// offline sharded run, and every node's high-water mark equals the
/// frames the router sent it.
#[test]
fn owed_acks_are_never_misread() {
    let (nodes, seed) = (2, 23);
    let mut router = ClusterRouter::start(ClusterConfig {
        nodes,
        base_seed: seed,
        epoch_every: 1,
        cap: 32,
        universe: 1 << 16,
        workers: 1,
        tenant_budget_bytes: Some(1 << 20),
    })
    .expect("start cluster");
    let bulk = 16 * MAX_INGEST_FRAME * nodes + 3 * MAX_INGEST_FRAME + 5;
    let stream = workload_stream(2, 9 * 20 * 37 + bulk, seed);
    let mut offline = ShardedSummary::new(nodes, seed, |_, s| {
        ReservoirSampler::<u64>::with_seed(32, s)
    });
    let mut small = stream.chunks(37);
    let mut owe = |router: &mut ClusterRouter| {
        for frame in small.by_ref().take(20) {
            offline.ingest_batch(frame);
            router.ingest(frame).expect("cluster ingest");
        }
    };
    let tenant = 5;
    owe(&mut router);
    assert_eq!(
        router
            .tenant_ingest(tenant, &[10, 20, 30])
            .expect("TINGEST"),
        3
    );
    owe(&mut router);
    assert_eq!(router.tenant_count(tenant, 20).expect("TQUERY COUNT"), 1.0);
    owe(&mut router);
    let median = router
        .tenant_quantile(tenant, 0.5)
        .expect("TQUERY QUANTILE");
    assert!(matches!(median, Some(10 | 20 | 30)), "{median:?}");
    owe(&mut router);
    let (items, mut sample) = router.tenant_snapshot(tenant).expect("TSNAPSHOT");
    sample.sort_unstable();
    assert_eq!((items, sample), (3, vec![10, 20, 30]));
    for j in 0..nodes {
        owe(&mut router);
        let (_, _, hwm, _) = router
            .node_epoch_state::<ReservoirSampler<u64>>(j)
            .expect("node epoch state");
        assert_eq!(hwm, router.frames_sent(j), "node {j}");
    }
    owe(&mut router);
    router.checkpoint_node(1).expect("checkpoint node");
    owe(&mut router);
    router.checkpoint_all().expect("checkpoint all");
    owe(&mut router);
    let view = router
        .global_view::<ReservoirSampler<u64>>()
        .expect("global view");
    assert!(equals_hand_merge(&view, &router));

    let tail = &stream[9 * 20 * 37..];
    assert!(tail.len() > 16 * MAX_INGEST_FRAME * nodes);
    offline.ingest_batch(tail);
    assert_eq!(router.ingest(tail).expect("cluster ingest"), stream.len());
    let view = router
        .global_view::<ReservoirSampler<u64>>()
        .expect("global view");
    let merged = offline.into_merged();
    assert_eq!(view.items(), stream.len());
    assert_eq!(view.summary().sample(), merged.sample());
    assert_eq!(view.summary().observed(), merged.observed());
    for j in 0..nodes {
        let (_, _, hwm, _) = router
            .node_epoch_state::<ReservoirSampler<u64>>(j)
            .expect("node epoch state");
        assert_eq!(hwm, router.frames_sent(j), "node {j}");
    }
}

/// The tenant deal: on a 3-node cluster whose arenas hold two slots each,
/// twelve tenants (four per residue) are interleaved in frames of 1 to
/// 200 elements. Through the router, every tenant's item count and sample
/// equal an isolated reservoir's, seeded `tenant_seed(base_seed, t)` and
/// fed only that tenant's substream. Read from each node directly, tenant
/// `t` has items on node `t mod 3` and on no other node.
#[test]
fn cluster_tenant_deal_preserves_every_tenant() {
    let (nodes, seed, tenants) = (3usize, 42u64, 12u64);
    // The arena sizing a node applies (its default ε = 0.15, δ = 0.1).
    let arena = TenantArena::new(TenantArenaConfig {
        universe: 1 << 16,
        eps: 0.15,
        delta: 0.1,
        budget_bytes: 1,
        base_seed: seed,
        robust: true,
    });
    let router = ClusterRouter::start(ClusterConfig {
        nodes,
        base_seed: seed,
        epoch_every: 1,
        cap: 32,
        universe: 1 << 16,
        workers: 1,
        tenant_budget_bytes: Some(2 * arena.slot_bytes()),
    })
    .expect("start cluster");
    let mut isolated: Vec<ReservoirSampler<u64>> = (0..tenants)
        .map(|t| ReservoirSampler::with_seed(arena.reservoir_k(), tenant_seed(seed, t)))
        .collect();
    let mut x = 0u64;
    for round in 0..30u64 {
        for t in 0..tenants {
            let len = 1 + (round * 7 + t * 13) % 200;
            let frame: Vec<u64> = (0..len)
                .map(|_| {
                    x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    (x >> 33) % (1 << 16)
                })
                .collect();
            router.tenant_ingest(t, &frame).expect("TINGEST");
            isolated[t as usize].observe_batch(&frame);
        }
    }
    for (t, iso) in (0..tenants).zip(&isolated) {
        assert!(
            iso.observed() > arena.reservoir_k(),
            "tenant {t} never fills"
        );
        let (items, sample) = router.tenant_snapshot(t).expect("TSNAPSHOT");
        assert_eq!(items, iso.observed(), "tenant {t} items");
        assert_eq!(sample, iso.sample(), "tenant {t} sample");
    }
    for j in 0..nodes {
        let node = ServiceClient::connect_binary(router.node_addr(j)).expect("connect node");
        for (t, iso) in (0..tenants).zip(&isolated) {
            let (items, _) = node.tenant_snapshot(t).expect("TSNAPSHOT");
            let owned = t % nodes as u64 == j as u64;
            assert_eq!(
                items,
                if owned { iso.observed() } else { 0 },
                "tenant {t} on node {j}"
            );
        }
        node.quit().expect("QUIT");
    }
}

/// A view handed back again is the same `Arc` — no new merge — and it
/// answers `quantile` from the sorted view its first query built: the
/// same buffer, and the answer the merged reservoir's own estimate
/// gives.
#[test]
fn a_handed_back_view_answers_quantile_from_its_built_sorted_view() {
    use robust_sampling::core::engine::QuantileSummary;
    let stream = workload_stream(1, 4_000, 5);
    let mut router = cluster(2, 5, 1_000, 64);
    router.ingest(&stream).expect("cluster ingest");
    let first = router
        .global_view::<ReservoirSampler<u64>>()
        .expect("global view");
    let median = first.quantile(0.5);
    let sorted = first.sorted_ref().as_ptr();
    let second = router
        .global_view::<ReservoirSampler<u64>>()
        .expect("global view");
    assert!(Arc::ptr_eq(&first, &second), "a repeat view was rebuilt");
    assert_eq!(
        second.sorted_ref().as_ptr(),
        sorted,
        "the sorted view was rebuilt"
    );
    for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
        assert_eq!(
            second.quantile(q),
            second.summary().estimate_quantile(q),
            "q = {q}"
        );
    }
    assert_eq!(second.quantile(0.5), median);
    assert!(median.is_some());
}
