//! Property tests for the serving layer's two determinism contracts:
//!
//! 1. **Served ≡ offline** — a [`SummaryService`] driven with a fixed
//!    frame schedule publishes a final snapshot **bit-identical** to the
//!    offline [`ShardedSummary::ingest_batch`] run of the same stream
//!    (same shard count, same base seed), for arbitrary workloads, shard
//!    counts, and frame split points.
//! 2. **Checkpoint transparency** — `save → restore → continue` is
//!    indistinguishable from the uninterrupted run, per seed, at the
//!    codec level (every [`SnapshotCodec`] summary) and at the service
//!    level (checkpoint taken at an arbitrary frame boundary).
//! 3. **Inline publishing is bit-exact and read-your-writes** — an epoch
//!    is merged inside the `ingest_frame` call whose frame crosses the
//!    cadence, so every cadence-triggered snapshot equals the offline
//!    sharded prefix merge at exactly that frame boundary, and is
//!    visible to the very next query after the triggering frame.

use proptest::prelude::*;
use robust_sampling::core::engine::{ShardedSummary, SnapshotCodec, StreamSummary};
use robust_sampling::core::sampler::{BernoulliSampler, ReservoirSampler, StreamSampler};
use robust_sampling::core::sketch::{RobustHeavyHitterSketch, RobustQuantileSketch};
use robust_sampling::service::SummaryService;
use robust_sampling::streamgen;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A service fed any frame schedule of any registry workload ends
    /// bit-identical to the offline sharded engine: same shard states,
    /// same merged snapshot sample, same item count.
    #[test]
    fn service_final_snapshot_equals_offline_sharded_run(
        which in 0usize..16,
        shards in 1usize..5,
        k in 1usize..128,
        seed in 0u64..1_000,
        n in 1usize..6_000,
        splits in proptest::collection::vec(1usize..700, 0..6),
        epoch_every in 1usize..4_096,
    ) {
        let stream = workload_stream(which, n, seed.wrapping_add(17));
        let mut offline = ShardedSummary::new(shards, seed, |_, s| {
            ReservoirSampler::<u64>::with_seed(k, s)
        });
        let mut service = SummaryService::start(shards, seed, epoch_every, |_, s| {
            ReservoirSampler::<u64>::with_seed(k, s)
        });
        for frame in frames(&stream, &splits) {
            offline.ingest_batch(frame);
            service.ingest_frame(frame);
        }
        service.publish();
        let snap = service.snapshot();
        let merged = offline.merged();
        prop_assert_eq!(snap.items(), stream.len());
        prop_assert_eq!(snap.summary().sample(), merged.sample());
        prop_assert_eq!(snap.summary().observed(), stream.len());
    }

    /// Publish-during-ingest at an arbitrary cadence: every epoch the
    /// service triggers mid-schedule is published inline by the frame
    /// that crosses the cadence, and the snapshot the next query
    /// observes is bit-identical to the offline sharded prefix merge at
    /// exactly that frame's boundary. Non-triggering frames are not
    /// queried, so a snapshot that lagged or ran ahead of its boundary
    /// would show at the next trigger.
    #[test]
    fn cadence_publishes_during_ingest_match_offline_prefixes(
        which in 0usize..16,
        shards in 1usize..5,
        seed in 0u64..500,
        n in 32usize..4_000,
        splits in proptest::collection::vec(1usize..400, 0..5),
        epoch_every in 1usize..1_500,
    ) {
        let stream = workload_stream(which, n, seed.wrapping_add(29));
        let mut offline = ShardedSummary::new(shards, seed, |_, s| {
            ReservoirSampler::<u64>::with_seed(40, s)
        });
        let mut service = SummaryService::start(shards, seed, epoch_every, |_, s| {
            ReservoirSampler::<u64>::with_seed(40, s)
        });
        let mut routed = 0usize;
        let mut since = 0usize;
        let mut expected_epoch = 0u64;
        for frame in frames(&stream, &splits) {
            offline.ingest_batch(frame);
            routed += frame.len();
            since += frame.len();
            service.ingest_frame(frame);
            if since >= epoch_every {
                since = 0;
                expected_epoch += 1;
                let snap = service.snapshot();
                prop_assert_eq!(snap.epoch(), expected_epoch);
                prop_assert_eq!(snap.items(), routed);
                let merged = offline.merged();
                prop_assert_eq!(snap.summary().sample(), merged.sample());
            }
        }
    }

    /// Codec round trip mid-stream for every checkpointable summary:
    /// save → restore → continue ≡ uninterrupted, element for element.
    #[test]
    fn snapshot_codec_roundtrip_continues_identically(
        seed in 0u64..1_000,
        n in 2usize..5_000,
        cut_frac in 0.0f64..1.0,
    ) {
        let stream: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9E37) % 60_000).collect();
        let cut = ((n as f64 * cut_frac) as usize).clamp(1, n - 1);

        macro_rules! check {
            ($build:expr, $sample:expr) => {{
                let sample_of = $sample;
                let mut whole = $build;
                let mut half = $build;
                whole.ingest_batch(&stream);
                half.ingest_batch(&stream[..cut]);
                let bytes = half.save();
                let mut resumed = SnapshotCodec::restore(&bytes).unwrap();
                // The restored summary is indistinguishable now...
                prop_assert_eq!(sample_of(&half), sample_of(&resumed));
                // ...and stays indistinguishable after more stream.
                resumed.ingest_batch(&stream[cut..]);
                prop_assert_eq!(sample_of(&whole), sample_of(&resumed));
                prop_assert_eq!(whole.items_seen(), resumed.items_seen());
            }};
        }

        check!(
            BernoulliSampler::<u64>::with_seed(0.05, seed),
            |s: &BernoulliSampler<u64>| s.sample().to_vec()
        );
        check!(
            ReservoirSampler::<u64>::with_seed(64, seed),
            |s: &ReservoirSampler<u64>| s.sample().to_vec()
        );
        check!(
            RobustQuantileSketch::<u64>::with_capacity(48, 0.1, 0.05, seed),
            |s: &RobustQuantileSketch<u64>| s.sample().to_vec()
        );
        check!(
            RobustHeavyHitterSketch::<u64>::new(14.0, 0.1, 0.06, 0.05, seed),
            |s: &RobustHeavyHitterSketch<u64>| s.sample().to_vec()
        );
        check!(
            ShardedSummary::new(3, seed, |_, s| ReservoirSampler::<u64>::with_seed(32, s)),
            |s: &ShardedSummary<ReservoirSampler<u64>>| {
                let mut all = Vec::new();
                for shard in s.shards() {
                    all.extend_from_slice(shard.sample());
                }
                all
            }
        );
    }

    /// Service-level checkpoint at an arbitrary frame boundary: the
    /// restored service finishes the schedule with every published
    /// answer identical to the uninterrupted run's.
    #[test]
    fn service_checkpoint_restore_changes_no_answer(
        which in 0usize..16,
        shards in 1usize..4,
        seed in 0u64..500,
        n in 64usize..4_000,
        splits in proptest::collection::vec(1usize..500, 1..5),
        epoch_every in 1usize..2_048,
    ) {
        let stream = workload_stream(which, n, seed.wrapping_add(3));
        let all_frames = frames(&stream, &splits);
        let cut = all_frames.len() / 2;
        let build = || SummaryService::start(shards, seed, epoch_every, |_, s| {
            ReservoirSampler::<u64>::with_seed(48, s)
        });
        let mut whole = build();
        let mut prefix = build();
        for frame in &all_frames[..cut] {
            whole.ingest_frame(frame);
            prefix.ingest_frame(frame);
        }
        let bytes = prefix.checkpoint();
        drop(prefix);
        let mut resumed = SummaryService::restore(&bytes).unwrap();
        prop_assert_eq!(resumed.items_routed(), whole.items_routed());
        for frame in &all_frames[cut..] {
            whole.ingest_frame(frame);
            resumed.ingest_frame(frame);
        }
        whole.publish();
        resumed.publish();
        let (a, b) = (whole.snapshot(), resumed.snapshot());
        prop_assert_eq!(a.epoch(), b.epoch());
        prop_assert_eq!(a.items(), b.items());
        prop_assert_eq!(a.summary().sample(), b.summary().sample());
        prop_assert_eq!(a.quantile(0.5), b.quantile(0.5));
        prop_assert_eq!(a.count(7), b.count(7));
        prop_assert_eq!(a.ks_uniform(1 << 16), b.ks_uniform(1 << 16));
        prop_assert_eq!(a.heavy(0.05), b.heavy(0.05));
    }
}

/// Non-property pin: the publish cadence is part of the checkpoint, so a
/// restore never shifts epoch boundaries.
#[test]
fn checkpoint_preserves_publish_cadence_phase() {
    let mut whole = SummaryService::start(2, 9, 1_000, |_, s| {
        ReservoirSampler::<u64>::with_seed(32, s)
    });
    let mut prefix = SummaryService::start(2, 9, 1_000, |_, s| {
        ReservoirSampler::<u64>::with_seed(32, s)
    });
    let stream: Vec<u64> = (0..5_500).collect();
    // 700-element frames: the 5th publish lands mid-schedule for both.
    for frame in stream[..2_100].chunks(700) {
        whole.ingest_frame(frame);
        prefix.ingest_frame(frame);
    }
    let restored_bytes = prefix.checkpoint();
    drop(prefix);
    let mut resumed = SummaryService::restore(&restored_bytes).unwrap();
    for frame in stream[2_100..].chunks(700) {
        whole.ingest_frame(frame);
        resumed.ingest_frame(frame);
    }
    assert_eq!(whole.snapshot().epoch(), resumed.snapshot().epoch());
    assert_eq!(whole.snapshot().items(), resumed.snapshot().items());
    assert_eq!(
        whole.snapshot().summary().sample(),
        resumed.snapshot().summary().sample()
    );
}
