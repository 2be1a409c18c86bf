//! Property tests for the engine contract: `ingest_batch` must be a pure
//! optimization — for identical seeds and identical element order, the
//! batched path and the element-wise `observe` path must produce
//! *identical* summaries (same retained sample, same counters, same RNG
//! stream), for arbitrary parameters and arbitrary batch split points.
//! The same holds for `ingest_by` over an indexed view — a stride of a
//! larger batch, or the little-endian words of a wire payload — against
//! `ingest_batch` over the gathered copy.

use proptest::prelude::*;
use robust_sampling::core::engine::snapshot::le_word;
use robust_sampling::core::engine::{ShardedSummary, SnapshotCodec, StreamSummary};
use robust_sampling::core::sampler::{
    BernoulliSampler, EveryKthSampler, ReservoirSampler, StreamSampler,
};
use std::ops::Range;

/// Split `0..n` into consecutive frames whose lengths are derived from
/// `splits` (one frame when `splits` is empty).
fn frames(n: usize, splits: &[usize]) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let mut start = 0;
    while start < n {
        let rest = n - start;
        let take = if splits.is_empty() {
            rest
        } else {
            (splits[out.len() % splits.len()] % rest).max(1)
        };
        out.push(start..start + take);
        start += take;
    }
    out
}

/// Feed `stream` in batches whose sizes are derived from `splits`.
fn ingest_in_batches<T: Clone, S: StreamSummary<T>>(s: &mut S, stream: &[T], splits: &[usize]) {
    for frame in frames(stream.len(), splits) {
        s.ingest_batch(&stream[frame]);
    }
}

/// The little-endian wire encoding of `xs`.
fn le_bytes(xs: &[u64]) -> Vec<u8> {
    xs.iter().flat_map(|x| x.to_le_bytes()).collect()
}

/// Feed `copy` the gathered strides, and `strided` and `wire` the same
/// strides as in-place views of `stream` and of its wire bytes: every
/// frame is cut into `stride` interleaved strides, as `stride` shards
/// would see it.
fn ingest_strides<S: StreamSummary<u64>>(
    [copy, strided, wire]: [&mut S; 3],
    stream: &[u64],
    stride: usize,
    splits: &[usize],
) {
    let payload = le_bytes(stream);
    for frame in frames(stream.len(), splits) {
        for start in 0..stride {
            let base = frame.start + start;
            let len = frame.len().saturating_sub(start).div_ceil(stride);
            let gathered: Vec<u64> = stream[frame.clone()]
                .iter()
                .skip(start)
                .step_by(stride)
                .copied()
                .collect();
            assert_eq!(gathered.len(), len);
            copy.ingest_batch(&gathered);
            strided.ingest_by(len, |i| stream[base + i * stride]);
            wire.ingest_by(len, |i| le_word(&payload, base + i * stride));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bernoulli: batched == element-wise for any (p, seed, stream
    /// length, batch splits) — including p = 0 and p = 1.
    #[test]
    fn bernoulli_batch_equals_elementwise(
        p in 0.0f64..=1.0,
        seed in 0u64..10_000,
        n in 0usize..4_000,
        splits in proptest::collection::vec(1usize..500, 0..6),
    ) {
        let stream: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9E37)).collect();
        let mut by_element = BernoulliSampler::with_seed(p, seed);
        for &x in &stream {
            by_element.observe(x);
        }
        let mut by_batch = BernoulliSampler::with_seed(p, seed);
        ingest_in_batches(&mut by_batch, &stream, &splits);
        prop_assert_eq!(by_element.sample(), by_batch.sample());
        prop_assert_eq!(by_element.observed(), by_batch.observed());
        prop_assert_eq!(by_element.total_stored(), by_batch.total_stored());
    }

    /// Reservoir: batched == element-wise for any (k, seed, stream
    /// length, batch splits) — including streams shorter than k and
    /// splits landing inside the fill phase.
    #[test]
    fn reservoir_batch_equals_elementwise(
        k in 1usize..300,
        seed in 0u64..10_000,
        n in 0usize..4_000,
        splits in proptest::collection::vec(1usize..500, 0..6),
    ) {
        let stream: Vec<u64> = (0..n as u64).collect();
        let mut by_element = ReservoirSampler::with_seed(k, seed);
        for &x in &stream {
            by_element.observe(x);
        }
        let mut by_batch = ReservoirSampler::with_seed(k, seed);
        ingest_in_batches(&mut by_batch, &stream, &splits);
        prop_assert_eq!(by_element.sample(), by_batch.sample());
        prop_assert_eq!(by_element.observed(), by_batch.observed());
        prop_assert_eq!(by_element.total_stored(), by_batch.total_stored());
    }

    /// The deterministic strawman, same contract.
    #[test]
    fn every_kth_batch_equals_elementwise(
        stride in 1usize..50,
        n in 0usize..2_000,
        splits in proptest::collection::vec(1usize..300, 0..5),
    ) {
        let stream: Vec<u64> = (0..n as u64).collect();
        let mut by_element = EveryKthSampler::new(stride);
        for &x in &stream {
            by_element.observe(x);
        }
        let mut by_batch = EveryKthSampler::new(stride);
        ingest_in_batches(&mut by_batch, &stream, &splits);
        prop_assert_eq!(
            StreamSampler::sample(&by_element),
            StreamSampler::sample(&by_batch)
        );
        prop_assert_eq!(by_element.observed(), by_batch.observed());
    }

    /// Interleaving observe and ingest_batch arbitrarily also agrees: the
    /// gap state is shared, not per-path.
    #[test]
    fn mixed_ingestion_agrees(
        k in 1usize..100,
        seed in 0u64..5_000,
        n in 0usize..2_000,
        boundary in 0usize..2_000,
    ) {
        let stream: Vec<u64> = (0..n as u64).collect();
        let cut = boundary.min(n);
        let mut pure = ReservoirSampler::with_seed(k, seed);
        for &x in &stream {
            pure.observe(x);
        }
        let mut mixed = ReservoirSampler::with_seed(k, seed);
        for &x in &stream[..cut] {
            mixed.observe(x);
        }
        mixed.ingest_batch(&stream[cut..]);
        prop_assert_eq!(pure.sample(), mixed.sample());
        prop_assert_eq!(pure.total_stored(), mixed.total_stored());
    }

    /// Both skip samplers: `ingest_by` over a strided view, and over a
    /// strided view of the wire bytes, leaves the checkpoint bytes —
    /// sample, counters, pending gap and raw RNG words — equal to
    /// `ingest_batch` over the gathered strides. The every-k-th strawman
    /// takes the default `ingest_by` (stack chunks of up to 256).
    #[test]
    fn sampler_views_equal_gathered_batches(
        k in 1usize..300,
        p in 0.0f64..=1.0,
        seed in 0u64..10_000,
        stride in 1usize..=5,
        n in 0usize..4_000,
        splits in proptest::collection::vec(1usize..500, 0..6),
    ) {
        let stream: Vec<u64> = (0..n as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let reservoir = ReservoirSampler::with_seed(k, seed);
        let [mut a, mut b, mut c] = [reservoir.clone(), reservoir.clone(), reservoir];
        ingest_strides([&mut a, &mut b, &mut c], &stream, stride, &splits);
        prop_assert_eq!(a.observed(), n);
        prop_assert_eq!(b.save(), a.save());
        prop_assert_eq!(c.save(), a.save());

        let bernoulli = BernoulliSampler::with_seed(p, seed);
        let [mut a, mut b, mut c] = [bernoulli.clone(), bernoulli.clone(), bernoulli];
        ingest_strides([&mut a, &mut b, &mut c], &stream, stride, &splits);
        prop_assert_eq!(a.observed(), n);
        prop_assert_eq!(b.save(), a.save());
        prop_assert_eq!(c.save(), a.save());

        let every = EveryKthSampler::new(k);
        let [mut a, mut b, mut c] = [every.clone(), every.clone(), every];
        ingest_strides([&mut a, &mut b, &mut c], &stream, stride, &splits);
        prop_assert_eq!(a.observed(), n);
        for other in [&b, &c] {
            prop_assert_eq!(StreamSampler::sample(other), StreamSampler::sample(&a));
            prop_assert_eq!(other.observed(), a.observed());
        }
    }

    /// `ShardedSummary` deals a slice (`ingest_batch`) and a wire view
    /// (`ingest_by`) in place; each shard must end exactly where a
    /// reservoir fed its gathered `i mod K` stride of every frame ends,
    /// from any routed offset and for any split points.
    #[test]
    fn sharded_views_equal_gathered_strides(
        shards in 1usize..=5,
        offset in 0usize..16,
        k in 1usize..100,
        seed in 0u64..10_000,
        n in 0usize..3_000,
        splits in proptest::collection::vec(1usize..400, 0..6),
    ) {
        let stream: Vec<u64> = (0..n as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7)
            .collect();
        let sharded = ShardedSummary::new(shards, seed, |_, s| ReservoirSampler::with_seed(k, s));
        let (mut by_slice, mut by_wire) = (sharded.clone(), sharded);
        let mut gathered: Vec<ReservoirSampler<u64>> = (0..shards)
            .map(|j| ReservoirSampler::with_seed(k, ShardedSummary::<()>::shard_seed(seed, j)))
            .collect();
        // Element-wise ingest sets the round-robin offset.
        for x in 0..offset as u64 {
            by_slice.ingest(x);
            by_wire.ingest(x);
            gathered[x as usize % shards].ingest(x);
        }
        let mut routed = offset;
        for frame in frames(n, &splits) {
            let xs = &stream[frame];
            let payload = le_bytes(xs);
            by_slice.ingest_batch(xs);
            by_wire.ingest_by(xs.len(), |i| le_word(&payload, i));
            let mut strides = vec![Vec::new(); shards];
            for (p, &x) in xs.iter().enumerate() {
                strides[(routed + p) % shards].push(x);
            }
            for (shard, stride) in gathered.iter_mut().zip(&strides) {
                shard.ingest_batch(stride);
            }
            routed += xs.len();
        }
        prop_assert_eq!(by_slice.routed(), routed);
        prop_assert_eq!(by_wire.routed(), routed);
        for ((a, b), want) in by_slice.shards().iter().zip(by_wire.shards()).zip(&gathered) {
            prop_assert_eq!(a.save(), want.save());
            prop_assert_eq!(b.save(), want.save());
        }
    }
}
