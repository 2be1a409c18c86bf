//! [`ShardedSummary`]: ingestion over `K` independent shards of any
//! [`StreamSummary`], reassembled on demand through
//! [`MergeableSummary`].
//!
//! Elements are dealt to shards **round-robin by arrival index** — shard
//! `j` sees the subsequence at positions `≡ j (mod K)`. That routing rule
//! ([`stride_start`]) is what keeps the engine contract intact:
//! `ingest_batch` hands each shard exactly the per-shard subsequence that
//! element-wise `ingest` calls would, so batched and element-wise
//! ingestion stay state-identical, and batch split points never change
//! the result. The served path (`SummaryService` in the `service` crate)
//! and the cluster router deal by the same rule.
//!
//! Each shard reads its stride of a batch in place, through
//! [`StreamSummary::ingest_by`] with the view `i ↦ xs[start + i·K]`:
//! nothing is gathered, so the gap-skipping samplers read only the
//! elements they store, and a little-endian wire payload is dealt the
//! same way without being decoded first. Shards run one after another on
//! the calling thread; sharding is about merge topology and per-shard
//! state, not about threads.
//!
//! Shard seeds are derived deterministically from one base seed
//! ([`ShardedSummary::shard_seed`]), so a sharded run is exactly
//! reproducible. Queries ([`QuantileSummary`], [`FrequencySummary`]) merge
//! the shards on demand — clone + `K−1` merges per query — which is the
//! right trade for ingest-heavy, query-light deployments; cache
//! [`ShardedSummary::merged`] yourself if you query in a tight loop.

use crate::engine::merge::{merge_in_shard_order, MergeableSummary};
use crate::engine::snapshot::{self, SnapshotCodec, SnapshotError, SnapshotReader};
use crate::engine::summary::{FrequencySummary, QuantileSummary, StreamSummary};
use robust_sampling_streamgen::source::{for_each_chunk, StreamSource};

/// The checkpoint's third word. It held a batch length for a
/// scoped-thread fan-out that no longer exists; it is still written, as
/// the old default, so checkpoint bytes stay what they were, and it is
/// ignored on restore.
const RETIRED_CHECKPOINT_WORD: usize = 1 << 14;

/// The round-robin deal: the first index of a batch that shard `shard`
/// of `shards` owns, when the batch's first element has global arrival
/// index `routed`. Global index `i` goes to shard `i mod shards`, so the
/// shard's stride is `start, start + shards, …` — empty when `start` is
/// past the batch end.
#[inline]
pub fn stride_start(routed: usize, shards: usize, shard: usize) -> usize {
    let owner_of_first = routed % shards;
    if shard >= owner_of_first {
        shard - owner_of_first
    } else {
        shard + shards - owner_of_first
    }
}

/// `K` independent summaries fed round-robin, merged on demand.
#[derive(Debug, Clone)]
pub struct ShardedSummary<S> {
    shards: Vec<S>,
    /// Elements routed so far — the round-robin cursor.
    routed: usize,
}

impl<S> ShardedSummary<S> {
    /// Build `shards` summaries via `factory(shard_index, shard_seed)`,
    /// with per-shard seeds derived from `base_seed` by
    /// [`shard_seed`](Self::shard_seed).
    ///
    /// Summaries whose merge requires *shared* randomness (Count-Min's
    /// hash functions) should ignore the derived seed and use a fixed one;
    /// samplers must use it so shard RNGs are decorrelated.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new(shards: usize, base_seed: u64, mut factory: impl FnMut(usize, u64) -> S) -> Self {
        assert!(shards > 0, "need at least one shard");
        Self::from_shards(
            (0..shards)
                .map(|j| factory(j, Self::shard_seed(base_seed, j)))
                .collect(),
            0,
        )
    }

    /// Reassemble a sharded summary from its shard states, in shard order,
    /// and the number of elements already routed to them (what a
    /// checkpoint stores).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty.
    pub fn from_shards(shards: Vec<S>, routed: usize) -> Self {
        assert!(!shards.is_empty(), "need at least one shard");
        Self { shards, routed }
    }

    /// Deterministic per-shard seed: SplitMix-style mix of the base seed
    /// and the shard index, so shard RNG streams are decorrelated from
    /// each other and from the base seed itself.
    pub fn shard_seed(base_seed: u64, shard: usize) -> u64 {
        let mut z = base_seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(shard as u64 + 1));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Number of shards `K`.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard summaries, in shard order.
    pub fn shards(&self) -> &[S] {
        &self.shards
    }

    /// Elements routed so far: the round-robin cursor.
    pub fn routed(&self) -> usize {
        self.routed
    }

    /// Pull a lazy [`StreamSource`] dry in `frame`-sized frames through
    /// [`StreamSummary::ingest_batch`], returning the number of elements
    /// ingested. Memory is one frame plus the shards, never the stream —
    /// the path for 100M+-element sharded runs.
    ///
    /// # Panics
    ///
    /// Panics if `frame == 0`.
    pub fn ingest_source<T>(
        &mut self,
        source: &mut (impl StreamSource<T> + ?Sized),
        frame: usize,
    ) -> usize
    where
        T: Clone,
        S: StreamSummary<T>,
    {
        for_each_chunk(source, frame, |chunk| self.ingest_batch(chunk))
    }

    /// Merge all shards into one summary of the full stream (clones the
    /// shards; the sharded structure stays intact for further ingestion).
    pub fn merged<T>(&self) -> S
    where
        S: MergeableSummary<T> + Clone,
    {
        merge_in_shard_order(self.shards.iter().cloned())
    }

    /// Consume the sharded structure, merging all shards into one summary
    /// of the full stream (no clones).
    pub fn into_merged<T>(self) -> S
    where
        S: MergeableSummary<T>,
    {
        merge_in_shard_order(self.shards)
    }
}

/// Checkpoint = shard count, round-robin cursor, one retired word, and
/// every shard's own codec in shard order — a restored sharded summary
/// keeps dealing and ingesting bit-identically.
impl<S: SnapshotCodec> SnapshotCodec for ShardedSummary<S> {
    fn save_into(&self, out: &mut Vec<u8>) {
        snapshot::put_usize(out, self.shards.len());
        snapshot::put_usize(out, self.routed);
        snapshot::put_usize(out, RETIRED_CHECKPOINT_WORD);
        for shard in &self.shards {
            shard.save_into(out);
        }
    }

    fn restore_from(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let k = r.usize()?;
        if k == 0 {
            return Err(SnapshotError::Corrupt("sharded summary with no shards"));
        }
        let routed = r.usize()?;
        r.usize()?; // RETIRED_CHECKPOINT_WORD
        let shards = (0..k)
            .map(|_| S::restore_from(r))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self::from_shards(shards, routed))
    }
}

impl<T: Clone, S: StreamSummary<T>> StreamSummary<T> for ShardedSummary<S> {
    fn ingest(&mut self, x: T) {
        let k = self.shards.len();
        self.shards[self.routed % k].ingest(x);
        self.routed += 1;
    }

    fn ingest_batch(&mut self, xs: &[T]) {
        self.ingest_by(xs.len(), move |i| xs[i].clone());
    }

    /// Deal the view: shard `j` ingests its stride `at(start + i·K)` in
    /// place, with `start` from [`stride_start`].
    fn ingest_by(&mut self, n: usize, at: impl Fn(usize) -> T) {
        // Shard j's stride has n / K elements, one more if it starts
        // before n % K.
        let k = self.shards.len();
        let (at, per_shard, longer) = (&at, n / k, n % k);
        for (j, shard) in self.shards.iter_mut().enumerate() {
            let start = stride_start(self.routed, k, j);
            let len = per_shard + usize::from(start < longer);
            shard.ingest_by(len, move |i| at(start + i * k));
        }
        self.routed += n;
    }

    fn items_seen(&self) -> usize {
        self.shards.iter().map(S::items_seen).sum()
    }

    fn space(&self) -> usize {
        self.shards.iter().map(S::space).sum()
    }

    fn summary_name(&self) -> &'static str {
        self.shards[0].summary_name()
    }
}

/// Quantile queries answer from the on-demand merge of all shards.
impl<T, S> QuantileSummary<T> for ShardedSummary<S>
where
    T: Clone,
    S: QuantileSummary<T> + MergeableSummary<T> + Clone,
{
    fn estimate_quantile(&self, q: f64) -> Option<T> {
        self.merged().estimate_quantile(q)
    }

    fn estimate_rank(&self, x: &T) -> f64 {
        self.merged().estimate_rank(x)
    }
}

/// Frequency queries answer from the on-demand merge of all shards.
impl<T, S> FrequencySummary<T> for ShardedSummary<S>
where
    T: Clone,
    S: FrequencySummary<T> + MergeableSummary<T> + Clone,
{
    fn estimate_count(&self, x: &T) -> f64 {
        self.merged().estimate_count(x)
    }

    fn heavy_items(&self, threshold: f64) -> Vec<(T, f64)> {
        self.merged().heavy_items(threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::{ReservoirSampler, StreamSampler};

    fn sharded_reservoir(k: usize) -> ShardedSummary<ReservoirSampler<u64>> {
        ShardedSummary::new(k, 42, |_, seed| ReservoirSampler::with_seed(64, seed))
    }

    #[test]
    fn batch_and_elementwise_ingest_are_state_identical() {
        let stream: Vec<u64> = (0..50_000).collect();
        let mut a = sharded_reservoir(4);
        let mut b = sharded_reservoir(4);
        for &x in &stream {
            a.ingest(x);
        }
        b.ingest_batch(&stream);
        for (sa, sb) in a.shards().iter().zip(b.shards()) {
            assert_eq!(sa.sample(), sb.sample());
            assert_eq!(sa.observed(), sb.observed());
        }
        assert_eq!(a.items_seen(), 50_000);
        assert_eq!(b.items_seen(), 50_000);
    }

    #[test]
    fn batch_split_points_do_not_matter() {
        let stream: Vec<u64> = (0..30_000).rev().collect();
        let mut whole = sharded_reservoir(3);
        whole.ingest_batch(&stream);
        let mut pieces = sharded_reservoir(3);
        let mut rest: &[u64] = &stream;
        let mut chunk = 1usize;
        while !rest.is_empty() {
            let take = chunk.min(rest.len());
            pieces.ingest_batch(&rest[..take]);
            rest = &rest[take..];
            chunk = chunk * 2 + 1;
        }
        for (a, b) in whole.shards().iter().zip(pieces.shards()) {
            assert_eq!(a.sample(), b.sample());
        }
    }

    #[test]
    fn shard_seeds_are_distinct_and_deterministic() {
        let seeds: Vec<u64> = (0..8)
            .map(|j| ShardedSummary::<()>::shard_seed(7, j))
            .collect();
        let again: Vec<u64> = (0..8)
            .map(|j| ShardedSummary::<()>::shard_seed(7, j))
            .collect();
        assert_eq!(seeds, again);
        for (i, &a) in seeds.iter().enumerate() {
            for &b in &seeds[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn ingest_source_matches_ingest_batch() {
        use robust_sampling_streamgen::{SliceSource, UniformSource};
        let stream = robust_sampling_streamgen::uniform(60_000, 1 << 30, 3);
        let mut whole = sharded_reservoir(4);
        whole.ingest_batch(&stream);
        // Frame-pulled from a slice, at an awkward frame size.
        let mut framed = sharded_reservoir(4);
        let total = framed.ingest_source(&mut SliceSource::new(&stream), 777);
        assert_eq!(total, stream.len());
        for (a, b) in whole.shards().iter().zip(framed.shards()) {
            assert_eq!(a.sample(), b.sample());
        }
        // Frame-pulled straight from the generator, never materialized.
        let mut lazy = sharded_reservoir(4);
        lazy.ingest_source(&mut UniformSource::new(60_000, 1 << 30, 3), 1 << 14);
        for (a, b) in whole.shards().iter().zip(lazy.shards()) {
            assert_eq!(a.sample(), b.sample());
        }
    }

    #[test]
    fn sharded_snapshot_resumes_bit_identically() {
        let stream: Vec<u64> = (0..40_000).collect();
        let mut whole = sharded_reservoir(4);
        let mut half = sharded_reservoir(4);
        whole.ingest_batch(&stream);
        half.ingest_batch(&stream[..17_001]);
        let mut resumed = ShardedSummary::<ReservoirSampler<u64>>::restore(&half.save()).unwrap();
        resumed.ingest_batch(&stream[17_001..]);
        for (a, b) in whole.shards().iter().zip(resumed.shards()) {
            assert_eq!(a.sample(), b.sample());
        }
        assert_eq!(resumed.items_seen(), whole.items_seen());
    }

    /// Forged sharded checkpoints: every truncation, a shard count of 0,
    /// `u64::MAX` or one more than encoded, and trailing bytes each end in
    /// a typed error, never a panic or an abort.
    #[test]
    fn forged_checkpoints_are_typed_errors() {
        type Sharded = ShardedSummary<ReservoirSampler<u64>>;
        let stream: Vec<u64> = (0..1_000).collect();
        let mut s = sharded_reservoir(3);
        s.ingest_batch(&stream);
        let bytes = s.save();
        assert!(Sharded::restore(&bytes).is_ok());
        for len in 0..bytes.len() {
            assert_eq!(
                Sharded::restore(&bytes[..len]).err(),
                Some(SnapshotError::UnexpectedEof),
                "truncated to {len} bytes"
            );
        }
        // The shard count is the checkpoint's first word.
        let with_count = |k: u64| {
            let mut forged = bytes.clone();
            forged[..8].copy_from_slice(&k.to_le_bytes());
            Sharded::restore(&forged).err()
        };
        assert!(matches!(with_count(0), Some(SnapshotError::Corrupt(_))));
        assert_eq!(with_count(u64::MAX), Some(SnapshotError::UnexpectedEof));
        assert_eq!(with_count(4), Some(SnapshotError::UnexpectedEof));
        let mut trailing = bytes.clone();
        trailing.extend_from_slice(&[0; 5]);
        assert_eq!(
            Sharded::restore(&trailing).err(),
            Some(SnapshotError::TrailingBytes(5))
        );
    }

    #[test]
    fn merged_reservoir_covers_the_whole_stream() {
        let stream: Vec<u64> = (0..100_000).collect();
        let mut s = ShardedSummary::new(4, 9, |_, seed| ReservoirSampler::with_seed(256, seed));
        s.ingest_batch(&stream);
        let merged = s.merged();
        assert_eq!(merged.observed(), 100_000);
        assert_eq!(merged.sample().len(), 256);
        let d = crate::approx::prefix_discrepancy(&stream, merged.sample()).value;
        assert!(d < 0.12, "merged discrepancy {d}");
        // `merged` clones: the sharded structure can keep ingesting.
        s.ingest_batch(&stream);
        assert_eq!(s.items_seen(), 200_000);
    }

    #[test]
    fn into_merged_consumes_without_cloning() {
        let stream: Vec<u64> = (0..10_000).collect();
        let mut s = sharded_reservoir(2);
        s.ingest_batch(&stream);
        let merged = s.into_merged();
        assert_eq!(merged.observed(), 10_000);
    }

    #[test]
    fn single_shard_is_the_plain_summary() {
        let stream: Vec<u64> = (0..5_000).collect();
        let mut sharded = ShardedSummary::new(1, 3, |_, _| ReservoirSampler::with_seed(32, 99));
        let mut plain = ReservoirSampler::with_seed(32, 99);
        sharded.ingest_batch(&stream);
        plain.ingest_batch(&stream);
        assert_eq!(sharded.shards()[0].sample(), plain.sample());
    }
}
