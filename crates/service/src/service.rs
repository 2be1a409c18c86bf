//! [`SummaryService`]: sharded ingestion with epoch-snapshot queries and
//! checkpoint/restore.
//!
//! ## Determinism contract
//!
//! The service's shards *are* a [`ShardedSummary`], so it deals by the
//! engine's one round-robin rule: frame element `i` (counting from the
//! global arrival index) goes to shard `i mod K`, and each shard runs its
//! summary's batched hot path over exactly the per-shard subsequence the
//! offline [`ShardedSummary::ingest_batch`] would hand it. Because the
//! engine's batch contract is strict state equivalence, a service fed a
//! frame schedule ends with shard states — and therefore merged epoch
//! snapshots — **bit-identical** to the offline sharded run of the same
//! stream (property-tested in `tests/service_determinism.rs`).
//!
//! ## Concurrency model
//!
//! One writer, many readers. The service does all ingest and publish
//! work on the calling thread; it starts no thread. `ingest_frame` hands
//! the frame to [`ShardedSummary::ingest_batch`], and `ingest_frame_le`
//! hands the wire payload to [`ShardedSummary::ingest_by`] as a view of
//! its little-endian words ([`le_word`]). Either way each shard reads its
//! stride in place, and the skip kernels read, and decode, only the
//! elements they store: nothing is copied or decoded into a buffer
//! first, so a frame costs its shards' stores, not its length. The
//! steady-state ingest path is **allocation-free**.
//!
//! Every `epoch_every` ingested elements the same call *publishes*: it
//! clones the shards, merges the clones in shard order into the next
//! [`EpochSnapshot`] and swaps it in behind an `Arc` before returning.
//! So when an ingest call returns, its frame has been applied and any
//! epoch it completed is readable: a server's `INGEST` ack follows the
//! kernel, and the next query sees the new epoch.
//!
//! Readers ([`QueryHandle`]) never observe a half-published epoch or a
//! half-ingested frame: a query clones the published `Arc` under a read
//! lock held only for the pointer copy and answers from an immutable
//! [`EpochSnapshot`].

use robust_sampling_core::attack::ObservableDefense;
use robust_sampling_core::engine::snapshot::{
    le_word, put_u64, put_usize, FrameHwm, SnapshotCodec, SnapshotError, SnapshotReader,
};
use robust_sampling_core::engine::{ShardedSummary, StreamSummary};
use robust_sampling_core::sampler::ReservoirSampler;
use std::sync::{Arc, OnceLock, RwLock};

/// The summary every shard and every published epoch holds: the
/// reservoir sample Thm 1.2 sizes.
type Reservoir = ReservoirSampler<u64>;

/// One published epoch: an immutable merged summary of everything
/// ingested up to a frame-aligned boundary.
///
/// The snapshot is immutable and shared across query threads. Every
/// query — [`quantile`], [`count`], [`heavy`] and [`ks_uniform`] — reads
/// the retained sample's one sorted copy, built on first use and cached
/// for the epoch's lifetime: an epoch sorts its sample once, and a query
/// on a built view allocates nothing. [`visible_ref`] and
/// [`sorted_ref`] expose the caches as borrowed slices so protocol
/// handlers can serialize straight from them.
///
/// [`quantile`]: EpochSnapshot::quantile
/// [`count`]: EpochSnapshot::count
/// [`heavy`]: EpochSnapshot::heavy
/// [`ks_uniform`]: EpochSnapshot::ks_uniform
/// [`visible_ref`]: EpochSnapshot::visible_ref
/// [`sorted_ref`]: EpochSnapshot::sorted_ref
#[derive(Debug)]
pub struct EpochSnapshot<S> {
    epoch: u64,
    items: usize,
    merged: S,
    visible: OnceLock<Vec<u64>>,
    sorted: OnceLock<Vec<u64>>,
}

impl<S> EpochSnapshot<S> {
    pub(crate) fn new(epoch: u64, items: usize, merged: S) -> Self {
        Self {
            epoch,
            items,
            merged,
            visible: OnceLock::new(),
            sorted: OnceLock::new(),
        }
    }

    /// Epoch counter (0 is the empty pre-ingest snapshot).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Stream length at this snapshot's boundary.
    pub fn items(&self) -> usize {
        self.items
    }

    /// The merged summary (distributed exactly as one summary run over
    /// the whole served stream — see
    /// [`MergeableSummary`](robust_sampling_core::engine::MergeableSummary)).
    pub fn summary(&self) -> &S {
        &self.merged
    }
}

impl<S: ObservableDefense> EpochSnapshot<S> {
    /// The snapshot's retained elements, borrowed from the per-epoch
    /// cache (computed on first use) — the allocation-free accessor the
    /// serving handlers use.
    pub fn visible_ref(&self) -> &[u64] {
        self.visible.get_or_init(|| self.merged.visible())
    }

    /// The retained elements in sorted order, borrowed from the
    /// per-epoch cache (computed on first use, straight from the merged
    /// summary: it does not build the [`visible_ref`](Self::visible_ref)
    /// cache).
    pub fn sorted_ref(&self) -> &[u64] {
        self.sorted.get_or_init(|| {
            let mut v = Vec::new();
            self.merged.visible_into(&mut v);
            v.sort_unstable();
            v
        })
    }

    /// The snapshot's retained elements — the observable state `σ` a
    /// remote adversary reads through the `SNAPSHOT` command. Returns an
    /// owned copy for callers that outlive the snapshot; the serving
    /// path uses [`visible_ref`](Self::visible_ref) instead.
    pub fn visible(&self) -> Vec<u64> {
        self.visible_ref().to_vec()
    }

    /// Count estimate for `x`: sample density × stream length.
    pub fn count(&self, x: u64) -> f64 {
        let sorted = self.sorted_ref();
        if sorted.is_empty() {
            return 0.0;
        }
        let occurrences = sorted.partition_point(|&v| v <= x) - sorted.partition_point(|&v| v < x);
        occurrences as f64 / sorted.len() as f64 * self.items as f64
    }

    /// `q`-quantile estimate: the element of rank `⌈q·k⌉` (at least 1)
    /// in the sorted sample of `k` — the convention of
    /// [`SampleQuantiles::quantile`](robust_sampling_core::estimators::SampleQuantiles::quantile),
    /// so a reservoir epoch answers exactly what its summary's
    /// `estimate_quantile` would, without sorting again. `None` before
    /// the first element.
    ///
    /// # Panics
    ///
    /// Panics if `q ∉ [0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "q must be in [0,1], got {q}");
        let sorted = self.sorted_ref();
        if sorted.is_empty() {
            return None;
        }
        let target = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        Some(sorted[target - 1])
    }

    /// Items whose sample density is `≥ threshold`, densest first (ties
    /// broken by item value, so reports are deterministic).
    pub fn heavy(&self, threshold: f64) -> Vec<(u64, f64)> {
        let sorted = self.sorted_ref();
        if sorted.is_empty() {
            return Vec::new();
        }
        let k = sorted.len() as f64;
        let mut out: Vec<(u64, f64)> = Vec::new();
        let mut i = 0;
        while i < sorted.len() {
            let run = sorted.partition_point(|&v| v <= sorted[i]);
            let density = (run - i) as f64 / k;
            if density >= threshold {
                out.push((sorted[i], density));
            }
            i = run;
        }
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Kolmogorov–Smirnov distance between the retained sample's
    /// empirical CDF and the uniform distribution over
    /// `{0, …, universe−1}` — the drift/skew monitor behind `QUERY KS`.
    /// Returns 1.0 for an empty sample (maximal ignorance).
    ///
    /// The running maximum is kept in four independent lanes so the
    /// per-element terms do not wait on one another. Every term is a
    /// non-NaN `abs()`, never `-0.0`, so the maximum does not depend on
    /// the order it is taken in, and a plain comparison takes it
    /// (`f64::max`'s NaN handling would keep the lanes from pairing up
    /// in vector instructions): the result is the same to the bit as one
    /// left-to-right `f64::max` fold.
    pub fn ks_uniform(&self, universe: u64) -> f64 {
        assert!(universe > 0, "universe must be non-empty");
        let sample = self.sorted_ref();
        if sample.is_empty() {
            return 1.0;
        }
        let k = sample.len() as f64;
        let larger = |a: f64, b: f64| if a > b { a } else { b };
        let gap = |i: usize, v: u64| {
            let f = (v.min(universe - 1) as f64 + 1.0) / universe as f64;
            larger(((i + 1) as f64 / k - f).abs(), (f - i as f64 / k).abs())
        };
        let mut lanes = [0.0f64; 4];
        let quads = sample.chunks_exact(4);
        let tail = quads.remainder();
        for (c, quad) in quads.enumerate() {
            let i = 4 * c;
            let gaps = [
                gap(i, quad[0]),
                gap(i + 1, quad[1]),
                gap(i + 2, quad[2]),
                gap(i + 3, quad[3]),
            ];
            for (lane, g) in lanes.iter_mut().zip(gaps) {
                *lane = larger(*lane, g);
            }
        }
        let base = sample.len() - tail.len();
        for (j, &v) in tail.iter().enumerate() {
            lanes[j] = larger(lanes[j], gap(base + j, v));
        }
        larger(larger(lanes[0], lanes[1]), larger(lanes[2], lanes[3]))
    }
}

/// A cloneable, read-only handle onto the service's published snapshot —
/// what query threads (and the TCP server's query path) hold. Reading
/// never touches the ingest path.
#[derive(Debug, Clone)]
pub struct QueryHandle {
    published: Arc<RwLock<Arc<EpochSnapshot<Reservoir>>>>,
}

impl QueryHandle {
    /// The current epoch snapshot — every epoch published before this
    /// call is visible in it. The returned `Arc` stays valid (and
    /// immutable) however many epochs are published after it.
    pub fn snapshot(&self) -> Arc<EpochSnapshot<Reservoir>> {
        Arc::clone(&self.published.read().expect("snapshot lock poisoned"))
    }
}

/// Checkpoint envelope magic (`b"RSVC"` + format version 2; version 2
/// added the frame high-water mark the cluster router's replay window
/// dedups against).
const CHECKPOINT_MAGIC: u64 = 0x5253_5643_0000_0002;

/// A long-running, concurrently-queried summary service. See the module
/// docs for the determinism and concurrency contracts.
pub struct SummaryService {
    /// The `K` shard summaries and the round-robin cursor.
    sharded: ShardedSummary<Reservoir>,
    /// Elements ingested since the last publish.
    since_publish: usize,
    /// Ingest frames fully applied — the high-water mark a checkpoint
    /// envelope carries so a failover replay can dedup (see
    /// [`FrameHwm`]).
    frames_acked: FrameHwm,
    /// Publish an epoch every this many ingested elements.
    epoch_every: usize,
    /// Epoch number of the published snapshot.
    epoch: u64,
    /// The published-snapshot cell every [`QueryHandle`] reads.
    published: Arc<RwLock<Arc<EpochSnapshot<Reservoir>>>>,
}

impl std::fmt::Debug for SummaryService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SummaryService")
            .field("shards", &self.num_shards())
            .field("routed", &self.items_routed())
            .field("epoch", &self.epoch)
            .field("epoch_every", &self.epoch_every)
            .finish()
    }
}

impl SummaryService {
    /// Start a service of `shards` ingest shards whose summaries come
    /// from `factory(shard_index, shard_seed)` — the same constructor
    /// shape, and the same [`ShardedSummary::shard_seed`] derivation, as
    /// the offline sharded engine, so served and offline runs are
    /// comparable shard for shard. An epoch is published every
    /// `epoch_every` ingested elements (1 = publish after every frame,
    /// what a remote adaptive duel needs).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or `epoch_every == 0`.
    pub fn start(
        shards: usize,
        base_seed: u64,
        epoch_every: usize,
        factory: impl FnMut(usize, u64) -> Reservoir,
    ) -> Self {
        Self::from_parts(
            ShardedSummary::new(shards, base_seed, factory),
            0,
            FrameHwm::default(),
            0,
            epoch_every,
            None,
        )
    }

    /// Assemble a service around pre-built shard states. `published` is
    /// the snapshot to serve initially: the restore path passes the one
    /// that was published at checkpoint time (so no query window ever
    /// differs from the uninterrupted run); the fresh-start path passes
    /// `None` and serves the merge of the initial shard states under
    /// epoch number `epoch`.
    fn from_parts(
        sharded: ShardedSummary<Reservoir>,
        since_publish: usize,
        frames_acked: FrameHwm,
        epoch: u64,
        epoch_every: usize,
        published: Option<EpochSnapshot<Reservoir>>,
    ) -> Self {
        assert!(epoch_every > 0, "epoch_every must be positive");
        let snapshot = published
            .unwrap_or_else(|| EpochSnapshot::new(epoch, sharded.routed(), sharded.merged()));
        Self {
            sharded,
            since_publish,
            frames_acked,
            epoch_every,
            epoch,
            published: Arc::new(RwLock::new(Arc::new(snapshot))),
        }
    }

    /// Number of ingest shards `K`.
    pub fn num_shards(&self) -> usize {
        self.sharded.num_shards()
    }

    /// Elements ingested so far.
    pub fn items_routed(&self) -> usize {
        self.sharded.routed()
    }

    /// Ingest frames fully applied so far — the frame high-water mark
    /// checkpoints persist. A router replaying a retained frame window
    /// after failover skips every frame with index below this mark.
    pub fn frames_acked(&self) -> u64 {
        self.frames_acked.frames()
    }

    /// The publish cadence, in elements.
    pub fn epoch_every(&self) -> usize {
        self.epoch_every
    }

    /// A read-only handle for query threads.
    pub fn query_handle(&self) -> QueryHandle {
        QueryHandle {
            published: Arc::clone(&self.published),
        }
    }

    /// The currently published snapshot (shorthand for going through
    /// [`query_handle`](Self::query_handle)).
    pub fn snapshot(&self) -> Arc<EpochSnapshot<Reservoir>> {
        self.query_handle().snapshot()
    }

    /// Ingest one frame, then publish an epoch if the cadence came due.
    /// Returns the new total item count. Each shard reads its stride of
    /// the frame in place. The frame, and any epoch it completes, is
    /// applied before the call returns. Steady-state calls perform no
    /// heap allocation.
    pub fn ingest_frame(&mut self, xs: &[u64]) -> usize {
        self.sharded.ingest_batch(xs);
        self.finish_frame(xs.len())
    }

    /// Ingest one frame straight from its wire encoding: `payload` is
    /// the flat little-endian `u64` chunk of a binary `INGEST` frame.
    /// Each shard reads its stride of the payload's words in place, and a
    /// word is decoded only if a kernel stores it. State evolution is
    /// bit-identical to [`ingest_frame`](Self::ingest_frame) on the
    /// decoded values.
    ///
    /// # Panics
    ///
    /// Panics if `payload.len()` is not a multiple of 8 — the frame
    /// decoder rejects ragged payloads before they reach the service.
    pub fn ingest_frame_le(&mut self, payload: &[u8]) -> usize {
        assert!(
            payload.len().is_multiple_of(8),
            "INGEST payload must be a multiple of 8 bytes"
        );
        let n = payload.len() / 8;
        self.sharded.ingest_by(n, move |i| le_word(payload, i));
        self.finish_frame(n)
    }

    fn finish_frame(&mut self, n: usize) -> usize {
        self.frames_acked.ack();
        self.since_publish += n;
        if self.since_publish >= self.epoch_every {
            self.publish();
        }
        self.items_routed()
    }

    /// Publish a new epoch now (the `epoch_every` cadence calls the
    /// same code): merge clones of the shards in shard order, swap the
    /// result in, and return it.
    pub fn publish(&mut self) -> Arc<EpochSnapshot<Reservoir>> {
        self.epoch += 1;
        self.since_publish = 0;
        let snap = Arc::new(EpochSnapshot::new(
            self.epoch,
            self.items_routed(),
            self.sharded.merged(),
        ));
        self.serve(Arc::clone(&snap));
        snap
    }

    /// Take over `restored`'s whole state, and serve its published
    /// snapshot from this service's cell: every [`QueryHandle`] already
    /// handed out reads the restored epoch from the next query on, and
    /// none ever sees a mix of old and new state.
    pub fn replace(&mut self, restored: SummaryService) {
        let snap = restored.snapshot();
        *self = Self {
            published: Arc::clone(&self.published),
            ..restored
        };
        self.serve(snap);
    }

    /// Swap `snap` into the published cell.
    fn serve(&self, snap: Arc<EpochSnapshot<Reservoir>>) {
        let old = std::mem::replace(
            &mut *self.published.write().expect("snapshot lock poisoned"),
            snap,
        );
        // The retired epoch (if no reader still holds it) is freed
        // outside the write lock.
        drop(old);
    }

    /// Serialize the full service state — shard summaries (with their
    /// private RNG/gap state), round-robin cursor, the frame high-water
    /// mark ([`frames_acked`](Self::frames_acked), which a failover
    /// replay dedups against), publish cadence and phase, epoch counter,
    /// **and the currently published snapshot** — as one byte string,
    /// cut at a frame boundary.
    ///
    /// [`restore`](Self::restore)-ing the bytes yields a service whose
    /// future ingestion, publication cadence, and query answers are
    /// bit-identical to this one's. Because the published snapshot rides
    /// along, that holds from the very first post-restore query: even a
    /// checkpoint taken mid-cadence serves exactly the epoch the
    /// uninterrupted service was serving, never a fresher recovery view.
    pub fn checkpoint(&self) -> Vec<u8> {
        let snap = self.snapshot();
        debug_assert_eq!(snap.epoch(), self.epoch, "published epoch out of sync");
        let mut out = Vec::new();
        put_u64(&mut out, CHECKPOINT_MAGIC);
        put_usize(&mut out, self.num_shards());
        put_usize(&mut out, self.items_routed());
        put_usize(&mut out, self.since_publish);
        self.frames_acked.save_into(&mut out);
        put_usize(&mut out, self.epoch_every);
        put_u64(&mut out, self.epoch);
        put_usize(&mut out, snap.items());
        snap.summary().save_into(&mut out);
        for shard in self.sharded.shards() {
            shard.save_into(&mut out);
        }
        out
    }

    /// Rebuild a service from a [`checkpoint`](Self::checkpoint). The
    /// snapshot published at checkpoint time is republished as-is, so
    /// queries resume exactly where they left off.
    pub fn restore(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = SnapshotReader::new(bytes);
        if r.u64()? != CHECKPOINT_MAGIC {
            return Err(SnapshotError::Corrupt("bad checkpoint magic/version"));
        }
        let shards = r.usize()?;
        if shards == 0 {
            return Err(SnapshotError::Corrupt("checkpoint with no shards"));
        }
        let routed = r.usize()?;
        let since_publish = r.usize()?;
        let frames_acked = FrameHwm::restore_from(&mut r)?;
        let epoch_every = r.usize()?;
        if epoch_every == 0 {
            return Err(SnapshotError::Corrupt("checkpoint epoch_every zero"));
        }
        let epoch = r.u64()?;
        let snap_items = r.usize()?;
        let snap_merged = Reservoir::restore_from(&mut r)?;
        let states = (0..shards)
            .map(|_| Reservoir::restore_from(&mut r))
            .collect::<Result<Vec<_>, _>>()?;
        if r.remaining() != 0 {
            return Err(SnapshotError::TrailingBytes(r.remaining()));
        }
        // The invariants `finish_frame` and `publish` keep between calls:
        // a forged envelope breaking one would serve a false boundary or
        // overflow a counter on the next frame.
        if snap_items.checked_add(since_publish) != Some(routed) {
            return Err(SnapshotError::Corrupt(
                "checkpoint snapshot items plus pending items differ from routed",
            ));
        }
        if since_publish >= epoch_every {
            return Err(SnapshotError::Corrupt(
                "checkpoint pending items reach epoch_every",
            ));
        }
        if epoch == u64::MAX || frames_acked.frames() == u64::MAX {
            return Err(SnapshotError::Corrupt("checkpoint counter at u64::MAX"));
        }
        Ok(Self::from_parts(
            ShardedSummary::from_shards(states, routed),
            since_publish,
            frames_acked,
            epoch,
            epoch_every,
            Some(EpochSnapshot::new(epoch, snap_items, snap_merged)),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robust_sampling_core::sampler::StreamSampler;

    fn offline(k: usize, seed: u64) -> ShardedSummary<Reservoir> {
        ShardedSummary::new(k, seed, |_, s| ReservoirSampler::with_seed(64, s))
    }

    fn service(k: usize, seed: u64, epoch_every: usize) -> SummaryService {
        SummaryService::start(k, seed, epoch_every, |_, s| {
            ReservoirSampler::with_seed(64, s)
        })
    }

    #[test]
    fn served_run_is_bit_identical_to_offline_sharded_run() {
        let stream: Vec<u64> = (0..60_000).map(|i| i * 31 % 50_000).collect();
        let mut off = offline(4, 42);
        let mut svc = service(4, 42, 8_192);
        for frame in stream.chunks(777) {
            off.ingest_batch(frame);
            svc.ingest_frame(frame);
        }
        svc.publish();
        let snap = svc.snapshot();
        assert_eq!(snap.items(), stream.len());
        assert_eq!(snap.summary().sample(), off.merged().sample());
    }

    #[test]
    fn binary_payload_ingest_is_bit_identical_to_the_slice_path() {
        let stream: Vec<u64> = (0..40_000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9))
            .collect();
        let mut by_slice = service(3, 17, 4_096);
        let mut by_bytes = service(3, 17, 4_096);
        let mut payload = Vec::new();
        for frame in stream.chunks(513) {
            by_slice.ingest_frame(frame);
            payload.clear();
            for &v in frame {
                payload.extend_from_slice(&v.to_le_bytes());
            }
            by_bytes.ingest_frame_le(&payload);
        }
        by_slice.publish();
        by_bytes.publish();
        assert_eq!(
            by_slice.snapshot().summary().sample(),
            by_bytes.snapshot().summary().sample()
        );
        assert_eq!(by_slice.snapshot().epoch(), by_bytes.snapshot().epoch());
    }

    #[test]
    fn epochs_publish_on_cadence_and_are_immutable() {
        for k in [1, 2, 4] {
            let mut svc = service(k, 7, 1_000);
            let handle = svc.query_handle();
            let pre = svc.snapshot();
            assert_eq!(pre.epoch(), 0);
            assert_eq!(pre.items(), 0);
            svc.ingest_frame(&(0..999).collect::<Vec<u64>>());
            assert_eq!(svc.snapshot().epoch(), 0, "cadence not due yet");
            svc.ingest_frame(&[999]);
            // The crossing ingest published before returning: a handle
            // cloned beforehand, read on another thread, sees the epoch.
            let seen = std::thread::spawn(move || {
                let snap = handle.snapshot();
                (snap.epoch(), snap.items())
            });
            assert_eq!(seen.join().unwrap(), (1, 1_000));
            // The old Arc is still the old state.
            assert_eq!(pre.items(), 0);
        }
    }

    #[test]
    fn query_handle_reads_while_ingesting() {
        let mut svc = service(2, 9, 512);
        let handle = svc.query_handle();
        let reader = std::thread::spawn(move || {
            let mut seen = 0u64;
            for _ in 0..1_000 {
                seen = seen.max(handle.snapshot().epoch());
            }
            seen
        });
        for frame in (0..20_000u64).collect::<Vec<_>>().chunks(256) {
            svc.ingest_frame(frame);
        }
        let seen = reader.join().unwrap();
        assert!(seen <= svc.snapshot().epoch());
    }

    #[test]
    fn snapshot_queries_answer_from_the_merged_summary() {
        let mut svc = service(4, 3, 1 << 20);
        let stream: Vec<u64> = (0..50_000).collect();
        svc.ingest_frame(&stream);
        svc.publish();
        let snap = svc.snapshot();
        let med = snap.quantile(0.5).unwrap() as f64;
        assert!((med - 25_000.0).abs() < 6_000.0, "median {med}");
        assert_eq!(snap.visible().len(), 64);
        assert_eq!(snap.visible(), snap.visible_ref().to_vec());
        let mut resorted = snap.visible();
        resorted.sort_unstable();
        assert_eq!(snap.sorted_ref(), resorted.as_slice());
        let ks = snap.ks_uniform(50_000);
        assert!(ks < 0.35, "uniform stream KS {ks}");
        assert!(snap.heavy(0.5).is_empty());
    }

    /// The probe quantiles the equivalence pins sweep: both ends, one
    /// step inside each end, and two interior points.
    const PROBE_QS: [f64; 6] = [0.0, 1e-9, 0.25, 0.5, 1.0 - 1e-9, 1.0];

    /// `quantile` reads the epoch's sorted view; it answers exactly what
    /// the merged reservoir's own `estimate_quantile` (a fresh copy and
    /// sort) answers — for an empty, a partial (< k), a full and K = 2
    /// and 3 merged samples. The capacity is prime, so `q·k` is not a
    /// whole number at the interior probes and the rounding of the rank
    /// shows.
    #[test]
    fn quantile_from_the_sorted_view_equals_the_summary_estimate() {
        use robust_sampling_core::engine::QuantileSummary;
        let stream: Vec<u64> = (0..5_000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 44)
            .collect();
        for (shards, n) in [(1, 0), (1, 39), (1, 5_000), (2, 5_000), (3, 5_000)] {
            let mut svc = SummaryService::start(shards, 13, usize::MAX, |_, s| {
                ReservoirSampler::with_seed(61, s)
            });
            svc.ingest_frame(&stream[..n]);
            svc.publish();
            let snap = svc.snapshot();
            assert_eq!(snap.items(), n);
            assert_eq!(snap.sorted_ref().len(), n.min(61));
            for q in PROBE_QS {
                assert_eq!(
                    snap.quantile(q),
                    snap.summary().estimate_quantile(q),
                    "K = {shards}, n = {n}, q = {q}"
                );
            }
        }
    }

    /// The left-to-right KS fold `ks_uniform` replaced by its four max
    /// lanes.
    fn ks_reference(sample: &[u64], universe: u64) -> f64 {
        let mut sorted = sample.to_vec();
        sorted.sort_unstable();
        if sorted.is_empty() {
            return 1.0;
        }
        let k = sorted.len() as f64;
        let mut d = 0.0f64;
        for (i, &v) in sorted.iter().enumerate() {
            let f = (v.min(universe - 1) as f64 + 1.0) / universe as f64;
            d = d.max(((i + 1) as f64 / k - f).abs());
            d = d.max((f - i as f64 / k).abs());
        }
        d
    }

    /// `ks_uniform` equals the scalar fold to the bit, on sample lengths
    /// 0–9 (every lane remainder) and 1,253, and on universes from 1 to
    /// `u64::MAX`. Each length and universe is played twice: values
    /// spread over the universe with some at or above it (the largest
    /// gap falls low in the sample), and values packed into its bottom
    /// 64th (the largest gap falls on the last, remainder, elements).
    #[test]
    fn ks_lanes_equal_the_scalar_fold_to_the_bit() {
        for len in (0..10).chain([1_253]) {
            for universe in [1, 2, 1 << 20, u64::MAX] {
                for packed in [false, true] {
                    let scramble = |i: u64| (i + len as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let sample: Vec<u64> = (0..len as u64)
                        .map(|i| match (packed, i % 8) {
                            (true, _) => scramble(i) % (universe / 64).max(1),
                            (false, 0) => universe,
                            (false, 1) => u64::MAX,
                            (false, 2) => universe - 1,
                            (false, _) => scramble(i) % universe,
                        })
                        .collect();
                    let mut whole = ReservoirSampler::with_seed(len.max(1), 3);
                    whole.ingest_batch(&sample);
                    let snap = EpochSnapshot::new(1, len, whole);
                    assert_eq!(
                        snap.sorted_ref().len(),
                        len,
                        "the reservoir keeps every value"
                    );
                    assert_eq!(
                        snap.ks_uniform(universe).to_bits(),
                        ks_reference(&sample, universe).to_bits(),
                        "len {len}, universe {universe}, packed {packed}"
                    );
                }
            }
        }
    }

    #[test]
    fn heavy_reports_a_planted_hitter_deterministically() {
        let mut svc = service(2, 5, 1 << 20);
        let stream: Vec<u64> = (0..40_000)
            .map(|i| if i % 3 == 0 { 7 } else { 1_000 + i })
            .collect();
        svc.ingest_frame(&stream);
        svc.publish();
        let snap = svc.snapshot();
        let heavy = snap.heavy(0.2);
        assert_eq!(heavy.first().map(|&(v, _)| v), Some(7));
        assert!((snap.count(7) - 40_000.0 / 3.0).abs() < 4_000.0);
    }

    #[test]
    fn checkpoint_restore_resumes_bit_identically() {
        let stream: Vec<u64> = (0..30_000).rev().collect();
        for k in [1, 3, 4] {
            let mut whole = service(k, 11, 4_096);
            let mut half = service(k, 11, 4_096);
            for frame in stream.chunks(500) {
                whole.ingest_frame(frame);
            }
            for frame in stream[..15_000].chunks(500) {
                half.ingest_frame(frame);
            }
            let frames_before = half.frames_acked();
            assert_eq!(frames_before, 30); // 15_000 elements in 500-element frames
            let bytes = half.checkpoint();
            drop(half);
            let mut resumed = SummaryService::restore(&bytes).unwrap();
            assert_eq!(resumed.num_shards(), k);
            assert_eq!(resumed.items_routed(), 15_000);
            assert_eq!(resumed.frames_acked(), frames_before);
            for frame in stream[15_000..].chunks(500) {
                resumed.ingest_frame(frame);
            }
            whole.publish();
            resumed.publish();
            assert_eq!(
                resumed.snapshot().summary().sample(),
                whole.snapshot().summary().sample()
            );
            assert_eq!(resumed.snapshot().epoch(), whole.snapshot().epoch());
        }
    }

    #[test]
    fn restore_mid_cadence_serves_the_checkpoint_time_snapshot() {
        // Checkpoint with 300 elements pending past the last epoch
        // boundary: the restored service must keep serving the *boundary*
        // snapshot (items = 1200), not a fresher recovery view — so no
        // query window ever differs from the uninterrupted run.
        let mut whole = service(2, 21, 1_000);
        whole.ingest_frame(&(0..800u64).collect::<Vec<_>>());
        whole.ingest_frame(&(800..1_200u64).collect::<Vec<_>>());
        whole.ingest_frame(&(1_200..1_500u64).collect::<Vec<_>>());
        let before = whole.snapshot();
        assert_eq!((before.epoch(), before.items()), (1, 1_200));
        let bytes = whole.checkpoint();
        let restored = SummaryService::restore(&bytes).unwrap();
        let after = restored.snapshot();
        assert_eq!((after.epoch(), after.items()), (1, 1_200));
        assert_eq!(after.summary().sample(), before.summary().sample());
        assert_eq!(after.quantile(0.5), before.quantile(0.5));
        assert_eq!(restored.items_routed(), 1_500);
        // `replace` serves the restored state through handles handed out
        // before it, and later epochs go through the same cell.
        let mut svc = service(2, 22, 10);
        let handle = svc.query_handle();
        svc.replace(restored);
        let served = || handle.snapshot().summary().sample().to_vec();
        assert_eq!(served(), before.summary().sample());
        for s in [&mut whole, &mut svc] {
            s.ingest_frame(&(1_500..2_300u64).collect::<Vec<_>>());
        }
        assert_eq!(handle.snapshot().epoch(), 2);
        assert_eq!(served(), whole.snapshot().summary().sample());
    }

    /// A K = 3 checkpoint taken mid-cadence (published epoch behind the
    /// routed count, the round-robin cursor off a multiple of 3), pinned
    /// as (length, FNV-1a digest): the envelope's words and their order
    /// do not move when the shard storage behind them changes.
    #[test]
    fn k3_mid_cadence_checkpoint_envelope_is_pinned() {
        let stream: Vec<u64> = (0..10_000u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40)
            .collect();
        let mut svc = service(3, 29, 4_000);
        for frame in stream.chunks(1_000) {
            svc.ingest_frame(frame);
        }
        svc.ingest_frame(&stream[..517]);
        assert_eq!((svc.snapshot().epoch(), svc.items_routed()), (2, 10_517));
        let bytes = svc.checkpoint();
        assert_eq!(
            (bytes.len(), crate::frame::tests::fnv1a(&bytes)),
            (2_432, 0x0345_7666_866f_389a)
        );
    }

    #[test]
    fn restore_rejects_corrupt_envelopes() {
        let svc = service(2, 1, 64);
        let bytes = svc.checkpoint();
        assert!(SummaryService::restore(&bytes[1..]).is_err());
        let mut trailing = bytes.clone();
        trailing.push(9);
        assert!(SummaryService::restore(&trailing).is_err());
        // Header words after the magic: shards, routed, since_publish,
        // frames_acked, epoch_every, epoch, snapshot items.
        let mut svc = service(1, 1, 10);
        svc.ingest_frame(&[1, 2, 3]);
        let bytes = svc.checkpoint();
        assert!(SummaryService::restore(&bytes).is_ok());
        let forged = |word: usize, v: u64| {
            let mut b = bytes.clone();
            b[8 * word..8 * word + 8].copy_from_slice(&v.to_le_bytes());
            SummaryService::restore(&b)
        };
        for (word, v) in [
            (2, 999),      // routed over 3 ingested items
            (3, 2),        // since_publish disagrees with routed
            (4, u64::MAX), // frames_acked: the next frame would overflow
            (5, 3),        // since_publish == epoch_every
            (6, u64::MAX), // epoch: the next publish would overflow
            (7, 1),        // snapshot items disagree with routed
        ] {
            assert!(
                matches!(forged(word, v), Err(SnapshotError::Corrupt(_))),
                "word {word} = {v}"
            );
        }
    }
}
