//! The [`StreamSummary`] trait and its implementations for every
//! stream-consuming type in this crate.

use crate::estimators::SampleQuantiles;
use crate::sampler::{
    BernoulliSampler, BottomKSampler, EveryKthSampler, ReservoirSampler, StreamSampler,
    WeightedReservoirSampler,
};
use crate::sketch::{RobustHeavyHitterSketch, RobustQuantileSketch};
use crate::window::ChainSampler;

/// A streaming summary: anything that ingests a stream element by element
/// (or in batches) and retains a bounded digest of it.
///
/// This is the engine layer's common denominator over samplers, robust
/// sketches, and baseline sketches. The contract for
/// [`ingest_batch`](Self::ingest_batch) is strict equivalence:
/// `s.ingest_batch(xs)` must leave the summary in **exactly** the state
/// that `for x in xs { s.ingest(x) }` would (same retained elements, same
/// RNG stream) — overriding it buys speed, never different answers. The
/// same holds for [`ingest_by`](Self::ingest_by) and the gathered copy of
/// its view.
pub trait StreamSummary<T> {
    /// Process one stream element.
    fn ingest(&mut self, x: T);

    /// Process a batch of stream elements. Equivalent, state-for-state,
    /// to ingesting each element in order; summaries with a sublinear
    /// bulk path override this.
    fn ingest_batch(&mut self, xs: &[T])
    where
        T: Clone,
    {
        for x in xs {
            self.ingest(x.clone());
        }
    }

    /// Process the `n` elements of an indexed view, `at(0), …, at(n−1)`:
    /// equivalent, state-for-state, to [`ingest_batch`](Self::ingest_batch)
    /// over the gathered copy. The view may be a slice, one shard's stride
    /// of a larger batch (`at(i) = xs[start + i·K]`) or the words of a
    /// little-endian payload ([`le_word`](crate::engine::snapshot::le_word)),
    /// so nothing has to be copied out before the summary runs. The skip
    /// samplers override this to read only the elements they store; the
    /// default hands the view to `ingest_batch` in stack chunks of up to
    /// 256 elements, so it never allocates and `ingest_batch` stays the
    /// only bulk hook a summary needs.
    fn ingest_by(&mut self, n: usize, at: impl Fn(usize) -> T)
    where
        Self: Sized,
        T: Clone,
    {
        const CHUNK: usize = 256;
        let mut base = 0;
        while base < n {
            let len = CHUNK.min(n - base);
            // A short last chunk pads with its own last element; only
            // its first `len` entries are ingested.
            let chunk: [T; CHUNK] = std::array::from_fn(|j| at(base + j.min(len - 1)));
            self.ingest_batch(&chunk[..len]);
            base += len;
        }
    }

    /// Stream elements processed so far.
    fn items_seen(&self) -> usize;

    /// Retained elements/counters — the memory footprint in units of `T`
    /// (or counter slots, for sketches).
    fn space(&self) -> usize;

    /// Name used in experiment reports.
    fn summary_name(&self) -> &'static str;
}

/// A summary that can answer rank/quantile queries over everything it
/// has seen (the Corollary 1.5 interface).
pub trait QuantileSummary<T>: StreamSummary<T> {
    /// The estimated `q`-quantile; `None` before the first element.
    fn estimate_quantile(&self, q: f64) -> Option<T>;

    /// Estimated number of stream elements `≤ x`.
    fn estimate_rank(&self, x: &T) -> f64;
}

/// A summary that can answer per-item frequency queries (the Corollary
/// 1.6 interface).
pub trait FrequencySummary<T>: StreamSummary<T> {
    /// Estimated number of occurrences of `x` in the stream.
    fn estimate_count(&self, x: &T) -> f64;

    /// Items with estimated stream density `≥ threshold`, densest first,
    /// as `(item, estimated density)`.
    fn heavy_items(&self, threshold: f64) -> Vec<(T, f64)>;
}

// ---------------------------------------------------------------------------
// Samplers
// ---------------------------------------------------------------------------

impl<T: Clone> StreamSummary<T> for BernoulliSampler<T> {
    fn ingest(&mut self, x: T) {
        let _ = self.observe(x);
    }

    fn ingest_batch(&mut self, xs: &[T]) {
        self.observe_batch(xs);
    }

    fn ingest_by(&mut self, n: usize, at: impl Fn(usize) -> T) {
        // Geometric skip-sampling: O(p·n) expected work.
        self.observe_by(n, at);
    }

    fn items_seen(&self) -> usize {
        self.observed()
    }

    fn space(&self) -> usize {
        self.sample().len()
    }

    fn summary_name(&self) -> &'static str {
        "bernoulli"
    }
}

impl<T: Clone> StreamSummary<T> for ReservoirSampler<T> {
    fn ingest(&mut self, x: T) {
        let _ = self.observe(x);
    }

    fn ingest_batch(&mut self, xs: &[T]) {
        self.observe_batch(xs);
    }

    fn ingest_by(&mut self, n: usize, at: impl Fn(usize) -> T) {
        // Algorithm L gap skipping: O(k·ln(n/k)) expected work.
        self.observe_by(n, at);
    }

    fn items_seen(&self) -> usize {
        self.observed()
    }

    fn space(&self) -> usize {
        self.sample().len()
    }

    fn summary_name(&self) -> &'static str {
        "reservoir"
    }
}

impl<T: Clone> StreamSummary<T> for BottomKSampler<T> {
    fn ingest(&mut self, x: T) {
        let _ = self.observe(x);
    }

    fn items_seen(&self) -> usize {
        self.observed()
    }

    fn space(&self) -> usize {
        StreamSampler::sample(self).len()
    }

    fn summary_name(&self) -> &'static str {
        "bottom-k"
    }
}

impl<T: Clone> StreamSummary<T> for EveryKthSampler<T> {
    fn ingest(&mut self, x: T) {
        let _ = self.observe(x);
    }

    fn ingest_batch(&mut self, xs: &[T]) {
        // Stride arithmetic: O(|xs|/stride) work.
        self.observe_batch(xs);
    }

    fn items_seen(&self) -> usize {
        self.observed()
    }

    fn space(&self) -> usize {
        StreamSampler::sample(self).len()
    }

    fn summary_name(&self) -> &'static str {
        "every-kth"
    }
}

/// Unit-weight ingestion; use
/// [`observe_weighted`](WeightedReservoirSampler::observe_weighted)
/// directly for weighted streams.
impl<T: Clone> StreamSummary<T> for WeightedReservoirSampler<T> {
    fn ingest(&mut self, x: T) {
        let _ = self.observe_weighted(x, 1.0);
    }

    fn items_seen(&self) -> usize {
        self.observed()
    }

    fn space(&self) -> usize {
        self.k().min(self.observed())
    }

    fn summary_name(&self) -> &'static str {
        "weighted-reservoir"
    }
}

impl<T: Clone> StreamSummary<T> for ChainSampler<T> {
    fn ingest(&mut self, x: T) {
        self.observe(x);
    }

    fn items_seen(&self) -> usize {
        self.observed()
    }

    fn space(&self) -> usize {
        self.k()
    }

    fn summary_name(&self) -> &'static str {
        "chain(window)"
    }
}

// ---------------------------------------------------------------------------
// Robust sketches (Corollaries 1.5 / 1.6)
// ---------------------------------------------------------------------------

impl<T: Ord + Clone> StreamSummary<T> for RobustQuantileSketch<T> {
    fn ingest(&mut self, x: T) {
        self.observe(x);
    }

    fn ingest_batch(&mut self, xs: &[T]) {
        self.observe_batch(xs);
    }

    fn items_seen(&self) -> usize {
        self.observed()
    }

    fn space(&self) -> usize {
        self.capacity()
    }

    fn summary_name(&self) -> &'static str {
        "robust-quantiles"
    }
}

impl<T: Ord + Clone> QuantileSummary<T> for RobustQuantileSketch<T> {
    fn estimate_quantile(&self, q: f64) -> Option<T> {
        self.quantile(q)
    }

    fn estimate_rank(&self, x: &T) -> f64 {
        self.rank(x)
    }
}

impl<T: Ord + Clone> StreamSummary<T> for RobustHeavyHitterSketch<T> {
    fn ingest(&mut self, x: T) {
        self.observe(x);
    }

    fn ingest_batch(&mut self, xs: &[T]) {
        self.observe_batch(xs);
    }

    fn items_seen(&self) -> usize {
        self.observed()
    }

    fn space(&self) -> usize {
        self.capacity()
    }

    fn summary_name(&self) -> &'static str {
        "robust-heavy-hitters"
    }
}

impl<T: Ord + Clone> FrequencySummary<T> for RobustHeavyHitterSketch<T> {
    fn estimate_count(&self, x: &T) -> f64 {
        self.density(x) * self.observed() as f64
    }

    fn heavy_items(&self, threshold: f64) -> Vec<(T, f64)> {
        self.report()
            .into_iter()
            .filter(|h| h.sample_density >= threshold)
            .map(|h| (h.item, h.sample_density))
            .collect()
    }
}

/// A raw reservoir doubles as a quantile summary via
/// [`SampleQuantiles`] — the estimator path of Corollary 1.5 without the
/// self-sizing wrapper.
impl<T: Ord + Clone> QuantileSummary<T> for ReservoirSampler<T> {
    fn estimate_quantile(&self, q: f64) -> Option<T> {
        if self.sample().is_empty() {
            return None;
        }
        Some(
            SampleQuantiles::new(self.sample(), self.observed())
                .quantile(q)
                .clone(),
        )
    }

    fn estimate_rank(&self, x: &T) -> f64 {
        if self.sample().is_empty() {
            return 0.0;
        }
        SampleQuantiles::new(self.sample(), self.observed()).rank(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_and_elementwise_agree_for_reservoir() {
        let stream: Vec<u64> = (0..10_000).collect();
        let mut a = ReservoirSampler::with_seed(64, 9);
        let mut b = ReservoirSampler::with_seed(64, 9);
        for &x in &stream {
            a.ingest(x);
        }
        b.ingest_batch(&stream);
        assert_eq!(a.sample(), b.sample());
        assert_eq!(a.items_seen(), b.items_seen());
        assert_eq!(a.total_stored(), b.total_stored());
    }

    #[test]
    fn batch_and_elementwise_agree_for_bernoulli() {
        let stream: Vec<u64> = (0..10_000).collect();
        let mut a = BernoulliSampler::with_seed(0.03, 4);
        let mut b = BernoulliSampler::with_seed(0.03, 4);
        for &x in &stream {
            a.ingest(x);
        }
        b.ingest_batch(&stream);
        assert_eq!(a.sample(), b.sample());
        assert_eq!(a.items_seen(), b.items_seen());
    }

    #[test]
    fn batch_split_points_do_not_matter() {
        // Ingesting one stream as many unevenly-sized batches must match
        // one whole-stream batch.
        let stream: Vec<u64> = (0..5_000).rev().collect();
        let mut whole = ReservoirSampler::with_seed(32, 7);
        whole.ingest_batch(&stream);
        let mut pieces = ReservoirSampler::with_seed(32, 7);
        let mut rest: &[u64] = &stream;
        let mut chunk = 1usize;
        while !rest.is_empty() {
            let take = chunk.min(rest.len());
            pieces.ingest_batch(&rest[..take]);
            rest = &rest[take..];
            chunk = chunk * 2 + 1;
        }
        assert_eq!(whole.sample(), pieces.sample());
        assert_eq!(whole.total_stored(), pieces.total_stored());
    }

    #[test]
    fn every_kth_batch_matches_elementwise() {
        let stream: Vec<u64> = (0..1_000).collect();
        let mut a = EveryKthSampler::new(7);
        let mut b = EveryKthSampler::new(7);
        for &x in &stream {
            a.ingest(x);
        }
        // Split at an awkward boundary.
        b.ingest_batch(&stream[..13]);
        b.ingest_batch(&stream[13..]);
        assert_eq!(StreamSampler::sample(&a), StreamSampler::sample(&b));
    }

    #[test]
    fn quantile_summary_through_trait_object() {
        let mut s = RobustQuantileSketch::<u64>::new(20.0, 0.1, 0.05, 3);
        let stream: Vec<u64> = (0..50_000).collect();
        {
            let dyn_s: &mut dyn StreamSummary<u64> = &mut s;
            dyn_s.ingest_batch(&stream);
        }
        let med = s.estimate_quantile(0.5).unwrap() as f64;
        assert!((med - 25_000.0).abs() < 5_000.0, "median {med}");
        assert_eq!(s.items_seen(), 50_000);
    }

    #[test]
    fn frequency_summary_reports_planted_hitter() {
        let mut s = RobustHeavyHitterSketch::<u64>::new(14.0, 0.1, 0.05, 0.05, 5);
        let stream: Vec<u64> = (0..20_000)
            .map(|i| if i % 4 == 0 { 7 } else { 1_000 + i })
            .collect();
        s.ingest_batch(&stream);
        let heavy = s.heavy_items(0.1);
        assert!(heavy.iter().any(|(item, _)| *item == 7), "missed hitter");
        assert!((s.estimate_count(&7) - 5_000.0).abs() < 1_500.0);
    }
}
