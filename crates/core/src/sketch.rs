//! High-level, self-sizing robust sketches — the Corollary 1.5/1.6
//! pipelines packaged as single types.
//!
//! These wrap a [`ReservoirSampler`] sized by Theorem 1.2 so a user states
//! the *guarantee* they want (universe, ε, δ) and never touches the
//! arithmetic:
//!
//! * [`RobustQuantileSketch`] — every rank/quantile query within `±εn`,
//!   simultaneously, with probability `1 − δ`, against any adaptive
//!   adversary (Corollary 1.5);
//! * [`RobustHeavyHitterSketch`] — the `(α, ε)` heavy-hitters contract of
//!   Corollary 1.6 (no missed `≥ α` hitters, no reports below `α − ε`).
//!
//! Both are *anytime*: reservoir sampling never needs the stream length in
//! advance (the paper's Section 2 note), so queries are valid at every
//! prefix — at the plain Theorem 1.2 confidence per query point; use
//! [`crate::bounds::reservoir_k_continuous`]
//! sizing via [`RobustQuantileSketch::with_capacity`] when the Theorem 1.4
//! *all-prefixes-at-once* guarantee is needed.

use crate::bounds;
use crate::estimators::{self, HeavyHitter, SampleQuantiles};
use crate::sampler::{ReservoirSampler, StreamSampler};

/// A self-sizing, adaptively robust quantile sketch (Corollary 1.5).
#[derive(Debug, Clone)]
pub struct RobustQuantileSketch<T> {
    reservoir: ReservoirSampler<T>,
    eps: f64,
    delta: f64,
}

impl<T: Ord + Clone> RobustQuantileSketch<T> {
    /// Sketch for a well-ordered universe of `ln_universe = ln |U|`
    /// (e.g. `64·ln 2` for `u64` keys), accuracy `eps`, confidence
    /// `1 − delta`. The reservoir capacity is
    /// `k = 2(ln|U| + ln(2/δ))/ε²` per Corollary 1.5.
    ///
    /// # Panics
    ///
    /// Panics if `eps` or `delta` lies outside `(0, 1)` or
    /// `ln_universe < 0`.
    pub fn new(ln_universe: f64, eps: f64, delta: f64, seed: u64) -> Self {
        assert!(ln_universe >= 0.0, "ln|U| must be non-negative");
        let k = bounds::reservoir_k_robust(ln_universe, eps, delta);
        Self::with_capacity(k, eps, delta, seed)
    }

    /// Sketch with an explicit reservoir capacity (e.g. the Theorem 1.4
    /// continuous sizing).
    pub fn with_capacity(k: usize, eps: f64, delta: f64, seed: u64) -> Self {
        Self {
            reservoir: ReservoirSampler::with_seed(k, seed),
            eps,
            delta,
        }
    }

    /// Feed one stream element.
    pub fn observe(&mut self, x: T) {
        self.reservoir.observe(x);
    }

    /// Feed a batch of stream elements through the reservoir's gap-skip
    /// hot path (identical result to element-wise observation).
    pub fn observe_batch(&mut self, xs: &[T]) {
        self.reservoir.observe_batch(xs);
    }

    /// The estimated `q`-quantile of everything observed so far; `None`
    /// before the first element.
    ///
    /// # Panics
    ///
    /// Panics if `q ∉ [0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<T> {
        if self.reservoir.sample().is_empty() {
            return None;
        }
        let sq = SampleQuantiles::new(self.reservoir.sample(), self.reservoir.observed());
        Some(sq.quantile(q).clone())
    }

    /// The estimated median.
    pub fn median(&self) -> Option<T> {
        self.quantile(0.5)
    }

    /// Estimated rank of `x` among everything observed so far (±εn w.h.p.).
    pub fn rank(&self, x: &T) -> f64 {
        if self.reservoir.sample().is_empty() {
            return 0.0;
        }
        SampleQuantiles::new(self.reservoir.sample(), self.reservoir.observed()).rank(x)
    }

    /// Elements observed so far.
    pub fn observed(&self) -> usize {
        self.reservoir.observed()
    }

    /// The retained sample — the sketch's full observable state in the
    /// paper's adversarial model (see [`crate::attack`]).
    pub fn sample(&self) -> &[T] {
        self.reservoir.sample()
    }

    /// Reservoir capacity (the memory footprint in elements).
    pub fn capacity(&self) -> usize {
        self.reservoir.k()
    }

    /// The `(ε, δ)` contract this sketch was sized for.
    pub fn guarantee(&self) -> (f64, f64) {
        (self.eps, self.delta)
    }

    /// Merge another robust quantile sketch into this one by merging the
    /// underlying reservoirs (see [`ReservoirSampler::merge`]): the result
    /// is distributed as one sketch run over the concatenated stream, so
    /// the `(ε, δ)` contract carries over to the union.
    ///
    /// # Panics
    ///
    /// Panics if the sketches were sized differently (unequal reservoir
    /// capacities).
    pub fn merge(&mut self, other: Self) {
        assert_eq!(
            self.capacity(),
            other.capacity(),
            "cannot merge robust quantile sketches of different capacities"
        );
        self.reservoir.merge(other.reservoir);
    }
}

/// A self-sizing, adaptively robust heavy-hitters sketch (Corollary 1.6).
#[derive(Debug, Clone)]
pub struct RobustHeavyHitterSketch<T> {
    reservoir: ReservoirSampler<T>,
    alpha: f64,
    eps: f64,
}

impl<T: Ord + Clone> RobustHeavyHitterSketch<T> {
    /// Sketch reporting all elements of stream density `≥ alpha` and none
    /// below `alpha − eps`, w.p. `1 − delta`, for a universe of
    /// `ln_universe = ln |U|`. Internally sizes an `(ε/3)`-approximate
    /// sample w.r.t. singletons, per the corollary's proof.
    ///
    /// # Panics
    ///
    /// Panics if `alpha ∉ (0, 1]`, `eps ∉ (0, alpha)`, `delta ∉ (0,1)`,
    /// or `ln_universe < 0`.
    pub fn new(ln_universe: f64, alpha: f64, eps: f64, delta: f64, seed: u64) -> Self {
        assert!(ln_universe >= 0.0, "ln|U| must be non-negative");
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
        assert!(eps > 0.0 && eps < alpha, "need 0 < eps < alpha");
        let k = bounds::reservoir_k_robust(ln_universe, eps / 3.0, delta);
        Self {
            reservoir: ReservoirSampler::with_seed(k, seed),
            alpha,
            eps,
        }
    }

    /// Feed one stream element.
    pub fn observe(&mut self, x: T) {
        self.reservoir.observe(x);
    }

    /// Feed a batch of stream elements through the reservoir's gap-skip
    /// hot path (identical result to element-wise observation).
    pub fn observe_batch(&mut self, xs: &[T]) {
        self.reservoir.observe_batch(xs);
    }

    /// The current heavy-hitter report (highest density first).
    pub fn report(&self) -> Vec<HeavyHitter<T>> {
        estimators::heavy_hitters(self.reservoir.sample(), self.alpha, self.eps / 3.0)
    }

    /// Estimated stream density of `x`.
    pub fn density(&self, x: &T) -> f64 {
        let s = self.reservoir.sample();
        if s.is_empty() {
            return 0.0;
        }
        s.iter().filter(|v| *v == x).count() as f64 / s.len() as f64
    }

    /// Elements observed so far.
    pub fn observed(&self) -> usize {
        self.reservoir.observed()
    }

    /// The retained sample — the sketch's full observable state in the
    /// paper's adversarial model (see [`crate::attack`]).
    pub fn sample(&self) -> &[T] {
        self.reservoir.sample()
    }

    /// Reservoir capacity.
    pub fn capacity(&self) -> usize {
        self.reservoir.k()
    }

    /// The `(α, ε)` contract.
    pub fn contract(&self) -> (f64, f64) {
        (self.alpha, self.eps)
    }

    /// Merge another robust heavy-hitters sketch into this one by merging
    /// the underlying reservoirs (see [`ReservoirSampler::merge`]): the
    /// merged sample is distributed as one sketch over the concatenated
    /// stream, so the `(α, ε)` contract carries over to the union.
    ///
    /// # Panics
    ///
    /// Panics if the sketches were sized differently (unequal reservoir
    /// capacities).
    pub fn merge(&mut self, other: Self) {
        assert_eq!(
            self.capacity(),
            other.capacity(),
            "cannot merge robust heavy-hitter sketches of different capacities"
        );
        self.reservoir.merge(other.reservoir);
    }
}

// ---------------------------------------------------------------------------
// Checkpoint/restore (SnapshotCodec)
// ---------------------------------------------------------------------------

use crate::engine::snapshot::{put_f64, SnapshotCodec, SnapshotError, SnapshotReader};

/// Checkpoint = the `(ε, δ)` contract plus the full reservoir state (see
/// [`ReservoirSampler`]'s codec): a restored sketch answers and ingests
/// bit-identically.
impl SnapshotCodec for RobustQuantileSketch<u64> {
    fn save_into(&self, out: &mut Vec<u8>) {
        put_f64(out, self.eps);
        put_f64(out, self.delta);
        self.reservoir.save_into(out);
    }

    fn restore_from(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let eps = r.f64()?;
        let delta = r.f64()?;
        if !(eps > 0.0 && eps < 1.0 && delta > 0.0 && delta < 1.0) {
            return Err(SnapshotError::Corrupt("quantile sketch (eps, delta)"));
        }
        Ok(Self {
            reservoir: ReservoirSampler::restore_from(r)?,
            eps,
            delta,
        })
    }
}

/// Checkpoint = the `(α, ε)` contract plus the full reservoir state (see
/// [`ReservoirSampler`]'s codec): a restored sketch answers and ingests
/// bit-identically.
impl SnapshotCodec for RobustHeavyHitterSketch<u64> {
    fn save_into(&self, out: &mut Vec<u8>) {
        put_f64(out, self.alpha);
        put_f64(out, self.eps);
        self.reservoir.save_into(out);
    }

    fn restore_from(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let alpha = r.f64()?;
        let eps = r.f64()?;
        if !(alpha > 0.0 && alpha <= 1.0 && eps > 0.0 && eps < alpha) {
            return Err(SnapshotError::Corrupt("heavy-hitter sketch (alpha, eps)"));
        }
        Ok(Self {
            reservoir: ReservoirSampler::restore_from(r)?,
            alpha,
            eps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LN_U: f64 = 20.0 * std::f64::consts::LN_2;

    #[test]
    fn quantile_sketch_sizes_itself() {
        let s = RobustQuantileSketch::<u64>::new(LN_U, 0.1, 0.05, 1);
        let expect = bounds::reservoir_k_robust(LN_U, 0.1, 0.05);
        assert_eq!(s.capacity(), expect);
        assert_eq!(s.guarantee(), (0.1, 0.05));
    }

    #[test]
    fn quantile_sketch_tracks_uniform_stream() {
        let mut s = RobustQuantileSketch::new(LN_U, 0.05, 0.01, 2);
        let n = 50_000u64;
        for x in 0..n {
            s.observe(x); // values 0..n: true median is n/2
        }
        assert_eq!(s.observed(), n as usize);
        let med = s.median().unwrap() as f64;
        let expect = n as f64 / 2.0;
        assert!(
            (med - expect).abs() / n as f64 <= 0.06,
            "median {med} vs {expect}"
        );
        // rank is calibrated to observed length.
        let r = s.rank(&(n / 2));
        assert!((r / n as f64 - 0.5).abs() < 0.06, "rank {r}");
    }

    #[test]
    fn quantile_sketch_is_anytime() {
        let mut s = RobustQuantileSketch::new(LN_U, 0.1, 0.05, 3);
        assert_eq!(s.quantile(0.5), None);
        s.observe(7u64);
        assert_eq!(s.median(), Some(7));
        for x in 0..10_000u64 {
            s.observe(x);
        }
        // Query mid-stream: still calibrated to the current prefix.
        let med = s.median().unwrap();
        assert!(med < 10_000);
    }

    #[test]
    fn heavy_hitter_sketch_contract() {
        let mut s = RobustHeavyHitterSketch::new(LN_U, 0.1, 0.06, 0.02, 4);
        let n = 30_000u64;
        for i in 0..n {
            // 20% of the stream is 42; the rest distinct.
            s.observe(if i % 5 == 0 { 42 } else { 1000 + i });
        }
        let report = s.report();
        assert!(report.iter().any(|h| h.item == 42), "missed the 20% hitter");
        // Nothing below alpha - eps = 4% may appear; distinct items are ~0%.
        for h in &report {
            assert_eq!(h.item, 42, "spurious report {h:?}");
        }
        assert!((s.density(&42) - 0.2).abs() < 0.05);
    }

    #[test]
    fn sketch_snapshots_resume_bit_identically() {
        use crate::engine::snapshot::SnapshotCodec;
        let stream: Vec<u64> = (0..40_000).map(|i| i * 7 % 100_000).collect();
        let mut q_whole = RobustQuantileSketch::<u64>::new(LN_U, 0.1, 0.05, 6);
        let mut q_half = RobustQuantileSketch::<u64>::new(LN_U, 0.1, 0.05, 6);
        q_whole.observe_batch(&stream);
        q_half.observe_batch(&stream[..13_000]);
        let mut q = RobustQuantileSketch::<u64>::restore(&q_half.save()).unwrap();
        q.observe_batch(&stream[13_000..]);
        assert_eq!(q.sample(), q_whole.sample());
        assert_eq!(q.guarantee(), q_whole.guarantee());
        assert_eq!(q.median(), q_whole.median());

        let mut h_whole = RobustHeavyHitterSketch::<u64>::new(LN_U, 0.1, 0.06, 0.02, 8);
        let mut h_half = RobustHeavyHitterSketch::<u64>::new(LN_U, 0.1, 0.06, 0.02, 8);
        h_whole.observe_batch(&stream);
        h_half.observe_batch(&stream[..13_000]);
        let mut h = RobustHeavyHitterSketch::<u64>::restore(&h_half.save()).unwrap();
        h.observe_batch(&stream[13_000..]);
        assert_eq!(h.sample(), h_whole.sample());
        assert_eq!(h.contract(), h_whole.contract());
    }

    /// Check forged checkpoints of one sketch codec: every truncation,
    /// trailing bytes, each `(a, b)` in `bad_contracts` written over the
    /// contract's two leading words, and a forged inner reservoir must
    /// each be a typed error, never a panic.
    fn assert_forgeries_are_typed_errors<S: SnapshotCodec>(
        bytes: &[u8],
        bad_contracts: &[(f64, f64)],
    ) {
        use crate::engine::snapshot::SnapshotError;
        assert!(S::restore(bytes).is_ok());
        for len in 0..bytes.len() {
            assert_eq!(
                S::restore(&bytes[..len]).err(),
                Some(SnapshotError::UnexpectedEof),
                "truncated to {len} bytes"
            );
        }
        for extra in [1, 8] {
            let mut trailing = bytes.to_vec();
            trailing.resize(bytes.len() + extra, 0xA5);
            assert_eq!(
                S::restore(&trailing).err(),
                Some(SnapshotError::TrailingBytes(extra))
            );
        }
        let forged = |word: usize, v: u64| {
            let mut b = bytes.to_vec();
            b[8 * word..8 * word + 8].copy_from_slice(&v.to_le_bytes());
            S::restore(&b).err()
        };
        let corrupt = |e: Option<SnapshotError>| matches!(e, Some(SnapshotError::Corrupt(_)));
        for &(a, b) in bad_contracts {
            let mut words = bytes.to_vec();
            words[..8].copy_from_slice(&a.to_bits().to_le_bytes());
            words[8..16].copy_from_slice(&b.to_bits().to_le_bytes());
            assert!(corrupt(S::restore(&words).err()), "contract ({a}, {b})");
        }
        // The inner reservoir follows the contract: capacity, observed,
        // total stored, the sample's length and words, then the
        // threshold.
        let len = u64::from_le_bytes(bytes[40..48].try_into().unwrap());
        assert!(len > 1, "the forgeries need a sample of two or more");
        assert!(corrupt(forged(2, 0)), "capacity zero");
        assert!(corrupt(forged(2, len - 1)), "sample over capacity");
        assert!(corrupt(forged(3, len - 1)), "observed below the sample");
        assert_eq!(forged(5, u64::MAX), Some(SnapshotError::UnexpectedEof));
        let w = 6 + len as usize;
        for threshold in [-0.5, 1.5, f64::NAN] {
            assert!(corrupt(forged(w, threshold.to_bits())), "w = {threshold}");
        }
    }

    #[test]
    fn forged_quantile_sketch_checkpoints_are_typed_errors() {
        let mut s = RobustQuantileSketch::<u64>::new(LN_U, 0.1, 0.05, 6);
        s.observe_batch(&(0..5_000).collect::<Vec<u64>>());
        let nan = f64::NAN;
        assert_forgeries_are_typed_errors::<RobustQuantileSketch<u64>>(
            &s.save(),
            &[
                (0.0, 0.05),
                (1.0, 0.05),
                (-0.1, 0.05),
                (f64::INFINITY, 0.05),
                (nan, 0.05),
                (0.1, 0.0),
                (0.1, 1.0),
                (0.1, -0.5),
                (0.1, nan),
            ],
        );
    }

    #[test]
    fn forged_heavy_hitter_sketch_checkpoints_are_typed_errors() {
        let mut s = RobustHeavyHitterSketch::<u64>::new(LN_U, 0.1, 0.06, 0.02, 8);
        s.observe_batch(&(0..5_000).collect::<Vec<u64>>());
        let nan = f64::NAN;
        assert_forgeries_are_typed_errors::<RobustHeavyHitterSketch<u64>>(
            &s.save(),
            &[
                (0.0, 0.05),
                (1.5, 0.05),
                (-0.1, 0.05),
                (nan, 0.05),
                (0.1, 0.1),
                (0.1, 0.2),
                (0.1, 0.0),
                (0.1, -0.01),
                (0.1, nan),
            ],
        );
    }

    #[test]
    #[should_panic(expected = "need 0 < eps < alpha")]
    fn heavy_hitter_rejects_bad_contract() {
        let _ = RobustHeavyHitterSketch::<u64>::new(LN_U, 0.05, 0.05, 0.01, 1);
    }
}
