//! Streaming sampling algorithms.
//!
//! This module implements the two samplers the paper analyses —
//! [`BernoulliSampler`] and [`ReservoirSampler`] (Vitter's Algorithm R,
//! exactly the pseudocode in the paper's Section 2) — plus a weighted
//! reservoir sampler ([`WeightedReservoirSampler`], Efraimidis–Spirakis
//! A-Res, discussed in the paper's related-work section) and a deterministic
//! strawman ([`EveryKthSampler`]) used by the experiment harness as a
//! trivially robust but statistically weak baseline.
//!
//! All samplers implement [`StreamSampler`]. The trait deliberately exposes
//! the sampler's full internal state via [`StreamSampler::sample`]: in the
//! paper's adversarial model the adversary observes the state `σ_i` after
//! every round, so hiding it would misrepresent the threat model.
//!
//! Every sampler owns its RNG (a seeded [`StdRng`]) so that games,
//! experiments, and tests are fully deterministic given a seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What a sampler did with one incoming element.
///
/// The adversary is allowed to observe this (it is deducible from the state
/// transition `σ_{i-1} → σ_i` anyway); the constructive attacks in
/// [`crate::adversary`] branch on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Observation<T> {
    /// The element was stored in the sample.
    Stored {
        /// Element evicted to make room, if any (reservoir sampling evicts a
        /// uniformly random resident once the reservoir is full).
        evicted: Option<T>,
    },
    /// The element was not stored.
    Skipped,
}

impl<T> Observation<T> {
    /// Whether the observed element was stored in the sample.
    #[inline]
    pub fn stored(&self) -> bool {
        matches!(self, Observation::Stored { .. })
    }
}

/// A streaming sampling algorithm in the paper's model.
///
/// The sampler receives the stream one element at a time via
/// [`observe`](Self::observe) and maintains a sample (its state `σ_i`).
/// The sample is a *subsequence of the stream*, per the paper's Section 2
/// rule 3.
pub trait StreamSampler<T> {
    /// Process one stream element; returns what happened to it.
    fn observe(&mut self, x: T) -> Observation<T>;

    /// The current sample (the state `σ_i` the adversary observes).
    fn sample(&self) -> &[T];

    /// Number of stream elements observed so far.
    fn observed(&self) -> usize;

    /// Total number of elements ever stored (counting later-evicted ones).
    ///
    /// This is the quantity `k'` in the paper's Theorem 1.3 analysis of the
    /// attack on reservoir sampling.
    fn total_stored(&self) -> usize;

    /// Human-readable name used in experiment reports.
    fn name(&self) -> &'static str;

    /// Reset to the initial state, keeping parameters but reseeding the RNG.
    fn reset(&mut self, seed: u64);
}

// ---------------------------------------------------------------------------
// Bernoulli sampling
// ---------------------------------------------------------------------------

/// Bernoulli sampling: stores each incoming element independently with
/// probability `p`.
///
/// For a stream of length `n` the sample size concentrates around `n·p`
/// (Chernoff). Theorem 1.2 of the paper proves this sampler is
/// (ε, δ)-robust whenever `p ≥ 10·(ln|R| + ln(4/δ)) / (ε²n)`; use
/// [`crate::bounds::bernoulli_p_robust`] to compute that threshold.
///
/// ## Implementation: geometric skip-sampling
///
/// Instead of flipping one coin per element, the sampler draws the *gap*
/// until the next stored element directly from the geometric distribution
/// `Pr[G = g] = p(1−p)^g` — one RNG draw per **stored** element. The
/// process is exactly equidistributed with per-element coins (a geometric
/// gap is by definition the waiting time of i.i.d. Bernoulli trials), and
/// because the gap is memoryless the adversary's view is unchanged: given
/// any observed prefix of store/skip outcomes, the conditional law of the
/// next outcome is `Bernoulli(p)` either way. The pending gap is private
/// state that [`StreamSampler::sample`] never exposes.
///
/// The same gap state drives both [`observe`](StreamSampler::observe)
/// (decrement) and the batched [`observe_batch`](Self::observe_batch)
/// (jump), so the two ingestion paths produce **identical samples for
/// identical seeds** — the batched path is a pure optimization.
#[derive(Debug, Clone)]
pub struct BernoulliSampler<T> {
    p: f64,
    /// Cached `ln(1 − p)` — the geometric-gap denominator. Recomputing it
    /// per stored element was one of the two `ln` calls on the batch hot
    /// path; the cached value is bit-identical by determinism of `ln`.
    ln_q: f64,
    sample: Vec<T>,
    observed: usize,
    rng: StdRng,
    /// Elements still to skip before the next store; `None` iff `p == 0`
    /// (nothing is ever stored).
    skip: Option<u64>,
}

/// One geometric gap `⌊ln(1−u)/ln(1−p)⌋` with `u` drawn from `rng`.
///
/// The saturating `f64 → u64` cast is exactly `floor` for finite
/// non-negative quotients and sends the `+inf` tail (u ≈ 1 at tiny `p`)
/// to `u64::MAX` — the same value the old `floor()` + `is_finite()`
/// branch produced, one libm call cheaper. For `p ≥ 1` the gap is 0 and
/// **no randomness is consumed** (callers rely on that for the
/// store-everything fast path).
#[inline]
fn bernoulli_gap(rng: &mut StdRng, p: f64, ln_q: f64) -> u64 {
    if p >= 1.0 {
        return 0;
    }
    let u: f64 = rng.random();
    ((1.0 - u).ln() / ln_q) as u64
}

impl<T> BernoulliSampler<T> {
    /// Create a sampler that keeps each element with probability `p`,
    /// seeded for reproducibility.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn with_seed(p: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be in [0,1], got {p}");
        let mut s = Self {
            p,
            ln_q: (1.0 - p).ln(),
            sample: Vec::new(),
            observed: 0,
            rng: StdRng::seed_from_u64(seed),
            skip: None,
        };
        if p > 0.0 {
            s.skip = Some(s.draw_gap());
        }
        s
    }

    /// The sampling probability `p`.
    #[inline]
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Consume the sampler, returning the sample.
    pub fn into_sample(self) -> Vec<T> {
        self.sample
    }

    /// Draw the number of elements to skip before the next store:
    /// `Geometric(p)` on `{0, 1, 2, …}` by inversion.
    fn draw_gap(&mut self) -> u64 {
        bernoulli_gap(&mut self.rng, self.p, self.ln_q)
    }

    /// Weighted ingestion with **multiplicity semantics**: observing
    /// `(x, weight)` is bit-identical — same stored copies, same RNG
    /// stream — to `weight` consecutive [`observe`](StreamSampler::observe)
    /// calls on `x`. Weight 1 *is* the unit kernel; weight 0 consumes
    /// nothing.
    ///
    /// A weight-`w` item spans `w` virtual positions of the expanded
    /// stream, so the pending geometric gap either carries past the whole
    /// span (`skip -= w`, no randomness touched) or lands inside it — then
    /// each landing stores one copy and redraws, exactly one RNG word per
    /// stored copy, in stream order. Returns the number of copies stored.
    pub fn observe_weighted(&mut self, x: T, weight: u64) -> usize
    where
        T: Clone,
    {
        self.observed += weight as usize;
        let Some(mut skip) = self.skip else {
            return 0;
        };
        if self.p >= 1.0 {
            // Every drawn gap is 0 and drawing consumes no randomness:
            // after any pending skip runs out, every remaining copy is
            // stored.
            if skip >= weight {
                self.skip = Some(skip - weight);
                return 0;
            }
            let copies = (weight - skip) as usize;
            self.sample.extend((0..copies).map(|_| x.clone()));
            self.skip = Some(0);
            return copies;
        }
        let mut rem = weight;
        let mut stored = 0usize;
        while skip < rem {
            rem -= skip + 1;
            self.sample.push(x.clone());
            stored += 1;
            skip = bernoulli_gap(&mut self.rng, self.p, self.ln_q);
        }
        self.skip = Some(skip - rem);
        stored
    }

    /// Batched weighted ingestion: state-for-state equivalent to calling
    /// [`observe_weighted`](Self::observe_weighted) on each pair in order
    /// (which is itself equivalent to the fully expanded unit stream).
    pub fn observe_weighted_batch(&mut self, xs: &[(T, u64)])
    where
        T: Clone,
    {
        for (x, w) in xs {
            self.observe_weighted(x.clone(), *w);
        }
    }

    /// Merge another Bernoulli sampler of the **same rate** into this one.
    ///
    /// The union of independent Bernoulli(`p`) samples of disjoint
    /// substreams is exactly a Bernoulli(`p`) sample of the concatenated
    /// stream, so the merge is sound with *no* error growth: samples
    /// concatenate, counts add. `self` keeps its own RNG and pending gap,
    /// so streaming may continue after the merge (the geometric gap is
    /// memoryless).
    ///
    /// # Panics
    ///
    /// Panics if the two samplers have different rates `p`.
    pub fn merge(&mut self, mut other: Self) {
        assert!(
            self.p == other.p,
            "cannot merge Bernoulli samplers of different rates ({} vs {})",
            self.p,
            other.p
        );
        self.observed += other.observed;
        self.sample.append(&mut other.sample);
    }

    /// Batched ingestion: skip-jump through `xs` storing the same elements
    /// (given the same seed and history) that per-element
    /// [`observe`](StreamSampler::observe) calls would store, in
    /// `O(p·|xs|)` expected work instead of `Θ(|xs|)`.
    pub fn observe_batch(&mut self, xs: &[T])
    where
        T: Clone,
    {
        self.observe_by(xs.len(), move |i| xs[i].clone());
    }

    /// [`observe_batch`](Self::observe_batch) over an indexed view: the
    /// `n` elements are `at(0), …, at(n−1)`, and `at` is called only for
    /// the elements the sampler stores — a strided or encoded view is
    /// never gathered.
    pub fn observe_by(&mut self, n: usize, at: impl Fn(usize) -> T) {
        self.observed += n;
        let Some(mut skip) = self.skip else {
            return;
        };
        if self.p >= 1.0 {
            // Every drawn gap is 0 and drawing one consumes no
            // randomness: after any pending skip runs out, storing the
            // rest of the batch is one extend.
            if skip >= n as u64 {
                self.skip = Some(skip - n as u64);
            } else {
                self.sample.extend((skip as usize..n).map(at));
                self.skip = Some(0);
            }
            return;
        }
        // One reservation sized to the expected p·n stores (+4σ slack)
        // instead of amortized doubling mid-loop.
        let expect = self.p * n as f64;
        self.sample
            .reserve((expect + 4.0 * expect.sqrt()) as usize + 1);
        // Software-pipelined hot loop on local copies of the RNG and gap
        // so the compiler can keep them in registers. Each iteration
        // copies one confirmed store and draws the *next* gap; the gap's
        // `ln` depends only on the RNG recurrence — never on loaded data —
        // so the strided read overlaps the FPU work, and consecutive
        // iterations' `ln` calls pipeline. Exactly one RNG word is
        // consumed per stored element, in stream order — identical to the
        // element-wise path.
        let (p, ln_q) = (self.p, self.ln_q);
        let mut rng = self.rng.clone();
        if skip < n as u64 {
            let mut pos = skip as usize;
            loop {
                skip = bernoulli_gap(&mut rng, p, ln_q);
                self.sample.push(at(pos));
                // Elements of this batch after `pos`; the new gap either
                // lands in them or carries past the batch end.
                let after = (n - pos - 1) as u64;
                if skip >= after {
                    skip -= after;
                    break;
                }
                pos += 1 + skip as usize;
            }
        } else {
            skip -= n as u64;
        }
        self.rng = rng;
        self.skip = Some(skip);
    }
}

impl<T: Clone> StreamSampler<T> for BernoulliSampler<T> {
    fn observe(&mut self, x: T) -> Observation<T> {
        self.observed += 1;
        match self.skip {
            None => Observation::Skipped,
            Some(0) => {
                self.sample.push(x);
                self.skip = Some(self.draw_gap());
                Observation::Stored { evicted: None }
            }
            Some(s) => {
                self.skip = Some(s - 1);
                Observation::Skipped
            }
        }
    }

    #[inline]
    fn sample(&self) -> &[T] {
        &self.sample
    }

    #[inline]
    fn observed(&self) -> usize {
        self.observed
    }

    #[inline]
    fn total_stored(&self) -> usize {
        self.sample.len()
    }

    fn name(&self) -> &'static str {
        "bernoulli"
    }

    fn reset(&mut self, seed: u64) {
        self.sample.clear();
        self.observed = 0;
        self.rng = StdRng::seed_from_u64(seed);
        self.skip = if self.p > 0.0 {
            Some(self.draw_gap())
        } else {
            None
        };
    }
}

// ---------------------------------------------------------------------------
// Reservoir sampling
// ---------------------------------------------------------------------------

/// One Algorithm L acceptance gap `⌊ln u / ln(1−w)⌋` with `u` drawn from
/// `rng`.
///
/// As in [`bernoulli_gap`], the saturating `f64 → u64` cast replaces the
/// old `floor()` + `is_finite()` branch value-for-value (the quotient is
/// never NaN: `u > 0` so `ln u` is finite, and `denom < 0` excludes
/// `0/0`). When `w` has underflowed to 0 the threshold is gone and no
/// future element is ever accepted — but the uniform is still drawn
/// first, matching the original RNG consumption order.
#[inline]
fn algo_l_gap(rng: &mut StdRng, w: f64) -> u64 {
    let u2: f64 = rng.random();
    let denom = (1.0 - w).ln();
    if denom < 0.0 {
        (u2.ln() / denom) as u64
    } else {
        u64::MAX
    }
}

/// The Algorithm L state `(w, skip)` of a full capacity-`k` reservoir that
/// has just finished a stream of `n` elements, drawn from `rng`: in the
/// bottom-k view the threshold is the `k`-th smallest of `n` i.i.d.
/// uniform keys, drawn here by the ascending order-statistic recursion
/// (`k` RNG words), then a fresh acceptance gap from it (one more word).
///
/// A merge needs this so that streaming may continue with the correct
/// acceptance law `k/i`, but [`ReservoirSampler::merge`] defers it: it
/// runs on the merged sampler's next ingest, or on an RNG copy when a
/// checkpoint is written first.
fn reseed_threshold(k: usize, n: usize, rng: &mut StdRng) -> (f64, u64) {
    debug_assert!(n >= k);
    let mut w = 0.0f64;
    for j in 0..k {
        let u: f64 = rng.random();
        // Smallest of the (n - j) remaining uniforms above w, rescaled
        // into (w, 1): w + (1-w)·(1 - (1-u)^{1/(n-j)}).
        w += (1.0 - w) * (1.0 - (1.0 - u).powf(1.0 / (n - j) as f64));
    }
    let w = w.clamp(0.0, 1.0);
    (w, algo_l_gap(rng, w))
}

/// Classical reservoir sampling (the paper's Section 2 algorithm: store
/// element `i > k` with probability `k/i`, evicting a uniformly random
/// resident), maintaining a uniform sample of fixed size `k`.
///
/// Theorem 1.2 proves (ε, δ)-robustness for
/// `k ≥ 2·(ln|R| + ln(2/δ)) / ε²`; use
/// [`crate::bounds::reservoir_k_robust`].
///
/// ## Implementation: Vitter-style gap skipping (Li's Algorithm L)
///
/// Acceptance at index `i` with probability `k/i`, independently per
/// index, is exactly the acceptance process of bottom-`k` sampling (the
/// relative rank of element `i` among the first `i` is uniform and
/// independent across `i`). Algorithm L samples the *gaps* between
/// acceptances of that process directly — a running threshold
/// `W ← W·U^{1/k}` and a geometric jump `⌊ln U / ln(1−W)⌋` — using
/// `O(1)` RNG draws per **stored** element, i.e. `O(k·ln(n/k))` draws for
/// the whole stream instead of `n`.
///
/// The pre-drawn gap is private state the adversary never sees, and by
/// the independence above the conditional law of the next accept/skip
/// decision given everything observable is `k/i` either way — games and
/// attacks behave exactly as under per-element coins. The same gap state
/// drives [`observe`](StreamSampler::observe) (decrement) and
/// [`observe_batch`](Self::observe_batch) (jump), so batched and
/// element-wise ingestion produce **identical reservoirs for identical
/// seeds**.
#[derive(Debug, Clone)]
pub struct ReservoirSampler<T> {
    k: usize,
    reservoir: Vec<T>,
    observed: usize,
    total_stored: usize,
    rng: StdRng,
    /// Algorithm L threshold; meaningful once the reservoir is full.
    w: f64,
    /// Elements still to skip before the next store (once full).
    skip: u64,
    /// A merge's threshold re-draw not yet run: the combined stream
    /// length. While set, `w`, `skip` and `rng` are stale; the next
    /// ingest settles them (see [`merge`](Self::merge)).
    reseed: Option<usize>,
}

impl<T> ReservoirSampler<T> {
    /// Create a reservoir of capacity `k`, seeded for reproducibility.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn with_seed(k: usize, seed: u64) -> Self {
        assert!(k > 0, "reservoir capacity must be positive");
        Self {
            k,
            reservoir: Vec::with_capacity(k),
            observed: 0,
            total_stored: 0,
            rng: StdRng::seed_from_u64(seed),
            w: 1.0,
            skip: 0,
            reseed: None,
        }
    }

    /// The reservoir capacity `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Consume the sampler, returning the reservoir contents.
    pub fn into_sample(self) -> Vec<T> {
        self.reservoir
    }

    /// Move the sample into `buf` (its old contents dropped, its
    /// capacity kept) and hand back the buffer the sample was in, empty.
    /// Capacity is the only thing that changes: a caller can park a
    /// partial reservoir in an exact-length buffer and later give it a
    /// `k`-word one again, reusing buffers instead of allocating.
    pub fn swap_buffer(&mut self, mut buf: Vec<T>) -> Vec<T>
    where
        T: Clone,
    {
        buf.clear();
        buf.extend_from_slice(&self.reservoir);
        let mut old = std::mem::replace(&mut self.reservoir, buf);
        old.clear();
        old
    }

    /// Advance the Algorithm L state: shrink the threshold and draw the
    /// gap until the next acceptance.
    fn next_gap(&mut self) {
        let u1: f64 = self.rng.random();
        self.w *= (u1.ln() / self.k as f64).exp();
        self.draw_skip();
    }

    /// Draw the gap until the next acceptance from the current threshold
    /// `w`: geometric with per-element acceptance probability `w`.
    fn draw_skip(&mut self) {
        self.skip = algo_l_gap(&mut self.rng, self.w);
    }

    /// Run a merge's deferred threshold re-draw, if one is pending. Every
    /// ingest calls this before it reads `w`, `skip` or the RNG.
    #[inline]
    fn settle(&mut self) {
        if let Some(n) = self.reseed.take() {
            (self.w, self.skip) = reseed_threshold(self.k, n, &mut self.rng);
        }
    }

    /// Merge another reservoir into this one: the result is distributed as
    /// one reservoir of capacity `self.k` run over the concatenation of
    /// both streams.
    ///
    /// The merge draws the per-stream split of the output exactly
    /// (sequential sampling without replacement from the union, i.e. the
    /// hypergeometric law), then takes a uniform subset of each input
    /// reservoir of that size — sound because a uniform `j`-subset of a
    /// uniform `k`-sample of a stream is a uniform `j`-subset of the
    /// stream itself.
    ///
    /// A full merged reservoir also needs its Algorithm L threshold
    /// re-drawn for the combined length (see `reseed_threshold`) before
    /// it can keep ingesting. That re-draw — `k` `powf` calls — is
    /// deferred: the merge only records it, and the next
    /// [`observe`](StreamSampler::observe),
    /// [`observe_batch`](Self::observe_batch) or
    /// [`observe_weighted`](Self::observe_weighted) runs it with exactly
    /// the draws an eager re-draw would have made. Read-only views of the
    /// merge (`sample`, `observed`, queries built on them) never pay for
    /// it. A further merge overwrites the threshold anyway, so it only
    /// advances the RNG past the pending re-draw's `k + 1` words, and a
    /// checkpoint writes the settled state; merged state, continued
    /// ingestion and checkpoint bytes are all bit-identical to the eager
    /// re-draw.
    ///
    /// All randomness comes from `self`'s RNG: merges are deterministic
    /// per seed. [`total_stored`](StreamSampler::total_stored) becomes the
    /// sum of both sides' churn. The merged capacity is `self.k`.
    ///
    /// # Panics
    ///
    /// Panics if `other` has subsampled its stream (is full) with a
    /// capacity smaller than `self.k` — the split could then demand more
    /// elements than `other` retains. Equal capacities (the sharded
    /// deployment) always work, as does merging in a partial reservoir of
    /// any capacity.
    pub fn merge(&mut self, mut other: Self)
    where
        T: Clone,
    {
        assert!(
            other.observed <= other.reservoir.len() || other.k >= self.k,
            "cannot merge a full reservoir of smaller capacity ({} < {})",
            other.k,
            self.k
        );
        if self.reseed.take().is_some() {
            // The pending re-draw's k uniforms plus its gap draw: one RNG
            // word each.
            for _ in 0..=self.k {
                self.rng.random::<u64>();
            }
        }
        let n_total = self.observed + other.observed;
        self.total_stored += other.total_stored;
        // How many of the merged sample's slots come from each side:
        // sequential without-replacement draws from the union.
        let k_out = self.k.min(n_total);
        let (mut rem_a, mut rem_b) = (self.observed as u64, other.observed as u64);
        let mut take_a = 0usize;
        for _ in 0..k_out {
            if self.rng.random_range(0..rem_a + rem_b) < rem_a {
                take_a += 1;
                rem_a -= 1;
            } else {
                rem_b -= 1;
            }
        }
        let take_b = k_out - take_a;
        // Uniform subsets of each reservoir via partial Fisher–Yates.
        let mut merged = Vec::with_capacity(k_out);
        for (pool, take) in [
            (&mut self.reservoir, take_a),
            (&mut other.reservoir, take_b),
        ] {
            debug_assert!(take <= pool.len());
            for i in 0..take {
                let j = self.rng.random_range(i..pool.len());
                pool.swap(i, j);
            }
            merged.extend(pool.drain(..take));
        }
        self.reservoir = merged;
        self.observed = n_total;
        if self.reservoir.len() == self.k && n_total > self.k {
            self.reseed = Some(n_total);
        } else if self.reservoir.len() == self.k {
            // Exactly full with the whole union: behave like a freshly
            // filled reservoir.
            self.w = 1.0;
            self.next_gap();
        }
    }

    /// Weighted ingestion with **multiplicity semantics**: observing
    /// `(x, weight)` is bit-identical — same reservoir, same RNG stream —
    /// to `weight` consecutive [`observe`](StreamSampler::observe) calls
    /// on `x`. Weight 1 *is* the unit kernel; weight 0 consumes nothing.
    ///
    /// Fill-phase copies are pushed unconditionally (no randomness); once
    /// full, the Algorithm L gap either carries past the remaining span
    /// (`skip -= rem`) or lands in it, and each landing consumes exactly
    /// the element-wise three RNG words (slot, threshold decay, next gap).
    /// Returns the number of copies stored.
    pub fn observe_weighted(&mut self, x: T, weight: u64) -> usize
    where
        T: Clone,
    {
        self.settle();
        let mut rem = weight;
        let mut stored = 0usize;
        while rem > 0 && self.reservoir.len() < self.k {
            self.reservoir.push(x.clone());
            self.total_stored += 1;
            self.observed += 1;
            stored += 1;
            rem -= 1;
            if self.reservoir.len() == self.k {
                self.w = 1.0;
                self.next_gap();
            }
        }
        if rem == 0 {
            return stored;
        }
        self.observed += rem as usize;
        while self.skip < rem {
            rem -= self.skip + 1;
            let j = self.rng.random_range(0..self.k);
            self.reservoir[j] = x.clone();
            self.total_stored += 1;
            stored += 1;
            self.next_gap();
        }
        self.skip -= rem;
        stored
    }

    /// Batched weighted ingestion: state-for-state equivalent to calling
    /// [`observe_weighted`](Self::observe_weighted) on each pair in order
    /// (which is itself equivalent to the fully expanded unit stream).
    pub fn observe_weighted_batch(&mut self, xs: &[(T, u64)])
    where
        T: Clone,
    {
        for (x, w) in xs {
            self.observe_weighted(x.clone(), *w);
        }
    }

    /// Accept `x` into a full reservoir, evicting a uniform resident.
    fn accept(&mut self, x: T) -> T {
        let j = self.rng.random_range(0..self.k);
        let evicted = std::mem::replace(&mut self.reservoir[j], x);
        self.total_stored += 1;
        self.next_gap();
        evicted
    }

    /// Batched ingestion: jump the Algorithm L gaps through `xs`, storing
    /// the same elements (given the same seed and history) that
    /// per-element [`observe`](StreamSampler::observe) calls would store,
    /// in `O(k·ln(|xs|/k))` expected work instead of `Θ(|xs|)`.
    pub fn observe_batch(&mut self, xs: &[T])
    where
        T: Clone,
    {
        self.observe_by(xs.len(), move |i| xs[i].clone());
    }

    /// [`observe_batch`](Self::observe_batch) over an indexed view: the
    /// `n` elements are `at(0), …, at(n−1)`, and `at` is called only for
    /// the elements the reservoir stores — a strided or encoded view is
    /// never gathered.
    pub fn observe_by(&mut self, n: usize, at: impl Fn(usize) -> T) {
        self.settle();
        let mut i = 0usize;
        // Fill phase: the first k elements are stored unconditionally and
        // consume no randomness.
        if self.reservoir.len() < self.k {
            let take = (self.k - self.reservoir.len()).min(n);
            self.reservoir.extend((0..take).map(&at));
            self.total_stored += take;
            self.observed += take;
            i = take;
            if self.reservoir.len() == self.k {
                self.w = 1.0;
                self.next_gap();
            }
            if i >= n {
                return;
            }
        }
        // Skip phase, on local copies of the Algorithm L state (RNG,
        // threshold, gap, counters) so the compiler can keep them in
        // registers across reservoir writes. Each store consumes exactly
        // three RNG words — the slot `j`, then `u1` (threshold decay),
        // then `u2` (next gap) — identical to the element-wise path. The
        // loop is software-pipelined: none of the per-store draws depend
        // on loaded data, and the only loop-carried recurrences are the
        // cheap threshold multiply and the position walk, so the four
        // transcendental calls per store pipeline across iterations and
        // the strided read overlaps them. (Probe-measured, removing
        // the read entirely does not speed this loop up: it runs at FPU
        // throughput.)
        let k = self.k;
        let kf = k as f64;
        let mut rng = self.rng.clone();
        let mut w = self.w;
        let mut skip = self.skip;
        let mut total_stored = self.total_stored;
        self.observed += n - i;
        let reservoir = &mut self.reservoir[..];
        if skip < (n - i) as u64 {
            let mut pos = i + skip as usize;
            loop {
                let slot: usize = rng.random_range(0..k);
                let u1: f64 = rng.random();
                w *= (u1.ln() / kf).exp();
                let u2: f64 = rng.random();
                let denom = (1.0 - w).ln();
                reservoir[slot] = at(pos);
                total_stored += 1;
                skip = if denom < 0.0 {
                    (u2.ln() / denom) as u64
                } else {
                    u64::MAX
                };
                // Elements of this batch after `pos`; the new gap either
                // lands in them or carries past the batch end.
                let after = (n - pos - 1) as u64;
                if skip >= after {
                    skip -= after;
                    break;
                }
                pos += 1 + skip as usize;
            }
        } else {
            skip -= (n - i) as u64;
        }
        self.rng = rng;
        self.w = w;
        self.skip = skip;
        self.total_stored = total_stored;
    }
}

impl<T: Clone> StreamSampler<T> for ReservoirSampler<T> {
    fn observe(&mut self, x: T) -> Observation<T> {
        self.settle();
        self.observed += 1;
        if self.reservoir.len() < self.k {
            self.reservoir.push(x);
            self.total_stored += 1;
            if self.reservoir.len() == self.k {
                self.w = 1.0;
                self.next_gap();
            }
            return Observation::Stored { evicted: None };
        }
        if self.skip > 0 {
            self.skip -= 1;
            return Observation::Skipped;
        }
        let evicted = self.accept(x);
        Observation::Stored {
            evicted: Some(evicted),
        }
    }

    #[inline]
    fn sample(&self) -> &[T] {
        &self.reservoir
    }

    #[inline]
    fn observed(&self) -> usize {
        self.observed
    }

    #[inline]
    fn total_stored(&self) -> usize {
        self.total_stored
    }

    fn name(&self) -> &'static str {
        "reservoir"
    }

    fn reset(&mut self, seed: u64) {
        self.reservoir.clear();
        self.observed = 0;
        self.total_stored = 0;
        self.rng = StdRng::seed_from_u64(seed);
        self.w = 1.0;
        self.skip = 0;
        self.reseed = None;
    }
}

// ---------------------------------------------------------------------------
// Checkpoint/restore (SnapshotCodec) for the two paper samplers
// ---------------------------------------------------------------------------

use crate::engine::snapshot::{
    put_f64, put_u64, put_u64_seq, put_usize, SnapshotCodec, SnapshotError, SnapshotReader,
};

/// Full-state checkpoint: rate, counts, sample, pending geometric gap,
/// and raw RNG words — a restored sampler continues the identical
/// store/skip stream.
impl SnapshotCodec for BernoulliSampler<u64> {
    fn save_into(&self, out: &mut Vec<u8>) {
        put_f64(out, self.p);
        put_usize(out, self.observed);
        put_u64_seq(out, &self.sample);
        match self.skip {
            Some(s) => {
                put_u64(out, 1);
                put_u64(out, s);
            }
            None => {
                put_u64(out, 0);
                put_u64(out, 0);
            }
        }
        for w in self.rng.state() {
            put_u64(out, w);
        }
    }

    fn restore_from(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let p = r.f64()?;
        if !(0.0..=1.0).contains(&p) {
            return Err(SnapshotError::Corrupt("bernoulli rate outside [0,1]"));
        }
        let observed = r.usize()?;
        let sample = r.u64_seq()?;
        // Every stored element was observed.
        if observed < sample.len() {
            return Err(SnapshotError::Corrupt(
                "bernoulli sample exceeds observed count",
            ));
        }
        let has_skip = r.u64()?;
        let skip_val = r.u64()?;
        let skip = match has_skip {
            0 => None,
            1 => Some(skip_val),
            _ => return Err(SnapshotError::Corrupt("bernoulli skip flag")),
        };
        if skip.is_none() && p > 0.0 {
            return Err(SnapshotError::Corrupt("bernoulli gap missing at p > 0"));
        }
        let state = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
        Ok(Self {
            p,
            ln_q: (1.0 - p).ln(),
            sample,
            observed,
            rng: StdRng::from_state(state),
            skip,
        })
    }
}

/// Full-state checkpoint: capacity, counts, reservoir, Algorithm L
/// threshold + pending gap, and raw RNG words — a restored reservoir
/// continues the identical acceptance stream. A merge's pending threshold
/// re-draw is run on a copy of the RNG and its settled result written, so
/// the bytes do not depend on whether the re-draw has run yet.
impl SnapshotCodec for ReservoirSampler<u64> {
    fn save_into(&self, out: &mut Vec<u8>) {
        let mut rng = self.rng.clone();
        let (w, skip) = match self.reseed {
            Some(n) => reseed_threshold(self.k, n, &mut rng),
            None => (self.w, self.skip),
        };
        put_usize(out, self.k);
        put_usize(out, self.observed);
        put_usize(out, self.total_stored);
        put_u64_seq(out, &self.reservoir);
        put_f64(out, w);
        put_u64(out, skip);
        for word in rng.state() {
            put_u64(out, word);
        }
    }

    fn restore_from(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let k = r.usize()?;
        if k == 0 {
            return Err(SnapshotError::Corrupt("reservoir capacity zero"));
        }
        let observed = r.usize()?;
        let total_stored = r.usize()?;
        let reservoir = r.u64_seq()?;
        if reservoir.len() > k {
            return Err(SnapshotError::Corrupt("reservoir overfull"));
        }
        // A partial reservoir has stored everything it observed; a full
        // one has observed at least its k residents.
        if observed < reservoir.len() || (reservoir.len() < k && observed != reservoir.len()) {
            return Err(SnapshotError::Corrupt(
                "reservoir count contradicts its sample",
            ));
        }
        let w = r.f64()?;
        if !(0.0..=1.0).contains(&w) {
            return Err(SnapshotError::Corrupt("reservoir threshold outside [0,1]"));
        }
        let skip = r.u64()?;
        let state = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
        Ok(Self {
            k,
            reservoir,
            observed,
            total_stored,
            rng: StdRng::from_state(state),
            w,
            skip,
            reseed: None,
        })
    }
}

// ---------------------------------------------------------------------------
// Weighted reservoir sampling (Efraimidis–Spirakis A-Res)
// ---------------------------------------------------------------------------

/// Weighted reservoir sampling without replacement (Efraimidis–Spirakis
/// "A-Res"): each element carries a weight `w > 0`, and the probability of
/// inclusion is proportional to the weight.
///
/// Each element receives a key `u^(1/w)` with `u ~ Uniform(0,1)`; the
/// sampler keeps the `k` elements with the largest keys. The unweighted
/// case (`w ≡ 1`) is distributionally equivalent to [`ReservoirSampler`].
/// This variant is exercised by the experiment harness to show that the
/// robustness phenomenology extends to the weighted flavour discussed in
/// the paper's related-work section.
#[derive(Debug)]
pub struct WeightedReservoirSampler<T> {
    k: usize,
    /// `(key, element)` pairs; the entry with the *smallest* key sits at
    /// index `min_idx` so replacement is O(k) worst case but O(1) amortised
    /// for random streams. For the reservoir sizes the theory prescribes
    /// (hundreds to thousands) a linear scan is faster than heap churn.
    entries: Vec<(f64, T)>,
    min_idx: usize,
    observed: usize,
    total_stored: usize,
    rng: StdRng,
}

impl<T> WeightedReservoirSampler<T> {
    /// Create a weighted reservoir of capacity `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn with_seed(k: usize, seed: u64) -> Self {
        assert!(k > 0, "reservoir capacity must be positive");
        Self {
            k,
            entries: Vec::with_capacity(k),
            min_idx: 0,
            observed: 0,
            total_stored: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Observe an element with the given positive weight.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not finite and positive.
    pub fn observe_weighted(&mut self, x: T, weight: f64) -> Observation<T>
    where
        T: Clone,
    {
        assert!(
            weight.is_finite() && weight > 0.0,
            "weight must be positive and finite, got {weight}"
        );
        self.observed += 1;
        let u: f64 = self.rng.random();
        // Key u^(1/w); computed in log-space for numerical stability with
        // extreme weights.
        let key = (u.ln() / weight).exp();
        if self.entries.len() < self.k {
            self.entries.push((key, x));
            self.total_stored += 1;
            self.recompute_min();
            return Observation::Stored { evicted: None };
        }
        let (min_key, _) = self.entries[self.min_idx];
        if key > min_key {
            let (_, old) = std::mem::replace(&mut self.entries[self.min_idx], (key, x));
            self.total_stored += 1;
            self.recompute_min();
            Observation::Stored { evicted: Some(old) }
        } else {
            Observation::Skipped
        }
    }

    fn recompute_min(&mut self) {
        let mut idx = 0;
        let mut best = f64::INFINITY;
        for (i, (key, _)) in self.entries.iter().enumerate() {
            if *key < best {
                best = *key;
                idx = i;
            }
        }
        self.min_idx = idx;
    }

    /// Current sample as `(element, key)` pairs are internal; this exposes
    /// the elements only, in arbitrary order.
    pub fn sample_elements(&self) -> Vec<T>
    where
        T: Clone,
    {
        self.entries.iter().map(|(_, x)| x.clone()).collect()
    }

    /// Reservoir capacity.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of elements observed.
    #[inline]
    pub fn observed(&self) -> usize {
        self.observed
    }

    /// Total number of insertions (including later-evicted entries).
    #[inline]
    pub fn total_stored(&self) -> usize {
        self.total_stored
    }
}

// ---------------------------------------------------------------------------
// Bottom-k (priority / min-wise) sampling
// ---------------------------------------------------------------------------

/// Bottom-k sampling: each element receives an i.i.d. `Uniform(0,1)` key
/// and the sampler keeps the `k` elements with the *smallest* keys.
///
/// Distributionally this is a uniform size-`k` sample without replacement,
/// identical in marginals to [`ReservoirSampler`] — but its *state* is
/// richer: the adversary also sees the residents' keys, including the
/// current threshold (the k-th smallest key). Exposing more state can only
/// help the adversary, yet Theorem 1.2's proof never uses state secrecy —
/// only the independence of the *next* coin from the past — so the same
/// `k = 2(ln|R| + ln(2/δ))/ε²` bound applies. The test suite and the
/// experiment harness exercise this sampler as an "extra-transparent"
/// reservoir variant (bottom-k is also the standard building block for
/// distributed and weighted sampling, per the paper's related work).
#[derive(Debug, Clone)]
pub struct BottomKSampler<T> {
    k: usize,
    /// Resident keys; `elements[i]` carries the element for `keys[i]`.
    /// The entry with the largest key is the eviction candidate (`max_idx`).
    keys: Vec<f64>,
    elements: Vec<T>,
    max_idx: usize,
    observed: usize,
    total_stored: usize,
    rng: StdRng,
}

impl<T> BottomKSampler<T> {
    /// Create a bottom-k sampler of capacity `k`, seeded.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn with_seed(k: usize, seed: u64) -> Self {
        assert!(k > 0, "sample capacity must be positive");
        Self {
            k,
            keys: Vec::with_capacity(k),
            elements: Vec::with_capacity(k),
            max_idx: 0,
            observed: 0,
            total_stored: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The capacity `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The current inclusion threshold: the largest resident key (new
    /// elements enter iff their key is below it once the sample is full).
    /// Part of the state the adversary may observe.
    pub fn threshold(&self) -> Option<f64> {
        if self.keys.len() < self.k {
            return None;
        }
        Some(self.keys[self.max_idx])
    }

    /// Resident keys, parallel to [`StreamSampler::sample`] (full state
    /// exposure — strictly more than a reservoir reveals).
    pub fn keys(&self) -> &[f64] {
        &self.keys
    }

    fn recompute_max(&mut self) {
        let mut idx = 0;
        let mut best = f64::NEG_INFINITY;
        for (i, &key) in self.keys.iter().enumerate() {
            if key > best {
                best = key;
                idx = i;
            }
        }
        self.max_idx = idx;
    }

    /// Merge another bottom-k sampler into this one — **exactly**: keys
    /// are i.i.d. uniform across both samplers, so keeping the `self.k`
    /// smallest keys of the union is precisely the bottom-k sample of the
    /// concatenated stream. No randomness is consumed and no error is
    /// introduced; streaming may continue afterwards.
    pub fn merge(&mut self, other: Self) {
        self.observed += other.observed;
        self.total_stored += other.total_stored;
        for (key, x) in other.keys.into_iter().zip(other.elements) {
            if self.keys.len() < self.k {
                self.keys.push(key);
                self.elements.push(x);
                self.recompute_max();
            } else if key < self.keys[self.max_idx] {
                self.keys[self.max_idx] = key;
                self.elements[self.max_idx] = x;
                self.recompute_max();
            }
        }
    }
}

impl<T: Clone> StreamSampler<T> for BottomKSampler<T> {
    fn observe(&mut self, x: T) -> Observation<T> {
        self.observed += 1;
        let key: f64 = self.rng.random();
        if self.keys.len() < self.k {
            self.keys.push(key);
            self.elements.push(x);
            self.total_stored += 1;
            self.recompute_max();
            return Observation::Stored { evicted: None };
        }
        if key < self.keys[self.max_idx] {
            self.keys[self.max_idx] = key;
            let old = std::mem::replace(&mut self.elements[self.max_idx], x);
            self.total_stored += 1;
            self.recompute_max();
            Observation::Stored { evicted: Some(old) }
        } else {
            Observation::Skipped
        }
    }

    fn sample(&self) -> &[T] {
        &self.elements
    }

    fn observed(&self) -> usize {
        self.observed
    }

    fn total_stored(&self) -> usize {
        self.total_stored
    }

    fn name(&self) -> &'static str {
        "bottom-k"
    }

    fn reset(&mut self, seed: u64) {
        self.keys.clear();
        self.elements.clear();
        self.max_idx = 0;
        self.observed = 0;
        self.total_stored = 0;
        self.rng = StdRng::seed_from_u64(seed);
    }
}

// ---------------------------------------------------------------------------
// Deterministic strawman
// ---------------------------------------------------------------------------

/// Deterministic systematic sampler: keeps every `k`-th element.
///
/// The paper notes any deterministic static algorithm is automatically
/// robust, but may be statistically much weaker; this sampler gives the
/// experiment harness a concrete such comparator. Against *sorted* or
/// periodic streams its sample can be maximally unrepresentative for
/// interval systems, which experiment E3 demonstrates.
#[derive(Debug, Clone)]
pub struct EveryKthSampler<T> {
    stride: usize,
    sample: Vec<T>,
    observed: usize,
}

impl<T> EveryKthSampler<T> {
    /// Keep elements at positions `stride, 2·stride, …` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0`.
    pub fn new(stride: usize) -> Self {
        assert!(stride > 0, "stride must be positive");
        Self {
            stride,
            sample: Vec::new(),
            observed: 0,
        }
    }

    /// Batched ingestion: stride arithmetic instead of a per-element
    /// divisibility check; identical sample to element-wise observation.
    pub fn observe_batch(&mut self, xs: &[T])
    where
        T: Clone,
    {
        let n = xs.len();
        // First kept position (1-based, relative to the batch start).
        let mut next = self.stride - self.observed % self.stride;
        while next <= n {
            self.sample.push(xs[next - 1].clone());
            next += self.stride;
        }
        self.observed += n;
    }
}

impl<T: Clone> StreamSampler<T> for EveryKthSampler<T> {
    fn observe(&mut self, x: T) -> Observation<T> {
        self.observed += 1;
        if self.observed.is_multiple_of(self.stride) {
            self.sample.push(x);
            Observation::Stored { evicted: None }
        } else {
            Observation::Skipped
        }
    }

    fn sample(&self) -> &[T] {
        &self.sample
    }

    fn observed(&self) -> usize {
        self.observed
    }

    fn total_stored(&self) -> usize {
        self.sample.len()
    }

    fn name(&self) -> &'static str {
        "every-kth"
    }

    fn reset(&mut self, _seed: u64) {
        self.sample.clear();
        self.observed = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bernoulli_p_zero_samples_nothing() {
        let mut s = BernoulliSampler::with_seed(0.0, 1);
        for x in 0..1000u64 {
            assert_eq!(s.observe(x), Observation::Skipped);
        }
        assert!(s.sample().is_empty());
        assert_eq!(s.observed(), 1000);
    }

    #[test]
    fn bernoulli_p_one_samples_everything() {
        let mut s = BernoulliSampler::with_seed(1.0, 1);
        for x in 0..100u64 {
            assert!(s.observe(x).stored());
        }
        assert_eq!(s.sample(), (0..100u64).collect::<Vec<_>>().as_slice());
    }

    #[test]
    fn bernoulli_sample_size_concentrates() {
        // E[|S|] = np = 10_000 * 0.2 = 2000; Chernoff keeps us within ±10%
        // with overwhelming probability for this seed.
        let mut s = BernoulliSampler::with_seed(0.2, 42);
        for x in 0..10_000u64 {
            s.observe(x);
        }
        let size = s.sample().len();
        assert!((1800..=2200).contains(&size), "size {size} out of range");
    }

    #[test]
    fn bernoulli_sample_is_subsequence() {
        let mut s = BernoulliSampler::with_seed(0.5, 3);
        let stream: Vec<u64> = (0..500).collect();
        for &x in &stream {
            s.observe(x);
        }
        // Subsequence of an increasing stream must itself be increasing.
        assert!(s.sample().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    #[should_panic(expected = "p must be in [0,1]")]
    fn bernoulli_rejects_bad_p() {
        let _ = BernoulliSampler::<u64>::with_seed(1.5, 0);
    }

    #[test]
    fn reservoir_keeps_first_k_unconditionally() {
        let mut s = ReservoirSampler::with_seed(10, 7);
        for x in 0..10u64 {
            assert!(s.observe(x).stored());
        }
        let mut got = s.sample().to_vec();
        got.sort_unstable();
        assert_eq!(got, (0..10u64).collect::<Vec<_>>());
    }

    #[test]
    fn reservoir_size_is_exactly_k() {
        let mut s = ReservoirSampler::with_seed(50, 9);
        for x in 0..5000u64 {
            s.observe(x);
        }
        assert_eq!(s.sample().len(), 50);
        assert_eq!(s.observed(), 5000);
    }

    #[test]
    fn reservoir_eviction_reports_resident() {
        let mut s = ReservoirSampler::with_seed(1, 11);
        assert_eq!(s.observe(100u64), Observation::Stored { evicted: None });
        // With k=1 every subsequent store must evict the single resident.
        for x in 0..200u64 {
            if let Observation::Stored { evicted } = s.observe(x) {
                assert!(evicted.is_some());
            }
        }
    }

    #[test]
    fn reservoir_uniformity_chi_square() {
        // Each element of a stream of n=100 should appear in a k=10 reservoir
        // with probability k/n = 0.1. Run many trials and check the empirical
        // inclusion frequency of a few positions.
        let n = 100u64;
        let k = 10;
        let trials = 2000;
        let mut counts = vec![0u32; n as usize];
        for t in 0..trials {
            let mut s = ReservoirSampler::with_seed(k, t);
            for x in 0..n {
                s.observe(x);
            }
            for &x in s.sample() {
                counts[x as usize] += 1;
            }
        }
        let expected = trials as f64 * k as f64 / n as f64; // 200
        for (pos, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(
                dev < 0.30,
                "position {pos} inclusion frequency {c} deviates {dev:.2} from {expected}"
            );
        }
    }

    #[test]
    fn reservoir_total_stored_grows_like_k_ln_n() {
        // E[k'] = k + sum_{i>k} k/i ≈ k(1 + ln(n/k)).
        let k = 20;
        let n = 20_000u64;
        let mut s = ReservoirSampler::with_seed(k, 5);
        for x in 0..n {
            s.observe(x);
        }
        let expect = k as f64 * (1.0 + (n as f64 / k as f64).ln());
        let got = s.total_stored() as f64;
        assert!(
            (got - expect).abs() < 0.5 * expect,
            "total stored {got} far from {expect}"
        );
    }

    #[test]
    fn weighted_reservoir_prefers_heavy_elements() {
        // One element has weight 1000x the rest; it should almost always be
        // present in the sample.
        let mut present = 0;
        for seed in 0..50 {
            let mut s = WeightedReservoirSampler::with_seed(5, seed);
            for x in 0..200u64 {
                let w = if x == 77 { 1000.0 } else { 1.0 };
                s.observe_weighted(x, w);
            }
            if s.sample_elements().contains(&77) {
                present += 1;
            }
        }
        assert!(present >= 47, "heavy element present only {present}/50");
    }

    #[test]
    fn weighted_reservoir_uniform_weights_match_reservoir_marginals() {
        let n = 100u64;
        let k = 10;
        let trials = 2000;
        let mut counts = vec![0u32; n as usize];
        for t in 0..trials {
            let mut s = WeightedReservoirSampler::with_seed(k, 10_000 + t);
            for x in 0..n {
                s.observe_weighted(x, 1.0);
            }
            for x in s.sample_elements() {
                counts[x as usize] += 1;
            }
        }
        let expected = trials as f64 * k as f64 / n as f64;
        for (pos, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(
                dev < 0.30,
                "position {pos} inclusion frequency {c} deviates {dev:.2}"
            );
        }
    }

    #[test]
    fn bernoulli_weighted_matches_expanded_stream() {
        // observe_weighted(x, w) must be bit-identical to w repeats of
        // observe(x), including RNG state (checked by streaming more
        // afterwards).
        for p in [0.01, 0.3, 1.0] {
            let mut weighted = BernoulliSampler::with_seed(p, 11);
            let mut expanded = BernoulliSampler::with_seed(p, 11);
            let items: &[(u64, u64)] = &[(5, 3), (9, 0), (2, 17), (4, 1), (7, 1000), (1, 2)];
            for &(x, w) in items {
                weighted.observe_weighted(x, w);
                for _ in 0..w {
                    expanded.observe(x);
                }
            }
            for x in 0..500u64 {
                weighted.observe(x);
                expanded.observe(x);
            }
            assert_eq!(weighted.sample(), expanded.sample(), "p = {p}");
            assert_eq!(weighted.observed(), expanded.observed());
        }
    }

    #[test]
    fn reservoir_weighted_matches_expanded_stream() {
        // Spans crossing the fill→skip boundary and huge weights must all
        // match the expanded unit stream exactly.
        let mut weighted = ReservoirSampler::with_seed(16, 23);
        let mut expanded = ReservoirSampler::with_seed(16, 23);
        let items: &[(u64, u64)] = &[(3, 7), (8, 0), (1, 30), (6, 1), (2, 5000), (9, 2)];
        for &(x, w) in items {
            weighted.observe_weighted(x, w);
            for _ in 0..w {
                expanded.observe(x);
            }
        }
        for x in 0..500u64 {
            weighted.observe(x);
            expanded.observe(x);
        }
        assert_eq!(weighted.sample(), expanded.sample());
        assert_eq!(weighted.observed(), expanded.observed());
        assert_eq!(weighted.total_stored(), expanded.total_stored());
    }

    #[test]
    fn weighted_batch_matches_pairwise_calls() {
        let pairs: Vec<(u64, u64)> = (0..200).map(|i| (i, (i * 7) % 5)).collect();
        let mut batch = ReservoirSampler::with_seed(8, 3);
        let mut single = ReservoirSampler::with_seed(8, 3);
        batch.observe_weighted_batch(&pairs);
        for &(x, w) in &pairs {
            single.observe_weighted(x, w);
        }
        assert_eq!(batch.sample(), single.sample());
        let mut bbatch = BernoulliSampler::with_seed(0.2, 3);
        let mut bsingle = BernoulliSampler::with_seed(0.2, 3);
        bbatch.observe_weighted_batch(&pairs);
        for &(x, w) in &pairs {
            bsingle.observe_weighted(x, w);
        }
        assert_eq!(bbatch.sample(), bsingle.sample());
    }

    #[test]
    fn every_kth_is_deterministic() {
        let mut s = EveryKthSampler::new(3);
        for x in 1..=12u64 {
            s.observe(x);
        }
        assert_eq!(s.sample(), &[3, 6, 9, 12]);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut s = ReservoirSampler::with_seed(5, 1);
        for x in 0..100u64 {
            s.observe(x);
        }
        s.reset(2);
        assert!(s.sample().is_empty());
        assert_eq!(s.observed(), 0);
        assert_eq!(s.total_stored(), 0);
    }

    #[test]
    fn bernoulli_snapshot_resumes_bit_identically() {
        use crate::engine::snapshot::SnapshotCodec;
        let stream: Vec<u64> = (0..20_000).map(|i| i * 3 % 4096).collect();
        let mut whole = BernoulliSampler::with_seed(0.02, 9);
        let mut half = BernoulliSampler::with_seed(0.02, 9);
        whole.observe_batch(&stream);
        half.observe_batch(&stream[..7_777]);
        let mut resumed = BernoulliSampler::<u64>::restore(&half.save()).unwrap();
        resumed.observe_batch(&stream[7_777..]);
        assert_eq!(resumed.sample(), whole.sample());
        assert_eq!(resumed.observed(), whole.observed());
    }

    #[test]
    fn reservoir_snapshot_resumes_bit_identically() {
        use crate::engine::snapshot::SnapshotCodec;
        let stream: Vec<u64> = (0..30_000).rev().collect();
        let mut whole = ReservoirSampler::with_seed(128, 4);
        let mut half = ReservoirSampler::with_seed(128, 4);
        whole.observe_batch(&stream);
        half.observe_batch(&stream[..11_111]);
        let mut resumed = ReservoirSampler::<u64>::restore(&half.save()).unwrap();
        assert_eq!(resumed.sample(), half.sample());
        assert_eq!(resumed.total_stored(), half.total_stored());
        resumed.observe_batch(&stream[11_111..]);
        assert_eq!(resumed.sample(), whole.sample());
        assert_eq!(resumed.total_stored(), whole.total_stored());
    }

    #[test]
    fn swap_buffer_moves_only_the_sample() {
        use crate::engine::snapshot::SnapshotCodec;
        let stream: Vec<u64> = (0..5_000).map(|i| i * 31 % 977).collect();
        let mut kept = ReservoirSampler::with_seed(64, 9);
        let mut swapped = ReservoirSampler::with_seed(64, 9);
        kept.observe_batch(&stream[..40]);
        swapped.observe_batch(&stream[..40]);
        let k_words = swapped.swap_buffer(Vec::with_capacity(40));
        assert!(k_words.is_empty() && k_words.capacity() >= 64);
        assert_eq!(swapped.sample(), kept.sample());
        assert_eq!(swapped.save(), kept.save());
        let exact = swapped.swap_buffer(k_words);
        assert_eq!(exact.capacity(), 40);
        kept.observe_batch(&stream[40..]);
        swapped.observe_batch(&stream[40..]);
        assert_eq!(swapped.save(), kept.save());
    }

    #[test]
    fn snapshot_rejects_corrupt_bytes() {
        use crate::engine::snapshot::SnapshotCodec;
        // Real checkpoints of an empty, a partial, a full and a merged
        // sampler (the merge's threshold re-draw still pending): every
        // strict prefix and every trailing-byte variant is refused, and
        // the untouched bytes restore a sampler that continues the
        // original's stream bit for bit.
        let stream: Vec<u64> = (0..30_000u64).map(|i| i * 7 % 5_003).collect();
        let mut partial = ReservoirSampler::<u64>::with_seed(64, 1);
        partial.observe_batch(&stream[..40]);
        let mut full = ReservoirSampler::<u64>::with_seed(64, 2);
        full.observe_batch(&stream[..9_000]);
        let mut merged = full.clone();
        merged.merge(partial.clone());
        for original in [
            ReservoirSampler::<u64>::with_seed(64, 3),
            partial,
            full,
            merged,
        ] {
            let bytes = original.save();
            for cut in 0..bytes.len() {
                assert!(ReservoirSampler::<u64>::restore(&bytes[..cut]).is_err());
            }
            for extra in [1, 8] {
                let mut trailing = bytes.clone();
                trailing.resize(bytes.len() + extra, 0xA5);
                assert!(ReservoirSampler::<u64>::restore(&trailing).is_err());
            }
            let mut restored = ReservoirSampler::<u64>::restore(&bytes).unwrap();
            assert_eq!(restored.save(), bytes);
            assert_eq!(restored.sample(), original.sample());
            let mut original = original;
            original.observe_batch(&stream[..10_000]);
            restored.observe_batch(&stream[..10_000]);
            assert_eq!(restored.save(), original.save());
            assert_eq!(restored.sample(), original.sample());
        }
        // Well-framed bytes whose counts or threshold contradict the
        // reservoir (merging such a state would panic mid-draw).
        use crate::engine::snapshot::{put_f64, put_u64, put_u64_seq, put_usize};
        let forge = |k: usize, observed: usize, sample: &[u64], w: f64| {
            let mut out = Vec::new();
            put_usize(&mut out, k);
            put_usize(&mut out, observed);
            put_usize(&mut out, sample.len());
            put_u64_seq(&mut out, sample);
            put_f64(&mut out, w);
            put_u64(&mut out, 0);
            for word in [1, 2, 3, 4] {
                put_u64(&mut out, word);
            }
            out
        };
        let ok = |b: &[u8]| ReservoirSampler::<u64>::restore(b).is_ok();
        assert!(ok(&forge(8, 3, &[1, 2, 3], 1.0)));
        assert!(ok(&forge(4, 90, &[1, 2, 3, 4], 0.25)));
        let mut bogus_len = forge(8, 3, &[1, 2, 3], 1.0);
        bogus_len[24..32].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(ReservoirSampler::<u64>::restore(&bogus_len).is_err());
        for bad in [
            forge(0, 0, &[], 1.0),           // capacity zero
            forge(2, 5, &[1, 2, 3], 1.0),    // overfull
            forge(8, 10, &[1, 2, 3], 1.0),   // partial, but observed > len
            forge(4, 2, &[1, 2, 3, 4], 1.0), // observed < len
            forge(4, 90, &[1, 2, 3, 4], 1.5),
            forge(4, 90, &[1, 2, 3, 4], -0.25),
            forge(4, 90, &[1, 2, 3, 4], f64::NAN),
        ] {
            assert!(matches!(
                ReservoirSampler::<u64>::restore(&bad),
                Err(SnapshotError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn bernoulli_snapshot_rejects_corrupt_bytes() {
        use crate::engine::snapshot::SnapshotCodec;
        let mut s = BernoulliSampler::<u64>::with_seed(0.5, 1);
        for x in 0..100 {
            s.observe(x);
        }
        let bytes = s.save();
        assert!(BernoulliSampler::<u64>::restore(&bytes[..bytes.len() - 3]).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(BernoulliSampler::<u64>::restore(&trailing).is_err());
        // Well-framed bytes whose count contradicts the sample.
        use crate::engine::snapshot::{put_f64, put_u64, put_u64_seq, put_usize};
        let forge = |p: f64, observed: usize, sample: &[u64]| {
            let mut out = Vec::new();
            put_f64(&mut out, p);
            put_usize(&mut out, observed);
            put_u64_seq(&mut out, sample);
            put_u64(&mut out, 1);
            put_u64(&mut out, 0);
            for word in [1, 2, 3, 4] {
                put_u64(&mut out, word);
            }
            out
        };
        let ok = |b: &[u8]| BernoulliSampler::<u64>::restore(b).is_ok();
        assert!(ok(&forge(0.5, 3, &[1, 2, 3])));
        assert!(ok(&forge(0.5, 90, &[1, 2, 3])));
        for bad in [
            forge(0.5, 2, &[1, 2, 3]),
            forge(1.0, 0, &[7]),
            forge(0.25, 4, &[1, 2, 3, 4, 5, 6, 7, 8]),
        ] {
            assert!(matches!(
                BernoulliSampler::<u64>::restore(&bad),
                Err(SnapshotError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn bottom_k_size_is_exactly_k() {
        let mut s = BottomKSampler::with_seed(32, 3);
        for x in 0..5_000u64 {
            s.observe(x);
        }
        assert_eq!(s.sample().len(), 32);
        assert_eq!(s.keys().len(), 32);
        assert!(s.threshold().is_some());
    }

    #[test]
    fn bottom_k_threshold_is_max_resident_key() {
        let mut s = BottomKSampler::with_seed(8, 5);
        for x in 0..1_000u64 {
            s.observe(x);
        }
        let t = s.threshold().unwrap();
        assert!(s.keys().iter().all(|&k| k <= t));
        assert!(s.keys().contains(&t));
    }

    #[test]
    fn bottom_k_threshold_decreases_monotonically() {
        // Once full, the inclusion threshold can only shrink.
        let mut s = BottomKSampler::with_seed(16, 7);
        let mut last = f64::INFINITY;
        for x in 0..2_000u64 {
            s.observe(x);
            if let Some(t) = s.threshold() {
                assert!(t <= last + 1e-15, "threshold rose: {t} > {last}");
                last = t;
            }
        }
    }

    #[test]
    fn bottom_k_marginals_match_reservoir() {
        // Same uniform-without-replacement distribution as the reservoir:
        // inclusion probability k/n for every position.
        let n = 100u64;
        let k = 10;
        let trials = 2000;
        let mut counts = vec![0u32; n as usize];
        for t in 0..trials {
            let mut s = BottomKSampler::with_seed(k, 50_000 + t);
            for x in 0..n {
                s.observe(x);
            }
            for &x in s.sample() {
                counts[x as usize] += 1;
            }
        }
        let expected = trials as f64 * k as f64 / n as f64;
        for (pos, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.30, "position {pos}: {c} vs {expected}");
        }
    }

    #[test]
    fn bottom_k_total_stored_grows_like_k_ln_n() {
        // Identical churn statistics to the reservoir: E[k'] ≈ k(1 + ln(n/k)).
        let k = 20;
        let n = 20_000u64;
        let mut s = BottomKSampler::with_seed(k, 9);
        for x in 0..n {
            s.observe(x);
        }
        let expect = k as f64 * (1.0 + (n as f64 / k as f64).ln());
        let got = s.total_stored() as f64;
        assert!(
            (got - expect).abs() < 0.5 * expect,
            "k' = {got} vs {expect}"
        );
    }
}
