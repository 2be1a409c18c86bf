//! Adversarial strategies.
//!
//! The paper's adversary is an arbitrary probabilistic process that sees
//! the sampler's state `σ_{i−1}` (and everything it sent before) and picks
//! the next element. This module provides:
//!
//! * [`DiscreteAttackAdversary`] — the **Figure 3 attack** proving Theorem
//!   1.3: a shrinking-interval strategy over `U = [N]` that traps every
//!   stored element below every discarded one;
//! * [`BisectionAdversary`] — the **introduction's attack** over the real
//!   interval `[0,1]`, run exactly with arbitrary-precision
//!   [dyadic rationals](crate::dyadic);
//! * [`GreedyDiscrepancyAdversary`] — a best-effort heuristic that pushes
//!   the current Kolmogorov–Smirnov witness, used to stress-test the
//!   Theorem 1.2 *upper* bound (which must hold against every strategy);
//! * benign baselines: [`StaticAdversary`] (a fixed stream, the paper's
//!   static setting), [`RandomAdversary`], [`SortedAdversary`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use robust_sampling_streamgen::source::{StreamSource, DEFAULT_FRAME};

use crate::dyadic::Dyadic;
use crate::sampler::Observation;

/// What the adversary sees before choosing round `i`'s element: exactly
/// the information the paper grants it (the state `σ_{i−1}`, its own past
/// stream, and — redundantly, since it is deducible from consecutive
/// states — the outcome of the previous round).
#[derive(Debug)]
pub struct RoundContext<'a, T> {
    /// Current round `i` (1-based); the element returned becomes `x_i`.
    pub round: usize,
    /// Total number of rounds `n` (the paper's adversary knows `n`).
    pub n: usize,
    /// The sampler state `σ_{i−1}` — the current sample.
    pub sample: &'a [T],
    /// What happened to `x_{i−1}` (None on round 1).
    pub last_outcome: Option<&'a Observation<T>>,
    /// The elements submitted so far, `x_1, …, x_{i−1}`.
    pub history: &'a [T],
}

/// An adaptive adversary choosing the stream of an
/// [`AdaptiveGame`](crate::game::AdaptiveGame).
pub trait Adversary<T> {
    /// Choose the next element given the observable state.
    fn next(&mut self, ctx: &RoundContext<'_, T>) -> T;

    /// Name used in experiment reports.
    fn name(&self) -> &'static str {
        "adversary"
    }
}

/// Boxed adversaries adapt transparently, so experiment code can hand
/// heterogeneous strategy suites to the engine.
impl<T, A: Adversary<T> + ?Sized> Adversary<T> for Box<A> {
    fn next(&mut self, ctx: &RoundContext<'_, T>) -> T {
        (**self).next(ctx)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

// ---------------------------------------------------------------------------
// Benign baselines
// ---------------------------------------------------------------------------

/// Replays a fixed stream — the paper's *static* setting, where the whole
/// stream is committed in advance and the classical VC bounds apply.
#[derive(Debug, Clone)]
pub struct StaticAdversary<T> {
    stream: Vec<T>,
}

impl<T> StaticAdversary<T> {
    /// Wrap a fixed stream. The stream must be at least as long as the
    /// game it is used in.
    pub fn new(stream: Vec<T>) -> Self {
        Self { stream }
    }
}

impl<T: Clone> Adversary<T> for StaticAdversary<T> {
    fn next(&mut self, ctx: &RoundContext<'_, T>) -> T {
        self.stream
            .get(ctx.round - 1)
            .expect("static stream shorter than game")
            .clone()
    }

    fn name(&self) -> &'static str {
        "static"
    }
}

/// Adapts any lazy [`StreamSource`] into the adversary interface, so
/// static (oblivious) workloads and adaptive attackers are interchangeable
/// inside [`AdaptiveGame`](crate::game::AdaptiveGame) and
/// [`ContinuousAdaptiveGame`](crate::game::ContinuousAdaptiveGame).
///
/// Unlike [`StaticAdversary`], which owns its whole stream, this adapter
/// holds one frame (default [`DEFAULT_FRAME`] elements) and refills it
/// from the source on demand — memory stays bounded by the frame no
/// matter the game length. The source must produce at least as many
/// elements as the game has rounds.
#[derive(Debug)]
pub struct SourceAdversary<S, T = u64> {
    source: S,
    buf: Vec<T>,
    pos: usize,
    frame: usize,
}

impl<S, T> SourceAdversary<S, T> {
    /// Adapt a source at the default frame size.
    pub fn new(source: S) -> Self {
        Self::with_frame(source, DEFAULT_FRAME)
    }

    /// Adapt a source, refilling `frame` elements at a time.
    ///
    /// # Panics
    ///
    /// Panics if `frame == 0`.
    pub fn with_frame(source: S, frame: usize) -> Self {
        assert!(frame > 0, "frame must be positive");
        Self {
            source,
            buf: Vec::new(),
            pos: 0,
            frame,
        }
    }

    /// The wrapped source (e.g. to read generator state after a game).
    pub fn source(&self) -> &S {
        &self.source
    }
}

impl<T: Clone, S: StreamSource<T>> Adversary<T> for SourceAdversary<S, T> {
    fn next(&mut self, _ctx: &RoundContext<'_, T>) -> T {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
            let got = self.source.next_chunk(&mut self.buf, self.frame);
            assert!(got > 0, "stream source exhausted before the game ended");
        }
        let x = self.buf[self.pos].clone();
        self.pos += 1;
        x
    }

    fn name(&self) -> &'static str {
        self.source.name()
    }
}

/// Uniform random elements from `{0, …, universe−1}` — an oblivious
/// baseline against which every sampler trivially succeeds.
#[derive(Debug)]
pub struct RandomAdversary {
    universe: u64,
    rng: StdRng,
}

impl RandomAdversary {
    /// Uniform over `{0, …, universe−1}`.
    ///
    /// # Panics
    ///
    /// Panics if `universe == 0`.
    pub fn new(universe: u64, seed: u64) -> Self {
        assert!(universe > 0, "universe must be non-empty");
        Self {
            universe,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Adversary<u64> for RandomAdversary {
    fn next(&mut self, _ctx: &RoundContext<'_, u64>) -> u64 {
        self.rng.random_range(0..self.universe)
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

/// Submits `⌊(i−1)·universe/n⌋` — a sorted sweep of the universe. Static
/// (non-adaptive) but a classic stress case for systematic samplers.
#[derive(Debug, Clone, Copy)]
pub struct SortedAdversary {
    universe: u64,
}

impl SortedAdversary {
    /// Sorted sweep over `{0, …, universe−1}`.
    ///
    /// # Panics
    ///
    /// Panics if `universe == 0`.
    pub fn new(universe: u64) -> Self {
        assert!(universe > 0, "universe must be non-empty");
        Self { universe }
    }
}

impl Adversary<u64> for SortedAdversary {
    fn next(&mut self, ctx: &RoundContext<'_, u64>) -> u64 {
        ((ctx.round - 1) as u128 * self.universe as u128 / ctx.n as u128) as u64
    }

    fn name(&self) -> &'static str {
        "sorted"
    }
}

// ---------------------------------------------------------------------------
// The Figure 3 attack (Theorem 1.3)
// ---------------------------------------------------------------------------

/// The paper's Figure 3 adversary over the discrete universe `U = [N]`:
///
/// ```text
/// 1. a₁ = 1, b₁ = N
/// 2. p' = max{p, ln n / n}
/// 3. round i:  xᵢ = ⌊aᵢ + (1 − p')(bᵢ − aᵢ)⌋
///              if xᵢ was stored   → aᵢ₊₁ = xᵢ, bᵢ₊₁ = bᵢ
///              else               → aᵢ₊₁ = aᵢ, bᵢ₊₁ = xᵢ
/// ```
///
/// Invariant (the paper's Claim 5.2): every stored element is `≤ aᵢ`,
/// every discarded element is `≥ bᵢ`, so at the end the sample consists of
/// (a subset of) the smallest elements ever submitted — maximally
/// unrepresentative for the prefix system.
///
/// The attack can *run out of room* if the working interval collapses
/// (`bᵢ − aᵢ < 2`); Claim 5.1 shows this happens with probability < 1/2
/// when `N ≥ n⁶ ln n` and the sampler is sub-threshold. The adversary then
/// degrades to repeating `aᵢ` and records the failure in
/// [`exhausted`](Self::exhausted).
#[derive(Debug, Clone)]
pub struct DiscreteAttackAdversary {
    a: u64,
    b: u64,
    p_prime: f64,
    exhausted: bool,
}

impl DiscreteAttackAdversary {
    /// The Figure 3 attack against [`BernoulliSampler`] with rate `p`:
    /// sets `p' = max(p, ln n / n)` exactly as in the paper.
    ///
    /// # Panics
    ///
    /// Panics if `universe < 4` or `n < 2`.
    ///
    /// [`BernoulliSampler`]: crate::sampler::BernoulliSampler
    pub fn for_bernoulli(p: f64, n: usize, universe: u64) -> Self {
        assert!(n >= 2, "attack needs n >= 2");
        let p_prime = p.max((n as f64).ln() / n as f64);
        Self::with_split(p_prime, universe)
    }

    /// The same attack against [`ReservoirSampler`] with capacity `k`.
    ///
    /// The reservoir stores round `i`'s element with probability `k/i`, and
    /// the total number of insertions concentrates below `k' ≤ 4k·ln n`
    /// (paper §5). The range-splitting fraction is chosen to spend the
    /// `ln N` precision budget evenly across those `k'` insertions:
    /// `p' = max(4k·ln n / n, ln n / n)`, clamped below 1/2.
    ///
    /// # Panics
    ///
    /// Panics if `universe < 4`, `n < 2`, or `k == 0`.
    ///
    /// [`ReservoirSampler`]: crate::sampler::ReservoirSampler
    pub fn for_reservoir(k: usize, n: usize, universe: u64) -> Self {
        assert!(n >= 2, "attack needs n >= 2");
        assert!(k > 0, "reservoir capacity must be positive");
        let ln_n = (n as f64).ln();
        let p_prime = (4.0 * k as f64 * ln_n / n as f64)
            .max(ln_n / n as f64)
            .min(0.49);
        Self::with_split(p_prime, universe)
    }

    /// Attack with an explicit splitting fraction `p'` (exposed for the
    /// threshold-sweep experiments).
    ///
    /// # Panics
    ///
    /// Panics if `universe < 4` or `p' ∉ (0, 1)`.
    pub fn with_split(p_prime: f64, universe: u64) -> Self {
        assert!(universe >= 4, "universe too small for the attack");
        assert!(
            p_prime > 0.0 && p_prime < 1.0,
            "split fraction must be in (0,1), got {p_prime}"
        );
        Self {
            a: 1,
            b: universe,
            p_prime,
            exhausted: false,
        }
    }

    /// Whether the working interval collapsed before the stream ended
    /// (the event Claim 5.1 bounds).
    #[inline]
    pub fn exhausted(&self) -> bool {
        self.exhausted
    }

    /// Current working interval `[a, b]`.
    #[inline]
    pub fn working_range(&self) -> (u64, u64) {
        (self.a, self.b)
    }

    /// The splitting fraction `p'` in use.
    #[inline]
    pub fn p_prime(&self) -> f64 {
        self.p_prime
    }
}

impl Adversary<u64> for DiscreteAttackAdversary {
    fn next(&mut self, ctx: &RoundContext<'_, u64>) -> u64 {
        // First fold in the outcome of the previous round.
        if let Some(outcome) = ctx.last_outcome {
            let prev = *ctx.history.last().expect("outcome implies history");
            if outcome.stored() {
                self.a = prev;
            } else {
                self.b = prev;
            }
        }
        if self.b.saturating_sub(self.a) < 2 {
            self.exhausted = true;
            return self.a;
        }
        // x = ⌊a + (1 − p')(b − a)⌋, kept strictly inside (a, b).
        let span = (self.b - self.a) as f64;
        let x = self.a + ((1.0 - self.p_prime) * span) as u64;
        x.clamp(self.a + 1, self.b - 1)
    }

    fn name(&self) -> &'static str {
        "figure3-attack"
    }
}

// ---------------------------------------------------------------------------
// The introduction's bisection attack over [0,1]
// ---------------------------------------------------------------------------

/// The paper's introductory attack on `[0, 1]`: submit the midpoint of the
/// working range; if it was stored, recurse into the upper half, else into
/// the lower half. After `n` rounds, **with probability 1** the Bernoulli
/// sample is exactly the set of smallest elements of the stream.
///
/// Elements are exact [`Dyadic`] rationals, so the attack needs (and
/// consumes) one bit of precision per round — the exponential-universe
/// behaviour the paper uses to motivate the discrete analysis.
#[derive(Debug, Clone, Default)]
pub struct BisectionAdversary {
    /// The lower endpoint of the working dyadic interval
    /// `[prefix, prefix + 2^-depth)`.
    prefix: Dyadic,
}

impl BisectionAdversary {
    /// Start with the full interval `[0, 1)`.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Adversary<Dyadic> for BisectionAdversary {
    fn next(&mut self, ctx: &RoundContext<'_, Dyadic>) -> Dyadic {
        if let Some(outcome) = ctx.last_outcome {
            // Previous midpoint was prefix·1; stored ⇒ move to upper half
            // (prefix := prefix·1), else lower half (prefix := prefix·0).
            self.prefix = self.prefix.child(outcome.stored());
        }
        self.prefix.child(true)
    }

    fn name(&self) -> &'static str {
        "bisection"
    }
}

/// The Figure 3 attack in its *unbounded-precision* habitat: the working
/// interval is a dyadic atom `[prefix, prefix + 2^-d)` and the probe is
/// its `(1 − 2^-t)`-quantile (`t` appended one-bits), i.e. the asymmetric
/// split with `p' = 2^-t`. [`BisectionAdversary`] is the `t = 1` case.
///
/// Unlike [`DiscreteAttackAdversary`], this adversary **never exhausts**:
/// every stored probe costs `t` bits of precision and every skipped probe
/// one bit, and [`Dyadic`] precision is unlimited. This is exactly the
/// paper's point that over (effectively) infinite universes the attack
/// defeats *any* strongly sublinear sample size — experiment E1 uses it to
/// crush theorem-sized reservoirs that the discrete attack cannot touch.
#[derive(Debug, Clone)]
pub struct GeneralizedBisectionAdversary {
    prefix: Dyadic,
    t: usize,
}

impl GeneralizedBisectionAdversary {
    /// Attack with probe quantile `1 − 2^-t`.
    ///
    /// # Panics
    ///
    /// Panics if `t == 0`.
    pub fn with_tail_bits(t: usize) -> Self {
        assert!(t > 0, "need at least one probe bit");
        Self {
            prefix: Dyadic::zero(),
            t,
        }
    }

    /// Tune `t` against a Bernoulli sampler: `p' = max(p, ln n / n)` per
    /// Figure 3, then `t = max(1, ⌊log₂(1/p')⌋)`.
    pub fn for_bernoulli(p: f64, n: usize) -> Self {
        assert!(n >= 2, "attack needs n >= 2");
        let p_prime = p.max((n as f64).ln() / n as f64).clamp(1e-12, 0.5);
        Self::with_tail_bits(((1.0 / p_prime).log2().floor() as usize).max(1))
    }

    /// Tune `t` against a reservoir of capacity `k` over `n` rounds:
    /// the reservoir inserts ≈ `k·ln(n/k)` times, so the per-round
    /// insertion intensity is `p' ≈ k·ln(n/k)/n`.
    pub fn for_reservoir(k: usize, n: usize) -> Self {
        assert!(n >= 2 && k >= 1, "attack needs n >= 2, k >= 1");
        let kp = k as f64 * (1.0 + (n as f64 / k as f64).max(1.0).ln());
        let p_prime = (kp / n as f64).clamp(1e-12, 0.5);
        Self::with_tail_bits(((1.0 / p_prime).log2().floor() as usize).max(1))
    }

    /// The probe depth parameter `t` (`p' = 2^-t`).
    #[inline]
    pub fn tail_bits(&self) -> usize {
        self.t
    }
}

impl Adversary<Dyadic> for GeneralizedBisectionAdversary {
    fn next(&mut self, ctx: &RoundContext<'_, Dyadic>) -> Dyadic {
        if let Some(outcome) = ctx.last_outcome {
            if outcome.stored() {
                // New interval [probe, top): the atom below the old top.
                self.prefix = self.prefix.child_ones(self.t);
            } else {
                // New interval ⊆ [prefix, probe): keep the lower half atom.
                self.prefix = self.prefix.child(false);
            }
        }
        self.prefix.child_ones(self.t)
    }

    fn name(&self) -> &'static str {
        "generalized-bisection"
    }
}

// ---------------------------------------------------------------------------
// Greedy heuristic adversary
// ---------------------------------------------------------------------------

/// A best-effort heuristic adversary for stress-testing the Theorem 1.2
/// upper bound: it periodically finds the current prefix-discrepancy
/// witness `b*` between its stream-so-far and the visible sample, and then
/// floods the side of `b*` that *amplifies* the signed error.
///
/// If the sample under-represents `[0, b*]` (`d(X) − d(S) > 0`), the
/// adversary submits elements just inside `[0, b*]`; mass it adds there
/// raises `d_X` faster than `d_S` rises in expectation (new elements are
/// sampled at the going rate), sustaining the gap. This is not a provably
/// optimal strategy — none is needed; Theorem 1.2 holds against all — but
/// it is markedly stronger than oblivious streams in practice.
#[derive(Debug)]
pub struct GreedyDiscrepancyAdversary {
    universe: u64,
    recompute_every: usize,
    /// Cached target value and side (+1: flood below, −1: flood above).
    target: u64,
    side: i8,
    rng: StdRng,
}

impl GreedyDiscrepancyAdversary {
    /// Greedy adversary over `{0, …, universe−1}`, recomputing its witness
    /// every `recompute_every` rounds (the recompute costs
    /// `O((i + |S|) log)`; 32–128 is a good stride).
    ///
    /// # Panics
    ///
    /// Panics if `universe < 2` or `recompute_every == 0`.
    pub fn new(universe: u64, recompute_every: usize, seed: u64) -> Self {
        assert!(universe >= 2, "universe too small");
        assert!(recompute_every > 0, "stride must be positive");
        Self {
            universe,
            recompute_every,
            target: universe / 2,
            side: 1,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn recompute(&mut self, history: &[u64], sample: &[u64]) {
        if history.is_empty() || sample.is_empty() {
            return;
        }
        // Signed CDF sweep: find b maximizing |F_X(b) − F_S(b)|.
        let mut xs = history.to_vec();
        let mut ss = sample.to_vec();
        xs.sort_unstable();
        ss.sort_unstable();
        let (mut i, mut j) = (0usize, 0usize);
        let mut best = 0.0f64;
        let mut best_b = self.universe / 2;
        let mut best_side = 1i8;
        while i < xs.len() || j < ss.len() {
            let v = match (xs.get(i), ss.get(j)) {
                (Some(&a), Some(&b)) => a.min(b),
                (Some(&a), None) => a,
                (None, Some(&b)) => b,
                (None, None) => unreachable!(),
            };
            while i < xs.len() && xs[i] <= v {
                i += 1;
            }
            while j < ss.len() && ss[j] <= v {
                j += 1;
            }
            let d = i as f64 / xs.len() as f64 - j as f64 / ss.len() as f64;
            if d.abs() > best {
                best = d.abs();
                best_b = v;
                best_side = if d > 0.0 { 1 } else { -1 };
            }
        }
        self.target = best_b;
        self.side = best_side;
    }
}

impl Adversary<u64> for GreedyDiscrepancyAdversary {
    fn next(&mut self, ctx: &RoundContext<'_, u64>) -> u64 {
        if ctx.round % self.recompute_every == 1 || ctx.round == 1 {
            self.recompute(ctx.history, ctx.sample);
        }
        if self.side > 0 {
            // Flood just inside [0, target].
            self.rng.random_range(0..=self.target)
        } else {
            // Flood above target.
            let lo = (self.target + 1).min(self.universe - 1);
            self.rng.random_range(lo..self.universe)
        }
    }

    fn name(&self) -> &'static str {
        "greedy-discrepancy"
    }
}

// ---------------------------------------------------------------------------
// Quantile hunter
// ---------------------------------------------------------------------------

/// An adaptive adversary specialised against quantile sketches (experiment
/// E6): it watches the sample's current median and keeps submitting
/// elements on one side of it, forcing the *stream's* median to drift away
/// from the frozen sample unless the sampler keeps up.
#[derive(Debug)]
pub struct QuantileHunterAdversary {
    universe: u64,
    rng: StdRng,
}

impl QuantileHunterAdversary {
    /// Hunter over `{0, …, universe−1}`.
    ///
    /// # Panics
    ///
    /// Panics if `universe < 2`.
    pub fn new(universe: u64, seed: u64) -> Self {
        assert!(universe >= 2, "universe too small");
        Self {
            universe,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Adversary<u64> for QuantileHunterAdversary {
    fn next(&mut self, ctx: &RoundContext<'_, u64>) -> u64 {
        if ctx.sample.is_empty() {
            return self.rng.random_range(0..self.universe);
        }
        let mut s = ctx.sample.to_vec();
        s.sort_unstable();
        let median = s[s.len() / 2];
        // Push stream mass strictly above the sample's median so the true
        // median climbs while the sample's stays put.
        let lo = median.saturating_add(1).min(self.universe - 1);
        self.rng.random_range(lo..self.universe)
    }

    fn name(&self) -> &'static str {
        "quantile-hunter"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::prefix_discrepancy;
    use crate::game::AdaptiveGame;
    use crate::sampler::{BernoulliSampler, ReservoirSampler};

    #[test]
    fn figure3_attack_traps_bernoulli_sample_below_rest() {
        // A u64 universe offers only ln N ≈ 43 nats of precision, so — as
        // the paper stresses — the attack only fits sub-threshold rates on
        // short streams: the budget is ≈ |S|·ln(1/p') + n·p' nats. Theorem
        // 1.3 guarantees success with probability ≥ 1/2; demand ≥ 3/5 seeds.
        let n = 300usize;
        let universe = 1u64 << 62;
        let p = 0.01;
        let mut successes = 0;
        for seed in 0..5 {
            let mut adv = DiscreteAttackAdversary::for_bernoulli(p, n, universe);
            let mut sampler = BernoulliSampler::with_seed(p, seed);
            let out = AdaptiveGame::new(n).run(&mut sampler, &mut adv);
            if adv.exhausted() || out.sample.is_empty() {
                continue;
            }
            // Claim 5.2: every sampled element < every non-sampled element.
            let max_sampled = out.sample.iter().max().copied().unwrap();
            let min_unsampled = out
                .stream
                .iter()
                .filter(|x| !out.sample.contains(x))
                .min()
                .copied()
                .unwrap();
            assert!(
                max_sampled < min_unsampled,
                "sampled {max_sampled} >= unsampled {min_unsampled}"
            );
            // Discrepancy is exactly 1 − |S|/n when the trap closes.
            let d = prefix_discrepancy(&out.stream, &out.sample).value;
            let expect = 1.0 - out.sample.len() as f64 / n as f64;
            assert!((d - expect).abs() < 1e-9, "d={d}, expect {expect}");
            successes += 1;
        }
        assert!(successes >= 3, "attack landed only {successes}/5 times");
    }

    #[test]
    fn figure3_attack_crushes_reservoir() {
        // Same precision accounting: k = 1 over n = 200 stays inside the
        // u64 budget (k' ≈ 1 + ln n insertions at ~3 nats each, plus n·p').
        let n = 200usize;
        let k = 1;
        let universe = 1u64 << 62;
        let mut successes = 0;
        for seed in 0..6 {
            let mut adv = DiscreteAttackAdversary::for_reservoir(k, n, universe);
            let mut sampler = ReservoirSampler::with_seed(k, seed);
            let out = AdaptiveGame::new(n).run(&mut sampler, &mut adv);
            if adv.exhausted() {
                continue;
            }
            // Paper §5: residents are among the k' smallest stream elements.
            let mut sorted = out.stream.clone();
            sorted.sort_unstable();
            let kp = out.total_stored;
            let cutoff = sorted[kp - 1];
            for s in &out.sample {
                assert!(*s <= cutoff, "resident {s} above the k'-smallest cutoff");
            }
            let d = prefix_discrepancy(&out.stream, &out.sample).value;
            assert!(d > 0.5, "attack landed but discrepancy only {d}");
            successes += 1;
        }
        assert!(successes >= 3, "attack landed only {successes}/6 times");
    }

    #[test]
    fn figure3_attack_exhausts_on_tiny_universe() {
        // N far below n^6 ln n: Claim 5.1's precondition fails and the
        // interval must collapse.
        let n = 10_000usize;
        let mut adv = DiscreteAttackAdversary::for_bernoulli(0.05, n, 1 << 10);
        let mut sampler = BernoulliSampler::with_seed(0.05, 5);
        let _ = AdaptiveGame::new(n).run(&mut sampler, &mut adv);
        assert!(adv.exhausted(), "tiny universe should exhaust the attack");
    }

    #[test]
    fn bisection_makes_bernoulli_sample_exactly_smallest() {
        // The introduction's claim: with probability 1, the sampled set is
        // precisely the |S| smallest stream elements.
        let n = 1_500usize;
        let mut adv = BisectionAdversary::new();
        let mut sampler = BernoulliSampler::with_seed(0.02, 123);
        let out = AdaptiveGame::new(n).run(&mut sampler, &mut adv);
        let mut sorted = out.stream.clone();
        sorted.sort();
        let s = out.sample.len();
        assert!(s > 0, "degenerate: nothing sampled");
        let mut sample_sorted = out.sample.clone();
        sample_sorted.sort();
        assert_eq!(
            sample_sorted,
            sorted[..s].to_vec(),
            "sample is not the set of smallest elements"
        );
    }

    #[test]
    fn bisection_elements_are_all_distinct() {
        let n = 300usize;
        let mut adv = BisectionAdversary::new();
        let mut sampler = BernoulliSampler::with_seed(0.1, 5);
        let out = AdaptiveGame::new(n).run(&mut sampler, &mut adv);
        let mut uniq = out.stream.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), n);
    }

    #[test]
    fn generalized_bisection_traps_large_reservoir() {
        // A theorem-scale reservoir (k = 64) over a modest stream: the
        // discrete attack cannot fit this in u64 precision, but the dyadic
        // attack must trap every resident among the k' smallest elements,
        // with certainty (no exhaustion event exists).
        let n = 3_000usize;
        let k = 64;
        let mut adv = GeneralizedBisectionAdversary::for_reservoir(k, n);
        let mut sampler = ReservoirSampler::with_seed(k, 11);
        let out = AdaptiveGame::new(n).run(&mut sampler, &mut adv);
        let mut sorted = out.stream.clone();
        sorted.sort();
        let cutoff = &sorted[out.total_stored - 1];
        for s in &out.sample {
            assert!(s <= cutoff, "resident above the k'-smallest cutoff");
        }
        let d = prefix_discrepancy(&out.stream, &out.sample).value;
        // k' ≈ k(1 + ln(n/k)) ≈ 310, so d ≥ 1 − k'/n ≈ 0.9.
        assert!(d > 0.8, "attack too weak: discrepancy {d}");
    }

    #[test]
    fn generalized_bisection_for_bernoulli_picks_sane_tail_bits() {
        // p' = max(p, ln n / n); t = floor(log2(1/p')).
        let adv = GeneralizedBisectionAdversary::for_bernoulli(0.25, 10_000);
        assert_eq!(adv.tail_bits(), 2); // 1/0.25 = 4 -> t = 2
        let adv = GeneralizedBisectionAdversary::for_bernoulli(1e-9, 100);
        // ln(100)/100 ≈ 0.046 dominates the tiny p: t = floor(log2(21.7)) = 4.
        assert_eq!(adv.tail_bits(), 4);
        // t never collapses to 0 even for p near 1/2.
        let adv = GeneralizedBisectionAdversary::for_bernoulli(0.5, 100);
        assert!(adv.tail_bits() >= 1);
    }

    #[test]
    fn generalized_bisection_traps_bernoulli_too() {
        let n = 600usize;
        let p = 0.03;
        let mut adv = GeneralizedBisectionAdversary::for_bernoulli(p, n);
        let mut sampler = BernoulliSampler::with_seed(p, 8);
        let out = AdaptiveGame::new(n).run(&mut sampler, &mut adv);
        let s = out.sample.len();
        assert!(s > 0);
        let mut sorted = out.stream.clone();
        sorted.sort();
        let mut sample_sorted = out.sample.clone();
        sample_sorted.sort();
        assert_eq!(sample_sorted, sorted[..s].to_vec());
    }

    #[test]
    fn generalized_bisection_t1_matches_plain_bisection_semantics() {
        // t = 1 must reproduce the plain bisection: sample = |S| smallest.
        let n = 800usize;
        let mut adv = GeneralizedBisectionAdversary::with_tail_bits(1);
        let mut sampler = BernoulliSampler::with_seed(0.05, 21);
        let out = AdaptiveGame::new(n).run(&mut sampler, &mut adv);
        let mut sorted = out.stream.clone();
        sorted.sort();
        let s = out.sample.len();
        let mut sample_sorted = out.sample.clone();
        sample_sorted.sort();
        assert_eq!(sample_sorted, sorted[..s].to_vec());
    }

    #[test]
    fn greedy_adversary_is_stronger_than_random() {
        // Same sampler budget; the greedy adversary should induce at least
        // as much discrepancy as an oblivious uniform stream (usually much
        // more for undersized samplers).
        let n = 3_000usize;
        let universe = 1 << 16;
        let k = 10;
        let mut rand_total = 0.0;
        let mut greedy_total = 0.0;
        for seed in 0..5 {
            let mut s1 = ReservoirSampler::with_seed(k, seed);
            let mut a1 = RandomAdversary::new(universe, 100 + seed);
            let o1 = AdaptiveGame::new(n).run(&mut s1, &mut a1);
            rand_total += prefix_discrepancy(&o1.stream, &o1.sample).value;

            let mut s2 = ReservoirSampler::with_seed(k, seed);
            let mut a2 = GreedyDiscrepancyAdversary::new(universe, 64, 200 + seed);
            let o2 = AdaptiveGame::new(n).run(&mut s2, &mut a2);
            greedy_total += prefix_discrepancy(&o2.stream, &o2.sample).value;
        }
        assert!(
            greedy_total >= rand_total,
            "greedy {greedy_total} < random {rand_total}"
        );
    }

    #[test]
    fn quantile_hunter_displaces_median_of_tiny_sample() {
        let n = 2_000usize;
        let universe = 1 << 20;
        let mut sampler = ReservoirSampler::with_seed(4, 2);
        let mut adv = QuantileHunterAdversary::new(universe, 3);
        let out = AdaptiveGame::new(n).run(&mut sampler, &mut adv);
        let d = prefix_discrepancy(&out.stream, &out.sample).value;
        assert!(d > 0.25, "hunter too weak: discrepancy {d}");
    }

    #[test]
    fn source_adversary_matches_static_adversary() {
        use robust_sampling_streamgen::{SliceSource, TwoPhaseSource};
        let n = 2_000usize;
        let stream = robust_sampling_streamgen::two_phase(n, 1 << 16, 9);
        // Same sampler seed + same elements => identical outcomes, whether
        // the stream is pre-materialized or pulled lazily in tiny frames.
        let mut s1 = ReservoirSampler::with_seed(32, 4);
        let mut a1 = StaticAdversary::new(stream.clone());
        let o1 = AdaptiveGame::new(n).run(&mut s1, &mut a1);
        let mut s2 = ReservoirSampler::with_seed(32, 4);
        let mut a2 = SourceAdversary::with_frame(SliceSource::new(&stream), 7);
        let o2 = AdaptiveGame::new(n).run(&mut s2, &mut a2);
        assert_eq!(o1.stream, o2.stream);
        assert_eq!(o1.sample, o2.sample);
        // A generator source plugged straight in produces the same stream
        // it would materialize.
        let mut s3 = ReservoirSampler::with_seed(32, 4);
        let mut a3 = SourceAdversary::new(TwoPhaseSource::new(n, 1 << 16, 9));
        let o3 = AdaptiveGame::new(n).run(&mut s3, &mut a3);
        assert_eq!(o3.stream, stream);
        assert_eq!(o3.sample, o1.sample);
        assert_eq!(Adversary::<u64>::name(&a3), "two-phase");
    }

    #[test]
    #[should_panic(expected = "exhausted before the game ended")]
    fn source_adversary_panics_on_short_source() {
        let stream: Vec<u64> = (0..10).collect();
        let mut adv = SourceAdversary::new(robust_sampling_streamgen::SliceSource::new(&stream));
        let mut sampler = BernoulliSampler::with_seed(0.5, 1);
        let _ = AdaptiveGame::new(11).run(&mut sampler, &mut adv);
    }

    #[test]
    fn sorted_adversary_covers_universe() {
        let mut adv = SortedAdversary::new(1000);
        let mut sampler = BernoulliSampler::with_seed(0.5, 1);
        let out = AdaptiveGame::new(500).run(&mut sampler, &mut adv);
        assert!(out.stream.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(out.stream[0], 0);
        assert!(*out.stream.last().unwrap() >= 990);
    }
}
