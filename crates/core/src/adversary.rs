//! Adversarial strategies.
//!
//! The paper's adversary is an arbitrary probabilistic process that sees
//! the sampler's state `σ_{i−1}` (and everything it sent before) and picks
//! the next element. This module holds the [`Adversary`] interface the
//! games of [`crate::game`] play, and the adversaries that live only
//! there:
//!
//! * [`BisectionAdversary`] — the **introduction's attack** over the real
//!   interval `[0,1]`, run exactly with arbitrary-precision
//!   [dyadic rationals](crate::dyadic), and its asymmetric-split
//!   generalisation [`GeneralizedBisectionAdversary`];
//! * benign baselines: [`StaticAdversary`] (a fixed stream, the paper's
//!   static setting), [`SourceAdversary`] (a lazy workload source) and
//!   [`RandomAdversary`].
//!
//! The u64 attacks — the Figure 3 attack of Theorem 1.3 and the adaptive
//! stress strategies for Theorem 1.2 — are the registered
//! [`AttackStrategy`](crate::attack::AttackStrategy)s of
//! [`crate::attack`]; the games play them through
//! [`AttackAdversary`](crate::attack::AttackAdversary).

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
/// Unlike the u64 [`BisectionAttack`](crate::attack::BisectionAttack),
/// this adversary **never exhausts**:
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::prefix_discrepancy;
    use crate::game::AdaptiveGame;
    use crate::sampler::{BernoulliSampler, ReservoirSampler};

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
}
