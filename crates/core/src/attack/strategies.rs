//! The registered attack strategies.
//!
//! Each strategy is a small state machine implementing
//! [`AttackStrategy`]: deterministic per seed, observing only what
//! [`AttackContext`] exposes. Each attack has one implementation: the
//! duel loop plays it against any defense, and the experiment binaries
//! play it in the Figure 1/2 games through
//! [`AttackAdversary`](super::AttackAdversary). See each type's docs for
//! the theorem it leans on and the defense class it is expected to break.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use robust_sampling_streamgen::source::StreamSource;

use super::{AttackContext, AttackStrategy};

/// The paper's Figure 3 shrinking-interval attack (Theorem 1.3) over
/// `U = [N]`:
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
/// every discarded element is `≥ bᵢ`, so at the end the sample consists
/// of (a subset of) the smallest elements ever submitted.
///
/// Storedness is inferred by *membership*: the previous probe appears in
/// the visible sample iff it was stored. Probes are pairwise distinct
/// until exhaustion, so the inference is exact, and the attack needs no
/// sampler-specific insertion report — which is what lets it duel
/// arbitrary [`ObservableDefense`](super::ObservableDefense)s.
///
/// Over a 64-bit universe the precision budget is `ln N ≈ 44` nats
/// (Claim 5.1 wants `N ≥ n⁶ ln n`), so against all but the smallest
/// summaries the working interval collapses and the attack degrades to
/// flooding `a` — the expected, theorem-consistent outcome documented in
/// the robustness matrix. The dyadic
/// [`BisectionAdversary`](crate::adversary::BisectionAdversary) in
/// experiment E1 is the same attack with unbounded precision.
#[derive(Debug, Clone)]
pub struct BisectionAttack {
    a: u64,
    b: u64,
    p_prime: f64,
    prev: Option<u64>,
    exhausted: bool,
}

impl BisectionAttack {
    /// Attack with an explicit splitting fraction `p' ∈ (0, 1)` over
    /// `{0, …, universe−1}`.
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
            prev: None,
            exhausted: false,
        }
    }

    /// The attack against [`BernoulliSampler`] with rate `p`:
    /// `p' = max(p, ln n / n)` exactly as in Figure 3. At `p = 0` this is
    /// the registry's `bisection` row, `p' = ln n / n`, the threshold rate
    /// below which Theorem 1.3 applies.
    ///
    /// # Panics
    ///
    /// Panics if `universe < 4`, `n < 2` or `p ≥ 1`.
    ///
    /// [`BernoulliSampler`]: crate::sampler::BernoulliSampler
    pub fn for_bernoulli(p: f64, n: usize, universe: u64) -> Self {
        assert!(n >= 2, "attack needs n >= 2");
        Self::with_split(p.max((n as f64).ln() / n as f64), universe)
    }

    /// The attack against [`ReservoirSampler`] with capacity `k`.
    ///
    /// The reservoir stores round `i`'s element with probability `k/i`,
    /// and the total number of insertions concentrates below
    /// `k' ≤ 4k·ln n` (paper §5). The split spends the `ln N` precision
    /// budget evenly across those `k'` insertions:
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

    /// Whether the working interval collapsed before the stream ended
    /// (the event Claim 5.1 bounds).
    #[inline]
    pub fn exhausted(&self) -> bool {
        self.exhausted
    }

    /// The splitting fraction `p'` in use.
    #[inline]
    pub fn p_prime(&self) -> f64 {
        self.p_prime
    }
}

impl AttackStrategy for BisectionAttack {
    fn next(&mut self, ctx: &AttackContext<'_>) -> u64 {
        if let Some(prev) = self.prev {
            if ctx.sample.contains(&prev) {
                self.a = prev;
            } else {
                self.b = prev;
            }
        }
        if self.b.saturating_sub(self.a) < 2 {
            self.exhausted = true;
            self.prev = Some(self.a);
            return self.a;
        }
        let span = (self.b - self.a) as f64;
        let x = self.a + ((1.0 - self.p_prime) * span) as u64;
        let x = x.clamp(self.a + 1, self.b - 1);
        self.prev = Some(x);
        x
    }

    fn name(&self) -> &'static str {
        "bisection"
    }
}

/// The E13 linear-sketch attack (Hardt–Woodruff-style), ported onto the
/// duel interface: read the defense's hash structure through
/// [`StateOracle::row_colliders`](super::StateOracle::row_colliders),
/// then interleave one decoy per row with innocuous background traffic.
/// The victim id lives *outside* the nominal universe, so "never sent"
/// is literal — yet a Count-Min defense certifies it as heavy.
///
/// Against defenses with no hash structure (the oracle returns `None`)
/// the attack degrades to its background traffic: an oblivious uniform
/// stream, which robust samplers shrug off — exactly the E13 contrast.
#[derive(Debug)]
pub struct ColliderAttack {
    seed: u64,
    rng: StdRng,
    /// `None` until the first round mines the defense.
    decoys: Option<Vec<u64>>,
    sent: usize,
}

/// Offset of the phantom victim above the universe bound.
const VICTIM_OFFSET: u64 = 777_777;

impl ColliderAttack {
    /// Collision-mining attack seeded for its background traffic.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            rng: StdRng::seed_from_u64(seed),
            decoys: None,
            sent: 0,
        }
    }

    /// The phantom victim id for a given universe bound (outside it).
    pub fn victim(universe: u64) -> u64 {
        universe + VICTIM_OFFSET
    }

    /// The mined decoys, once round 1 has run (`None` before; empty if
    /// the defense exposed no hash structure).
    pub fn decoys(&self) -> Option<&[u64]> {
        self.decoys.as_deref()
    }
}

impl AttackStrategy for ColliderAttack {
    fn next(&mut self, ctx: &AttackContext<'_>) -> u64 {
        let victim = Self::victim(ctx.universe);
        let decoys = self.decoys.get_or_insert_with(|| {
            // Mine one collider per hash row; search above the victim so
            // decoys are distinct from it and from all background ids.
            ctx.oracle
                .row_colliders(victim, victim + 1)
                .unwrap_or_default()
        });
        if !decoys.is_empty() && ctx.round.is_multiple_of(2) {
            let d = decoys[self.sent % decoys.len()];
            self.sent += 1;
            d
        } else {
            self.rng.random_range(0..ctx.universe)
        }
    }

    fn name(&self) -> &'static str {
        "collider"
    }

    // `seed` is carried so Debug output identifies the instance; the RNG
    // itself is the live state.
}

impl ColliderAttack {
    /// The seed this instance was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// Greedy Kolmogorov–Smirnov witness amplification, specialised for the
/// prefix system and the continuous game (Theorems 1.2/1.4 stress): every
/// `stride` rounds, recompute the value `b*` maximising the signed gap
/// `F_history(b) − F_sample(b)` between the submitted stream and the
/// visible sample, then flood the side of `b*` that widens the gap.
///
/// Not provably optimal — Theorem 1.2 must hold against *every* strategy
/// — but markedly stronger than oblivious streams against undersized
/// summaries, and the strongest registered attack in the continuous
/// (every-prefix) game, where each checkpoint inherits the accumulated
/// skew.
#[derive(Debug)]
pub struct PrefixMassAttack {
    stride: usize,
    target: u64,
    side: i8,
    rng: StdRng,
}

impl PrefixMassAttack {
    /// Witness-chasing attack recomputing every `stride` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0`.
    pub fn new(stride: usize, seed: u64) -> Self {
        assert!(stride > 0, "stride must be positive");
        Self {
            stride,
            target: 0,
            side: 1,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn recompute(&mut self, ctx: &AttackContext<'_>) {
        self.target = ctx.universe / 2;
        if ctx.history.is_empty() || ctx.sample.is_empty() {
            return;
        }
        let mut xs = ctx.history.to_vec();
        let mut ss = ctx.sample.to_vec();
        xs.sort_unstable();
        ss.sort_unstable();
        let (mut i, mut j) = (0usize, 0usize);
        let mut best = 0.0f64;
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
                self.target = v;
                self.side = if d > 0.0 { 1 } else { -1 };
            }
        }
    }
}

impl AttackStrategy for PrefixMassAttack {
    fn next(&mut self, ctx: &AttackContext<'_>) -> u64 {
        // Rounds 1, 1+stride, 1+2·stride, … (this form also recomputes
        // every round at stride = 1, where `round % stride == 1` never
        // fires).
        if (ctx.round - 1).is_multiple_of(self.stride) {
            self.recompute(ctx);
        }
        if self.side > 0 {
            self.rng.random_range(0..=self.target.min(ctx.universe - 1))
        } else {
            let lo = (self.target + 1).min(ctx.universe - 1);
            self.rng.random_range(lo..ctx.universe)
        }
    }

    fn name(&self) -> &'static str {
        "prefix-mass"
    }
}

/// Median hunting against quantile summaries (Corollary 1.5's clients):
/// read the defense's *current median answer* — through
/// [`StateOracle::quantile_estimate`](super::StateOracle::quantile_estimate)
/// when the defense answers quantile queries, else the visible sample's
/// median — and flood strictly above it, so the stream's true median
/// climbs while a summary that under-refreshes stays anchored.
///
/// Against GK/KLL/merge-reduce (no retained sample exposed) the oracle
/// query is what makes the attack adaptive; in the games, where the
/// bridge exposes only the sample, it hunts the sample's median.
#[derive(Debug)]
pub struct MedianHuntAttack {
    rng: StdRng,
}

impl MedianHuntAttack {
    /// Median hunter with seeded flood traffic.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn observed_median(ctx: &AttackContext<'_>) -> Option<u64> {
        if let Some(m) = ctx.oracle.quantile_estimate(0.5) {
            return Some(m);
        }
        if ctx.sample.is_empty() {
            return None;
        }
        let mut s = ctx.sample.to_vec();
        s.sort_unstable();
        Some(s[s.len() / 2])
    }
}

impl AttackStrategy for MedianHuntAttack {
    fn next(&mut self, ctx: &AttackContext<'_>) -> u64 {
        match Self::observed_median(ctx) {
            Some(median) => {
                let lo = median.saturating_add(1).min(ctx.universe - 1);
                self.rng.random_range(lo..ctx.universe)
            }
            None => self.rng.random_range(0..ctx.universe),
        }
    }

    fn name(&self) -> &'static str {
        "median-hunt"
    }
}

/// Eviction pumping against counter summaries (Misra–Gries,
/// SpaceSaving): build up a genuinely heavy victim for the first fifth
/// of the stream, then flood pairwise-distinct never-repeated values,
/// each of which decrements (MG) or displaces (SpaceSaving) the tracked
/// counters. The attack watches the visible counter set and, whenever the
/// victim has been evicted, probes it again — re-inserting it at
/// SpaceSaving's inflated `min+1` floor.
///
/// Deterministic counter summaries cannot be pushed *past* their
/// worst-case bounds (`n/(k+1)` undercount for MG, `n/k` overcount for
/// SpaceSaving — they hold against every adversary, adaptive included);
/// this strategy *saturates* those bounds, which is exactly what the
/// robustness matrix documents for them.
#[derive(Debug)]
pub struct EvictionPumpAttack {
    /// Next fresh never-repeated value (monotone).
    fresh: u64,
    victim: Option<u64>,
}

/// Offset above the universe where the fresh-value flood starts (disjoint
/// from background ids and from the collider victim range).
const FRESH_OFFSET: u64 = 10_000_000;

impl EvictionPumpAttack {
    /// Eviction pump (deterministic — no random traffic is needed).
    pub fn new() -> Self {
        Self {
            fresh: 0,
            victim: None,
        }
    }

    /// The victim id for a given universe bound (inside the universe, so
    /// frequency judges count it as ordinary traffic).
    pub fn victim(universe: u64) -> u64 {
        universe / 3
    }
}

impl Default for EvictionPumpAttack {
    fn default() -> Self {
        Self::new()
    }
}

impl AttackStrategy for EvictionPumpAttack {
    fn next(&mut self, ctx: &AttackContext<'_>) -> u64 {
        let victim = *self.victim.get_or_insert(Self::victim(ctx.universe));
        if ctx.round <= ctx.n / 5 {
            return victim;
        }
        // Adaptive probe: if the victim fell out of the tracked set,
        // re-submit it (SpaceSaving re-admits at min+1 — an overcount
        // the attack pumps); otherwise keep the eviction pressure on.
        if ctx.round.is_multiple_of(64) && !ctx.sample.contains(&victim) {
            return victim;
        }
        let x = ctx.universe + FRESH_OFFSET + self.fresh;
        self.fresh += 1;
        x
    }

    fn name(&self) -> &'static str {
        "eviction-pump"
    }
}

/// The non-adaptive control: replays a scenario-registry workload
/// through the attack interface, ignoring the defense's state entirely.
/// Whatever gap the matrix shows between this row and the adaptive rows
/// *is* the paper's adaptivity premium.
///
/// Per seed, the emitted stream is element-identical to
/// [`materialize`](robust_sampling_streamgen::source::materialize) of the
/// underlying source (pinned by `tests/attack_registry.rs`).
pub struct ReplayAttack {
    source: Box<dyn StreamSource + Send>,
    buf: Vec<u64>,
    pos: usize,
    name: &'static str,
}

impl std::fmt::Debug for ReplayAttack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplayAttack")
            .field("name", &self.name)
            .field("buffered", &(self.buf.len() - self.pos))
            .finish()
    }
}

/// Frame pulled per refill — small, so the control's memory profile
/// matches the adaptive strategies'.
const REPLAY_FRAME: usize = 1 << 10;

impl ReplayAttack {
    /// Replay a workload source under the given registry name.
    pub fn new(name: &'static str, source: Box<dyn StreamSource + Send>) -> Self {
        Self {
            source,
            buf: Vec::new(),
            pos: 0,
            name,
        }
    }

    /// Replay the named scenario-registry workload (`n` elements over
    /// `universe`, at `seed`).
    ///
    /// # Panics
    ///
    /// Panics if `workload` is not a registered scenario or `attack_name`
    /// is empty.
    pub fn from_workload(
        attack_name: &'static str,
        workload: &str,
        n: usize,
        universe: u64,
        seed: u64,
    ) -> Self {
        let spec = robust_sampling_streamgen::workload(workload)
            .unwrap_or_else(|| panic!("unregistered workload {workload:?}"));
        Self::new(attack_name, spec.source(n, universe, seed))
    }
}

impl AttackStrategy for ReplayAttack {
    fn next(&mut self, _ctx: &AttackContext<'_>) -> u64 {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
            let got = self.source.next_chunk(&mut self.buf, REPLAY_FRAME);
            assert!(got > 0, "replay source exhausted before the duel ended");
        }
        let x = self.buf[self.pos];
        self.pos += 1;
        x
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::prefix_discrepancy;
    use crate::attack::{attack, AttackAdversary, Duel};
    use crate::game::AdaptiveGame;
    use crate::sampler::{BernoulliSampler, ReservoirSampler, StreamSampler};

    #[test]
    fn bisection_traps_a_tiny_bernoulli_sample() {
        // A u64 universe offers only ln N ≈ 43 nats of precision, so the
        // attack only fits sub-threshold rates on short streams. Theorem
        // 1.3 guarantees success with probability ≥ 1/2; demand ≥ 3/5.
        let n = 300usize;
        let universe = 1u64 << 62;
        let mut wins = 0;
        for seed in 0..5u64 {
            let mut atk = BisectionAttack::with_split(0.019, universe);
            let mut defense = BernoulliSampler::<u64>::with_seed(0.01, seed);
            let out = Duel::new(n, universe).run(&mut defense, &mut atk);
            if atk.exhausted() || out.final_sample.is_empty() {
                continue;
            }
            // Claim 5.2: every sampled element < every non-sampled element.
            let max_sampled = out.final_sample.iter().max().copied().unwrap();
            let min_unsampled = out
                .stream
                .iter()
                .filter(|x| !out.final_sample.contains(x))
                .min()
                .copied()
                .unwrap();
            assert!(max_sampled < min_unsampled);
            // Discrepancy is exactly 1 − |S|/n when the trap closes.
            let d = prefix_discrepancy(&out.stream, &out.final_sample).value;
            let expect = 1.0 - out.final_sample.len() as f64 / n as f64;
            assert!((d - expect).abs() < 1e-9, "d={d}, expect {expect}");
            wins += 1;
        }
        assert!(wins >= 3, "attack landed only {wins}/5 times");
    }

    #[test]
    fn bisection_crushes_a_tiny_reservoir() {
        // Same precision accounting: k = 1 over n = 200 stays inside the
        // u64 budget (k' ≈ 1 + ln n insertions at ~3 nats each, plus n·p').
        let n = 200usize;
        let k = 1;
        let universe = 1u64 << 62;
        let mut successes = 0;
        for seed in 0..6 {
            let mut adv =
                AttackAdversary::new(BisectionAttack::for_reservoir(k, n, universe), universe);
            let mut sampler = ReservoirSampler::with_seed(k, seed);
            let out = AdaptiveGame::new(n).run(&mut sampler, &mut adv);
            if adv.strategy().exhausted() {
                continue;
            }
            // Paper §5: residents are among the k' smallest stream elements.
            let mut sorted = out.stream.clone();
            sorted.sort_unstable();
            let cutoff = sorted[out.total_stored - 1];
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
    fn bisection_exhausts_on_a_tiny_universe() {
        // N far below n^6 ln n: Claim 5.1's precondition fails and the
        // interval must collapse.
        let n = 10_000usize;
        let universe = 1u64 << 10;
        let mut adv =
            AttackAdversary::new(BisectionAttack::for_bernoulli(0.05, n, universe), universe);
        let mut sampler = BernoulliSampler::with_seed(0.05, 5);
        let _ = AdaptiveGame::new(n).run(&mut sampler, &mut adv);
        assert!(
            adv.strategy().exhausted(),
            "tiny universe should exhaust the attack"
        );
    }

    #[test]
    fn replay_matches_its_source() {
        use robust_sampling_streamgen::source::materialize;
        let n = 2_000usize;
        let universe = 1u64 << 18;
        let seed = 6u64;
        let mut defense = ReservoirSampler::<u64>::with_seed(16, 1);
        let mut atk = ReplayAttack::from_workload("replay-uniform", "uniform", n, universe, seed);
        let out = Duel::new(n, universe).run(&mut defense, &mut atk);
        let expect = materialize(
            robust_sampling_streamgen::workload("uniform")
                .unwrap()
                .source(n, universe, seed),
        );
        assert_eq!(out.stream, expect);
    }

    #[test]
    fn median_hunt_displaces_a_tiny_sample_median() {
        let n = 2_000;
        let universe = 1u64 << 20;
        let mut defense = ReservoirSampler::<u64>::with_seed(4, 2);
        let mut atk = MedianHuntAttack::new(3);
        let out = Duel::new(n, universe).run(&mut defense, &mut atk);
        let d = prefix_discrepancy(&out.stream, &out.final_sample).value;
        assert!(d > 0.25, "hunter too weak: discrepancy {d}");
    }

    #[test]
    fn prefix_mass_is_at_least_as_strong_as_uniform_noise() {
        let n = 3_000;
        let universe = 1u64 << 16;
        let mut noise_total = 0.0;
        let mut greedy_total = 0.0;
        for seed in 0..5u64 {
            let mut d1 = ReservoirSampler::<u64>::with_seed(10, seed);
            let mut a1 = attack("replay-uniform")
                .unwrap()
                .build(n, universe, 100 + seed);
            let o1 = Duel::new(n, universe).run(&mut d1, &mut a1);
            noise_total += prefix_discrepancy(&o1.stream, &o1.final_sample).value;

            let mut d2 = ReservoirSampler::<u64>::with_seed(10, seed);
            let mut a2 = PrefixMassAttack::new(64, 200 + seed);
            let o2 = Duel::new(n, universe).run(&mut d2, &mut a2);
            greedy_total += prefix_discrepancy(&o2.stream, &o2.final_sample).value;
        }
        assert!(
            greedy_total >= noise_total,
            "greedy {greedy_total} < noise {noise_total}"
        );
    }

    #[test]
    fn prefix_mass_recomputes_every_round_at_stride_one() {
        use crate::attack::NullOracle;
        // Round 1 sees an empty history (target stays universe/2, side
        // +1); round 2's context pins the KS witness at v = 100 with the
        // sample over-representing it (side −1), so a stride-1 attack
        // must recompute and flood strictly above 100.
        let universe = 1u64 << 16;
        let mut atk = PrefixMassAttack::new(1, 9);
        let first = atk.next(&AttackContext {
            round: 1,
            n: 10,
            universe,
            sample: &[],
            history: &[],
            oracle: &NullOracle,
        });
        assert!(first <= universe / 2, "round 1 floods below the midpoint");
        let history = vec![1_000u64; 8];
        let sample = vec![100u64];
        let second = atk.next(&AttackContext {
            round: 2,
            n: 10,
            universe,
            sample: &sample,
            history: &history,
            oracle: &NullOracle,
        });
        assert!(
            second > 100,
            "stride-1 attack failed to recompute: emitted {second}"
        );
    }

    #[test]
    fn strategies_report_registry_names() {
        let universe = 1u64 << 16;
        assert_eq!(
            BisectionAttack::for_bernoulli(0.0, 100, universe).name(),
            "bisection"
        );
        assert_eq!(ColliderAttack::new(1).name(), "collider");
        assert_eq!(PrefixMassAttack::new(64, 1).name(), "prefix-mass");
        assert_eq!(MedianHuntAttack::new(1).name(), "median-hunt");
        assert_eq!(EvictionPumpAttack::new().name(), "eviction-pump");
    }

    #[test]
    fn every_kth_sampler_is_duel_compatible() {
        // Smoke: deterministic stride samplers expose state too.
        let mut defense = crate::sampler::EveryKthSampler::<u64>::new(7);
        let mut atk = EvictionPumpAttack::new();
        let out = Duel::new(500, 1 << 12).run(&mut defense, &mut atk);
        assert_eq!(out.stream.len(), 500);
        assert_eq!(
            StreamSampler::sample(&defense).len(),
            out.final_sample.len()
        );
    }
}
