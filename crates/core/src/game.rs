//! The adversarial games of the paper's Section 2 (Figures 1 and 2).
//!
//! [`AdaptiveGame`] is the paper's `AdaptiveGame`: `n` rounds in which the
//! adversary, shown the sampler state `σ_{i−1}`, submits `x_i`; at the end
//! the sample is judged against the full stream. [`ContinuousAdaptiveGame`]
//! is the `ContinuousAdaptiveGame` variant in which the sample must be an
//! ε-approximation of **every prefix** `X_i`.
//!
//! Runners are generic over the sampler, the adversary, and (for judging)
//! the set system, and can stream per-round trace records to a callback so
//! that the martingale experiments can reconstruct the paper's `Z_i^R`
//! processes without the game core knowing about them.

use crate::adversary::{Adversary, RoundContext};
use crate::approx::DiscrepancyReport;
use crate::sampler::{Observation, StreamSampler};
use crate::set_system::SetSystem;

/// Result of one play of the (non-continuous) adaptive game.
#[derive(Debug, Clone)]
pub struct GameOutcome<T> {
    /// The stream `X = (x_1, …, x_n)` the adversary produced.
    pub stream: Vec<T>,
    /// The final sample `S = σ_n`.
    pub sample: Vec<T>,
    /// Total insertions performed by the sampler (`k'` of Theorem 1.3).
    pub total_stored: usize,
}

impl<T> GameOutcome<T> {
    /// Judge the outcome against a set system: the paper's step 3
    /// ("output 1 if S is an ε-representative sample of X").
    pub fn discrepancy<S: SetSystem<T> + ?Sized>(&self, system: &S) -> DiscrepancyReport {
        system.max_discrepancy(&self.stream, &self.sample)
    }
}

/// Per-round trace record passed to [`AdaptiveGame::run_traced`] observers.
#[derive(Debug)]
pub struct RoundTrace<'a, T> {
    /// Round number `i`, 1-based.
    pub round: usize,
    /// The element the adversary submitted this round.
    pub element: &'a T,
    /// What the sampler did with it.
    pub outcome: &'a Observation<T>,
    /// The sample σ_i *after* the update.
    pub sample: &'a [T],
}

/// The paper's `AdaptiveGame` (Figure 1): a fixed-length duel between a
/// sampler and an adaptive adversary.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveGame {
    n: usize,
}

impl AdaptiveGame {
    /// A game of `n` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "game length must be positive");
        Self { n }
    }

    /// Stream length `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Play the game to completion.
    pub fn run<T, Smp, Adv>(&self, sampler: &mut Smp, adversary: &mut Adv) -> GameOutcome<T>
    where
        T: Clone,
        Smp: StreamSampler<T>,
        Adv: Adversary<T> + ?Sized,
    {
        self.run_traced(sampler, adversary, |_| {})
    }

    /// Play the game, invoking `trace` after every round. This is how the
    /// martingale experiments record `|R ∩ S_i|` without the game knowing
    /// about ranges.
    pub fn run_traced<T, Smp, Adv>(
        &self,
        sampler: &mut Smp,
        adversary: &mut Adv,
        mut trace: impl FnMut(RoundTrace<'_, T>),
    ) -> GameOutcome<T>
    where
        T: Clone,
        Smp: StreamSampler<T>,
        Adv: Adversary<T> + ?Sized,
    {
        let mut stream: Vec<T> = Vec::with_capacity(self.n);
        let mut last_outcome: Option<Observation<T>> = None;
        for i in 1..=self.n {
            let x = {
                let ctx = RoundContext {
                    round: i,
                    n: self.n,
                    sample: sampler.sample(),
                    last_outcome: last_outcome.as_ref(),
                    history: &stream,
                };
                adversary.next(&ctx)
            };
            let outcome = sampler.observe(x.clone());
            stream.push(x);
            trace(RoundTrace {
                round: i,
                element: stream.last().expect("just pushed"),
                outcome: &outcome,
                sample: sampler.sample(),
            });
            last_outcome = Some(outcome);
        }
        GameOutcome {
            stream,
            sample: sampler.sample().to_vec(),
            total_stored: sampler.total_stored(),
        }
    }
}

/// Result of one play of the continuous game.
#[derive(Debug, Clone)]
pub struct ContinuousOutcome<T> {
    /// The stream the adversary produced.
    pub stream: Vec<T>,
    /// The final sample.
    pub sample: Vec<T>,
    /// Maximum discrepancy over all *checked* prefixes.
    pub max_prefix_discrepancy: f64,
    /// Earliest checked round at which the ε budget was exceeded, if the
    /// game was run with an `eps` to enforce.
    pub first_violation: Option<usize>,
    /// `(round, discrepancy)` at every checked prefix.
    pub checkpoints: Vec<(usize, f64)>,
}

/// The paper's `ContinuousAdaptiveGame` (Figure 2): the sample must be an
/// ε-approximation of the stream **at every step**, not only at the end.
///
/// Judging every prefix exactly costs `O(n)` discrepancy evaluations; the
/// runner therefore accepts a set of check rounds. Use
/// [`ContinuousAdaptiveGame::every_round`] for the letter-exact Figure 2
/// semantics, or [`ContinuousAdaptiveGame::geometric`] for the Theorem 1.4
/// checkpoint grid `i_{j+1} = ⌊(1+ε/4)·i_j⌋` (plus a configurable stride of
/// intermediate checks).
#[derive(Debug, Clone)]
pub struct ContinuousAdaptiveGame {
    n: usize,
    check_rounds: Vec<usize>,
}

impl ContinuousAdaptiveGame {
    /// Check the ε-approximation property after every round.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn every_round(n: usize) -> Self {
        assert!(n > 0, "game length must be positive");
        Self {
            n,
            check_rounds: (1..=n).collect(),
        }
    }

    /// Check at the Theorem 1.4 geometric checkpoints `k, ⌊(1+ε/4)k⌋, …, n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `k == 0`, or `eps ∉ (0,1)`.
    pub fn geometric(n: usize, k: usize, eps: f64) -> Self {
        assert!(n > 0 && k > 0, "n and k must be positive");
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1)");
        let mut rounds = Vec::new();
        let mut i = k.min(n);
        loop {
            rounds.push(i);
            if i >= n {
                break;
            }
            let next = ((i as f64) * (1.0 + eps / 4.0)).floor() as usize;
            i = next.max(i + 1).min(n);
        }
        Self {
            n,
            check_rounds: rounds,
        }
    }

    /// Check at explicitly given rounds (sorted + deduplicated internally).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or any round is outside `1..=n`.
    pub fn at_rounds(n: usize, mut rounds: Vec<usize>) -> Self {
        assert!(n > 0, "game length must be positive");
        rounds.sort_unstable();
        rounds.dedup();
        assert!(
            rounds.iter().all(|&r| (1..=n).contains(&r)),
            "check rounds must lie in 1..=n"
        );
        Self {
            n,
            check_rounds: rounds,
        }
    }

    /// The rounds at which the prefix property is evaluated.
    pub fn check_rounds(&self) -> &[usize] {
        &self.check_rounds
    }

    /// Play the game. `eps` is used only to populate
    /// [`ContinuousOutcome::first_violation`]; the game always runs to the
    /// end so the full trajectory is observable (the paper's game halts at
    /// the first violation, which corresponds to reading `first_violation`).
    pub fn run<T, Smp, Adv, Sys>(
        &self,
        sampler: &mut Smp,
        adversary: &mut Adv,
        system: &Sys,
        eps: f64,
    ) -> ContinuousOutcome<T>
    where
        T: Clone,
        Smp: StreamSampler<T>,
        Adv: Adversary<T> + ?Sized,
        Sys: SetSystem<T>,
    {
        let mut stream: Vec<T> = Vec::with_capacity(self.n);
        let mut last_outcome: Option<Observation<T>> = None;
        let mut max_disc = 0.0f64;
        let mut first_violation = None;
        let mut checkpoints = Vec::with_capacity(self.check_rounds.len());
        let mut check_iter = self.check_rounds.iter().copied().peekable();
        for i in 1..=self.n {
            let x = {
                let ctx = RoundContext {
                    round: i,
                    n: self.n,
                    sample: sampler.sample(),
                    last_outcome: last_outcome.as_ref(),
                    history: &stream,
                };
                adversary.next(&ctx)
            };
            let outcome = sampler.observe(x.clone());
            stream.push(x);
            last_outcome = Some(outcome);
            if check_iter.peek() == Some(&i) {
                check_iter.next();
                let d = system.max_discrepancy(&stream, sampler.sample()).value;
                checkpoints.push((i, d));
                if d > max_disc {
                    max_disc = d;
                }
                if d > eps && first_violation.is_none() {
                    first_violation = Some(i);
                }
            }
        }
        ContinuousOutcome {
            stream,
            sample: sampler.sample().to_vec(),
            max_prefix_discrepancy: max_disc,
            first_violation,
            checkpoints,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{RandomAdversary, StaticAdversary};
    use crate::sampler::{BernoulliSampler, ReservoirSampler};
    use crate::set_system::PrefixSystem;

    #[test]
    fn game_produces_full_stream() {
        let game = AdaptiveGame::new(500);
        let mut sampler = ReservoirSampler::with_seed(20, 1);
        let mut adv = RandomAdversary::new(1000, 2);
        let out = game.run(&mut sampler, &mut adv);
        assert_eq!(out.stream.len(), 500);
        assert_eq!(out.sample.len(), 20);
        assert!(out.total_stored >= 20);
    }

    #[test]
    fn static_adversary_replays_exact_stream() {
        let fixed: Vec<u64> = (0..100).map(|i| i * 7 % 91).collect();
        let game = AdaptiveGame::new(100);
        let mut sampler = BernoulliSampler::with_seed(0.3, 4);
        let mut adv = StaticAdversary::new(fixed.clone());
        let out = game.run(&mut sampler, &mut adv);
        assert_eq!(out.stream, fixed);
    }

    #[test]
    fn trace_sees_every_round_in_order() {
        let game = AdaptiveGame::new(50);
        let mut sampler = ReservoirSampler::with_seed(5, 9);
        let mut adv = RandomAdversary::new(64, 3);
        let mut rounds = Vec::new();
        game.run_traced(&mut sampler, &mut adv, |t| {
            rounds.push(t.round);
            assert!(t.sample.len() <= 5);
        });
        assert_eq!(rounds, (1..=50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_is_subsequence_of_stream() {
        let game = AdaptiveGame::new(300);
        let mut sampler = ReservoirSampler::with_seed(25, 5);
        let mut adv = RandomAdversary::new(10_000, 6);
        let out = game.run(&mut sampler, &mut adv);
        for s in &out.sample {
            assert!(out.stream.contains(s));
        }
    }

    #[test]
    fn geometric_checkpoints_cover_k_and_n() {
        let g = ContinuousAdaptiveGame::geometric(10_000, 100, 0.2);
        let rounds = g.check_rounds();
        assert_eq!(*rounds.first().unwrap(), 100);
        assert_eq!(*rounds.last().unwrap(), 10_000);
        assert!(rounds.windows(2).all(|w| w[0] < w[1]));
        // Growth is ≈ (1+eps/4): round count is Θ(ln(n/k)/eps).
        // Integer flooring advances slightly slower than the pure geometric
        // sequence, so allow a small additive slack.
        let expect = ((10_000f64 / 100.0).ln() / (1.05f64).ln()).ceil() as usize;
        assert!(rounds.len() <= expect + 8, "{} checkpoints", rounds.len());
    }

    #[test]
    fn continuous_game_flags_violations() {
        // A reservoir of size 1 cannot track prefixes of a uniform stream
        // at eps=0.05: some checked prefix must violate.
        let n = 2000;
        let g = ContinuousAdaptiveGame::geometric(n, 50, 0.2);
        let mut sampler = ReservoirSampler::with_seed(1, 7);
        let mut adv = RandomAdversary::new(1 << 20, 8);
        let sys = PrefixSystem::new(1 << 20);
        let out = g.run(&mut sampler, &mut adv, &sys, 0.05);
        assert!(out.first_violation.is_some());
        assert!(out.max_prefix_discrepancy > 0.05);
    }

    #[test]
    fn continuous_game_with_huge_reservoir_never_violates() {
        // k = n: the reservoir is the stream, every prefix is exact.
        let n = 500;
        let g = ContinuousAdaptiveGame::every_round(n);
        let mut sampler = ReservoirSampler::with_seed(n, 7);
        let mut adv = RandomAdversary::new(1024, 9);
        let sys = PrefixSystem::new(1024);
        let out = g.run(&mut sampler, &mut adv, &sys, 1e-9);
        assert_eq!(out.first_violation, None);
        assert!(out.max_prefix_discrepancy < 1e-9);
        assert_eq!(out.checkpoints.len(), n);
    }

    #[test]
    #[should_panic(expected = "check rounds must lie in 1..=n")]
    fn at_rounds_validates() {
        let _ = ContinuousAdaptiveGame::at_rounds(10, vec![0]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::adversary::RandomAdversary;
    use crate::sampler::{BernoulliSampler, BottomKSampler, ReservoirSampler};
    use proptest::prelude::*;

    /// The multiset-subsequence invariant (paper §2, rule 3): the sample is
    /// always a subsequence of the stream — every sampled occurrence maps
    /// to a distinct stream occurrence.
    fn is_sub_multiset(sample: &[u64], stream: &[u64]) -> bool {
        let mut counts = std::collections::BTreeMap::new();
        for x in stream {
            *counts.entry(*x).or_insert(0usize) += 1;
        }
        for s in sample {
            match counts.get_mut(s) {
                Some(c) if *c > 0 => *c -= 1,
                _ => return false,
            }
        }
        true
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Reservoir: sample is a sub-multiset, size = min(k, n), counters
        /// consistent — for arbitrary (n, k, seeds).
        #[test]
        fn reservoir_game_invariants(
            n in 1usize..400,
            k in 1usize..50,
            seed in 0u64..1000,
        ) {
            let mut sampler = ReservoirSampler::with_seed(k, seed);
            let mut adv = RandomAdversary::new(1 << 16, seed ^ 0xABCD);
            let out = AdaptiveGame::new(n).run(&mut sampler, &mut adv);
            prop_assert_eq!(out.stream.len(), n);
            prop_assert_eq!(out.sample.len(), k.min(n));
            prop_assert!(out.total_stored >= out.sample.len());
            prop_assert!(out.total_stored <= n);
            prop_assert!(is_sub_multiset(&out.sample, &out.stream));
        }

        /// Bernoulli: sample preserves stream order and is a sub-multiset.
        #[test]
        fn bernoulli_game_invariants(
            n in 1usize..400,
            p in 0.0f64..=1.0,
            seed in 0u64..1000,
        ) {
            let mut sampler = BernoulliSampler::with_seed(p, seed);
            let mut adv = RandomAdversary::new(1 << 16, seed ^ 0x1234);
            let out = AdaptiveGame::new(n).run(&mut sampler, &mut adv);
            prop_assert!(is_sub_multiset(&out.sample, &out.stream));
            prop_assert_eq!(out.total_stored, out.sample.len());
            // Order preservation: the sample must appear in stream order.
            let mut idx = 0usize;
            for s in &out.sample {
                while idx < out.stream.len() && out.stream[idx] != *s {
                    idx += 1;
                }
                prop_assert!(idx < out.stream.len(), "sample element out of order");
                idx += 1;
            }
        }

        /// Bottom-k behaves like the reservoir at the game level.
        #[test]
        fn bottom_k_game_invariants(
            n in 1usize..300,
            k in 1usize..40,
            seed in 0u64..1000,
        ) {
            let mut sampler = BottomKSampler::with_seed(k, seed);
            let mut adv = RandomAdversary::new(1 << 16, seed ^ 0x5678);
            let out = AdaptiveGame::new(n).run(&mut sampler, &mut adv);
            prop_assert_eq!(out.sample.len(), k.min(n));
            prop_assert!(is_sub_multiset(&out.sample, &out.stream));
        }

        /// Continuous-game checkpoints are a subset of 1..=n, increasing,
        /// and the reported sup equals the max over checkpoints.
        #[test]
        fn continuous_game_checkpoint_consistency(
            n in 10usize..200,
            k in 1usize..20,
            seed in 0u64..500,
        ) {
            let game = ContinuousAdaptiveGame::geometric(n, k, 0.3);
            let sys = crate::set_system::PrefixSystem::new(1 << 16);
            let mut sampler = ReservoirSampler::with_seed(k, seed);
            let mut adv = RandomAdversary::new(1 << 16, seed ^ 0x9999);
            let out = game.run(&mut sampler, &mut adv, &sys, 0.3);
            prop_assert!(out.checkpoints.windows(2).all(|w| w[0].0 < w[1].0));
            let max_ck = out
                .checkpoints
                .iter()
                .map(|&(_, d)| d)
                .fold(0.0f64, f64::max);
            prop_assert!((out.max_prefix_discrepancy - max_ck).abs() < 1e-12);
        }
    }
}
