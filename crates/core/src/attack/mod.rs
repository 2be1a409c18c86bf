//! The pluggable attack subsystem: adaptive adversaries as data.
//!
//! This module is the adversary-side mirror of the scenario registry in
//! [`robust_sampling_streamgen::registry`](mod@robust_sampling_streamgen::registry):
//! where a workload is a
//! deterministic, seedable, chunk-pulling [`StreamSource`], an attack is a
//! deterministic, seedable, **state-observing** [`AttackStrategy`] — the
//! paper's adaptive adversary packaged so that experiment harnesses can
//! enumerate, look up, and duel every registered strategy against every
//! [`StreamSummary`] defense.
//!
//! Three layers:
//!
//! * **The strategy interface.** [`AttackStrategy`] chooses round `i`'s
//!   element after observing an [`AttackContext`]: the defense's retained
//!   elements (the paper's state `σ_{i−1}`), its own submission history,
//!   and a [`StateOracle`] exposing richer internals — hash-collision
//!   queries for linear sketches, live quantile/count answers — because
//!   the paper's model hands the adversary the *full* state, not just the
//!   sample.
//! * **The duel loop.** [`Duel`] plays an attack against any
//!   [`ObservableDefense`] (every summary in the workspace implements it:
//!   samplers, robust sketches, the six baselines, the sharded
//!   fan-out) for `n` rounds, exactly as the Figure 1
//!   `AdaptiveGame` plays an [`Adversary`] against a sampler.
//!   [`AttackAdversary`] bridges the two worlds, so registered attacks
//!   also run inside [`AdaptiveGame`](crate::game::AdaptiveGame) and
//!   [`ContinuousAdaptiveGame`](crate::game::ContinuousAdaptiveGame).
//! * **The registry.** [`AttackSpec`] rows describe every named attack —
//!   what it targets, which theorem it instantiates, its default
//!   parameters — and [`registry()`]/[`attack`]/[`descriptor`] resolve
//!   names exactly the way the workload registry does
//!   (`--attack <name>` / `--list-attacks` in the experiment binaries).
//!
//! The registered strategies live in [`strategies`]; the experiment-side
//! attack × defense evaluation grid is the `attack_matrix` binary in the
//! bench crate.
//!
//! [`StreamSource`]: robust_sampling_streamgen::source::StreamSource
//! [`StreamSummary`]: crate::engine::StreamSummary
//! [`Adversary`]: crate::adversary::Adversary

pub mod registry;
pub mod strategies;

mod defense;

pub use registry::{attack, descriptor, registry, AttackSpec};
pub use strategies::{
    BisectionAttack, ColliderAttack, EvictionPumpAttack, MedianHuntAttack, PrefixMassAttack,
    ReplayAttack,
};

use crate::adversary::{Adversary, RoundContext};
use crate::engine::StreamSummary;

/// Everything an attack observes before choosing round `i`'s element —
/// the duel-loop analogue of [`RoundContext`], generalised from samplers
/// to arbitrary summaries.
#[derive(Clone, Copy)]
pub struct AttackContext<'a> {
    /// Current round `i` (1-based); the returned element becomes `x_i`.
    pub round: usize,
    /// Total number of rounds `n` (the paper's adversary knows `n`).
    pub n: usize,
    /// Upper bound of the element universe `U = {0, …, universe−1}`.
    /// Attacks may submit values `≥ universe` (phantom ids living outside
    /// the nominal universe — the E13 victim trick); defenses must cope.
    pub universe: u64,
    /// The defense's retained elements — the observable state `σ_{i−1}`.
    /// Counter sketches with no retained elements expose an empty slice
    /// (their internals are reachable through [`AttackContext::oracle`]).
    pub sample: &'a [u64],
    /// The elements submitted so far, `x_1, …, x_{i−1}`.
    pub history: &'a [u64],
    /// Full-state queries beyond the retained elements.
    pub oracle: &'a dyn StateOracle,
}

impl std::fmt::Debug for AttackContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AttackContext")
            .field("round", &self.round)
            .field("n", &self.n)
            .field("universe", &self.universe)
            .field("sample_len", &self.sample.len())
            .field("history_len", &self.history.len())
            .finish()
    }
}

/// Full-state queries a defense answers to the adversary — the paper's
/// model exposes the *entire* internal state `σ_i`, which for hash-based
/// and deterministic summaries means more than a retained-element list.
///
/// Every method defaults to `None` ("this defense has no such state"), so
/// a defense only implements the queries its internals actually support.
pub trait StateOracle {
    /// For hash-based linear sketches (Count-Min): one decoy per hash row
    /// that collides with `target` in that row, searched upward from
    /// `start`. Flooding the decoys inflates the sketch's estimate of
    /// `target` without ever sending it — the Hardt–Woodruff-style attack
    /// of experiment E13.
    fn row_colliders(&self, target: u64, start: u64) -> Option<Vec<u64>> {
        let _ = (target, start);
        None
    }

    /// The defense's current count estimate for `x`, as it would answer a
    /// frequency query right now.
    fn count_estimate(&self, x: u64) -> Option<f64> {
        let _ = x;
        None
    }

    /// The defense's current `q`-quantile answer.
    fn quantile_estimate(&self, q: f64) -> Option<u64> {
        let _ = q;
        None
    }
}

/// The oracle of a defense with no queryable internals (and of the
/// [`AttackAdversary`] bridge, where only the sample is observable).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullOracle;

impl StateOracle for NullOracle {}

/// An adaptive attack: seedable, deterministic per seed, choosing each
/// element after observing the defense's state.
///
/// This is the adversary-side sibling of
/// [`StreamSource`](robust_sampling_streamgen::source::StreamSource) —
/// same determinism law (a strategy rebuilt from the same `(n, universe,
/// seed)` replays identically against the same defense), but each element
/// may depend on everything the defense reveals.
pub trait AttackStrategy {
    /// Choose the next element given the observable state.
    fn next(&mut self, ctx: &AttackContext<'_>) -> u64;

    /// Registry/report name.
    fn name(&self) -> &'static str {
        "attack"
    }
}

/// Boxed strategies pass through, so the registry's
/// `Box<dyn AttackStrategy + Send>` products plug into every generic
/// consumer.
impl<A: AttackStrategy + ?Sized> AttackStrategy for Box<A> {
    fn next(&mut self, ctx: &AttackContext<'_>) -> u64 {
        (**self).next(ctx)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// A summary that can be duelled: it ingests elements through
/// [`StreamSummary`] and exposes its adversary-observable state — the
/// retained elements plus any [`StateOracle`] queries its internals
/// support.
///
/// Implemented by every stream-consuming type in the workspace: the
/// samplers and robust sketches here in `core`, the six baselines in the
/// sketches crate, and [`ShardedSummary`](crate::engine::ShardedSummary)
/// over any observable shard type.
pub trait ObservableDefense: StreamSummary<u64> + StateOracle {
    /// Append the retained elements (the observable sample) to `out`.
    /// Counter sketches that retain no elements append nothing.
    fn visible_into(&self, out: &mut Vec<u64>);

    /// The retained elements as an owned `Vec` (convenience).
    fn visible(&self) -> Vec<u64> {
        let mut out = Vec::new();
        self.visible_into(&mut out);
        out
    }
}

/// Result of one attack-vs-defense duel.
#[derive(Debug, Clone)]
pub struct DuelOutcome {
    /// The stream `X = (x_1, …, x_n)` the attack produced.
    pub stream: Vec<u64>,
    /// The defense's retained elements after the last round.
    pub final_sample: Vec<u64>,
}

/// The duel loop: `n` rounds of attack-observes-state, defense-ingests —
/// the Figure 1 adaptive game generalised from samplers to every
/// [`ObservableDefense`].
#[derive(Debug, Clone, Copy)]
pub struct Duel {
    n: usize,
    universe: u64,
}

impl Duel {
    /// A duel of `n` rounds over the universe `{0, …, universe−1}`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `universe < 2`.
    pub fn new(n: usize, universe: u64) -> Self {
        assert!(n > 0, "duel length must be positive");
        assert!(universe >= 2, "universe must have at least two elements");
        Self { n, universe }
    }

    /// Number of rounds `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The universe bound.
    #[inline]
    pub fn universe(&self) -> u64 {
        self.universe
    }

    /// Play the duel to completion. The defense's state before round `i`
    /// is re-read every round, so the attack sees exactly what the
    /// paper's adversary sees.
    pub fn run<D, A>(&self, defense: &mut D, attack: &mut A) -> DuelOutcome
    where
        D: ObservableDefense,
        A: AttackStrategy + ?Sized,
    {
        self.run_with(defense, attack, |_, _| {})
    }

    /// [`run`](Self::run) with a per-round observer: `on_round(i, x_i)` is
    /// called after the defense ingests round `i`'s element. This is the
    /// hook remote duels use to meter each round — when the defense is a
    /// client speaking to a live service, a round is a full
    /// observe-state/choose/ingest round trip, and the load generator
    /// times the gaps between callbacks to report per-round latency.
    pub fn run_with<D, A>(
        &self,
        defense: &mut D,
        attack: &mut A,
        mut on_round: impl FnMut(usize, u64),
    ) -> DuelOutcome
    where
        D: ObservableDefense,
        A: AttackStrategy + ?Sized,
    {
        let mut stream: Vec<u64> = Vec::with_capacity(self.n);
        let mut visible: Vec<u64> = Vec::new();
        for round in 1..=self.n {
            visible.clear();
            defense.visible_into(&mut visible);
            let x = attack.next(&AttackContext {
                round,
                n: self.n,
                universe: self.universe,
                sample: &visible,
                history: &stream,
                oracle: defense,
            });
            defense.ingest(x);
            stream.push(x);
            on_round(round, x);
        }
        DuelOutcome {
            stream,
            final_sample: defense.visible(),
        }
    }
}

/// Runs a registered [`AttackStrategy`] inside the game layer: the bridge
/// implements [`Adversary<u64>`], mapping each [`RoundContext`] to an
/// [`AttackContext`] (with a [`NullOracle`] — the game's sampler exposes
/// exactly its sample, nothing more). This is how attacks drive
/// [`AdaptiveGame`](crate::game::AdaptiveGame) and
/// [`ContinuousAdaptiveGame`](crate::game::ContinuousAdaptiveGame)
/// unchanged.
#[derive(Debug)]
pub struct AttackAdversary<A> {
    attack: A,
    universe: u64,
}

impl<A: AttackStrategy> AttackAdversary<A> {
    /// Bridge `attack` into the adversary interface over the given
    /// universe bound.
    ///
    /// # Panics
    ///
    /// Panics if `universe < 2`, as [`Duel::new`] does.
    pub fn new(attack: A, universe: u64) -> Self {
        assert!(universe >= 2, "universe must have at least two elements");
        Self { attack, universe }
    }

    /// The wrapped strategy (e.g. to read attack state after a game).
    pub fn strategy(&self) -> &A {
        &self.attack
    }
}

impl<A: AttackStrategy> Adversary<u64> for AttackAdversary<A> {
    fn next(&mut self, ctx: &RoundContext<'_, u64>) -> u64 {
        self.attack.next(&AttackContext {
            round: ctx.round,
            n: ctx.n,
            universe: self.universe,
            sample: ctx.sample,
            history: ctx.history,
            oracle: &NullOracle,
        })
    }

    fn name(&self) -> &'static str {
        self.attack.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::prefix_discrepancy;
    use crate::game::AdaptiveGame;
    use crate::sampler::ReservoirSampler;

    #[test]
    fn duel_produces_full_stream_and_final_sample() {
        let mut defense = ReservoirSampler::<u64>::with_seed(16, 3);
        let spec = attack("median-hunt").expect("registered");
        let mut atk = spec.build(500, 1 << 16, 7);
        let out = Duel::new(500, 1 << 16).run(&mut defense, &mut atk);
        assert_eq!(out.stream.len(), 500);
        assert_eq!(out.final_sample.len(), 16);
    }

    #[test]
    fn run_with_observes_every_round_and_matches_run() {
        let n = 300;
        let universe = 1u64 << 14;
        let mut d1 = ReservoirSampler::<u64>::with_seed(16, 3);
        let mut a1 = attack("prefix-mass").unwrap().build(n, universe, 7);
        let plain = Duel::new(n, universe).run(&mut d1, &mut a1);
        let mut d2 = ReservoirSampler::<u64>::with_seed(16, 3);
        let mut a2 = attack("prefix-mass").unwrap().build(n, universe, 7);
        let mut seen = Vec::new();
        let traced = Duel::new(n, universe).run_with(&mut d2, &mut a2, |round, x| {
            assert_eq!(round, seen.len() + 1);
            seen.push(x);
        });
        assert_eq!(seen, plain.stream);
        assert_eq!(traced.stream, plain.stream);
        assert_eq!(traced.final_sample, plain.final_sample);
    }

    #[test]
    fn duel_is_deterministic_per_seed() {
        let run = || {
            let mut defense = ReservoirSampler::<u64>::with_seed(32, 9);
            let mut atk = attack("prefix-mass").unwrap().build(800, 1 << 16, 4);
            Duel::new(800, 1 << 16).run(&mut defense, &mut atk).stream
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn attack_adversary_bridges_into_the_game() {
        // The same attack through the Duel loop and through AdaptiveGame
        // (same sampler seed) must produce the identical stream: the
        // bridge is a pure interface adapter. (Uses a sample-only
        // strategy — the game exposes no oracle, so oracle-consulting
        // strategies legitimately play differently there.)
        let n = 600;
        let universe = 1u64 << 16;
        let mut s1 = ReservoirSampler::<u64>::with_seed(16, 5);
        let mut a1 = attack("prefix-mass").unwrap().build(n, universe, 2);
        let duel = Duel::new(n, universe).run(&mut s1, &mut a1);

        let mut s2 = ReservoirSampler::<u64>::with_seed(16, 5);
        let a2 = attack("prefix-mass").unwrap().build(n, universe, 2);
        let mut bridge = AttackAdversary::new(a2, universe);
        let game = AdaptiveGame::new(n).run(&mut s2, &mut bridge);
        assert_eq!(duel.stream, game.stream);
        assert_eq!(duel.final_sample, game.sample);
    }

    #[test]
    #[should_panic(expected = "universe must have at least two elements")]
    fn attack_adversary_rejects_a_degenerate_universe() {
        let _ = AttackAdversary::new(MedianHuntAttack::new(1), 1);
    }

    #[test]
    fn adaptive_attacks_beat_the_oblivious_control_on_a_small_reservoir() {
        // Aggregate sanity for the whole registry: against an undersized
        // reservoir, the worst adaptive attack induces at least the
        // discrepancy of the oblivious replay control.
        let n = 2_000;
        let universe = 1u64 << 16;
        let mut control: f64 = 0.0;
        let mut adaptive_worst: f64 = 0.0;
        for spec in registry() {
            let mut defense = ReservoirSampler::<u64>::with_seed(8, 1);
            let mut atk = spec.build(n, universe, 3);
            let out = Duel::new(n, universe).run(&mut defense, &mut atk);
            let d = prefix_discrepancy(&out.stream, &out.final_sample).value;
            if spec.adaptive {
                adaptive_worst = adaptive_worst.max(d);
            } else {
                control = control.max(d);
            }
        }
        assert!(
            adaptive_worst >= control,
            "adaptive worst {adaptive_worst} < control {control}"
        );
    }
}
