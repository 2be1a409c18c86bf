//! The attack registry's contracts, property-tested across seeds:
//!
//! * **Per-seed determinism** — every registered attack, rebuilt from the
//!   same `(n, universe, seed)` and duelled against the same defense,
//!   replays the identical stream (the adversary-side sibling of the
//!   source-determinism law in `tests/source_equivalence.rs`).
//! * **Control equivalence** — the non-adaptive replay controls emit
//!   element-for-element the workload source they wrap, so whatever gap
//!   the matrix shows between control and adaptive rows is pure
//!   adaptivity, not generator drift.
//! * **One game in both worlds** — the `bisection` strategy emits the
//!   same stream whether the duel loop plays it or `AdaptiveGame` plays
//!   it through the `AttackAdversary` bridge, and the `collider`
//!   strategy reproduces the E13 phantom-heavy-hitter outcome.

use proptest::prelude::*;
use robust_sampling::core::attack::{
    attack, descriptor, registry, AttackAdversary, BisectionAttack, ColliderAttack, Duel,
    ObservableDefense,
};
use robust_sampling::core::engine::StreamSummary;
use robust_sampling::core::game::AdaptiveGame;
use robust_sampling::core::sampler::{BernoulliSampler, ReservoirSampler};
use robust_sampling::core::set_system::{PrefixSystem, SetSystem};
use robust_sampling::sketches::count_min::CountMin;
use robust_sampling::streamgen;

#[test]
fn registry_names_are_unique_and_round_trip() {
    for (i, a) in registry().iter().enumerate() {
        for b in &registry()[i + 1..] {
            assert_ne!(a.name, b.name);
        }
        assert_eq!(attack(a.name).unwrap().name, a.name);
        let built = a.build(64, 1 << 12, 0);
        assert_eq!(descriptor(&built).name, a.name);
    }
    assert!(attack("no-such-attack").is_none());
    assert!(registry().len() >= 6, "acceptance: >= 6 registered attacks");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every registered attack is deterministic per seed against both a
    /// randomized and a deterministic defense.
    #[test]
    fn every_attack_is_deterministic_per_seed(
        n in 64usize..1_200,
        seed in 0u64..10_000,
        defense_seed in 0u64..10_000,
    ) {
        let universe = 1u64 << 16;
        for spec in registry() {
            let against_reservoir = || {
                let mut d = ReservoirSampler::<u64>::with_seed(16, defense_seed);
                let mut a = spec.build(n, universe, seed);
                Duel::new(n, universe).run(&mut d, &mut a).stream
            };
            prop_assert_eq!(
                against_reservoir(),
                against_reservoir(),
                "{} vs reservoir not deterministic",
                spec.name
            );
            let against_count_min = || {
                let mut d = CountMin::for_guarantee(0.01, 0.05, defense_seed);
                let mut a = spec.build(n, universe, seed);
                Duel::new(n, universe).run(&mut d, &mut a).stream
            };
            prop_assert_eq!(
                against_count_min(),
                against_count_min(),
                "{} vs count-min not deterministic",
                spec.name
            );
        }
    }

    /// The replay controls are element-identical to the workload sources
    /// they wrap — against any defense, since they never read state.
    #[test]
    fn replay_controls_equal_their_workload_sources(
        n in 1usize..2_000,
        universe_log in 4u32..30,
        seed in 0u64..10_000,
    ) {
        let universe = 1u64 << universe_log;
        for (attack_name, workload_name) in
            [("replay-uniform", "uniform"), ("replay-zipf", "zipf")]
        {
            let spec = attack(attack_name).expect("registered control");
            prop_assert!(!spec.adaptive);
            let mut d = ReservoirSampler::<u64>::with_seed(8, 1);
            let mut a = spec.build(n, universe, seed);
            let out = Duel::new(n, universe).run(&mut d, &mut a);
            let expect = streamgen::materialize(
                streamgen::workload(workload_name)
                    .expect("registered workload")
                    .source(n, universe, seed),
            );
            prop_assert_eq!(&out.stream, &expect, "{} drifted", attack_name);
        }
    }

    /// The Figure 3 attack plays the same game in both worlds: bridged
    /// into `AdaptiveGame` it emits the stream, and ends with the
    /// exhaustion flag, of the duel loop against an identically seeded
    /// Bernoulli sampler.
    #[test]
    fn bisection_plays_the_same_game_through_the_bridge_and_the_duel(
        n in 50usize..400,
        sampler_seed in 0u64..1_000,
    ) {
        let universe = 1u64 << 62;
        let p = 0.01f64;

        let mut bridged =
            AttackAdversary::new(BisectionAttack::for_bernoulli(p, n, universe), universe);
        let mut s1 = BernoulliSampler::with_seed(p, sampler_seed);
        let game = AdaptiveGame::new(n).run(&mut s1, &mut bridged);

        let mut duelled = BisectionAttack::for_bernoulli(p, n, universe);
        let mut s2 = BernoulliSampler::with_seed(p, sampler_seed);
        let duel = Duel::new(n, universe).run(&mut s2, &mut duelled);

        prop_assert_eq!(&game.stream, &duel.stream);
        prop_assert_eq!(bridged.strategy().exhausted(), duelled.exhausted());
    }
}

#[test]
fn collider_reproduces_the_e13_phantom_outcome() {
    // The ported linear-sketch attack: the victim is never sent, yet
    // Count-Min certifies it heavy; a theorem-sized reservoir duelled by
    // the identical strategy (same seed → same background+decoy stream
    // only if the defense exposes colliders — a reservoir does not, so
    // the attack degrades to uniform noise) stays representative.
    let n = 6_000;
    let universe = 1u64 << 20;
    let spec = attack("collider").unwrap();

    let mut cm = CountMin::for_guarantee(0.005, 0.01, 17);
    let mut a1 = spec.build(n, universe, 4);
    let out = Duel::new(n, universe).run(&mut cm, &mut a1);
    let victim = ColliderAttack::victim(universe);
    assert_eq!(out.stream.iter().filter(|&&x| x == victim).count(), 0);
    assert!(cm.estimate(victim) as f64 >= 0.05 * n as f64);

    let mut reservoir = ReservoirSampler::<u64>::with_seed(1_500, 17);
    let mut a2 = spec.build(n, universe, 4);
    let out = Duel::new(n, universe).run(&mut reservoir, &mut a2);
    let system = PrefixSystem::new(universe);
    let d = system.max_discrepancy(&out.stream, &out.final_sample).value;
    assert!(
        d <= 0.1,
        "sampler discrepancy {d} under the collider stream"
    );
}

// (The eviction-pump saturation/bound contract is unit-tested next to
// the Misra-Gries defense impl in crates/sketches/src/defense.rs.)

#[test]
fn attacks_run_inside_the_continuous_game_via_the_bridge() {
    // The prefix-mass strategy in its intended habitat: the Figure 2
    // every-prefix game, reached through the AttackAdversary bridge. An
    // undersized reservoir must violate the eps budget at some prefix.
    use robust_sampling::core::game::ContinuousAdaptiveGame;
    let n = 3_000;
    let universe = 1u64 << 16;
    let system = PrefixSystem::new(universe);
    let game = ContinuousAdaptiveGame::geometric(n, 64, 0.2);
    let mut sampler = ReservoirSampler::<u64>::with_seed(8, 3);
    let mut adv = AttackAdversary::new(
        attack("prefix-mass").unwrap().build(n, universe, 9),
        universe,
    );
    let out = game.run(&mut sampler, &mut adv, &system, 0.2);
    assert!(
        out.first_violation.is_some(),
        "k = 8 should violate eps = 0.2 somewhere (max {})",
        out.max_prefix_discrepancy
    );
}

#[test]
fn duel_visible_state_matches_defense_sample() {
    // ObservableDefense::visible is the duel's state feed; for samplers
    // it must be exactly the sample the game layer exposes.
    let mut r = ReservoirSampler::<u64>::with_seed(12, 5);
    StreamSummary::ingest_batch(&mut r, &(0..500u64).collect::<Vec<_>>());
    assert_eq!(
        ObservableDefense::visible(&r),
        robust_sampling::core::sampler::StreamSampler::sample(&r).to_vec()
    );
}
