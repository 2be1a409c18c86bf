//! End-to-end integration: theorem-sized samplers survive every adversary
//! in the suite, across set systems — the Theorem 1.2 guarantee exercised
//! through the full public API (core + streamgen).

use robust_sampling::core::adversary::{Adversary, RandomAdversary, StaticAdversary};
use robust_sampling::core::attack::{AttackAdversary, MedianHuntAttack, PrefixMassAttack};
use robust_sampling::core::bounds;
use robust_sampling::core::game::AdaptiveGame;
use robust_sampling::core::sampler::{BernoulliSampler, ReservoirSampler};
use robust_sampling::core::set_system::{IntervalSystem, PrefixSystem, SetSystem, SingletonSystem};
use robust_sampling::streamgen;

const N: usize = 12_000;
const UNIVERSE: u64 = 1 << 20;
const EPS: f64 = 0.12;
const DELTA: f64 = 0.05;

fn adversary_suite(seed: u64) -> Vec<Box<dyn Adversary<u64> + Send>> {
    vec![
        Box::new(RandomAdversary::new(UNIVERSE, seed)),
        Box::new(StaticAdversary::new(streamgen::sorted_ramp(N, UNIVERSE))),
        Box::new(StaticAdversary::new(streamgen::two_phase(
            N, UNIVERSE, seed,
        ))),
        Box::new(StaticAdversary::new(streamgen::zipf(
            N, UNIVERSE, 1.1, seed,
        ))),
        Box::new(AttackAdversary::new(
            PrefixMassAttack::new(64, seed),
            UNIVERSE,
        )),
        Box::new(AttackAdversary::new(MedianHuntAttack::new(seed), UNIVERSE)),
    ]
}

#[test]
fn reservoir_survives_all_adversaries_on_prefix_system() {
    let system = PrefixSystem::new(UNIVERSE);
    let k = bounds::reservoir_k_robust(system.ln_cardinality(), EPS, DELTA);
    for (i, mut adv) in adversary_suite(11).into_iter().enumerate() {
        let mut sampler = ReservoirSampler::with_seed(k, 100 + i as u64);
        let out = AdaptiveGame::new(N).run(&mut sampler, adv.as_mut());
        let d = out.discrepancy(&system);
        assert!(
            d.value <= EPS,
            "adversary {} ({}) beat theorem-sized reservoir: {} > {EPS}",
            i,
            adv.name(),
            d.value
        );
    }
}

#[test]
fn bernoulli_survives_all_adversaries_on_prefix_system() {
    let system = PrefixSystem::new(UNIVERSE);
    let p = bounds::bernoulli_p_robust(system.ln_cardinality(), EPS, DELTA, N);
    for (i, mut adv) in adversary_suite(23).into_iter().enumerate() {
        let mut sampler = BernoulliSampler::with_seed(p, 200 + i as u64);
        let out = AdaptiveGame::new(N).run(&mut sampler, adv.as_mut());
        let d = out.discrepancy(&system);
        assert!(
            d.value <= EPS,
            "adversary {} ({}) beat theorem-sized bernoulli: {} > {EPS}",
            i,
            adv.name(),
            d.value
        );
    }
}

#[test]
fn reservoir_survives_on_interval_system() {
    let system = IntervalSystem::new(UNIVERSE);
    let k = bounds::reservoir_k_robust(system.ln_cardinality(), EPS, DELTA);
    for (i, mut adv) in adversary_suite(37).into_iter().enumerate() {
        let mut sampler = ReservoirSampler::with_seed(k, 300 + i as u64);
        let out = AdaptiveGame::new(N).run(&mut sampler, adv.as_mut());
        let d = out.discrepancy(&system);
        assert!(
            d.value <= EPS,
            "adversary {i} beat reservoir on intervals: {} > {EPS}",
            d.value
        );
    }
}

#[test]
fn reservoir_survives_on_singleton_system() {
    let system = SingletonSystem::new(UNIVERSE);
    let k = bounds::reservoir_k_robust(system.ln_cardinality(), EPS, DELTA);
    // Zipf stream has genuine singleton mass; the hunter concentrates mass.
    for (i, mut adv) in adversary_suite(53).into_iter().enumerate() {
        let mut sampler = ReservoirSampler::with_seed(k, 400 + i as u64);
        let out = AdaptiveGame::new(N).run(&mut sampler, adv.as_mut());
        let d = out.discrepancy(&system);
        assert!(
            d.value <= EPS,
            "adversary {i} beat reservoir on singletons: {} > {EPS}",
            d.value
        );
    }
}

#[test]
fn expected_sample_sizes_agree_between_algorithms() {
    // The paper: both algorithms deliver total sample size
    // Θ((ln|R| + ln 1/δ)/ε²). Measure actual sizes.
    let system = PrefixSystem::new(UNIVERSE);
    let k = bounds::reservoir_k_robust(system.ln_cardinality(), EPS, DELTA);
    let p = bounds::bernoulli_p_robust(system.ln_cardinality(), EPS, DELTA, N);
    use robust_sampling::core::sampler::StreamSampler;
    let mut bern = BernoulliSampler::with_seed(p, 5);
    for x in streamgen::uniform(N, UNIVERSE, 6) {
        bern.observe(x);
    }
    let ratio = bern.sample().len() as f64 / k as f64;
    assert!(
        (1.0..=8.0).contains(&ratio),
        "sample sizes diverge: bernoulli {} vs reservoir {k}",
        bern.sample().len()
    );
}
