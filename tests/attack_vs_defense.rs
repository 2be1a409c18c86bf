//! Integration: the lower-bound attacks (Theorem 1.3 and the §1 intro
//! attack) versus the upper-bound sizing (Theorem 1.2) — the paper's two
//! halves must be consistent when run against each other.

use robust_sampling::core::adversary::{BisectionAdversary, GeneralizedBisectionAdversary};
use robust_sampling::core::approx::prefix_discrepancy;
use robust_sampling::core::attack::{AttackAdversary, BisectionAttack};
use robust_sampling::core::bounds;
use robust_sampling::core::dyadic::Dyadic;
use robust_sampling::core::game::AdaptiveGame;
use robust_sampling::core::sampler::{BernoulliSampler, ReservoirSampler};

#[test]
fn attack_beats_undersized_but_loses_to_sized_discrete() {
    // Undersized: k = 1 over u64 — within the attack's precision budget.
    let n = 200;
    let universe = 1u64 << 62;
    let mut wins = 0;
    for seed in 0..6 {
        let mut adv =
            AttackAdversary::new(BisectionAttack::for_reservoir(1, n, universe), universe);
        let mut s = ReservoirSampler::with_seed(1, seed);
        let out = AdaptiveGame::new(n).run(&mut s, &mut adv);
        if !adv.strategy().exhausted() && prefix_discrepancy(&out.stream, &out.sample).value > 0.5 {
            wins += 1;
        }
    }
    assert!(wins >= 3, "attack should win vs k=1: {wins}/6");

    // Sized: the same attack against a Theorem 1.2 reservoir must exhaust
    // (it cannot fit the splits into 43 nats of u64 precision).
    let ln_r = (universe as f64).ln();
    let k = bounds::reservoir_k_robust(ln_r, 0.2, 0.1);
    let mut adv = AttackAdversary::new(BisectionAttack::for_reservoir(k, n, universe), universe);
    let mut s = ReservoirSampler::with_seed(k, 9);
    let out = AdaptiveGame::new(n).run(&mut s, &mut adv);
    let d = prefix_discrepancy(&out.stream, &out.sample).value;
    assert!(
        adv.strategy().exhausted() || d <= 0.2,
        "sized reservoir should not lose: exhausted={}, d={d}",
        adv.strategy().exhausted()
    );
}

#[test]
fn dyadic_attack_beats_any_finite_k_in_proportion() {
    // Over the infinite-precision universe the attack discrepancy is
    // ≈ 1 − k'/n for every k — increasing k only helps linearly, which is
    // the Thm 1.3 'no finite VC-style sizing helps' message.
    let n = 2_000;
    for k in [4usize, 32, 128] {
        let mut adv = GeneralizedBisectionAdversary::for_reservoir(k, n);
        let mut s = ReservoirSampler::with_seed(k, 3);
        let out = AdaptiveGame::new(n).run(&mut s, &mut adv);
        let d = prefix_discrepancy(&out.stream, &out.sample).value;
        let kp = out.total_stored;
        let predicted = 1.0 - kp as f64 / n as f64;
        assert!(
            (d - predicted).abs() < 0.05,
            "k={k}: discrepancy {d} far from predicted {predicted}"
        );
        assert!(d > 0.5, "k={k}: attack failed entirely ({d})");
    }
}

#[test]
fn bisection_attack_median_is_pinned_to_tail() {
    let n = 1_000;
    let mut adv = BisectionAdversary::new();
    let mut s = BernoulliSampler::with_seed(0.03, 7);
    let out = AdaptiveGame::new(n).run(&mut s, &mut adv);
    assert!(!out.sample.is_empty());
    let mut sorted: Vec<Dyadic> = out.stream.clone();
    sorted.sort();
    let mut sample_sorted = out.sample.clone();
    sample_sorted.sort();
    let median = &sample_sorted[sample_sorted.len() / 2];
    let rank = sorted.iter().filter(|v| *v <= median).count();
    // The sample median's true rank is at most |S|/n — deep in the tail.
    assert!(
        rank <= out.sample.len(),
        "median rank {rank} not pinned below |S| = {}",
        out.sample.len()
    );
}

#[test]
fn attack_cannot_touch_exact_storage() {
    // k >= n: the reservoir keeps everything; discrepancy is identically 0
    // against any adversary, including the dyadic attack.
    let n = 500;
    let mut adv = GeneralizedBisectionAdversary::for_reservoir(n, n);
    let mut s = ReservoirSampler::with_seed(n, 1);
    let out = AdaptiveGame::new(n).run(&mut s, &mut adv);
    assert_eq!(prefix_discrepancy(&out.stream, &out.sample).value, 0.0);
}

#[test]
fn thresholds_are_consistent_with_upper_bounds() {
    // Thm 1.2's k always exceeds Thm 1.3's attackable ceiling — the two
    // theorems never contradict (the paper's "nearly matching" bounds).
    for n in [1_000usize, 100_000] {
        for ln_r in [20.0f64, 200.0, 2_000.0] {
            let k_robust = bounds::reservoir_k_robust(ln_r, 0.3, 0.3) as f64;
            let k_attack = bounds::attack_reservoir_k_max(ln_r, n);
            assert!(
                k_robust > k_attack,
                "contradiction at n={n}, ln_r={ln_r}: {k_robust} <= {k_attack}"
            );
        }
    }
}
