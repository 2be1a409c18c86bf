//! Regression tests pinning the paper's two punchlines against the
//! bisection-style adversary, with deterministic seeds:
//!
//! * **Theorem 1.2 (robustness).** At the robust sample size — `ln|R|`
//!   in place of the VC dimension — the Figure 3 bisection adversary
//!   cannot make the sample unrepresentative: over a `u64` universe its
//!   precision budget collapses (`exhausted`), and the final discrepancy
//!   stays within ε.
//! * **Theorem 1.3 (the attack).** Below roughly `ln N / (6 ln n)` the
//!   same adversary provably wins with probability ≥ 1/2: the sample is
//!   trapped among the smallest stream elements and the discrepancy
//!   approaches 1.
//!
//! All games run through the [`ExperimentEngine`], so these tests also
//! pin the engine's seed-decorrelation plumbing.

use robust_sampling::core::approx::prefix_discrepancy;
use robust_sampling::core::attack::{AttackAdversary, BisectionAttack};
use robust_sampling::core::bounds;
use robust_sampling::core::engine::ExperimentEngine;
use robust_sampling::core::sampler::{BernoulliSampler, ReservoirSampler};

const UNIVERSE: u64 = 1 << 62;

/// (exhausted, discrepancy, sample trapped among k' smallest) per trial.
fn run_reservoir(n: usize, k: usize, trials: usize, base_seed: u64) -> Vec<(bool, f64, bool)> {
    ExperimentEngine::new(n, trials)
        .with_base_seed(base_seed)
        .adaptive_map(
            |s| ReservoirSampler::with_seed(k, s),
            |_| AttackAdversary::new(BisectionAttack::for_reservoir(k, n, UNIVERSE), UNIVERSE),
            |_, adv, out| {
                let mut sorted = out.stream.clone();
                sorted.sort_unstable();
                let cutoff = sorted[out.total_stored - 1];
                (
                    adv.strategy().exhausted(),
                    prefix_discrepancy(&out.stream, &out.sample).value,
                    out.sample.iter().all(|&x| x <= cutoff),
                )
            },
        )
}

fn run_bernoulli(n: usize, p: f64, trials: usize, base_seed: u64) -> Vec<(bool, f64, bool)> {
    ExperimentEngine::new(n, trials)
        .with_base_seed(base_seed)
        .adaptive_map(
            |s| BernoulliSampler::with_seed(p, s),
            |_| AttackAdversary::new(BisectionAttack::for_bernoulli(p, n, UNIVERSE), UNIVERSE),
            |_, adv, out| {
                let mut sorted = out.stream.clone();
                sorted.sort_unstable();
                let s = out.sample.len();
                let mut sample_sorted = out.sample.clone();
                sample_sorted.sort_unstable();
                (
                    adv.strategy().exhausted(),
                    prefix_discrepancy(&out.stream, &out.sample).value,
                    !out.sample.is_empty() && sample_sorted == sorted[..s],
                )
            },
        )
}

// ---------------------------------------------------------------------------
// Theorem 1.2: the robust size defeats the bisection adversary
// ---------------------------------------------------------------------------

#[test]
fn reservoir_at_theorem_12_size_beats_bisection_adversary() {
    let n = 300;
    let eps = 0.2;
    // ln|R| of the full u64-prefix universe: the attack's own playground.
    let k = bounds::reservoir_k_robust((UNIVERSE as f64).ln(), eps, 0.1);
    assert!(k > bounds::attack_reservoir_k_max((UNIVERSE as f64).ln(), n) as usize);
    for (seed, (exhausted, disc, _)) in run_reservoir(n, k, 8, 0).into_iter().enumerate() {
        // The attack must either run out of precision or leave an
        // eps-representative sample — it can never win.
        assert!(
            exhausted || disc <= eps,
            "seed {seed}: attack beat the Theorem 1.2 size (exhausted={exhausted}, d={disc})"
        );
    }
}

#[test]
fn bernoulli_at_theorem_12_rate_beats_bisection_adversary() {
    let n = 20_000;
    let eps = 0.2;
    let p = bounds::bernoulli_p_robust((UNIVERSE as f64).ln(), eps, 0.1, n);
    assert!(p > bounds::attack_bernoulli_p_max((UNIVERSE as f64).ln(), n));
    for (seed, (exhausted, disc, _)) in run_bernoulli(n, p, 4, 0).into_iter().enumerate() {
        assert!(
            exhausted || disc <= eps,
            "seed {seed}: attack beat the Theorem 1.2 rate (exhausted={exhausted}, d={disc})"
        );
    }
}

// ---------------------------------------------------------------------------
// Theorem 1.3: below the threshold the same adversary provably wins
// ---------------------------------------------------------------------------

/// The Claim 5.1 precision budget: the attack is in its winning regime
/// when the expected nats it spends fit below `ln(N/n)`. (The closed-form
/// `attack_*_max` ceilings carry the proof's worst-case constants and are
/// vacuously small at u64 precision; the budget arithmetic is the honest
/// sub-threshold witness, and is what experiment E2 sweeps.)
fn within_budget(expected_insertions: f64, p_prime: f64, n: usize) -> bool {
    let cost = expected_insertions * (1.0 / p_prime).ln() + n as f64 * p_prime;
    cost <= (UNIVERSE as f64).ln() - (n as f64).ln()
}

#[test]
fn reservoir_below_theorem_13_threshold_loses_to_bisection_adversary() {
    let n = 200;
    let k = 1;
    let p_prime = (4.0 * k as f64 * (n as f64).ln() / n as f64).max((n as f64).ln() / n as f64);
    let expected_insertions = k as f64 * (1.0 + (n as f64 / k as f64).ln());
    assert!(within_budget(expected_insertions, p_prime, n));
    let runs = run_reservoir(n, k, 12, 100);
    // Theorem 1.3 promises wins with probability >= 1/2; these seeds are
    // pinned, so demand a strict majority of landed attacks.
    let wins = runs
        .iter()
        .filter(|(exhausted, disc, trapped)| !exhausted && *trapped && *disc > 0.5)
        .count();
    assert!(
        wins >= 7,
        "attack won only {wins}/12 against sub-threshold reservoir: {runs:?}"
    );
}

#[test]
fn bernoulli_below_theorem_13_threshold_loses_to_bisection_adversary() {
    let n = 300;
    let p = 0.01f64;
    let p_prime = p.max((n as f64).ln() / n as f64);
    assert!(within_budget(n as f64 * p_prime, p_prime, n));
    let runs = run_bernoulli(n, p, 12, 100);
    let wins = runs
        .iter()
        .filter(|(exhausted, disc, smallest)| !exhausted && *smallest && *disc > 0.5)
        .count();
    assert!(
        wins >= 7,
        "attack won only {wins}/12 against sub-threshold bernoulli: {runs:?}"
    );
}

#[test]
fn thresholds_separate_the_two_regimes() {
    // The Theorem 1.2 size always clears the Theorem 1.3 attackable
    // ceiling — the "nearly matching" bounds never contradict.
    for n in [300usize, 10_000] {
        let ln_r = (UNIVERSE as f64).ln();
        let k_robust = bounds::reservoir_k_robust(ln_r, 0.2, 0.1) as f64;
        let k_attack = bounds::attack_reservoir_k_max(ln_r, n);
        assert!(k_robust > k_attack, "n={n}: {k_robust} <= {k_attack}");
    }
}
