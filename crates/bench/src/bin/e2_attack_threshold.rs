//! E2 — the Figure 3 attack threshold over a finite universe
//! (Theorem 1.3).
//!
//! Claim reproduced: over `U = [N]` with the prefix system, the attack
//! defeats `ReservoirSample` when `k ≲ ln N / ln n` and `BernoulliSample`
//! when `p ≲ ln N / (n ln n)` — and **stops working** above the threshold
//! because the working interval collapses before the stream ends (the
//! Claim 5.1 precision budget `|S|·ln(1/p') + n·p' ≤ ln(N/n)` is blown).
//!
//! The sweep holds `n` and `N` fixed and walks the sample size through the
//! threshold: attack success rate should fall from ≈1 to ≈0 right where
//! the budget arithmetic predicts.

use robust_sampling_bench::{banner, f, init_cli, is_quick, verdict, Table};
use robust_sampling_core::approx::prefix_discrepancy;
use robust_sampling_core::attack::{AttackAdversary, BisectionAttack};
use robust_sampling_core::sampler::{BernoulliSampler, ReservoirSampler};

/// Precision budget check (Claim 5.1 arithmetic): expected nats consumed
/// by the attack vs available `ln(N/n)`.
fn expected_cost_nats(expected_insertions: f64, p_prime: f64, n: usize) -> f64 {
    expected_insertions * (1.0 / p_prime).ln() + n as f64 * p_prime
}

/// One trial's judgment of the attack.
struct AttackTrial {
    p_prime: f64,
    exhausted: bool,
    discrepancy: f64,
    empty_sample: bool,
}

fn judge(
    adv: &AttackAdversary<BisectionAttack>,
    out: robust_sampling_core::GameOutcome<u64>,
) -> AttackTrial {
    AttackTrial {
        p_prime: adv.strategy().p_prime(),
        exhausted: adv.strategy().exhausted(),
        discrepancy: prefix_discrepancy(&out.stream, &out.sample).value,
        empty_sample: out.sample.is_empty(),
    }
}

fn main() {
    init_cli();
    banner(
        "E2",
        "Figure 3 attack success vs sample size over U = [2^62]",
        "attack wins iff the precision budget ln(N/n) covers \
         |S| ln(1/p') + n p' — i.e. iff k < c ln N / ln n (Thm 1.3)",
    );
    let trials = if is_quick() { 10 } else { 40 };
    let n = if is_quick() { 150 } else { 300 };
    let universe = 1u64 << 62;
    let ln_budget = (universe as f64).ln() - (n as f64).ln();

    // ---- Reservoir sweep ---------------------------------------------
    println!("\nReservoirSample, n = {n}, N = 2^62 (budget {ln_budget:.1} nats):");
    let mut table = Table::new(&[
        "k",
        "p'",
        "E[cost] nats",
        "budget ok",
        "success rate",
        "exhaust rate",
        "mean disc",
    ]);
    let mut sub_threshold_wins = true;
    let mut super_threshold_loses = true;
    for &k in &[1usize, 2, 3, 5, 8, 12] {
        let engine = robust_sampling_bench::engine(n, trials).with_base_seed(1_000 * k as u64);
        let runs = engine.adaptive_map(
            |seed| ReservoirSampler::with_seed(k, seed),
            |_| AttackAdversary::new(BisectionAttack::for_reservoir(k, n, universe), universe),
            |_, adv, out| judge(adv, out),
        );
        let p_prime = runs[0].p_prime;
        let wins = runs
            .iter()
            .filter(|r| !r.exhausted && r.discrepancy > 0.5)
            .count();
        let exhausted = runs.iter().filter(|r| r.exhausted).count();
        let mean_disc = runs.iter().map(|r| r.discrepancy).sum::<f64>() / trials as f64;
        let exp_ins = k as f64 * (1.0 + (n as f64 / k as f64).ln());
        let cost = expected_cost_nats(exp_ins, p_prime, n);
        let ok = cost <= ln_budget;
        let win_rate = wins as f64 / trials as f64;
        if ok && win_rate < 0.5 {
            sub_threshold_wins = false;
        }
        if !ok && cost > 1.5 * ln_budget && win_rate > 0.5 {
            super_threshold_loses = false;
        }
        table.row(&[
            k.to_string(),
            f(p_prime),
            format!("{cost:.1}"),
            ok.to_string(),
            f(win_rate),
            f(exhausted as f64 / trials as f64),
            f(mean_disc),
        ]);
    }
    table.emit("e2", "reservoir_sweep");

    // ---- Bernoulli sweep ----------------------------------------------
    println!("\nBernoulliSample, n = {n}, N = 2^62:");
    let mut table = Table::new(&[
        "p",
        "p'",
        "E[cost] nats",
        "budget ok",
        "success rate",
        "exhaust rate",
        "mean disc",
    ]);
    for &p in &[0.005f64, 0.01, 0.02, 0.05, 0.1, 0.2] {
        let engine =
            robust_sampling_bench::engine(n, trials).with_base_seed(77_000 + (p * 1e4) as u64);
        let runs = engine.adaptive_map(
            |seed| BernoulliSampler::with_seed(p, seed),
            |_| AttackAdversary::new(BisectionAttack::for_bernoulli(p, n, universe), universe),
            |_, adv, out| judge(adv, out),
        );
        let p_prime = runs[0].p_prime;
        let wins = runs
            .iter()
            .filter(|r| !r.exhausted && !r.empty_sample && r.discrepancy > 0.5)
            .count();
        let exhausted = runs.iter().filter(|r| r.exhausted).count();
        let mean_disc = runs.iter().map(|r| r.discrepancy).sum::<f64>() / trials as f64;
        let cost = expected_cost_nats(n as f64 * p_prime, p_prime, n);
        table.row(&[
            f(p),
            f(p_prime),
            format!("{cost:.1}"),
            (cost <= ln_budget).to_string(),
            f(wins as f64 / trials as f64),
            f(exhausted as f64 / trials as f64),
            f(mean_disc),
        ]);
    }
    table.emit("e2", "bernoulli_sweep");

    // ---- Theorem 1.3 threshold formulas --------------------------------
    println!("\nTheorem 1.3 thresholds at this (n, N):");
    let ln_r = (universe as f64).ln();
    println!(
        "  attack_reservoir_k_max = {:.2}   attack_bernoulli_p_max = {:.6}",
        robust_sampling_core::bounds::attack_reservoir_k_max(ln_r, n),
        robust_sampling_core::bounds::attack_bernoulli_p_max(ln_r, n),
    );
    println!(
        "  universe admissible for Thm 1.3 window (n^6 ln n <= N <= 2^(n/2)): {}",
        robust_sampling_core::bounds::attack_universe_admissible(ln_r, n),
    );

    verdict(
        "attack succeeds within precision budget",
        sub_threshold_wins,
        "success rate >= 0.5 whenever E[cost] <= ln(N/n)",
    );
    verdict(
        "attack collapses well past the budget",
        super_threshold_loses,
        "success rate < 0.5 when E[cost] > 1.5x budget",
    );
}
