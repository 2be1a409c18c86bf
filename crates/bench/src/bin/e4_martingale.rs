//! E4 — the martingale machinery of Section 4 (Lemma 4.1, Claims 4.2/4.3).
//!
//! Claims reproduced, *empirically*, on games played against an adaptive
//! adversary (so the independence Chernoff would need really is absent):
//!
//! 1. `Z_i^R` has (conditional) mean-zero increments — the empirical mean
//!    increment is statistically indistinguishable from 0;
//! 2. the increment magnitude and per-round variance bounds of Claims
//!    4.2/4.3 hold on every path;
//! 3. the measured tail `Pr[|Z_n| ≥ λ]` is dominated by the Lemma 3.3
//!    Freedman bound with the claims' variance/step budgets — i.e. the
//!    Lemma 4.1 failure probabilities are honest.

use robust_sampling_bench::{banner, f, init_cli, is_quick, verdict, Table};
use robust_sampling_core::attack::{AttackAdversary, PrefixMassAttack};
use robust_sampling_core::engine::ExperimentEngine;
use robust_sampling_core::martingale::{
    self, bernoulli_z_sequence, path_stats, reservoir_z_sequence, RoundEvent,
};
use robust_sampling_core::sampler::{BernoulliSampler, ReservoirSampler};

const RANGE_CUT: u64 = 1 << 19; // R = [0, 2^19) inside U = [0, 2^20)

/// Record the per-round `Z_i^R` events of every engine trial: one event
/// vector per adaptive game path.
fn record_paths<Smp>(
    engine: &ExperimentEngine,
    mk_sampler: impl FnMut(u64) -> Smp,
    mk_adv: impl FnMut(u64) -> AttackAdversary<PrefixMassAttack>,
) -> Vec<Vec<RoundEvent>>
where
    Smp: robust_sampling_core::sampler::StreamSampler<u64>,
{
    let mut paths: Vec<Vec<RoundEvent>> = Vec::with_capacity(engine.trials());
    engine.adaptive_traced(mk_sampler, mk_adv, |_, tr| {
        if tr.round == 1 {
            paths.push(Vec::with_capacity(engine.n()));
        }
        paths.last_mut().expect("path started").push(RoundEvent {
            in_range: *tr.element < RANGE_CUT,
            range_in_sample: tr.sample.iter().filter(|&&v| v < RANGE_CUT).count(),
            sample_size: tr.sample.len(),
        });
    });
    paths
}

fn main() {
    init_cli();
    banner(
        "E4",
        "the Z_i^R processes are martingales with the claimed budgets",
        "Claims 4.2/4.3: mean-zero increments, |dZ| and Var bounds; \
         Lemma 3.3 dominates the measured tails",
    );
    let n = if is_quick() { 400 } else { 1_000 };
    let paths = if is_quick() { 200 } else { 600 };
    let universe = 1u64 << 20;

    // ---- Bernoulli --------------------------------------------------------
    let p = 0.1;
    let engine = robust_sampling_bench::engine(n, paths).with_base_seed(10_000);
    let bern_events = record_paths(
        &engine,
        |s| BernoulliSampler::with_seed(p, s),
        |s| AttackAdversary::new(PrefixMassAttack::new(32, s), universe),
    );
    let bern_paths: Vec<Vec<f64>> = bern_events
        .iter()
        .map(|ev| bernoulli_z_sequence(ev, p))
        .collect();
    let stats = path_stats(&bern_paths);
    let step_bound = 1.0 / (n as f64 * p);
    let var_bound = 1.0 / (n as f64 * n as f64 * p);
    let mut table = Table::new(&["quantity", "measured", "claimed bound", "ok"]);
    let step_ok = stats.max_abs_increment <= step_bound + 1e-12;
    let var_ok = stats.max_round_variance <= 2.0 * var_bound; // sampling noise
    let mean_ok = stats.mean_increment.abs() < 5.0 * step_bound / ((paths * n) as f64).sqrt();
    table.row(&[
        "max |dZ| (4.2)".into(),
        format!("{:.3e}", stats.max_abs_increment),
        format!("{step_bound:.3e}"),
        step_ok.to_string(),
    ]);
    table.row(&[
        "max round Var (4.2)".into(),
        format!("{:.3e}", stats.max_round_variance),
        format!("{var_bound:.3e} (x2 slack)"),
        var_ok.to_string(),
    ]);
    table.row(&[
        "|mean increment|".into(),
        format!("{:.3e}", stats.mean_increment.abs()),
        "~0 (5-sigma)".into(),
        mean_ok.to_string(),
    ]);
    println!("\nBernoulli (n = {n}, p = {p}, {paths} adaptive game paths):");
    table.emit("e4", "bernoulli_budgets");
    verdict(
        "Claim 4.2 budgets hold under adaptivity",
        step_ok && var_ok && mean_ok,
        "",
    );

    // Tail domination: measured Pr[|Z_n| >= lambda] vs Freedman.
    println!("\nBernoulli tail vs Lemma 3.3:");
    let mut table = Table::new(&["lambda", "measured Pr", "Freedman bound", "dominated"]);
    let mut tails_ok = true;
    for &lambda in &[0.02f64, 0.04, 0.06, 0.08] {
        let measured = bern_paths
            .iter()
            .filter(|z| z.last().unwrap().abs() >= lambda)
            .count() as f64
            / paths as f64;
        let bound = martingale::freedman_tail_two_sided(lambda, n as f64 * var_bound, step_bound);
        if measured > bound + 3.0 * (bound * (1.0 - bound) / paths as f64).sqrt() + 0.01 {
            tails_ok = false;
        }
        table.row(&[
            f(lambda),
            f(measured),
            f(bound),
            (measured <= bound + 0.02).to_string(),
        ]);
    }
    table.emit("e4", "bernoulli_tails");
    verdict("Lemma 3.3 dominates Bernoulli tails", tails_ok, "");

    // ---- Reservoir --------------------------------------------------------
    let k = if is_quick() { 40 } else { 100 };
    let engine = robust_sampling_bench::engine(n, paths).with_base_seed(20_000);
    let res_events = record_paths(
        &engine,
        |s| ReservoirSampler::with_seed(k, s),
        |s| AttackAdversary::new(PrefixMassAttack::new(32, s), universe),
    );
    let res_paths: Vec<Vec<f64>> = res_events
        .iter()
        .map(|ev| reservoir_z_sequence(ev, k))
        .collect();
    let stats = path_stats(&res_paths);
    let step_bound = n as f64 / k as f64; // max_i i/k
    let step_ok = stats.max_abs_increment <= step_bound + 1e-9;
    // Normalized final mean: E[Z_n]/n ~ 0.
    let mean_ok = (stats.mean_final / n as f64).abs() < 0.02;
    println!("\nReservoir (n = {n}, k = {k}, {paths} adaptive game paths):");
    let mut table = Table::new(&["quantity", "measured", "claimed bound", "ok"]);
    table.row(&[
        "max |dZ| (4.3)".into(),
        f(stats.max_abs_increment),
        f(step_bound),
        step_ok.to_string(),
    ]);
    table.row(&[
        "|mean Z_n| / n".into(),
        format!("{:.3e}", (stats.mean_final / n as f64).abs()),
        "~0".into(),
        mean_ok.to_string(),
    ]);
    table.emit("e4", "reservoir_budgets");

    // Tail vs Freedman with sigma_i^2 = i/k.
    let var_sum: f64 = (1..=n).map(|i| i as f64 / k as f64).sum();
    println!("\nReservoir tail vs Lemma 3.3 (and the paper's 2 exp(-eps^2 k/2) simplification):");
    let mut table = Table::new(&[
        "eps",
        "measured Pr[|Z_n|>=eps n]",
        "Freedman",
        "paper bound",
        "dominated",
    ]);
    let mut tails_ok = true;
    for &eps in &[0.1f64, 0.15, 0.2, 0.3] {
        let lambda = eps * n as f64;
        let measured = res_paths
            .iter()
            .filter(|z| z.last().unwrap().abs() >= lambda)
            .count() as f64
            / paths as f64;
        let freedman = martingale::freedman_tail_two_sided(lambda, var_sum, step_bound);
        let paper = (2.0 * (-eps * eps * k as f64 / 2.0).exp()).min(1.0);
        let ok = measured <= freedman + 0.02;
        tails_ok &= ok;
        table.row(&[f(eps), f(measured), f(freedman), f(paper), ok.to_string()]);
    }
    table.emit("e4", "reservoir_tails");
    verdict("Lemma 3.3 dominates reservoir tails", tails_ok, "");
}
