//! The paper's opening story, end to end: an adaptive adversary watches a
//! sampler's memory and bisects the value space so that the final sample
//! is *exactly the smallest elements of the stream* — the median estimate
//! collapses to the far-left tail. Then the defense: the same game against
//! a Theorem 1.2-sized reservoir over a finite universe, which the
//! adversary cannot budge.
//!
//! ```sh
//! cargo run --release --example adaptive_median_attack
//! ```

use robust_sampling::core::adversary::BisectionAdversary;
use robust_sampling::core::approx::prefix_discrepancy;
use robust_sampling::core::attack::{AttackAdversary, MedianHuntAttack};
use robust_sampling::core::bounds;
use robust_sampling::core::game::AdaptiveGame;
use robust_sampling::core::sampler::{BernoulliSampler, ReservoirSampler};
use robust_sampling::core::set_system::{PrefixSystem, SetSystem};

fn main() {
    let n = 3_000;

    // --- The attack (infinite universe: exact dyadic rationals) ---------
    println!("== attack: bisection adversary vs Bernoulli p = 0.02, n = {n} ==");
    let mut adversary = BisectionAdversary::new();
    let mut sampler = BernoulliSampler::with_seed(0.02, 1);
    let out = AdaptiveGame::new(n).run(&mut sampler, &mut adversary);

    let mut sorted = out.stream.clone();
    sorted.sort();
    let s = out.sample.len();
    let mut sample_sorted = out.sample.clone();
    sample_sorted.sort();
    println!("sampled {s} of {n} elements");
    println!(
        "sample == the {s} smallest stream elements: {}",
        sample_sorted == sorted[..s]
    );
    // The sample median's rank in the true stream: catastrophically low.
    let sample_median = &sample_sorted[s / 2];
    let rank = sorted.iter().filter(|v| *v <= sample_median).count();
    println!(
        "sample median has true rank {rank}/{n} = {:.4} (should be ~0.5) — \
         the adversary pinned it to the tail",
        rank as f64 / n as f64
    );
    println!(
        "prefix discrepancy = {:.4}\n",
        prefix_discrepancy(&out.stream, &out.sample).value
    );

    // --- The defense (finite universe, Theorem 1.2 sizing) --------------
    let universe = 1u64 << 30;
    let system = PrefixSystem::new(universe);
    let eps = 0.1;
    let k = bounds::reservoir_k_robust(system.ln_cardinality(), eps, 0.01);
    println!("== defense: adaptive hunter vs reservoir k = {k} over U = 2^30 ==");
    let mut adversary = AttackAdversary::new(MedianHuntAttack::new(2), universe);
    let mut sampler = ReservoirSampler::with_seed(k, 3);
    let out = AdaptiveGame::new(n).run(&mut sampler, &mut adversary);
    let d = out.discrepancy(&system);
    println!(
        "adaptive adversary achieved discrepancy {:.4} <= eps = {eps}: {}",
        d.value,
        d.value <= eps
    );
    let mut sorted = out.stream.clone();
    sorted.sort_unstable();
    let true_median = sorted[n / 2];
    let mut sample_sorted = out.sample.clone();
    sample_sorted.sort_unstable();
    let est_median = sample_sorted[sample_sorted.len() / 2];
    let est_rank = sorted.iter().filter(|&&v| v <= est_median).count() as f64 / n as f64;
    println!(
        "true median {true_median}, sample median {est_median} \
         (true rank of estimate: {est_rank:.3}) — the guarantee held"
    );
}
