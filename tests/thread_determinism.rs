//! The parallel trial executor must be invisible in the results:
//! `threads(N)` produces bit-identical `RunStats` (and per-trial records)
//! to the sequential engine for every experiment family — adaptive,
//! continuous, and batch.

use robust_sampling::core::adversary::RandomAdversary;
use robust_sampling::core::attack::{AttackAdversary, MedianHuntAttack};
use robust_sampling::core::engine::ExperimentEngine;
use robust_sampling::core::game::ContinuousAdaptiveGame;
use robust_sampling::core::sampler::{BernoulliSampler, ReservoirSampler, StreamSampler};
use robust_sampling::core::set_system::{IntervalSystem, PrefixSystem};
use robust_sampling::streamgen;

const THREADS: &[usize] = &[2, 4, 8];

#[test]
fn adaptive_runstats_are_bit_identical_across_thread_counts() {
    let system = PrefixSystem::new(1 << 18);
    let run = |threads: usize| {
        ExperimentEngine::new(2_500, 10)
            .with_base_seed(40)
            .threads(threads)
            .adaptive(
                &system,
                |s| ReservoirSampler::with_seed(64, s),
                |s| AttackAdversary::new(MedianHuntAttack::new(s), 1 << 18),
            )
    };
    let seq = run(1);
    assert_eq!(seq.per_trial.len(), 10);
    for &t in THREADS {
        let par = run(t);
        assert_eq!(seq.per_trial, par.per_trial, "threads={t}");
    }
}

#[test]
fn adaptive_map_records_are_bit_identical_across_thread_counts() {
    // Full per-trial records (seed, sample, stored count), not just the
    // aggregated stats.
    let run = |threads: usize| {
        ExperimentEngine::new(1_200, 9)
            .with_base_seed(7)
            .threads(threads)
            .adaptive_map(
                |s| BernoulliSampler::with_seed(0.05, s),
                |s| RandomAdversary::new(1 << 16, s),
                |seed, _, out| (seed, out.sample, out.total_stored),
            )
    };
    let seq = run(1);
    for &t in THREADS {
        assert_eq!(seq, run(t), "threads={t}");
    }
}

#[test]
fn continuous_runstats_are_bit_identical_across_thread_counts() {
    let system = IntervalSystem::new(1 << 14);
    let game = ContinuousAdaptiveGame::geometric(3_000, 200, 0.25);
    let run = |threads: usize| {
        ExperimentEngine::new(3_000, 6)
            .with_base_seed(11)
            .threads(threads)
            .continuous_sup(
                &game,
                &system,
                0.25,
                |s| ReservoirSampler::with_seed(200, s),
                |s| RandomAdversary::new(1 << 14, s),
            )
    };
    let seq = run(1);
    assert_eq!(seq.per_trial.len(), 6);
    for &t in THREADS {
        assert_eq!(seq.per_trial, run(t).per_trial, "threads={t}");
    }
}

#[test]
fn batch_runstats_are_bit_identical_across_thread_counts() {
    let system = PrefixSystem::new(1 << 20);
    let run = |threads: usize| {
        ExperimentEngine::new(20_000, 8)
            .with_base_seed(3)
            .threads(threads)
            .batch(
                &system,
                |s| ReservoirSampler::with_seed(128, s),
                |s| streamgen::uniform(20_000, 1 << 20, s),
                |r| r.sample().to_vec(),
            )
    };
    let seq = run(1);
    assert_eq!(seq.per_trial.len(), 8);
    for &t in THREADS {
        assert_eq!(seq.per_trial, run(t).per_trial, "threads={t}");
    }
}

#[test]
fn batch_map_samples_are_bit_identical_across_thread_counts() {
    let run = |threads: usize| {
        ExperimentEngine::new(10_000, 5)
            .with_base_seed(70)
            .threads(threads)
            .batch_map(
                |s| ReservoirSampler::with_seed(64, s),
                |s| streamgen::zipf(10_000, 1 << 16, 1.1, s),
                |seed, stream, summary| (seed, stream.len(), summary.sample().to_vec()),
            )
    };
    let seq = run(1);
    for &t in THREADS {
        assert_eq!(seq, run(t), "threads={t}");
    }
}

#[test]
fn oversubscribed_thread_counts_are_harmless() {
    // More threads than trials must behave exactly like trials threads.
    let system = PrefixSystem::new(1 << 12);
    let run = |threads: usize| {
        ExperimentEngine::new(500, 3).threads(threads).adaptive(
            &system,
            |s| ReservoirSampler::with_seed(16, s),
            |s| RandomAdversary::new(1 << 12, s),
        )
    };
    assert_eq!(run(1).per_trial, run(64).per_trial);
}
