//! [`ExperimentEngine`]: the one game/measurement loop behind every
//! experiment binary.
//!
//! Before this layer existed each of the thirteen E-binaries hand-rolled
//! the same skeleton — seed loop, sampler/adversary construction, game
//! run, set-system judgment, aggregation. The engine owns that skeleton:
//! an experiment supplies factories (seed → sampler, seed → adversary,
//! seed → stream) and gets back per-trial records or aggregate
//! [`RunStats`]. Three compositions cover the paper:
//!
//! * [`adaptive`](ExperimentEngine::adaptive) — the Figure 1
//!   `AdaptiveGame` duel, judged at the end of the stream;
//! * [`continuous`](ExperimentEngine::continuous) — the Figure 2
//!   every-prefix game on a checkpoint grid;
//! * [`batch`](ExperimentEngine::batch) — a static (oblivious) workload
//!   driven through [`StreamSummary::ingest_batch`], i.e. the batched
//!   hot path: static streams never pay the per-element game loop.
//!
//! Sampler RNGs are automatically decorrelated from adversary seeds via
//! [`ExperimentEngine::sampler_seed`] — the paper's model requires the
//! sampler's coins to be independent of the adversary, so experiment code
//! must never share a raw seed between them.
//!
//! Because every trial owns all of its state, the trial loop is
//! embarrassingly parallel: [`ExperimentEngine::threads`] fans trials
//! across a scoped thread pool and reassembles results in seed order,
//! **bit-identical** to the sequential run (same factory call order, same
//! per-seed RNG streams, same aggregation order).

use crate::adversary::Adversary;
use crate::engine::summary::StreamSummary;
use crate::game::{
    AdaptiveGame, ContinuousAdaptiveGame, ContinuousOutcome, GameOutcome, RoundTrace,
};
use crate::sampler::StreamSampler;
use crate::set_system::SetSystem;
use robust_sampling_streamgen::source::{for_each_chunk, StreamSource, DEFAULT_FRAME};

/// Frame size (elements) the engine pulls per [`StreamSource`] chunk on
/// the source-driven trial paths: per-trial memory is one frame plus the
/// summary, never the stream.
pub const SOURCE_FRAME: usize = DEFAULT_FRAME;

/// Drain a source into a summary in [`SOURCE_FRAME`]-sized frames through
/// the batched hot path, reusing one buffer.
fn drain_source<T: Clone, S: StreamSummary<T>>(summary: &mut S, source: &mut impl StreamSource<T>) {
    for_each_chunk(source, SOURCE_FRAME, |chunk| summary.ingest_batch(chunk));
}

/// Aggregate of one scalar measurement across an engine run's trials.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// The per-trial values, in seed order.
    pub per_trial: Vec<f64>,
}

impl RunStats {
    /// Wrap per-trial values.
    pub fn new(per_trial: Vec<f64>) -> Self {
        Self { per_trial }
    }

    /// Worst (largest) trial value; 0 for an empty run.
    pub fn worst(&self) -> f64 {
        self.per_trial.iter().copied().fold(0.0, f64::max)
    }

    /// Mean trial value; 0 for an empty run.
    pub fn mean(&self) -> f64 {
        if self.per_trial.is_empty() {
            return 0.0;
        }
        self.per_trial.iter().sum::<f64>() / self.per_trial.len() as f64
    }

    /// Whether every trial value is `≤ bound`.
    pub fn all_within(&self, bound: f64) -> bool {
        self.per_trial.iter().all(|&v| v <= bound)
    }

    /// Fraction of trials with value `> bound`.
    pub fn fraction_above(&self, bound: f64) -> f64 {
        if self.per_trial.is_empty() {
            return 0.0;
        }
        self.per_trial.iter().filter(|&&v| v > bound).count() as f64 / self.per_trial.len() as f64
    }
}

/// The shared experiment loop: `trials` seeded games of length `n`.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentEngine {
    n: usize,
    trials: usize,
    base_seed: u64,
    threads: usize,
}

impl ExperimentEngine {
    /// An engine playing `trials` games of `n` rounds, with trial seeds
    /// `0, 1, …` (see [`with_base_seed`](Self::with_base_seed)).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `trials == 0`.
    pub fn new(n: usize, trials: usize) -> Self {
        assert!(n > 0 && trials > 0, "need n > 0 and trials > 0");
        Self {
            n,
            trials,
            base_seed: 0,
            threads: 1,
        }
    }

    /// Offset the trial seeds, decorrelating repeated sweeps within one
    /// experiment.
    pub fn with_base_seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// Fan the seeded trials across up to `threads` scoped worker threads.
    ///
    /// Trials are already independent — every trial owns its sampler,
    /// adversary, and RNGs, all derived from its seed — so the engine
    /// constructs them on the calling thread in seed order (factories stay
    /// `FnMut`), ships them to workers in contiguous chunks, and
    /// reassembles the results in seed order. The output is
    /// **bit-identical** to the sequential run; `threads(1)` *is* the
    /// sequential run. [`adaptive_traced`](Self::adaptive_traced) is the
    /// one exception: its per-round callback imposes a global order, so it
    /// always runs sequentially.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one thread");
        self.threads = threads;
        self
    }

    /// The configured worker-thread count.
    #[inline]
    pub fn num_threads(&self) -> usize {
        self.threads
    }

    /// Run one prepared input per trial through `run`, on up to
    /// [`threads`](Self::threads) scoped workers, returning outputs in
    /// input (= seed) order. The sequential path is the plain iterator
    /// map; the parallel path chunks inputs contiguously, one worker per
    /// chunk, and concatenates the chunk outputs — same order, same
    /// values, since `run` is pure modulo its input's own RNG state.
    fn run_trials<In, Out>(&self, inputs: Vec<In>, run: impl Fn(In) -> Out + Sync) -> Vec<Out>
    where
        In: Send,
        Out: Send,
    {
        let threads = self.threads.min(inputs.len()).max(1);
        if threads == 1 {
            return inputs.into_iter().map(run).collect();
        }
        let per_chunk = inputs.len().div_ceil(threads);
        let mut chunks: Vec<Vec<In>> = Vec::with_capacity(threads);
        let mut it = inputs.into_iter();
        loop {
            let chunk: Vec<In> = it.by_ref().take(per_chunk).collect();
            if chunk.is_empty() {
                break;
            }
            chunks.push(chunk);
        }
        let run = &run;
        std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .into_iter()
                .map(|chunk| scope.spawn(move || chunk.into_iter().map(run).collect::<Vec<_>>()))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("trial worker panicked"))
                .collect()
        })
    }

    /// Stream length per game.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of trials.
    #[inline]
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// The trial seeds, in run order.
    pub fn seeds(&self) -> impl Iterator<Item = u64> {
        let base = self.base_seed;
        (0..self.trials as u64).map(move |t| base.wrapping_add(t))
    }

    /// Decorrelate a sampler's coins from the adversary's seed. The
    /// paper's model requires the sampler's randomness to be independent
    /// of the adversary; every engine entry point routes sampler
    /// factories through this map.
    #[inline]
    pub fn sampler_seed(seed: u64) -> u64 {
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03
    }

    /// Construct `(seed, sampler, adversary)` per trial, on the calling
    /// thread, in seed order — the factory call order every execution
    /// mode shares, which is what makes parallel runs bit-identical.
    fn duelists<T, Smp, Adv>(
        &self,
        mut mk_sampler: impl FnMut(u64) -> Smp,
        mut mk_adv: impl FnMut(u64) -> Adv,
    ) -> Vec<(u64, Smp, Adv)>
    where
        Smp: StreamSampler<T>,
        Adv: Adversary<T>,
    {
        self.seeds()
            .map(|seed| (seed, mk_sampler(Self::sampler_seed(seed)), mk_adv(seed)))
            .collect()
    }

    /// Play the adaptive game once per trial and map each outcome (with
    /// the spent adversary, for strategy-specific introspection like
    /// attack exhaustion) to a record.
    ///
    /// Games run on the configured thread pool; `map` runs on the calling
    /// thread, in seed order (it may stay `FnMut`). The sequential engine
    /// streams — one trial's state alive at a time; a parallel engine
    /// buffers all trials' outcomes before the map pass.
    pub fn adaptive_map<T, Smp, Adv, R>(
        &self,
        mut mk_sampler: impl FnMut(u64) -> Smp,
        mut mk_adv: impl FnMut(u64) -> Adv,
        mut map: impl FnMut(u64, &Adv, GameOutcome<T>) -> R,
    ) -> Vec<R>
    where
        T: Clone + Send,
        Smp: StreamSampler<T> + Send,
        Adv: Adversary<T> + Send,
    {
        let n = self.n;
        if self.threads == 1 {
            return self
                .seeds()
                .map(|seed| {
                    let mut sampler = mk_sampler(Self::sampler_seed(seed));
                    let mut adv = mk_adv(seed);
                    let out = AdaptiveGame::new(n).run(&mut sampler, &mut adv);
                    map(seed, &adv, out)
                })
                .collect();
        }
        self.run_trials(
            self.duelists(mk_sampler, mk_adv),
            move |(seed, mut sampler, mut adv)| {
                let out = AdaptiveGame::new(n).run(&mut sampler, &mut adv);
                (seed, adv, out)
            },
        )
        .into_iter()
        .map(|(seed, adv, out)| map(seed, &adv, out))
        .collect()
    }

    /// Play the adaptive game once per trial; aggregate the set-system
    /// discrepancy of each final sample. Both the games and the judgments
    /// run on the configured thread pool.
    pub fn adaptive<T, Smp, Adv, Sys>(
        &self,
        system: &Sys,
        mut mk_sampler: impl FnMut(u64) -> Smp,
        mut mk_adv: impl FnMut(u64) -> Adv,
    ) -> RunStats
    where
        T: Clone + Send,
        Smp: StreamSampler<T> + Send,
        Adv: Adversary<T> + Send,
        Sys: SetSystem<T> + Sync,
    {
        let n = self.n;
        if self.threads == 1 {
            return RunStats::new(
                self.seeds()
                    .map(|seed| {
                        let mut sampler = mk_sampler(Self::sampler_seed(seed));
                        let mut adv = mk_adv(seed);
                        AdaptiveGame::new(n)
                            .run(&mut sampler, &mut adv)
                            .discrepancy(system)
                            .value
                    })
                    .collect(),
            );
        }
        RunStats::new(self.run_trials(
            self.duelists(mk_sampler, mk_adv),
            move |(_, mut sampler, mut adv)| {
                AdaptiveGame::new(n)
                    .run(&mut sampler, &mut adv)
                    .discrepancy(system)
                    .value
            },
        ))
    }

    /// Play the adaptive game once per trial, streaming every round to
    /// `on_round` (the martingale experiments' hook) and returning the
    /// outcomes.
    ///
    /// Always sequential, even with [`threads`](Self::threads) > 1: the
    /// per-round callback observes a global round order that a parallel
    /// run could not reproduce.
    pub fn adaptive_traced<T, Smp, Adv>(
        &self,
        mut mk_sampler: impl FnMut(u64) -> Smp,
        mut mk_adv: impl FnMut(u64) -> Adv,
        mut on_round: impl FnMut(u64, &RoundTrace<'_, T>),
    ) -> Vec<GameOutcome<T>>
    where
        T: Clone,
        Smp: StreamSampler<T>,
        Adv: Adversary<T>,
    {
        self.seeds()
            .map(|seed| {
                let mut sampler = mk_sampler(Self::sampler_seed(seed));
                let mut adv = mk_adv(seed);
                AdaptiveGame::new(self.n)
                    .run_traced(&mut sampler, &mut adv, |tr| on_round(seed, &tr))
            })
            .collect()
    }

    /// Play the continuous (every-prefix) game once per trial on the
    /// given checkpoint grid. Games (including their per-checkpoint
    /// judgments) run on the configured thread pool.
    pub fn continuous<T, Smp, Adv, Sys>(
        &self,
        game: &ContinuousAdaptiveGame,
        system: &Sys,
        eps: f64,
        mut mk_sampler: impl FnMut(u64) -> Smp,
        mut mk_adv: impl FnMut(u64) -> Adv,
    ) -> Vec<ContinuousOutcome<T>>
    where
        T: Clone + Send,
        Smp: StreamSampler<T> + Send,
        Adv: Adversary<T> + Send,
        Sys: SetSystem<T> + Sync,
    {
        if self.threads == 1 {
            return self
                .seeds()
                .map(|seed| {
                    let mut sampler = mk_sampler(Self::sampler_seed(seed));
                    let mut adv = mk_adv(seed);
                    game.run(&mut sampler, &mut adv, system, eps)
                })
                .collect();
        }
        self.run_trials(
            self.duelists(mk_sampler, mk_adv),
            move |(_, mut sampler, mut adv)| game.run(&mut sampler, &mut adv, system, eps),
        )
    }

    /// Sup-over-prefixes discrepancy per trial of the continuous game.
    pub fn continuous_sup<T, Smp, Adv, Sys>(
        &self,
        game: &ContinuousAdaptiveGame,
        system: &Sys,
        eps: f64,
        mk_sampler: impl FnMut(u64) -> Smp,
        mk_adv: impl FnMut(u64) -> Adv,
    ) -> RunStats
    where
        T: Clone + Send,
        Smp: StreamSampler<T> + Send,
        Adv: Adversary<T> + Send,
        Sys: SetSystem<T> + Sync,
    {
        RunStats::new(
            self.continuous(game, system, eps, mk_sampler, mk_adv)
                .into_iter()
                .map(|o| o.max_prefix_discrepancy)
                .collect(),
        )
    }

    /// Drive a static (oblivious) workload through the batched hot path
    /// once per trial and map `(seed, stream, summary)` to a record.
    ///
    /// This is the engine's static-adversary fast lane: a fixed stream
    /// needs no per-round adversary interaction, so the summary ingests
    /// it via [`StreamSummary::ingest_batch`].
    pub fn batch_map<T, S, R>(
        &self,
        mut mk_summary: impl FnMut(u64) -> S,
        mut mk_stream: impl FnMut(u64) -> Vec<T>,
        mut map: impl FnMut(u64, &[T], &S) -> R,
    ) -> Vec<R>
    where
        T: Clone + Send,
        S: StreamSummary<T> + Send,
    {
        if self.threads == 1 {
            return self
                .seeds()
                .map(|seed| {
                    let stream = mk_stream(seed);
                    let mut summary = mk_summary(Self::sampler_seed(seed));
                    summary.ingest_batch(&stream);
                    map(seed, &stream, &summary)
                })
                .collect();
        }
        self.run_trials(
            self.workloads(mk_summary, mk_stream),
            |(seed, stream, mut summary)| {
                summary.ingest_batch(&stream);
                (seed, stream, summary)
            },
        )
        .into_iter()
        .map(|(seed, stream, summary)| map(seed, &stream, &summary))
        .collect()
    }

    /// Drive a lazy [`StreamSource`] workload through the batched hot
    /// path once per trial and map `(seed, summary)` to a record — the
    /// constant-memory sibling of [`batch_map`](Self::batch_map): no
    /// trial ever owns more than one [`SOURCE_FRAME`] of stream, so
    /// 100M+-element runs cost summary + frame, not `Θ(n)` RAM.
    ///
    /// Because sources are deterministic per seed, judgments that need a
    /// second look at the stream (e.g.
    /// [`source_prefix_discrepancy`](crate::approx::source_prefix_discrepancy))
    /// re-open the source inside `map` instead of buffering it.
    pub fn source_map<T, S, Src, R>(
        &self,
        mut mk_summary: impl FnMut(u64) -> S,
        mut mk_source: impl FnMut(u64) -> Src,
        mut map: impl FnMut(u64, &S) -> R,
    ) -> Vec<R>
    where
        T: Clone + Send,
        S: StreamSummary<T> + Send,
        Src: StreamSource<T> + Send,
    {
        if self.threads == 1 {
            return self
                .seeds()
                .map(|seed| {
                    let mut source = mk_source(seed);
                    let mut summary = mk_summary(Self::sampler_seed(seed));
                    drain_source(&mut summary, &mut source);
                    map(seed, &summary)
                })
                .collect();
        }
        let inputs: Vec<(u64, Src, S)> = self
            .seeds()
            .map(|seed| {
                let source = mk_source(seed);
                let summary = mk_summary(Self::sampler_seed(seed));
                (seed, source, summary)
            })
            .collect();
        self.run_trials(inputs, |(seed, mut source, mut summary)| {
            drain_source(&mut summary, &mut source);
            (seed, summary)
        })
        .into_iter()
        .map(|(seed, summary)| map(seed, &summary))
        .collect()
    }

    /// Construct `(seed, stream, summary)` per trial on the calling
    /// thread, in seed order (mirrors [`duelists`](Self::duelists)). Only
    /// the parallel paths use this — it materialises all `trials` streams
    /// at once, where the sequential paths stream one at a time.
    fn workloads<T, S>(
        &self,
        mut mk_summary: impl FnMut(u64) -> S,
        mut mk_stream: impl FnMut(u64) -> Vec<T>,
    ) -> Vec<(u64, Vec<T>, S)>
    where
        S: StreamSummary<T>,
    {
        self.seeds()
            .map(|seed| {
                let stream = mk_stream(seed);
                let summary = mk_summary(Self::sampler_seed(seed));
                (seed, stream, summary)
            })
            .collect()
    }

    /// Static workload through the batched hot path, judged against a
    /// set system via an extractor from summary to retained sample.
    /// Ingestion and judgment both run on the configured thread pool.
    pub fn batch<T, S, Sys>(
        &self,
        system: &Sys,
        mut mk_summary: impl FnMut(u64) -> S,
        mut mk_stream: impl FnMut(u64) -> Vec<T>,
        sample_of: impl Fn(&S) -> Vec<T> + Sync,
    ) -> RunStats
    where
        T: Clone + Send,
        S: StreamSummary<T> + Send,
        Sys: SetSystem<T> + Sync,
    {
        if self.threads == 1 {
            return RunStats::new(
                self.seeds()
                    .map(|seed| {
                        let stream = mk_stream(seed);
                        let mut summary = mk_summary(Self::sampler_seed(seed));
                        summary.ingest_batch(&stream);
                        system.max_discrepancy(&stream, &sample_of(&summary)).value
                    })
                    .collect(),
            );
        }
        RunStats::new(self.run_trials(
            self.workloads(mk_summary, mk_stream),
            |(_, stream, mut summary)| {
                summary.ingest_batch(&stream);
                system.max_discrepancy(&stream, &sample_of(&summary)).value
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{RandomAdversary, StaticAdversary};
    use crate::attack::{AttackAdversary, MedianHuntAttack};
    use crate::bounds;
    use crate::sampler::{ReservoirSampler, StreamSampler};
    use crate::set_system::{PrefixSystem, SetSystem};

    #[test]
    fn adaptive_runs_all_trials_and_is_deterministic() {
        let engine = ExperimentEngine::new(2_000, 5);
        let system = PrefixSystem::new(1 << 16);
        let run = |e: &ExperimentEngine| {
            e.adaptive(
                &system,
                |s| ReservoirSampler::with_seed(32, s),
                |s| RandomAdversary::new(1 << 16, s),
            )
        };
        let a = run(&engine);
        let b = run(&engine);
        assert_eq!(a.per_trial.len(), 5);
        assert_eq!(a.per_trial, b.per_trial);
        assert!(a.worst() >= a.mean());
    }

    #[test]
    fn theorem_sized_reservoir_survives_hunter_through_engine() {
        let system = PrefixSystem::new(1 << 20);
        let k = bounds::reservoir_k_robust(system.ln_cardinality(), 0.15, 0.05);
        let stats = ExperimentEngine::new(4_000, 3).adaptive(
            &system,
            |s| ReservoirSampler::with_seed(k, s),
            |s| AttackAdversary::new(MedianHuntAttack::new(s), 1 << 20),
        );
        assert!(stats.all_within(0.15), "worst {}", stats.worst());
    }

    #[test]
    fn batch_path_equals_adaptive_path_on_static_streams() {
        // The same static stream judged through the per-element game and
        // through the batched fast lane must produce identical samples:
        // ingest_batch is a pure optimization.
        let stream: Vec<u64> = (0..3_000).map(|i| i * 17 % 4096).collect();
        let engine = ExperimentEngine::new(3_000, 3);
        let system = PrefixSystem::new(4096);
        let via_game: Vec<Vec<u64>> = engine.adaptive_map(
            |s| ReservoirSampler::with_seed(50, s),
            |_| StaticAdversary::new(stream.clone()),
            |_, _, out| out.sample,
        );
        let via_batch: Vec<Vec<u64>> = engine.batch_map(
            |s| ReservoirSampler::with_seed(50, s),
            |_| stream.clone(),
            |_, _, summary| summary.sample().to_vec(),
        );
        assert_eq!(via_game, via_batch);
        let stats = engine.batch(
            &system,
            |s| ReservoirSampler::with_seed(50, s),
            |_| stream.clone(),
            |s| s.sample().to_vec(),
        );
        assert_eq!(stats.per_trial.len(), 3);
    }

    #[test]
    fn traced_runs_observe_every_round() {
        let engine = ExperimentEngine::new(100, 2);
        let mut rounds = 0usize;
        let outs = engine.adaptive_traced(
            |s| ReservoirSampler::with_seed(4, s),
            |s| RandomAdversary::new(1 << 10, s),
            |_, _| rounds += 1,
        );
        assert_eq!(outs.len(), 2);
        assert_eq!(rounds, 200);
    }

    #[test]
    fn continuous_grid_judges_prefixes() {
        use crate::game::ContinuousAdaptiveGame;
        let system = PrefixSystem::new(1 << 16);
        let game = ContinuousAdaptiveGame::geometric(1_000, 100, 0.2);
        let stats = ExperimentEngine::new(1_000, 2).continuous_sup(
            &game,
            &system,
            0.2,
            |s| ReservoirSampler::with_seed(1_000, s),
            |s| RandomAdversary::new(1 << 16, s),
        );
        // k = n: the reservoir is the stream, so every prefix is exact.
        assert!(stats.worst() < 1e-9);
    }

    #[test]
    fn source_map_equals_batch_map_sequential_and_threaded() {
        use robust_sampling_streamgen::UniformSource;
        let n = 40_000usize;
        let via_batch: Vec<Vec<u64>> = ExperimentEngine::new(n, 4).batch_map(
            |s| ReservoirSampler::with_seed(64, s),
            |seed| robust_sampling_streamgen::uniform(n, 1 << 20, seed),
            |_, _, summary| summary.sample().to_vec(),
        );
        for threads in [1usize, 3] {
            let via_source: Vec<Vec<u64>> =
                ExperimentEngine::new(n, 4).threads(threads).source_map(
                    |s| ReservoirSampler::with_seed(64, s),
                    |seed| UniformSource::new(n, 1 << 20, seed),
                    |_, summary| summary.sample().to_vec(),
                );
            assert_eq!(via_batch, via_source, "threads={threads}");
        }
    }

    #[test]
    fn threaded_trials_are_bit_identical_to_sequential() {
        let system = PrefixSystem::new(1 << 16);
        let run = |threads: usize| {
            ExperimentEngine::new(1_500, 7).threads(threads).adaptive(
                &system,
                |s| ReservoirSampler::with_seed(48, s),
                |s| AttackAdversary::new(MedianHuntAttack::new(s), 1 << 16),
            )
        };
        let seq = run(1);
        for threads in [2, 3, 8, 32] {
            assert_eq!(seq.per_trial, run(threads).per_trial, "threads={threads}");
        }
    }

    #[test]
    fn threaded_map_preserves_seed_order() {
        let engine = ExperimentEngine::new(200, 9).with_base_seed(5).threads(4);
        let seeds: Vec<u64> = engine.adaptive_map(
            |s| ReservoirSampler::with_seed(8, s),
            |s| RandomAdversary::new(1 << 10, s),
            |seed, _, _| seed,
        );
        assert_eq!(seeds, (5..14).collect::<Vec<u64>>());
    }

    #[test]
    fn run_stats_aggregations() {
        let s = RunStats::new(vec![0.1, 0.3, 0.2]);
        assert!((s.worst() - 0.3).abs() < 1e-12);
        assert!((s.mean() - 0.2).abs() < 1e-12);
        assert!(s.all_within(0.3));
        assert!(!s.all_within(0.25));
        assert!((s.fraction_above(0.15) - 2.0 / 3.0).abs() < 1e-12);
    }
}
