//! # Adversarially robust streaming sampling
//!
//! A faithful, production-grade implementation of
//! *"The Adversarial Robustness of Sampling"* (Omri Ben-Eliezer and Eylon
//! Yogev, PODS 2020). The paper studies the two most basic streaming
//! sampling algorithms — **Bernoulli sampling** and **reservoir sampling**
//! — in a fully adaptive adversarial model: after every round the adversary
//! observes the sampler's internal state and chooses the next stream element
//! accordingly, trying to make the final sample *unrepresentative* of the
//! stream.
//!
//! The paper's punchline, which this crate makes executable:
//!
//! * **Robustness (Theorem 1.2).** Replacing the VC-dimension term `d` in
//!   the classical static sample-size bound with the cardinality term
//!   `ln |R|` makes both samplers robust: the sample is an
//!   ε-approximation of the stream with probability `1 − δ` against *any*
//!   adaptive adversary. See [`bounds`].
//! * **An attack (Theorem 1.3).** Below roughly `ln |R| / ln n` the
//!   guarantee provably fails: a simple bisection-style adversary traps the
//!   entire sample among the smallest elements of the stream. See
//!   [`attack::BisectionAttack`] and [`adversary`].
//! * **Continuous robustness (Theorem 1.4).** With a `ln ln n` additive
//!   overhead, reservoir sampling keeps the sample representative at *every
//!   prefix* of the stream, not just at the end.
//!
//! ## Crate layout
//!
//! | module | contents |
//! |---|---|
//! | [`engine`] | the batched [`engine::StreamSummary`] layer and the [`engine::ExperimentEngine`] game/measurement loop |
//! | [`sampler`] | [`sampler::StreamSampler`] trait, [`sampler::BernoulliSampler`], [`sampler::ReservoirSampler`], weighted reservoir, baselines |
//! | [`set_system`] | [`set_system::SetSystem`] trait and prefix / interval / singleton / axis-box / halfspace / explicit systems |
//! | [`approx`] | ε-approximation checking: exact maximum density discrepancy |
//! | [`bounds`] | sample-size calculators lifted verbatim from the theorem statements |
//! | [`game`] | the `AdaptiveGame` and `ContinuousAdaptiveGame` runners (paper Figures 1–2) |
//! | [`adversary`] | the games' [`adversary::Adversary`] interface, the §1 dyadic bisection attacks, and benign/static adversaries |
//! | [`attack`] | the pluggable attack subsystem: [`attack::AttackStrategy`] trait, the registered attacks (Figure 3's included), attack registry (`--attack`), and the attack-vs-defense [`attack::Duel`] loop |
//! | [`distributed`] | the §1.2 scenario: the random [`distributed::LoadBalancer`] router; a \[CTW16\] coordinator merges site reservoirs with [`engine::merge_in_shard_order`] |
//! | [`estimators`] | quantiles, heavy hitters, range queries, center points computed from a sample |
//! | [`sketch`] | self-sizing [`sketch::RobustQuantileSketch`] / [`sketch::RobustHeavyHitterSketch`] |
//! | [`net`] | ε-net checking and the approximation-implies-net transfer |
//! | [`martingale`] | the concentration-inequality toolbox of §3/§4 as executable code |
//! | [`dyadic`] | arbitrary-precision dyadic rationals in `[0,1]` powering the continuous bisection attack |
//!
//! ## Quick example
//!
//! ```
//! use robust_sampling_core::bounds;
//! use robust_sampling_core::sampler::{ReservoirSampler, StreamSampler};
//! use robust_sampling_core::set_system::{PrefixSystem, SetSystem};
//!
//! // A robust reservoir for streams over U = {0,..,999} with prefix ranges,
//! // sized by Theorem 1.2 for (eps, delta) = (0.1, 0.01).
//! let universe = 1000u64;
//! let system = PrefixSystem::new(universe);
//! let k = bounds::reservoir_k_robust(system.ln_cardinality(), 0.1, 0.01);
//! let mut sampler = ReservoirSampler::with_seed(k, 7);
//! for x in 0..10_000u64 {
//!     sampler.observe(x % universe);
//! }
//! let report = system.max_discrepancy(
//!     &(0..10_000u64).map(|x| x % universe).collect::<Vec<_>>(),
//!     sampler.sample(),
//! );
//! assert!(report.value <= 0.1, "sample must be a 0.1-approximation");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod approx;
pub mod attack;
pub mod bounds;
pub mod distributed;
pub mod dyadic;
pub mod engine;
pub mod estimators;
pub mod game;
pub mod martingale;
pub mod net;
pub mod sampler;
pub mod set_system;
pub mod sketch;
pub mod window;

pub use adversary::Adversary;
pub use approx::DiscrepancyReport;
pub use attack::{AttackSpec, AttackStrategy, Duel, ObservableDefense};
pub use engine::{
    ExperimentEngine, FrequencySummary, QuantileSummary, StreamSummary, WeightedSummary,
};
pub use game::{AdaptiveGame, ContinuousAdaptiveGame, GameOutcome};
pub use sampler::{BernoulliSampler, Observation, ReservoirSampler, StreamSampler};
pub use set_system::SetSystem;
pub use sketch::{RobustHeavyHitterSketch, RobustQuantileSketch};
