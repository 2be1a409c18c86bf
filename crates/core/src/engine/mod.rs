//! The batched stream-summary engine.
//!
//! This layer unifies everything in the workspace that consumes a stream
//! — the samplers of [`crate::sampler`], the self-sizing robust sketches
//! of [`crate::sketch`], the sliding-window sampler of [`crate::window`],
//! and (via impls in their own crate) the baseline sketches — behind one
//! [`StreamSummary`] interface with a
//! batched ingestion hot path:
//!
//! * [`StreamSummary`] — `ingest` / `ingest_batch` / `ingest_by` (a
//!   batch given as an indexed view: a slice, a stride, wire words) /
//!   introspection. The default `ingest_batch` loops over `ingest`;
//!   summaries with a faster bulk path override it. [`crate::sampler::BernoulliSampler`]
//!   (geometric skip-sampling) and [`crate::sampler::ReservoirSampler`]
//!   (Algorithm L gap skipping) do `O(stored)` instead of `Θ(n)` work per
//!   batch — and produce **identical samples** to element-wise ingestion
//!   for identical seeds, so the batch path is a pure optimization.
//! * [`QuantileSummary`] / [`FrequencySummary`] — the `estimate`-style
//!   query capabilities, so experiments can compare a robust sample, GK,
//!   KLL, Misra–Gries, … through one interface.
//! * [`WeightedSummary`] — multiplicity-weighted ingestion:
//!   `ingest_weighted(x, w)` is state-for-state the same as `w` repeats
//!   of `ingest(x)`, implemented on the samplers by jumping the existing
//!   skip arithmetic across the virtually expanded stream, so weight-1
//!   traffic stays bit-identical to the unit kernels.
//! * [`MergeableSummary`] — the composition capability: summaries whose
//!   guarantees survive merging, which is what sharding a stream across
//!   cores or sites and reassembling the pieces requires.
//! * [`ShardedSummary`] — sharded ingestion built on the two:
//!   round-robin routing to `K` deterministically-seeded shards, each
//!   reading its stride of a batch in place through
//!   [`StreamSummary::ingest_by`], queries merged on demand.
//! * [`SnapshotCodec`] — the persistence capability: summaries that can
//!   checkpoint their **full** state (retained elements *and* private RNG
//!   / gap state) and resume with behaviour bit-identical to an
//!   uninterrupted run — what the long-running serving layer in the
//!   `service` crate builds checkpoint/restore on.
//! * [`ExperimentEngine`] — the one game/measurement loop shared by every
//!   experiment binary: adaptive duels, continuous (every-prefix) games,
//!   and static batched runs, each judged against a
//!   [`SetSystem`](crate::set_system::SetSystem) across seeded trials —
//!   with the independent seeded trials optionally fanned across a scoped
//!   thread pool ([`ExperimentEngine::threads`]), bit-identical to the
//!   sequential run.
//! * [`report`] — the single table/CSV reporting path experiments emit
//!   their rows through.

pub mod experiment;
pub mod merge;
pub mod report;
pub mod sharded;
pub mod snapshot;
pub mod summary;
pub mod weighted;

pub use experiment::{ExperimentEngine, RunStats, SOURCE_FRAME};
pub use merge::{merge_in_shard_order, MergeableSummary};
pub use sharded::{stride_start, ShardedSummary};
pub use snapshot::{FrameHwm, SnapshotCodec, SnapshotError, SnapshotReader};
pub use summary::{FrequencySummary, QuantileSummary, StreamSummary};
pub use weighted::WeightedSummary;
