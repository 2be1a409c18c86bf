//! # robust-sampling — facade crate
//!
//! Re-exports the whole adversarially-robust-sampling suite under one
//! roof, and hosts the repository-level examples and integration tests.
//!
//! * [`core`] — samplers, set systems, adaptive games, adversaries,
//!   estimators, the theorem-derived sample-size bounds, and the paper's
//!   distributed load-balancing scenario (`core::distributed`);
//! * [`sketches`] — deterministic/randomized streaming-summary baselines;
//! * [`streamgen`] — seeded workload generators;
//! * [`service`] — the concurrent serving layer: epoch-snapshot queries,
//!   the TCP line protocol, checkpoint/restore.
//!
//! See the repository `README.md` for a tour and `EXPERIMENTS.md` for the
//! paper-reproduction results.

pub use robust_sampling_core as core;
pub use robust_sampling_service as service;
pub use robust_sampling_sketches as sketches;
pub use robust_sampling_streamgen as streamgen;

/// The repository `README.md`, compiled as doctests: every `rust` code
/// block in it must build and run under `cargo test --doc`, so the
/// README's examples can never drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
