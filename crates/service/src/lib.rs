//! The serving layer: robust summaries as a long-running concurrent
//! service.
//!
//! The paper motivates robust sampling with *online* systems — routers,
//! load balancers, monitoring pipelines (§1.2) — where the stream never
//! ends and the adversary interacts with the summary while it is being
//! built. The rest of the workspace runs offline trials: an
//! [`ExperimentEngine`] owns the whole stream and queries happen after
//! the fact. This crate closes that gap:
//!
//! * [`SummaryService`] — `K` shards ingested on the caller's own
//!   thread (reusing the [`ShardedSummary`] round-robin deal, so a
//!   served run is **bit-identical** to the offline sharded run of the
//!   same frame schedule) publishing **epoch snapshots**: merged, immutable
//!   summaries swapped behind an `Arc`. A query clones the snapshot
//!   `Arc` under a read lock held only for the pointer copy (the epoch
//!   swap's write lock is equally brief), so concurrent queries are
//!   effectively constant-time, mutually consistent, never contend with
//!   ingestion, and never observe a half-ingested frame.
//! * [`protocol`] — the one [`Request`]/[`Response`] vocabulary and its
//!   one codec: an opcode table (opcode ↔ text verb per variant), one
//!   encoder and one decoder per enum, written once for the
//!   dependency-free text line form (`INGEST` /
//!   `QUERY COUNT|QUANTILE|HH|KS` / `SNAPSHOT` / `STATS`) and for
//!   [`frame`], the binary form, which alone also carries the cluster
//!   admin requests.
//! * [`ServiceServer`] / [`ServiceClient`] — a threaded TCP server and a
//!   blocking client. The client implements the core engine and attack
//!   traits ([`StreamSummary`], [`StateOracle`], [`ObservableDefense`]),
//!   so every registered [`AttackStrategy`] and `StreamSource` workload
//!   drives a live service end-to-end — the paper's adaptive game played
//!   across a real client/server boundary.
//! * **Checkpoint/restore** — [`SummaryService::checkpoint`] persists the
//!   full service state through the engine's
//!   [`SnapshotCodec`](robust_sampling_core::engine::SnapshotCodec), and
//!   [`SummaryService::restore`] resumes with state-identical behaviour
//!   (property-tested in `tests/service_determinism.rs`).
//! * [`cluster`] — the multi-node layer: `N` single-shard node
//!   *processes* behind a [`ClusterRouter`] that deals frames with the
//!   exact [`ShardedSummary`] round-robin contract (a cluster run is
//!   bit-identical to the offline sharded merge), a coordinator that
//!   merges per-node epoch snapshots in shard order into one global
//!   view, and checkpoint **failover**: a killed node is restored from
//!   its envelope on a fresh port and the router replays only the
//!   retained frame window — zero query-visible difference, per seed
//!   (fault-injected in `tests/cluster_failover.rs`).
//!
//! `tests/serving_gates.rs` drives the server under load in release
//! builds: in-process ingest + query throughput, a 400-connection soak,
//! binary vs text wire throughput and a 50K-tenant arena soak, each
//! against a fixed bound.
//!
//! [`ExperimentEngine`]: robust_sampling_core::engine::ExperimentEngine
//! [`ShardedSummary`]: robust_sampling_core::engine::ShardedSummary
//! [`StreamSummary`]: robust_sampling_core::engine::StreamSummary
//! [`StateOracle`]: robust_sampling_core::attack::StateOracle
//! [`ObservableDefense`]: robust_sampling_core::attack::ObservableDefense
//! [`AttackStrategy`]: robust_sampling_core::attack::AttackStrategy

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod cluster;
pub mod frame;
pub mod protocol;
pub mod server;
pub mod service;
pub mod tenant;

pub use client::ServiceClient;
pub use cluster::{ChildGuard, ClusterConfig, ClusterDefense, ClusterRouter};
pub use frame::FrameError;
pub use protocol::{Request, Response, ServiceStats};
pub use server::{ServiceConfig, ServiceServer};
pub use service::{EpochSnapshot, QueryHandle, SummaryService};
pub use tenant::{TenantArena, TenantArenaConfig, VictimTenantView};
