//! CLUSTER: the cluster as rows of the attack × defense matrix, and
//! its CI gate.
//!
//! Every registered attack plays its adaptive duel across the cluster
//! boundary (real `cluster_node` processes behind the
//! [`ClusterRouter`]), each cell judged by [`prefix_discrepancy`]
//! exactly like the matrix's sample rows. Two verdicts (nonzero exit on
//! any FAIL):
//!
//! * each break-scale cell is **identical** — same adaptive stream, same
//!   final sample, same error — to the in-process [`SummaryService`]
//!   mirror of the same shape (the adversary cannot tell the cluster
//!   from the local service);
//! * the theorem-sized row stays within [`ROBUST_EPS`] against the whole
//!   registry.
//!
//! Cluster ≡ offline sharded merge and checkpoint failover are property
//! tests (`tests/cluster_determinism.rs`,
//! `crates/service/tests/cluster_failover.rs`).
//!
//! ```text
//! cluster --quick              # CI gate, seconds
//! cluster --nodes 5            # wider cluster
//! ```

use robust_sampling_bench::matrix::ROBUST_EPS;
use robust_sampling_bench::{banner, cluster_nodes, f, init_cli, is_quick, verdict, Table};
use robust_sampling_core::approx::prefix_discrepancy;
use robust_sampling_core::attack::{
    registry as attack_registry, AttackSpec, Duel, ObservableDefense, StateOracle,
};
use robust_sampling_core::bounds;
use robust_sampling_core::engine::{ExperimentEngine, StreamSummary};
use robust_sampling_core::sampler::ReservoirSampler;
use robust_sampling_service::{ClusterConfig, ClusterDefense, ClusterRouter, SummaryService};

/// Break-scale per-node capacity for the matrix rows (the matrix's
/// `SMALL_K`), so the adaptivity premium stays visible.
const SMALL_K: usize = 32;
/// Confidence the theorem-sized row is built for (the matrix's delta).
const ROBUST_DELTA: f64 = 0.1;

// ---------------------------------------------------------------------------
// The in-process mirror of the cluster's observable surface.
// ---------------------------------------------------------------------------

/// A [`SummaryService`] exposed through the exact observable surface the
/// cluster exposes: the attack sees the **merged published view** and
/// queries it through the epoch snapshot — so with fresh-view cadence
/// (`E = 1`) an adaptive duel against this mirror is round-for-round
/// indistinguishable from one against the cluster, and the two cells
/// must come out identical.
struct ServiceMirror {
    svc: SummaryService,
    seen: usize,
}

impl ServiceMirror {
    fn start(shards: usize, base_seed: u64, cap: usize) -> Self {
        Self {
            svc: SummaryService::start(shards, base_seed, 1, move |_, s| {
                ReservoirSampler::with_seed(cap, s)
            }),
            seen: 0,
        }
    }
}

impl StreamSummary<u64> for ServiceMirror {
    fn ingest(&mut self, x: u64) {
        self.svc.ingest_frame(&[x]);
        self.seen += 1;
    }

    fn items_seen(&self) -> usize {
        self.seen
    }

    fn space(&self) -> usize {
        self.svc.snapshot().visible_ref().len()
    }

    fn summary_name(&self) -> &'static str {
        "service-mirror"
    }
}

impl StateOracle for ServiceMirror {
    fn count_estimate(&self, x: u64) -> Option<f64> {
        Some(self.svc.snapshot().count(x))
    }

    fn quantile_estimate(&self, q: f64) -> Option<u64> {
        self.svc.snapshot().quantile(q)
    }
}

impl ObservableDefense for ServiceMirror {
    fn visible_into(&self, out: &mut Vec<u64>) {
        out.extend_from_slice(self.svc.snapshot().visible_ref());
    }
}

/// One matrix cell at the cluster boundary: duel `spec` against a fresh
/// `nodes`-node cluster with per-node capacity `cap`, judge by prefix
/// discrepancy. Returns (error, adaptive stream, final sample).
fn cluster_cell(
    spec: &AttackSpec,
    nodes: usize,
    cap: usize,
    n: usize,
    universe: u64,
    attack_seed: u64,
) -> (f64, Vec<u64>, Vec<u64>) {
    let defense_seed = ExperimentEngine::sampler_seed(attack_seed);
    let router = ClusterRouter::start(ClusterConfig {
        nodes,
        base_seed: defense_seed,
        epoch_every: 1,
        cap,
        universe,
        workers: 1,
        tenant_budget_bytes: None,
    })
    .expect("start cluster");
    let mut defense = ClusterDefense::new(router);
    let mut strategy = spec.build(n, universe, attack_seed);
    let outcome = Duel::new(n, universe).run(&mut defense, &mut strategy);
    let err = prefix_discrepancy(&outcome.stream, &outcome.final_sample).value;
    (err, outcome.stream, outcome.final_sample)
}

fn main() {
    init_cli();
    let quick = is_quick();
    let nodes = cluster_nodes(3);
    let universe = 1u64 << 16;
    banner(
        "CLUSTER",
        "the cluster as rows of the attack x defense matrix",
        "every matrix cell at the cluster boundary identical to the in-process \
         mirror; the theorem-sized cluster row holds against the whole registry",
    );
    println!("\nnodes = {nodes}, per-node k = {SMALL_K} (break-scale rows)");

    let p_n = if quick { 400 } else { 1_000 };
    let attack_seed = 3;
    let k_robust = bounds::reservoir_k_robust((universe as f64).ln(), ROBUST_EPS, ROBUST_DELTA);
    let mut rows = Table::new(&[
        "attack",
        "cluster err",
        "mirror err",
        "identical",
        "robust err",
    ]);
    let mut cells_identical = true;
    let mut robust_ok = true;
    for spec in attack_registry() {
        let (err_c, stream_c, sample_c) =
            cluster_cell(spec, nodes, SMALL_K, p_n, universe, attack_seed);
        // The in-process mirror of the same shape, same seeds.
        let mut mirror =
            ServiceMirror::start(nodes, ExperimentEngine::sampler_seed(attack_seed), SMALL_K);
        let mut strategy = spec.build(p_n, universe, attack_seed);
        let outcome = Duel::new(p_n, universe).run(&mut mirror, &mut strategy);
        let err_m = prefix_discrepancy(&outcome.stream, &outcome.final_sample).value;
        let identical =
            stream_c == outcome.stream && sample_c == outcome.final_sample && err_c == err_m;
        cells_identical &= identical;
        // The theorem-sized row.
        let (err_r, _, _) = cluster_cell(spec, nodes, k_robust, p_n, universe, attack_seed);
        robust_ok &= err_r <= ROBUST_EPS;
        rows.row(&[
            spec.name.to_string(),
            f(err_c),
            f(err_m),
            identical.to_string(),
            f(err_r),
        ]);
    }
    println!();
    rows.emit("cluster", "matrix");

    // ---- verdicts ------------------------------------------------------
    println!();
    verdict(
        "every cluster matrix cell identical to the in-process service mirror",
        cells_identical,
        &format!(
            "{} attacks x {p_n} adaptive rounds: same stream, same sample, same error",
            attack_registry().len()
        ),
    );
    verdict(
        "theorem-sized cluster row holds against the whole registry",
        robust_ok,
        &format!("per-node k = {k_robust}, every cell <= eps = {ROBUST_EPS}"),
    );
    if !(cells_identical && robust_ok) {
        std::process::exit(1);
    }
}
