//! E10 — the distributed load-balancing scenario (paper §1.2, "Sampling in
//! modern data-processing systems").
//!
//! Claims reproduced:
//!
//! 1. With `K` query servers and random routing, each server's substream
//!    is a Bernoulli(1/K) sample; once the stream is long enough
//!    (Theorem 1.2 with `p = 1/K`, i.e.
//!    `n ≥ 10K(ln|R| + ln(4K/δ))/ε²`), **every** server's view is an
//!    ε-approximation of the full stream simultaneously — even for
//!    drifting/adversarial query mixes ("is random sampling a risk?": no);
//! 2. a coordinator merging per-site reservoirs (the \[CTW16\] setting)
//!    with the sound reservoir merge, in site order, yields a
//!    representative sample of the union. Sites ingest their shards
//!    through the engine's batched `StreamSummary` path;
//! 3. the engine's `ShardedSummary` round-robin deal plus the sound
//!    reservoir merge is representative at every shard count.

use robust_sampling_bench::{banner, f, init_cli, is_quick, verdict, Table};
use robust_sampling_core::approx::prefix_discrepancy;
use robust_sampling_core::distributed::LoadBalancer;
use robust_sampling_core::engine::{merge_in_shard_order, ShardedSummary, StreamSummary};
use robust_sampling_core::sampler::ReservoirSampler;
use robust_sampling_core::set_system::{PrefixSystem, SetSystem};
use robust_sampling_streamgen as streamgen;

fn main() {
    init_cli();
    banner(
        "E10",
        "random load balancing: every server sees a representative substream",
        "server substream = Bernoulli(1/K) sample; Thm 1.2 with delta/K \
         union bound makes ALL K views eps-approximations simultaneously",
    );
    let k_servers = 8usize;
    let universe = 1u64 << 20;
    let system = PrefixSystem::new(universe);
    let eps = 0.1;
    let delta = 0.05;
    // Required stream length so p = 1/K meets the Theorem 1.2 rate with
    // confidence delta/K per server:
    let n_required = (10.0
        * k_servers as f64
        * (system.ln_cardinality() + (4.0 * k_servers as f64 / delta).ln())
        / (eps * eps))
        .ceil() as usize;
    let n = if is_quick() {
        n_required
    } else {
        n_required * 2
    };
    println!("\nK = {k_servers}, required n >= {n_required}; using n = {n}");

    let mut table = Table::new(&["stream", "mode", "worst server disc", "<= eps"]);
    let mut all_ok = true;
    let mut suite = vec![
        ("uniform", streamgen::uniform(n, universe, 1)),
        ("zipf1.1", streamgen::zipf(n, universe, 1.1, 2)),
        ("two-phase(drift)", streamgen::two_phase(n, universe, 3)),
        ("sorted", streamgen::sorted_ramp(n, universe)),
    ];
    if let Some(w) = robust_sampling_bench::workload() {
        if !suite.iter().any(|(name, _)| *name == w.name) {
            suite.push((w.name, w.materialize(n, universe, 4)));
        }
    }
    for (name, stream) in suite {
        // The router, then an independently reseeded second router over
        // the same stream.
        for (mode, seed) in [("sync", 77), ("reseeded", 99)] {
            let mut lb = LoadBalancer::new(k_servers, seed);
            lb.run(&stream);
            let worst = lb
                .views()
                .iter()
                .map(|v| prefix_discrepancy(&stream, v).value)
                .fold(0.0f64, f64::max);
            all_ok &= worst <= eps;
            table.row(&[
                name.into(),
                mode.into(),
                f(worst),
                (worst <= eps).to_string(),
            ]);
        }
    }
    table.emit("e10", "router");
    verdict(
        "all K server views are eps-representative simultaneously",
        all_ok,
        "the paper's answer to 'is random sampling a risk?' — no, if sized",
    );

    // ---- Coordinator merge of per-site reservoirs -----------------------
    println!("\nDistributed reservoir merge (4 sites, disjoint value slices):");
    let per_site = n / 4;
    let mut sites = Vec::new();
    let mut union = Vec::new();
    for s in 0..4u64 {
        let mut site = ReservoirSampler::with_seed(512, s);
        let shard: Vec<u64> = streamgen::uniform(per_site, universe / 4, 10 + s)
            .into_iter()
            .map(|x| s * (universe / 4) + x)
            .collect();
        // Bulk arrival at the site: the engine's batched ingest path.
        site.ingest_batch(&shard);
        union.extend(shard);
        sites.push(site);
    }
    let merged = merge_in_shard_order(sites).into_sample();
    let d = prefix_discrepancy(&union, &merged).value;
    let mut table = Table::new(&["sites", "merged |S|", "union disc", "<= eps"]);
    table.row(&[
        "4".into(),
        merged.len().to_string(),
        f(d),
        (d <= eps).to_string(),
    ]);
    table.emit("e10", "merge");
    verdict(
        "coordinator merge is representative of the union",
        d <= eps,
        "sound reservoir merge (exact hypergeometric split) in site order",
    );

    // ---- Engine-layer sharded ingest + sound reservoir merge ------------
    println!("\nShardedSummary ingest (round-robin deal, sound reservoir merge):");
    let mut table = Table::new(&["shards", "merged |S|", "stream disc", "<= eps"]);
    let mut sharded_ok = true;
    let stream = streamgen::uniform(n, universe, 6);
    for shards in [2usize, 4, 8] {
        let mut sharded = ShardedSummary::new(shards, 44, |_, seed| {
            ReservoirSampler::with_seed(1024, seed)
        });
        sharded.ingest_batch(&stream);
        let sample = sharded.into_merged().into_sample();
        let d = prefix_discrepancy(&stream, &sample).value;
        sharded_ok &= d <= eps;
        table.row(&[
            shards.to_string(),
            sample.len().to_string(),
            f(d),
            (d <= eps).to_string(),
        ]);
    }
    table.emit("e10", "sharded");
    verdict(
        "sharded ingest + merge is representative at every K",
        sharded_ok,
        "MergeableSummary reservoir merge == one-pass sample in distribution",
    );
}
