//! The paper's distributed-database vignette (§1.2): queries are routed to
//! K servers at random, so each server's workload is a Bernoulli(1/K)
//! sample of the query stream. If the stream is long enough — Theorem 1.2
//! with p = 1/K — every server's view truthfully represents the global
//! workload, so per-server query optimizers see the right statistics even
//! as the workload drifts. Also demonstrates the coordinator pattern:
//! per-site reservoirs merged into one global sample of the union.
//!
//! ```sh
//! cargo run --release --example distributed_load_balancer
//! ```

use robust_sampling::core::approx::prefix_discrepancy;
use robust_sampling::core::distributed::LoadBalancer;
use robust_sampling::core::engine::{merge_in_shard_order, StreamSummary};
use robust_sampling::core::sampler::{ReservoirSampler, StreamSampler};
use robust_sampling::core::set_system::{PrefixSystem, SetSystem};
use robust_sampling::streamgen;

fn main() {
    let k_servers = 8;
    let universe = 1u64 << 20;
    let system = PrefixSystem::new(universe);
    let eps = 0.08;
    let delta = 0.02;
    // Stream length so every server's Bernoulli(1/K) view meets Thm 1.2
    // at confidence delta/K:
    let n = (10.0
        * k_servers as f64
        * (system.ln_cardinality() + (4.0 * k_servers as f64 / delta).ln())
        / (eps * eps))
        .ceil() as usize;
    println!("K = {k_servers} servers, eps = {eps}: need n >= {n} queries; running n = {n}");

    // A drifting workload (the risky case the paper worries about).
    let stream = streamgen::two_phase(n, universe, 11);

    // Random router: each server's substream, then a local reservoir
    // per server over it.
    let mut lb = LoadBalancer::new(k_servers, 23);
    lb.run(&stream);
    println!("\nper-server workload representativeness (prefix discrepancy vs global):");
    let mut worst = 0.0f64;
    let mut sites = Vec::new();
    for (j, substream) in lb.views().iter().enumerate() {
        let d = prefix_discrepancy(&stream, substream).value;
        worst = worst.max(d);
        let mut site = ReservoirSampler::with_seed(512, 100 + j as u64);
        site.ingest_batch(substream);
        println!(
            "  server {j}: received {:>6} queries, discrepancy {:.4}, local reservoir {}",
            substream.len(),
            d,
            site.sample().len()
        );
        sites.push(site);
    }
    println!(
        "worst server: {:.4} <= eps = {eps}: {} — \"is random sampling a \
         risk?\" answered in the negative",
        worst,
        worst <= eps
    );

    // Coordinator merge: fuse the sites' reservoirs, in site order, into
    // one uniform sample of the union (the sound reservoir merge keeps the
    // sites' k).
    println!("\ncoordinator merge of per-site reservoirs:");
    let merged = merge_in_shard_order(sites).into_sample();
    let d = prefix_discrepancy(&stream, &merged).value;
    println!(
        "merged sample |S| = {}, discrepancy vs global stream = {:.4} (<= eps: {})",
        merged.len(),
        d,
        d <= eps
    );
}
