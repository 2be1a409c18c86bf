//! Integration: the §1.2 distributed scenario against the core
//! guarantees — per-server representativeness under drift, per-server
//! reservoirs over the routed substreams, and coordinator merges feeding
//! the core estimators.

use robust_sampling::core::approx::prefix_discrepancy;
use robust_sampling::core::distributed::LoadBalancer;
use robust_sampling::core::engine::{merge_in_shard_order, StreamSummary};
use robust_sampling::core::estimators::SampleQuantiles;
use robust_sampling::core::sampler::{ReservoirSampler, StreamSampler};
use robust_sampling::core::set_system::{PrefixSystem, SetSystem};
use robust_sampling::streamgen;

#[test]
fn all_servers_representative_under_drifting_workload() {
    let k_servers = 4;
    let universe = 1u64 << 20;
    let eps = 0.1;
    let system = PrefixSystem::new(universe);
    let n =
        (10.0 * k_servers as f64 * (system.ln_cardinality() + (4.0 * k_servers as f64 / 0.05).ln())
            / (eps * eps))
            .ceil() as usize;
    let stream = streamgen::two_phase(n, universe, 13);
    let mut lb = LoadBalancer::new(k_servers, 17);
    lb.run(&stream);
    for (j, view) in lb.views().iter().enumerate() {
        let d = prefix_discrepancy(&stream, view).value;
        assert!(d <= eps, "server {j}: discrepancy {d} > {eps}");
    }
}

#[test]
fn router_conserves_and_balances_with_local_reservoirs() {
    let stream = streamgen::zipf(30_000, 1 << 16, 1.1, 3);
    let mut lb = LoadBalancer::new(6, 21);
    lb.run(&stream);
    let total: usize = lb.views().iter().map(Vec::len).sum();
    assert_eq!(total, stream.len());
    let mean = stream.len() / 6;
    for (j, sub) in lb.views().iter().enumerate() {
        assert!(
            (sub.len() as f64 - mean as f64).abs() < 0.15 * mean as f64,
            "server {j} got {} (mean {mean})",
            sub.len()
        );
        let mut res = ReservoirSampler::with_seed(64, j as u64);
        res.ingest_batch(sub);
        assert_eq!(res.observed(), sub.len());
        assert_eq!(res.sample().len(), 64);
        for v in res.sample() {
            assert!(sub.contains(v), "reservoir element not from substream");
        }
    }
}

#[test]
fn merged_reservoir_feeds_quantile_estimator() {
    // Sites see disjoint shards; the coordinator's merged sample must give
    // accurate global quantiles via the core estimator.
    let universe = 1u64 << 20;
    let per_site = 20_000;
    let mut sites = Vec::new();
    let mut union = Vec::new();
    for s in 0..5u64 {
        let shard = streamgen::uniform(per_site, universe, 40 + s);
        let mut site = ReservoirSampler::with_seed(1500, s);
        for &x in &shard {
            site.observe(x);
        }
        union.extend(shard);
        sites.push(site);
    }
    let merged = merge_in_shard_order(sites).into_sample();
    assert_eq!(merged.len(), 1500);
    let sq = SampleQuantiles::new(&merged, union.len());
    let mut sorted = union.clone();
    sorted.sort_unstable();
    for &q in &[0.25, 0.5, 0.75] {
        let _true_v = sorted[(q * union.len() as f64) as usize];
        let est = *sq.quantile(q);
        let est_rank = sorted.partition_point(|&x| x <= est) as f64 / union.len() as f64;
        assert!(
            (est_rank - q).abs() < 0.05,
            "q={q}: merged estimate rank {est_rank}"
        );
    }
    let _ = prefix_discrepancy(&union, &merged); // exercised above; no panic
}

#[test]
fn routed_reservoirs_merge_back_to_a_representative_sample() {
    // The whole §1.2 pipeline: route a drifting stream, keep one reservoir
    // per server, and merge the servers' reservoirs at the coordinator.
    // The merge is seeded by the servers' own RNG state, draws each
    // element from some server's reservoir at most once, keeps the
    // servers' k, and approximates the full stream.
    let stream = streamgen::two_phase(60_000, 1 << 20, 5);
    let mut lb = LoadBalancer::new(6, 8);
    lb.run(&stream);
    let servers: Vec<ReservoirSampler<u64>> = lb
        .views()
        .iter()
        .enumerate()
        .map(|(j, sub)| {
            let mut res = ReservoirSampler::with_seed(512, 100 + j as u64);
            res.ingest_batch(sub);
            res
        })
        .collect();
    let merged = merge_in_shard_order(servers.clone()).into_sample();
    assert_eq!(merged.len(), 512);
    assert_eq!(
        merged,
        merge_in_shard_order(servers.clone()).into_sample(),
        "seeded merge must repeat"
    );

    let mut pool: Vec<u64> = servers.iter().flat_map(|s| s.sample().to_vec()).collect();
    pool.sort_unstable();
    let mut drawn = merged.clone();
    drawn.sort_unstable();
    let mut i = 0;
    for v in &drawn {
        i += pool[i..].partition_point(|x| x < v);
        assert_eq!(
            pool.get(i),
            Some(v),
            "merged element {v} not left in any reservoir"
        );
        i += 1;
    }

    let d = prefix_discrepancy(&stream, &merged).value;
    assert!(d < 0.1, "merged discrepancy {d}");
}
