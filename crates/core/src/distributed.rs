//! The paper's §1.2 distributed-systems scenario.
//!
//! > "each incoming query is randomly assigned to one of K
//! > query-processing servers. […] the set of queries that each such
//! > server receives is essentially a Bernoulli random sample (with
//! > parameter p = 1/K) of the full stream"
//!
//! [`LoadBalancer`] implements exactly that router. Experiment E10 checks
//! that *every* server's substream is simultaneously an ε-approximation of
//! the full stream — even when the stream is chosen adversarially — as
//! Theorem 1.2 predicts for Bernoulli samples of rate `1/K`.
//!
//! [`merge_sites`] is the coordinator side of the continuous
//! distributed-sampling literature the paper cites (\[CTW16\], \[CMYZ12\]):
//! each site runs a local [`ReservoirSampler`](crate::sampler::ReservoirSampler),
//! and the coordinator fuses the sites' `(count, sample)` pairs into one
//! uniform sample of the union. In-process shard merging goes through
//! [`ShardedSummary`](crate::engine::ShardedSummary) and the sound
//! reservoir merge instead.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random load-balancing router over `K` servers.
///
/// Each element is routed to a uniformly random server, so server `j`'s
/// substream is a Bernoulli(`1/K`) sample of the stream. The Theorem 1.2
/// sizing question becomes: how long must the stream be before all `K`
/// substreams are ε-representative simultaneously (take `δ/K` per server
/// and union-bound)?
#[derive(Debug)]
pub struct LoadBalancer {
    servers: Vec<Vec<u64>>,
    rng: StdRng,
}

impl LoadBalancer {
    /// A router over `k` servers.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize, seed: u64) -> Self {
        assert!(k > 0, "need at least one server");
        Self {
            servers: vec![Vec::new(); k],
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Route one element; returns the chosen server index.
    pub fn route(&mut self, x: u64) -> usize {
        let j = self.rng.random_range(0..self.servers.len());
        self.servers[j].push(x);
        j
    }

    /// Route an entire stream.
    pub fn run(&mut self, stream: &[u64]) {
        for &x in stream {
            self.route(x);
        }
    }

    /// Number of servers.
    pub fn k(&self) -> usize {
        self.servers.len()
    }

    /// The substream received by server `j`.
    pub fn server_view(&self, j: usize) -> &[u64] {
        &self.servers[j]
    }

    /// All substreams.
    pub fn views(&self) -> &[Vec<u64>] {
        &self.servers
    }
}

/// Coordinator-side merge: draw a size-`k` (or smaller, if the union is
/// smaller) sample of the union of all sites' streams, given each site's
/// `(elements seen, local reservoir)`.
///
/// Each output slot picks a site with probability proportional to its
/// *remaining* element count and consumes one random element of that
/// site's reservoir — the message-optimal scheme of \[CTW16\] specialised
/// to a one-shot merge. Every union element ends up with inclusion
/// probability `k/Σnᵢ`, matching a single global reservoir's marginals.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn merge_sites(sites: &[(usize, &[u64])], k: usize, seed: u64) -> Vec<u64> {
    assert!(k > 0, "merged sample must be non-empty");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pools: Vec<(f64, Vec<u64>)> = sites
        .iter()
        .filter(|(_, sample)| !sample.is_empty())
        .map(|&(count, sample)| (count as f64, sample.to_vec()))
        .collect();
    let mut out = Vec::with_capacity(k);
    for _ in 0..k {
        let total: f64 = pools.iter().map(|(w, _)| *w).sum();
        if total <= 0.0 {
            break;
        }
        let mut pick = rng.random::<f64>() * total;
        let mut idx = pools.len() - 1;
        for (i, (w, _)) in pools.iter().enumerate() {
            if pick < *w {
                idx = i;
                break;
            }
            pick -= *w;
        }
        let (w, pool) = &mut pools[idx];
        let j = rng.random_range(0..pool.len());
        out.push(pool.swap_remove(j));
        // The site "spends" n_i/k_i elements' worth of weight per draw so
        // that exhausting its reservoir exhausts its weight.
        let spend = *w / (pool.len() + 1) as f64;
        *w = (*w - spend).max(0.0);
        if pool.is_empty() {
            pools.swap_remove(idx);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::prefix_discrepancy;
    use crate::sampler::{ReservoirSampler, StreamSampler};
    use robust_sampling_streamgen as streamgen;

    /// A site's `(count, reservoir)` after observing `xs`.
    fn site(k: usize, seed: u64, xs: impl IntoIterator<Item = u64>) -> ReservoirSampler<u64> {
        let mut r = ReservoirSampler::with_seed(k, seed);
        for x in xs {
            r.observe(x);
        }
        r
    }

    fn merge(sites: &[ReservoirSampler<u64>], k: usize, seed: u64) -> Vec<u64> {
        let pairs: Vec<(usize, &[u64])> =
            sites.iter().map(|s| (s.observed(), s.sample())).collect();
        merge_sites(&pairs, k, seed)
    }

    #[test]
    fn router_partitions_the_stream() {
        let stream = streamgen::uniform(10_000, 1 << 20, 1);
        let mut lb = LoadBalancer::new(8, 2);
        lb.run(&stream);
        let total: usize = lb.views().iter().map(Vec::len).sum();
        assert_eq!(total, stream.len());
        // Balanced within 4 sigma: each server gets ~1250 ± 4·sqrt(1250·7/8).
        for (j, v) in lb.views().iter().enumerate() {
            let dev = (v.len() as f64 - 1250.0).abs();
            assert!(
                dev < 4.0 * (1250.0f64 * 0.875).sqrt(),
                "server {j}: {}",
                v.len()
            );
        }
    }

    #[test]
    fn router_balances_and_preserves_content() {
        // The union of substreams is the stream, sizes are balanced, and
        // the seeded router reproduces its partition exactly.
        let stream = streamgen::uniform(50_000, 1 << 20, 21);
        let mut lb = LoadBalancer::new(8, 33);
        lb.run(&stream);
        let mut union: Vec<u64> = lb.views().concat();
        union.sort_unstable();
        let mut expect = stream.clone();
        expect.sort_unstable();
        assert_eq!(union, expect);
        for (j, sub) in lb.views().iter().enumerate() {
            let dev = (sub.len() as f64 - 6_250.0).abs();
            assert!(dev < 5.0 * (6_250.0f64 * 0.875).sqrt(), "server {j}");
        }
        let mut again = LoadBalancer::new(8, 33);
        again.run(&stream);
        assert_eq!(lb.views(), again.views());
    }

    #[test]
    fn every_server_view_is_representative_of_uniform_stream() {
        // The paper's claim: each substream is a Bernoulli(1/K) sample, so
        // with n/K ≈ 12.5k elements per server the prefix discrepancy vs
        // the full stream must be small.
        let stream = streamgen::uniform(100_000, 1 << 30, 3);
        let mut lb = LoadBalancer::new(8, 4);
        lb.run(&stream);
        for (j, view) in lb.views().iter().enumerate() {
            let d = prefix_discrepancy(&stream, view).value;
            assert!(d < 0.03, "server {j} discrepancy {d}");
        }
    }

    #[test]
    fn merged_sample_draws_proportionally_to_site_sizes() {
        // Site A saw 9x the data of site B; merged sample should be ~90% A.
        let trials = 300;
        let mut from_a = 0usize;
        let mut total = 0usize;
        for t in 0..trials {
            let a = site(64, t, 0..9_000); // values < 9000
            let b = site(64, 1000 + t, 9_000..10_000); // values >= 9000
            let merged = merge(&[a, b], 20, 7 + t);
            from_a += merged.iter().filter(|&&v| v < 9_000).count();
            total += merged.len();
        }
        let frac = from_a as f64 / total as f64;
        assert!(
            (0.85..0.95).contains(&frac),
            "site-A fraction {frac}, expected ≈ 0.9"
        );
    }

    #[test]
    fn merge_handles_small_union() {
        let merged = merge(&[site(4, 1, [1, 2])], 10, 3);
        assert_eq!(merged.len(), 2, "cannot produce more than the union");
    }

    #[test]
    fn merged_sample_is_representative_of_union() {
        // 4 sites with disjoint uniform slices; the merged sample must
        // approximate the union's distribution.
        let sites: Vec<_> = (0..4u64)
            .map(|s| site(256, s, (0..25_000u64).map(|x| s * 25_000 + x)))
            .collect();
        let union: Vec<u64> = (0..100_000).collect();
        let merged = merge(&sites, 512, 11);
        assert_eq!(merged.len(), 512);
        let d = prefix_discrepancy(&union, &merged).value;
        assert!(d < 0.1, "merged discrepancy {d}");
    }
}
