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
//! The coordinator side of that setting, the continuous
//! distributed-sampling literature the paper cites (\[CTW16\],
//! \[CMYZ12\]), needs no code of its own here: each site runs a local
//! [`ReservoirSampler`](crate::sampler::ReservoirSampler), and
//! [`merge_in_shard_order`](crate::engine::merge_in_shard_order) fuses
//! the sites' reservoirs into one uniform sample of the union with the
//! sound reservoir merge.

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

    /// All substreams.
    pub fn views(&self) -> &[Vec<u64>] {
        &self.servers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::prefix_discrepancy;
    use robust_sampling_streamgen as streamgen;

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
}
