//! [`ObservableDefense`] implementations for the summaries defined in
//! this crate: the samplers, the robust sketches, and the sharded
//! fan-out. (The six baseline sketches implement the trait in the
//! sketches crate.)

use super::{ObservableDefense, StateOracle};
use crate::engine::{QuantileSummary, ShardedSummary};
use crate::sampler::{
    BernoulliSampler, BottomKSampler, EveryKthSampler, ReservoirSampler, StreamSampler,
};
use crate::sketch::{RobustHeavyHitterSketch, RobustQuantileSketch};
use crate::window::ChainSampler;

// ---------------------------------------------------------------------------
// Samplers: the observable state is exactly the sample — the paper's σ_i.
// ---------------------------------------------------------------------------

impl StateOracle for BernoulliSampler<u64> {}

impl ObservableDefense for BernoulliSampler<u64> {
    fn visible_into(&self, out: &mut Vec<u64>) {
        out.extend_from_slice(self.sample());
    }
}

/// A reservoir answers quantile queries from its sample (it implements
/// [`QuantileSummary`]), and the paper's adversary can run the same
/// computation on the visible state — so the oracle exposes it.
impl StateOracle for ReservoirSampler<u64> {
    fn quantile_estimate(&self, q: f64) -> Option<u64> {
        self.estimate_quantile(q)
    }
}

impl ObservableDefense for ReservoirSampler<u64> {
    fn visible_into(&self, out: &mut Vec<u64>) {
        out.extend_from_slice(self.sample());
    }
}

impl StateOracle for BottomKSampler<u64> {}

impl ObservableDefense for BottomKSampler<u64> {
    fn visible_into(&self, out: &mut Vec<u64>) {
        out.extend_from_slice(StreamSampler::sample(self));
    }
}

impl StateOracle for EveryKthSampler<u64> {}

impl ObservableDefense for EveryKthSampler<u64> {
    fn visible_into(&self, out: &mut Vec<u64>) {
        out.extend_from_slice(StreamSampler::sample(self));
    }
}

/// The sliding-window chain sampler duels like any other sampler: its
/// observable state is the per-chain residents (one window sample per
/// chain, with replacement). Judges must score it against the **active
/// window**, not the whole stream — that is its contract (see
/// [`crate::window`] and the `chain-window` row of the attack matrix).
impl StateOracle for ChainSampler<u64> {}

impl ObservableDefense for ChainSampler<u64> {
    fn visible_into(&self, out: &mut Vec<u64>) {
        out.extend(self.sample());
    }
}

// ---------------------------------------------------------------------------
// Robust sketches: a theorem-sized reservoir plus query logic; both the
// retained sample and the live answers are observable.
// ---------------------------------------------------------------------------

impl StateOracle for RobustQuantileSketch<u64> {
    fn quantile_estimate(&self, q: f64) -> Option<u64> {
        self.quantile(q)
    }
}

impl ObservableDefense for RobustQuantileSketch<u64> {
    fn visible_into(&self, out: &mut Vec<u64>) {
        out.extend_from_slice(self.sample());
    }
}

impl StateOracle for RobustHeavyHitterSketch<u64> {
    fn count_estimate(&self, x: u64) -> Option<f64> {
        Some(self.density(&x) * self.observed() as f64)
    }
}

impl ObservableDefense for RobustHeavyHitterSketch<u64> {
    fn visible_into(&self, out: &mut Vec<u64>) {
        out.extend_from_slice(self.sample());
    }
}

// ---------------------------------------------------------------------------
// Sharded fan-out: the adversary sees every shard's state (shard order is
// deterministic, so the concatenation is a faithful state digest).
// ---------------------------------------------------------------------------

impl<S> StateOracle for ShardedSummary<S> where S: ObservableDefense {}

impl<S: ObservableDefense> ObservableDefense for ShardedSummary<S> {
    fn visible_into(&self, out: &mut Vec<u64>) {
        for shard in self.shards() {
            shard.visible_into(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::{attack, Duel};
    use crate::engine::StreamSummary;

    #[test]
    fn sampler_visible_state_is_the_sample() {
        let mut r = ReservoirSampler::<u64>::with_seed(8, 1);
        for x in 0..100u64 {
            r.ingest(x);
        }
        assert_eq!(r.visible(), r.sample().to_vec());
        let m = StateOracle::quantile_estimate(&r, 0.5);
        assert!(m.is_some());
    }

    #[test]
    fn sharded_defense_exposes_every_shard() {
        let mut sharded =
            ShardedSummary::new(3, 5, |_, seed| ReservoirSampler::<u64>::with_seed(4, seed));
        for x in 0..200u64 {
            sharded.ingest(x);
        }
        let visible = sharded.visible();
        assert_eq!(visible.len(), 12, "3 shards x 4 residents");
        let mut atk = attack("median-hunt").unwrap().build(300, 1 << 12, 2);
        let out = Duel::new(300, 1 << 12).run(&mut sharded, &mut atk);
        assert_eq!(out.stream.len(), 300);
    }

    #[test]
    fn chain_sampler_duels_and_stays_inside_the_window() {
        let w = 64;
        let mut d = ChainSampler::<u64>::with_seed(w, 8, 4);
        let mut atk = attack("median-hunt").unwrap().build(500, 1 << 12, 3);
        let out = Duel::new(500, 1 << 12).run(&mut d, &mut atk);
        assert_eq!(out.stream.len(), 500);
        assert_eq!(out.final_sample.len(), 8);
        // Every visible resident is an element of the active window.
        let window = &out.stream[out.stream.len() - w..];
        assert!(out.final_sample.iter().all(|x| window.contains(x)));
    }

    #[test]
    fn robust_quantile_sketch_answers_the_oracle() {
        let mut s = RobustQuantileSketch::<u64>::with_capacity(64, 0.1, 0.05, 3);
        for x in 0..10_000u64 {
            s.observe(x);
        }
        let med = StateOracle::quantile_estimate(&s, 0.5).unwrap() as f64;
        assert!((med - 5_000.0).abs() < 2_000.0, "median {med}");
        assert!(!s.visible().is_empty());
    }
}
