//! The [`MergeableSummary`] capability trait: summaries whose guarantees
//! survive composition.
//!
//! Ben-Eliezer & Yogev's robustness statements are about *samples*, and a
//! sound merge of samples is exactly what a production deployment needs to
//! shard a stream across cores (or sites) and reassemble the pieces: if
//! each shard's summary is an `(ε, δ)`-faithful digest of its substream
//! and `merge` composes them without losing the guarantee, the merged
//! summary answers for the whole stream.
//! [`ShardedSummary`](crate::engine::ShardedSummary) builds data-parallel
//! ingestion on top of this trait.
//!
//! What "sound" means varies by summary — the impls document their exact
//! contract:
//!
//! * **Exact, no error growth** — [`BernoulliSampler`] (disjoint Bernoulli
//!   samples concatenate), [`BottomKSampler`] (union of i.i.d. keys, keep
//!   the `k` smallest), and Count-Min in the `sketches` crate (counter
//!   matrices add).
//! * **Distributionally exact** — [`ReservoirSampler`] and the robust
//!   sketches wrapping it: a weighted subsample-on-merge whose output is
//!   distributed identically to one reservoir run over the concatenated
//!   stream.
//! * **Error-bound preserving** — KLL, GK, and merge–reduce in the
//!   `sketches` crate (`±εn` rank error over the union).
//! * **Error-bound additive** — Misra–Gries and SpaceSaving: each side
//!   contributes its own `n_i/(k+1)` (resp. `n_i/k`) slack, which sums to
//!   the single-summary bound over the union, but the *post-merge* counter
//!   set may differ from a one-pass run's.

use crate::engine::summary::StreamSummary;
use crate::sampler::{BernoulliSampler, BottomKSampler, ReservoirSampler};
use crate::sketch::{RobustHeavyHitterSketch, RobustQuantileSketch};

/// A summary that can absorb another summary of the same type, as if it
/// had ingested the other's substream after its own.
///
/// The contract: if `a` summarises stream `A` and `b` summarises stream
/// `B` (built independently — separate RNGs), then after `a.merge(b)`,
/// `a` is a valid summary of the concatenation `A ‖ B`, with the error /
/// distributional guarantee stated by the implementing type. Merging is
/// deterministic given the summaries' seeds, and the merged summary can
/// keep ingesting.
pub trait MergeableSummary<T>: StreamSummary<T> {
    /// Absorb `other`, leaving `self` a summary of both streams.
    fn merge(&mut self, other: Self)
    where
        Self: Sized;
}

/// Merge `shards` left-to-right in shard order — the one canonical merge
/// loop behind [`ShardedSummary::merged`](crate::engine::ShardedSummary),
/// epoch publication in the service crate, and checkpoint recovery.
/// Shard order matters: merge soundness is only stated for a fixed
/// composition order, and the service's bit-identity contract compares
/// served epochs against offline merges performed in this exact order.
///
/// # Panics
///
/// Panics if `shards` yields no summary.
pub fn merge_in_shard_order<T, S, I>(shards: I) -> S
where
    S: MergeableSummary<T>,
    I: IntoIterator<Item = S>,
{
    let mut it = shards.into_iter();
    let mut out = it.next().expect("at least one shard");
    for s in it {
        out.merge(s);
    }
    out
}

impl<T: Clone> MergeableSummary<T> for BernoulliSampler<T> {
    fn merge(&mut self, other: Self) {
        BernoulliSampler::merge(self, other);
    }
}

impl<T: Clone> MergeableSummary<T> for ReservoirSampler<T> {
    fn merge(&mut self, other: Self) {
        ReservoirSampler::merge(self, other);
    }
}

impl<T: Clone> MergeableSummary<T> for BottomKSampler<T> {
    fn merge(&mut self, other: Self) {
        BottomKSampler::merge(self, other);
    }
}

impl<T: Ord + Clone> MergeableSummary<T> for RobustQuantileSketch<T> {
    fn merge(&mut self, other: Self) {
        RobustQuantileSketch::merge(self, other);
    }
}

impl<T: Ord + Clone> MergeableSummary<T> for RobustHeavyHitterSketch<T> {
    fn merge(&mut self, other: Self) {
        RobustHeavyHitterSketch::merge(self, other);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::prefix_discrepancy;
    use crate::engine::summary::QuantileSummary;
    use crate::sampler::StreamSampler;

    #[test]
    fn bernoulli_merge_concatenates_disjoint_samples() {
        let mut a = BernoulliSampler::with_seed(0.1, 1);
        let mut b = BernoulliSampler::with_seed(0.1, 2);
        a.observe_batch(&(0..5_000u64).collect::<Vec<_>>());
        b.observe_batch(&(5_000..10_000u64).collect::<Vec<_>>());
        let (sa, sb) = (a.sample().to_vec(), b.sample().to_vec());
        MergeableSummary::merge(&mut a, b);
        assert_eq!(a.observed(), 10_000);
        let expect: Vec<u64> = sa.into_iter().chain(sb).collect();
        assert_eq!(a.sample(), expect.as_slice());
        // The merged sampler keeps streaming with the pending gap.
        a.observe_batch(&(10_000..20_000u64).collect::<Vec<_>>());
        assert_eq!(a.observed(), 20_000);
        assert!(a.sample().len() > expect.len());
    }

    #[test]
    #[should_panic(expected = "different rates")]
    fn bernoulli_merge_rejects_mismatched_rates() {
        let mut a = BernoulliSampler::<u64>::with_seed(0.1, 1);
        let b = BernoulliSampler::<u64>::with_seed(0.2, 2);
        a.merge(b);
    }

    #[test]
    fn reservoir_merge_small_union_keeps_everything() {
        let mut a = ReservoirSampler::with_seed(64, 1);
        let mut b = ReservoirSampler::with_seed(64, 2);
        for x in 0..20u64 {
            a.observe(x);
        }
        for x in 20..40u64 {
            b.observe(x);
        }
        a.merge(b);
        assert_eq!(a.observed(), 40);
        let mut got = a.sample().to_vec();
        got.sort_unstable();
        assert_eq!(got, (0..40u64).collect::<Vec<_>>());
    }

    #[test]
    fn reservoir_merge_is_full_and_subset_of_union() {
        let mut a = ReservoirSampler::with_seed(128, 3);
        let mut b = ReservoirSampler::with_seed(128, 4);
        a.observe_batch(&(0..30_000u64).collect::<Vec<_>>());
        b.observe_batch(&(30_000..50_000u64).collect::<Vec<_>>());
        a.merge(b);
        assert_eq!(a.observed(), 50_000);
        assert_eq!(a.sample().len(), 128);
        assert!(a.sample().iter().all(|&x| x < 50_000));
    }

    #[test]
    fn reservoir_merge_split_is_proportional() {
        // Site i's count in the merged sample is hypergeometric with mean
        // k·nᵢ/N, also when a site's reservoir holds its whole stream, so
        // its mean count over the trials lies within 4 standard errors
        // of that.
        let trials = 2_000u64;
        for (k, sizes) in [
            (32, &[8_000, 2_000][..]),
            (10, &[1_000, 10]),
            (10, &[10, 1_000]),
            (10, &[1_000, 100, 10]),
        ] {
            let n: u64 = sizes.iter().sum();
            // Site i holds the values starts[i] .. starts[i] + sizes[i].
            let starts: Vec<u64> = sizes
                .iter()
                .scan(0, |end, &len| {
                    *end += len;
                    Some(*end - len)
                })
                .collect();
            let mut counts = vec![0u64; sizes.len()];
            for t in 0..trials {
                let sites = starts.iter().zip(sizes).enumerate().map(|(i, (&s, &len))| {
                    let mut site = ReservoirSampler::with_seed(k, 8 * t + i as u64);
                    site.observe_batch(&(s..s + len).collect::<Vec<_>>());
                    site
                });
                for &x in merge_in_shard_order(sites).sample() {
                    counts[starts.partition_point(|&s| s <= x) - 1] += 1;
                }
            }
            for (i, &len) in sizes.iter().enumerate() {
                let p = len as f64 / n as f64;
                let expect = k as f64 * p;
                let var = expect * (1.0 - p) * (n as f64 - k as f64) / (n as f64 - 1.0);
                let se = (var / trials as f64).sqrt();
                let mean = counts[i] as f64 / trials as f64;
                assert!(
                    (mean - expect).abs() <= 4.0 * se,
                    "sites {sizes:?}, k = {k}: site {i} mean count {mean}, expect {expect} ± 4·{se:.4}"
                );
            }
        }
    }

    #[test]
    fn reservoir_merge_can_keep_streaming() {
        // After a merge the threshold is re-drawn for the combined length;
        // continued ingestion must keep the sample representative.
        let mut a = ReservoirSampler::with_seed(256, 5);
        let mut b = ReservoirSampler::with_seed(256, 6);
        a.observe_batch(&(0..25_000u64).collect::<Vec<_>>());
        b.observe_batch(&(25_000..50_000u64).collect::<Vec<_>>());
        a.merge(b);
        a.observe_batch(&(50_000..100_000u64).collect::<Vec<_>>());
        assert_eq!(a.observed(), 100_000);
        assert_eq!(a.sample().len(), 256);
        let stream: Vec<u64> = (0..100_000).collect();
        let d = prefix_discrepancy(&stream, a.sample()).value;
        assert!(d < 0.12, "post-merge stream discrepancy {d}");
        // Late elements must still be admitted at rate ~k/n.
        let late = a.sample().iter().filter(|&&x| x >= 50_000).count();
        assert!(late > 256 / 5, "only {late}/256 late elements");
    }

    #[test]
    #[should_panic(expected = "smaller capacity")]
    fn reservoir_merge_rejects_full_smaller_reservoir() {
        let mut a = ReservoirSampler::with_seed(64, 1);
        let mut b = ReservoirSampler::with_seed(8, 2);
        a.observe_batch(&(0..1_000u64).collect::<Vec<_>>());
        b.observe_batch(&(0..1_000u64).collect::<Vec<_>>());
        a.merge(b);
    }

    #[test]
    fn bottom_k_merge_keeps_smallest_keys_exactly() {
        let mut a = BottomKSampler::with_seed(16, 7);
        let mut b = BottomKSampler::with_seed(16, 8);
        for x in 0..2_000u64 {
            a.observe(x);
        }
        for x in 2_000..4_000u64 {
            b.observe(x);
        }
        let mut union: Vec<(f64, u64)> = a
            .keys()
            .iter()
            .copied()
            .zip(a.sample().iter().copied())
            .chain(b.keys().iter().copied().zip(b.sample().iter().copied()))
            .collect();
        union.sort_by(|x, y| x.0.total_cmp(&y.0));
        let expect: Vec<u64> = union[..16].iter().map(|&(_, x)| x).collect();
        a.merge(b);
        assert_eq!(a.observed(), 4_000);
        let mut got = a.sample().to_vec();
        let mut want = expect;
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn robust_quantile_merge_tracks_union_median() {
        let mut a = RobustQuantileSketch::<u64>::new(20.0, 0.1, 0.05, 1);
        let mut b = RobustQuantileSketch::<u64>::new(20.0, 0.1, 0.05, 2);
        a.observe_batch(&(0..40_000u64).collect::<Vec<_>>());
        b.observe_batch(&(40_000..80_000u64).collect::<Vec<_>>());
        a.merge(b);
        assert_eq!(a.observed(), 80_000);
        let med = a.estimate_quantile(0.5).unwrap() as f64;
        assert!((med - 40_000.0).abs() < 0.1 * 80_000.0, "median {med}");
    }

    #[test]
    fn merge_in_shard_order_matches_the_manual_left_fold() {
        let mut shards: Vec<ReservoirSampler<u64>> = (0..4)
            .map(|j| ReservoirSampler::with_seed(32, 100 + j))
            .collect();
        for (j, s) in shards.iter_mut().enumerate() {
            let lo = 5_000 * j as u64;
            s.observe_batch(&(lo..lo + 5_000).collect::<Vec<_>>());
        }
        let manual = {
            let mut it = shards.iter().cloned();
            let mut out = it.next().unwrap();
            for s in it {
                MergeableSummary::<u64>::merge(&mut out, s);
            }
            out
        };
        let folded: ReservoirSampler<u64> = super::merge_in_shard_order(shards);
        assert_eq!(folded.sample(), manual.sample());
        assert_eq!(folded.observed(), manual.observed());
    }

    /// FNV-1a over a checkpoint: a compact pin for exact state bytes.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn merged_reservoir_state_is_pinned_bit_for_bit() {
        use crate::engine::snapshot::SnapshotCodec;
        // (K, digest of the fold's checkpoint, digest after it continues).
        // A checkpoint holds the settled Algorithm L state, so when the
        // post-merge threshold re-draw runs must not move a single byte.
        let pins: [(u64, u64, u64); 3] = [
            (2, 0xf812_28fe_e2ae_150e, 0x3508_ec58_2ffd_7538),
            (3, 0x3557_a614_098f_25aa, 0x49e3_930a_5265_7cb7),
            (5, 0xbe6d_9bbc_7688_264e, 0xe8f8_4c1a_0550_1975),
        ];
        let mut got = Vec::new();
        for (shards, _, _) in pins {
            let full = |seed: u64, lo: u64, n: u64| {
                let mut s = ReservoirSampler::with_seed(64, seed);
                s.observe_batch(&(lo..lo + n).collect::<Vec<_>>());
                s
            };
            let mut folded: ReservoirSampler<u64> = super::merge_in_shard_order(
                (0..shards).map(|j| full(100 * shards + j, 10_000 * j, 3_000 + 500 * j)),
            );
            let fold = fnv1a(&folded.save());
            // Continue with every ingest kind, each first after a merge,
            // and end on a merge so the last checkpoint is of a merge too.
            folded.observe_batch(&(1_000_000..1_004_000u64).collect::<Vec<_>>());
            folded.merge(full(7, 2_000_000, 5_000));
            for x in 3_000_000..3_000_300u64 {
                folded.observe(x);
            }
            folded.merge(full(8, 4_000_000, 6_000));
            folded.observe_weighted(5_000_000, 700);
            folded.merge(full(9, 6_000_000, 7_000));
            got.push((shards, fold, fnv1a(&folded.save())));
        }
        assert_eq!(got, pins);
    }

    #[test]
    fn robust_heavy_hitter_merge_finds_union_hitter() {
        let mut a = RobustHeavyHitterSketch::<u64>::new(14.0, 0.1, 0.05, 0.05, 3);
        let mut b = RobustHeavyHitterSketch::<u64>::new(14.0, 0.1, 0.05, 0.05, 4);
        // 7 is 25% of stream A and absent from B: 12.5% of the union.
        let sa: Vec<u64> = (0..20_000u64)
            .map(|i| if i % 4 == 0 { 7 } else { 100_000 + i })
            .collect();
        let sb: Vec<u64> = (0..20_000u64).map(|i| 200_000 + i).collect();
        a.observe_batch(&sa);
        b.observe_batch(&sb);
        a.merge(b);
        assert_eq!(a.observed(), 40_000);
        let d = a.density(&7);
        assert!((d - 0.125).abs() < 0.05, "density {d}");
    }
}
