//! In-process served ingest rate by shard count: a `SummaryService` of
//! `K` reservoir shards fed through `ingest_frame` (a slice) and
//! `ingest_frame_le` (a binary `INGEST` payload), for K ∈ {1, 2, 4},
//! reservoir capacity k ∈ {1,253, 20,000} and frames of 256 and 4,096
//! elements. Each cell streams 40M elements into a fresh service once
//! untimed, then once timed, and prints the timed rate in elements per
//! second. One invocation is one sample; for a before/after, alternate
//! ten invocations per side.
//!
//! ```sh
//! cargo run --release --example shard_ingest
//! ```

use robust_sampling::core::sampler::ReservoirSampler;
use robust_sampling::service::SummaryService;
use std::time::Instant;

/// Distinct elements cycled through, so generation is not timed.
const POOL: usize = 1 << 20;

/// Elements streamed per run.
const ELEMS: usize = 40_000_000;

fn main() {
    let pool: Vec<u64> = (0..POOL as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20)
        .collect();
    let bytes: Vec<u8> = pool.iter().flat_map(|v| v.to_le_bytes()).collect();
    println!("path\tk\tframe\tK\telem_per_s");
    for le in [false, true] {
        for k in [1_253, 20_000] {
            for frame in [256, 4_096] {
                for shards in [1, 2, 4] {
                    let run = || {
                        let mut svc = SummaryService::start(shards, 0, usize::MAX, |_, s| {
                            ReservoirSampler::with_seed(k, s)
                        });
                        let start = Instant::now();
                        let mut fed = 0;
                        while fed < ELEMS {
                            let at = fed % (POOL - frame);
                            if le {
                                svc.ingest_frame_le(&bytes[8 * at..8 * (at + frame)]);
                            } else {
                                svc.ingest_frame(&pool[at..at + frame]);
                            }
                            fed += frame;
                        }
                        assert_eq!(svc.items_routed(), fed);
                        fed as f64 / start.elapsed().as_secs_f64()
                    };
                    // One untimed run first, so a cell never inherits the
                    // CPU state left by the previous cell's longer or
                    // shorter work (that alone moved K = 1 rates by 2×).
                    run();
                    let rate = run();
                    let path = if le {
                        "ingest_frame_le"
                    } else {
                        "ingest_frame"
                    };
                    println!("{path}\t{k}\t{frame}\t{shards}\t{rate:.4e}");
                }
            }
        }
    }
}
