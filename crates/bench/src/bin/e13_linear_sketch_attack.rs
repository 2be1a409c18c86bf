//! E13 (extensions) — linear sketches are not adversarially robust;
//! sampling is.
//!
//! The paper's related work (§1, "The good news"): *"Hardt and Woodruff
//! showed that linear sketches are inherently non-robust"*. This
//! experiment stages that contrast inside our own model: the adversary
//! sees the full state — for Count-Min that includes the hash functions —
//! and mounts the cheap row-collider attack: one decoy per row aimed at a
//! victim's cells. The victim never appears in the stream, yet Count-Min
//! certifies it as a heavy hitter. The Corollary 1.6 sampling pipeline at
//! the same memory budget is indifferent: decoys are just ordinary
//! elements, and the victim's sample density stays 0.
//!
//! Both machines consume the attack stream through the engine's
//! [`StreamSummary`] interface — same bytes, same ingest call, opposite
//! outcomes.
//!
//! (Against *oblivious* streams Count-Min is excellent — the first table
//! shows its static guarantee holding — which is exactly the paper's
//! point: the issue is adaptivity, not quality.)

use robust_sampling_bench::{banner, init_cli, is_quick, verdict, Table};
use robust_sampling_core::bounds;
use robust_sampling_core::engine::{ShardedSummary, StreamSummary};
use robust_sampling_core::estimators::heavy_hitters;
use robust_sampling_core::sampler::{ReservoirSampler, StreamSampler};
use robust_sampling_core::set_system::{SetSystem, SingletonSystem};
use robust_sampling_sketches::count_min::CountMin;
use robust_sampling_streamgen as streamgen;

fn main() {
    init_cli();
    banner(
        "E13",
        "adaptive attack on a linear sketch (Count-Min) vs robust sampling",
        "related work (HW13/NY15): linear sketches break under state-aware \
         adversaries; Thm 1.2 sampling at the same memory does not",
    );
    let n = robust_sampling_bench::stream_len(if is_quick() { 20_000usize } else { 100_000 });
    let universe = 1u64 << 20;
    let alpha = 0.05;
    let eps = 0.03;
    // The victim id lies outside the noise universe so "never sent" is
    // literal (the adversary may accuse any id it likes).
    let victim = (1u64 << 20) + 777_777;

    // ---- Phase 0: oblivious stream — Count-Min's static guarantee -------
    let mut cm = CountMin::for_guarantee(0.005, 0.01, 9);
    let stream = streamgen::zipf(n, universe, 1.2, 1);
    cm.ingest_batch(&stream);
    let hot = stream[0]; // zipf rank-0 appears often; check calibration
    let truth = stream.iter().filter(|&&x| x == hot).count() as u64;
    let mut table = Table::new(&["quantity", "value"]);
    table.row(&[
        "CM geometry (depth x width)".into(),
        format!("{} x {}", cm.depth(), cm.width()),
    ]);
    table.row(&[
        "oblivious: estimate(hot)".into(),
        cm.estimate(hot).to_string(),
    ]);
    table.row(&["oblivious: true count(hot)".into(), truth.to_string()]);
    println!("\nPhase 0 — oblivious stream (static guarantee holds):");
    table.emit("e13", "oblivious");
    let static_ok =
        cm.estimate(hot) >= truth && cm.estimate(hot) - truth <= (0.01 * n as f64) as u64 + 5;
    verdict(
        "Count-Min static guarantee on oblivious zipf",
        static_ok,
        "",
    );

    // ---- Phase 1: the state-aware attack ---------------------------------
    // Fresh sketch; adversary reads the hash functions from the state and
    // aims one decoy per row at the victim's cells, then floods the decoys
    // embedded in innocuous traffic.
    let mut cm = CountMin::for_guarantee(0.005, 0.01, 10);
    let decoys = cm.find_row_colliders(victim, 1 << 30);
    let floods = (alpha * n as f64 * 1.2) as usize; // push past the HH threshold

    // Same total stream feeds the sampling pipeline at a comparable budget.
    let system = SingletonSystem::new(universe);
    // The full Cor 1.6 sizing at eps/3 exceeds n at this scale (singleton
    // systems are the sampling approach's weak spot on memory — the honest
    // trade-off); phantom *rejection* holds at any k, so cap at n/5 and
    // report both numbers.
    let k_full = bounds::reservoir_k_robust(system.ln_cardinality(), eps / 3.0, 0.05);
    let k = k_full.min(n / 5);
    let mut reservoir = ReservoirSampler::with_seed(k, 11);

    // The attack stream: decoy floods interleaved through the first 60%.
    // Background traffic carrying the attack; `--workload` swaps in any
    // registry scenario (the attack is traffic-agnostic).
    let noise = match robust_sampling_bench::workload() {
        Some(w) => w.materialize(n, universe, 2),
        None => streamgen::uniform(n, universe, 2),
    };
    let mut sent = 0usize;
    let stream: Vec<u64> = noise
        .iter()
        .enumerate()
        .map(|(i, &bg)| {
            if sent < floods * decoys.len() && i % 2 == 0 {
                let d = decoys[sent % decoys.len()];
                sent += 1;
                d
            } else {
                bg
            }
        })
        .collect();
    // Same bytes, same engine call, both machines.
    for summary in [&mut cm as &mut dyn StreamSummary<u64>, &mut reservoir] {
        summary.ingest_batch(&stream);
    }
    let victim_truth = stream.iter().filter(|&&x| x == victim).count();
    let cm_victim = cm.estimate(victim);
    let cm_says_heavy = cm_victim as f64 >= alpha * n as f64;
    let report = heavy_hitters(reservoir.sample(), alpha, eps / 3.0);
    let sample_says_heavy = report.iter().any(|h| h.item == victim);

    let mut table = Table::new(&["quantity", "count-min", "robust sample"]);
    table.row(&[
        "memory (words / elements)".into(),
        cm.space().to_string(),
        format!("{k} (Cor 1.6 asks {k_full})"),
    ]);
    table.row(&[
        "victim true count".into(),
        victim_truth.to_string(),
        victim_truth.to_string(),
    ]);
    table.row(&[
        "victim estimated count".into(),
        cm_victim.to_string(),
        format!(
            "{:.0}",
            report
                .iter()
                .find(|h| h.item == victim)
                .map(|h| h.sample_density * n as f64)
                .unwrap_or(0.0)
        ),
    ]);
    table.row(&[
        format!("declared heavy (alpha = {alpha})"),
        cm_says_heavy.to_string(),
        sample_says_heavy.to_string(),
    ]);
    println!("\nPhase 1 — state-aware adversary (victim never sent):");
    table.emit("e13", "attack");
    verdict(
        "attack forges a phantom heavy hitter in Count-Min",
        cm_says_heavy && victim_truth == 0,
        &format!("estimate {cm_victim} >= alpha*n with zero true occurrences"),
    );
    verdict(
        "robust sampling is unaffected by the same stream",
        !sample_says_heavy,
        "decoys are ordinary elements to a sampler; no phantom reports",
    );
    println!(
        "\nwhy: Count-Min's guarantee is over the hash draw, which the \n\
         adversary reads from sigma_i; sampling's guarantee (Thm 1.2) is a \n\
         martingale over still-unflipped coins — state exposure is priced in."
    );

    // ---- Phase 2: sharded ingest is the same machine ---------------------
    // Count-Min is linear, so a K-way sharded ingest (same hash seed per
    // shard) merged back is *bit-identical* to the single sketch — broken
    // or not, sharding changes nothing.
    let shards = 2;
    let mut sharded =
        ShardedSummary::new(shards, 0, |_, _| CountMin::for_guarantee(0.005, 0.01, 10));
    sharded.ingest_batch(&stream);
    let merged = sharded.into_merged();
    verdict(
        "sharded Count-Min merge is exact",
        merged.estimate(victim) == cm_victim
            && merged.observed() == cm.observed()
            && merged.estimate(hot) == cm.estimate(hot),
        &format!("{shards}-way shard + merge reproduces every estimate bit-for-bit"),
    );
}
