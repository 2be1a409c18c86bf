//! E12 (extensions) — beyond the paper's letter, within its spirit:
//!
//! 1. **Bottom-k sampling is as robust as the reservoir.** Bottom-k keeps
//!    the k smallest of i.i.d. uniform keys — identical marginals to
//!    reservoir sampling but *more* exposed state (the adversary also sees
//!    the keys and the inclusion threshold). Theorem 1.2's martingale
//!    argument never uses state secrecy, so the same `k` must work; we
//!    verify empirically against the full adversary suite.
//! 2. **Dominance (2-D prefix) ranges.** The natural 2-D analogue of the
//!    paper's prefix system (`ln|R| = 2 ln m`): theorem-sized samples
//!    answer every north-east cumulative query within ±εn.
//! 3. **ε-net transfer.** An (ε/2)-approximation is an ε-net; we verify
//!    the robust sample covers every ε-dense range, and show the static
//!    net-size formula next to the adaptive (cardinality) one.

use robust_sampling_bench::{banner, f, init_cli, is_quick, verdict, Table};
use robust_sampling_core::adversary::{Adversary, RandomAdversary, StaticAdversary};
use robust_sampling_core::attack::{AttackAdversary, MedianHuntAttack, PrefixMassAttack};
use robust_sampling_core::bounds;
use robust_sampling_core::net;
use robust_sampling_core::sampler::{BottomKSampler, ReservoirSampler, StreamSampler};
use robust_sampling_core::set_system::{DominanceSystem, IntervalSystem, PrefixSystem, SetSystem};
use robust_sampling_streamgen as streamgen;

fn main() {
    init_cli();
    banner(
        "E12",
        "extensions: bottom-k robustness, dominance ranges, eps-net transfer",
        "Thm 1.2 transfers to bottom-k (more state, same coins); 2-D prefix \
         system at ln|R| = 2 ln m; approximation => net",
    );
    let n = if is_quick() { 5_000 } else { 20_000 };
    let trials = if is_quick() { 3 } else { 6 };
    let universe = 1u64 << 20;
    let eps = 0.12;
    let delta = 0.05;

    // ---- Part 1: bottom-k vs reservoir under every adversary ------------
    let system = PrefixSystem::new(universe);
    let k = bounds::reservoir_k_robust(system.ln_cardinality(), eps, delta);
    println!("\nPart 1: bottom-k (exposed keys) vs reservoir, k = {k}:");
    let engine = robust_sampling_bench::engine(n, trials).with_base_seed(70);
    let mut table = Table::new(&[
        "adversary",
        "bottom-k worst",
        "reservoir worst",
        "both <= eps",
    ]);
    let mut all_ok = true;
    type AdvFactory = fn(u64, usize, u64) -> Box<dyn Adversary<u64> + Send>;
    let adversaries: Vec<(&str, AdvFactory)> = vec![
        ("random", |u, _, s| Box::new(RandomAdversary::new(u, s))),
        ("sorted", |u, n, _| {
            Box::new(StaticAdversary::new(streamgen::sorted_ramp(n, u)))
        }),
        ("greedy", |u, _, s| {
            Box::new(AttackAdversary::new(PrefixMassAttack::new(64, s), u))
        }),
        ("hunter", |u, _, s| {
            Box::new(AttackAdversary::new(MedianHuntAttack::new(s), u))
        }),
    ];
    for (name, make) in &adversaries {
        let bk = engine.adaptive(
            &system,
            |s| BottomKSampler::with_seed(k, s),
            |s| make(universe, n, s),
        );
        let rs = engine.adaptive(
            &system,
            |s| ReservoirSampler::with_seed(k, s),
            |s| make(universe, n, s),
        );
        let ok = bk.worst() <= eps && rs.worst() <= eps;
        all_ok &= ok;
        table.row(&[(*name).into(), f(bk.worst()), f(rs.worst()), ok.to_string()]);
    }
    table.emit("e12", "bottom_k");
    verdict(
        "bottom-k matches reservoir robustness at the same k",
        all_ok,
        "exposing keys + threshold does not help the adversary",
    );

    // ---- Part 2: dominance ranges ---------------------------------------
    let m = 64u64;
    let dom = DominanceSystem::new(m);
    let k2 = bounds::reservoir_k_robust(dom.ln_cardinality(), eps, delta);
    println!(
        "\nPart 2: dominance ranges over [{m}]^2 (ln|R| = {:.1}), k = {k2}:",
        dom.ln_cardinality()
    );
    let mut table = Table::new(&["stream", "max NE-query error", "<= eps"]);
    let mut dom_ok = true;
    let point_engine = robust_sampling_bench::engine(n, 1).with_base_seed(5);
    for (name, pts) in [
        ("uniform", streamgen::uniform_grid_points(n, m, 1)),
        (
            "clustered",
            streamgen::clustered_points(n, m, &[(10, 50), (50, 10)], 7, 2)
                .into_iter()
                .map(|(x, y)| [x as u64, y as u64])
                .collect(),
        ),
    ] {
        // Oblivious point stream -> batched ingest.
        let stats = point_engine.batch(
            &dom,
            |s| ReservoirSampler::with_seed(k2.min(n), s),
            |_| pts.clone(),
            |sampler| sampler.sample().to_vec(),
        );
        let d = stats.worst();
        dom_ok &= d <= eps;
        table.row(&[name.into(), f(d), (d <= eps).to_string()]);
    }
    table.emit("e12", "dominance");
    verdict("every dominance query within eps*n", dom_ok, "");

    // ---- Part 3: eps-net transfer ---------------------------------------
    println!("\nPart 3: approximation => net (interval system, U = 256):");
    let small = IntervalSystem::new(256);
    let k3 = net::net_size_adaptive(small.ln_cardinality(), eps, delta);
    let (worst_uncovered, witness) = point_engine
        .batch_map(
            |s| ReservoirSampler::with_seed(k3.min(n), s),
            |_| streamgen::zipf(n, 256, 1.05, 8),
            |_, stream, sampler| net::worst_uncovered_density(&small, stream, sampler.sample()),
        )
        .into_iter()
        .next()
        .expect("one trial");
    let is_net = worst_uncovered < eps;
    let mut table = Table::new(&["quantity", "value"]);
    table.row(&[
        "adaptive net size (via eps/2-approx)".into(),
        k3.to_string(),
    ]);
    table.row(&[
        "static net size (Haussler-Welzl, d=2)".into(),
        net::net_size_static(2, eps, delta).to_string(),
    ]);
    table.row(&["worst uncovered density".into(), f(worst_uncovered)]);
    table.row(&["witness".into(), witness.unwrap_or_else(|| "-".into())]);
    table.emit("e12", "net_transfer");
    verdict(
        "robust sample is an eps-net",
        is_net,
        "every eps-dense interval contains a sample point",
    );
}
