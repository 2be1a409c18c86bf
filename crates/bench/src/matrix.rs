//! The robustness matrix: every registered attack duelled against every
//! registered defense, each cell judged by the error metric native to the
//! defense's query family.
//!
//! The defense table below is the experiment-side mirror of the attack
//! registry in `robust_sampling_core::attack` — one [`DefenseRow`] per
//! summary the workspace ships (samplers at break-scale and at the
//! Theorem 1.2 sizing, the robust sketches, the six baselines, the
//! sharded fan-out, the window sampler, and the arena tenant). The
//! `attack_matrix` binary drives [`run_matrix`] and prints the grid;
//! `EXPERIMENTS.md` documents the expected outcome of every cell and the
//! theorem it traces to.
//!
//! Cell judgments reuse the existing machinery:
//!
//! * **sample defenses** — exact prefix discrepancy
//!   ([`prefix_discrepancy`]), the paper's `ε`-approximation metric;
//! * **quantile defenses** — worst rank error over a quantile grid,
//!   measured as distance to the true rank *interval* `[#<v, #≤v]` so
//!   rank-convention differences between sketches never masquerade as
//!   attack damage;
//! * **frequency defenses** — worst count error over the attack-relevant
//!   candidates (the collider's phantom victim, the eviction victim, and
//!   the heaviest true items), normalised by `n`.

use robust_sampling_core::approx::prefix_discrepancy;
use robust_sampling_core::attack::{
    AttackSpec, ColliderAttack, Duel, EvictionPumpAttack, ObservableDefense,
};
use robust_sampling_core::bounds;
use robust_sampling_core::engine::{
    ExperimentEngine, FrequencySummary, QuantileSummary, ShardedSummary,
};
use robust_sampling_core::sampler::{
    BernoulliSampler, BottomKSampler, ReservoirSampler, StreamSampler,
};
use robust_sampling_core::sketch::{RobustHeavyHitterSketch, RobustQuantileSketch};
use robust_sampling_core::window::{window_k_robust, ChainSampler};
use robust_sampling_service::tenant::{
    TenantArena, TenantArenaConfig, VictimTenantView, SLOT_OVERHEAD_BYTES,
};
use robust_sampling_sketches::count_min::CountMin;
use robust_sampling_sketches::gk::GkSummary;
use robust_sampling_sketches::kll::KllSketch;
use robust_sampling_sketches::merge_reduce::MergeReduce;
use robust_sampling_sketches::misra_gries::MisraGries;
use robust_sampling_sketches::space_saving::SpaceSaving;

/// Shape of one matrix evaluation: duel length, universe bound, and the
/// attack-side seed (defense seeds derive via
/// [`ExperimentEngine::sampler_seed`], keeping defense coins independent
/// of the adversary exactly as the engine's trial loops do).
#[derive(Debug, Clone, Copy)]
pub struct MatrixParams {
    /// Rounds per duel.
    pub n: usize,
    /// Universe bound `U = {0, …, universe−1}`.
    pub universe: u64,
    /// Attack seed for this evaluation.
    pub seed: u64,
}

/// Which query family a defense belongs to — decides the cell judge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefenseKind {
    /// Retained-sample summaries judged by prefix discrepancy.
    Sample,
    /// Rank/quantile summaries judged by worst rank error.
    Quantile,
    /// Count/heavy-hitter summaries judged by worst count error.
    Frequency,
}

impl DefenseKind {
    /// Short label used in the grid table.
    pub fn label(self) -> &'static str {
        match self {
            DefenseKind::Sample => "sample",
            DefenseKind::Quantile => "quantile",
            DefenseKind::Frequency => "frequency",
        }
    }
}

/// One defense in the matrix: a name, its query family, and the cell
/// evaluator that builds it, duels it, and judges the outcome.
pub struct DefenseRow {
    /// Report name (also the row key in `EXPERIMENTS.md`).
    pub name: &'static str,
    /// Query family (decides the judge).
    pub kind: DefenseKind,
    /// Memory budget note printed alongside the grid.
    pub budget: &'static str,
    cell: fn(&AttackSpec, &MatrixParams) -> f64,
}

impl std::fmt::Debug for DefenseRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DefenseRow")
            .field("name", &self.name)
            .field("kind", &self.kind)
            .finish()
    }
}

impl DefenseRow {
    /// Evaluate one cell: build the defense, duel the attack, judge.
    pub fn cell(&self, attack: &AttackSpec, params: &MatrixParams) -> f64 {
        (self.cell)(attack, params)
    }
}

fn defense_seed(p: &MatrixParams) -> u64 {
    ExperimentEngine::sampler_seed(p.seed)
}

/// Duel a defense against a freshly built attack, returning the stream.
fn duel<D: ObservableDefense>(defense: &mut D, attack: &AttackSpec, p: &MatrixParams) -> Vec<u64> {
    let mut strategy = attack.build(p.n, p.universe, p.seed);
    Duel::new(p.n, p.universe)
        .run(defense, &mut strategy)
        .stream
}

// ---------------------------------------------------------------------------
// Judges
// ---------------------------------------------------------------------------

/// Worst rank error of a quantile summary over a fixed quantile grid,
/// as distance to the true rank interval `[#<v, #≤v]`, normalised by `n`.
pub fn quantile_rank_error<S: QuantileSummary<u64>>(stream: &[u64], summary: &S) -> f64 {
    let mut sorted = stream.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    let mut worst = 0.0f64;
    for q in [0.05, 0.25, 0.5, 0.75, 0.95] {
        let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
        let v = sorted[idx];
        let lt = sorted.partition_point(|&y| y < v) as f64;
        let le = sorted.partition_point(|&y| y <= v) as f64;
        let est = summary.estimate_rank(&v);
        let err = if est < lt {
            lt - est
        } else if est > le {
            est - le
        } else {
            0.0
        };
        worst = worst.max(err / n as f64);
    }
    worst
}

/// Worst count error of a frequency summary over the attack-relevant
/// candidates: the collider's phantom victim (true count 0 by
/// construction), the eviction-pump victim, and the eight heaviest true
/// items. Normalised by `n`.
pub fn frequency_count_error<S: FrequencySummary<u64>>(
    stream: &[u64],
    summary: &S,
    universe: u64,
) -> f64 {
    let n = stream.len() as f64;
    let mut counts: std::collections::BTreeMap<u64, usize> = std::collections::BTreeMap::new();
    for &x in stream {
        *counts.entry(x).or_insert(0) += 1;
    }
    let mut heaviest: Vec<(usize, u64)> = counts.iter().map(|(&x, &c)| (c, x)).collect();
    heaviest.sort_unstable_by(|a, b| b.cmp(a));
    let mut candidates = vec![
        ColliderAttack::victim(universe),
        EvictionPumpAttack::victim(universe),
    ];
    candidates.extend(heaviest.iter().take(8).map(|&(_, x)| x));
    candidates.sort_unstable();
    candidates.dedup();
    let mut worst = 0.0f64;
    for x in candidates {
        let truth = counts.get(&x).copied().unwrap_or(0) as f64;
        let est = summary.estimate_count(&x);
        worst = worst.max((est - truth).abs() / n);
    }
    worst
}

// ---------------------------------------------------------------------------
// Defense cells
// ---------------------------------------------------------------------------

/// Break-scale sample budget: well below every robust sizing, so the
/// adaptivity premium is visible.
const SMALL_K: usize = 32;
/// Counter budget for the deterministic frequency baselines.
const COUNTER_K: usize = 16;
/// Accuracy the theorem-sized rows are built for — also the bound the
/// `attack_matrix` "theorem-sized rows hold" verdict checks against.
pub const ROBUST_EPS: f64 = 0.15;
/// Confidence the theorem-sized rows are built for.
const ROBUST_DELTA: f64 = 0.1;

fn ln_universe(universe: u64) -> f64 {
    (universe as f64).ln()
}

fn cell_bernoulli(a: &AttackSpec, p: &MatrixParams) -> f64 {
    // Clamped so a user-supplied --n below SMALL_K degrades to keep-all
    // instead of tripping the sampler's rate assertion.
    let rate = (SMALL_K as f64 / p.n as f64).min(1.0);
    let mut d = BernoulliSampler::<u64>::with_seed(rate, defense_seed(p));
    let stream = duel(&mut d, a, p);
    prefix_discrepancy(&stream, d.sample()).value
}

fn cell_reservoir(a: &AttackSpec, p: &MatrixParams) -> f64 {
    let mut d = ReservoirSampler::<u64>::with_seed(SMALL_K, defense_seed(p));
    let stream = duel(&mut d, a, p);
    prefix_discrepancy(&stream, d.sample()).value
}

fn cell_bottom_k(a: &AttackSpec, p: &MatrixParams) -> f64 {
    let mut d = BottomKSampler::<u64>::with_seed(SMALL_K, defense_seed(p));
    let stream = duel(&mut d, a, p);
    prefix_discrepancy(&stream, StreamSampler::sample(&d)).value
}

fn cell_reservoir_robust(a: &AttackSpec, p: &MatrixParams) -> f64 {
    let k = bounds::reservoir_k_robust(ln_universe(p.universe), ROBUST_EPS, ROBUST_DELTA);
    let mut d = ReservoirSampler::<u64>::with_seed(k, defense_seed(p));
    let stream = duel(&mut d, a, p);
    prefix_discrepancy(&stream, d.sample()).value
}

fn cell_robust_quantiles(a: &AttackSpec, p: &MatrixParams) -> f64 {
    let mut d = RobustQuantileSketch::<u64>::new(
        ln_universe(p.universe),
        ROBUST_EPS,
        ROBUST_DELTA,
        defense_seed(p),
    );
    let stream = duel(&mut d, a, p);
    quantile_rank_error(&stream, &d)
}

fn cell_robust_heavy_hitters(a: &AttackSpec, p: &MatrixParams) -> f64 {
    let mut d = RobustHeavyHitterSketch::<u64>::new(
        ln_universe(p.universe),
        0.1,
        0.06,
        ROBUST_DELTA,
        defense_seed(p),
    );
    let stream = duel(&mut d, a, p);
    frequency_count_error(&stream, &d, p.universe)
}

fn cell_gk(a: &AttackSpec, p: &MatrixParams) -> f64 {
    let mut d = GkSummary::new(0.01);
    let stream = duel(&mut d, a, p);
    quantile_rank_error(&stream, &d)
}

fn cell_kll(a: &AttackSpec, p: &MatrixParams) -> f64 {
    let mut d = KllSketch::with_seed(256, defense_seed(p));
    let stream = duel(&mut d, a, p);
    quantile_rank_error(&stream, &d)
}

fn cell_merge_reduce(a: &AttackSpec, p: &MatrixParams) -> f64 {
    let mut d = MergeReduce::for_eps(0.01, p.n);
    let stream = duel(&mut d, a, p);
    quantile_rank_error(&stream, &d)
}

fn cell_misra_gries(a: &AttackSpec, p: &MatrixParams) -> f64 {
    let mut d = MisraGries::new(COUNTER_K);
    let stream = duel(&mut d, a, p);
    frequency_count_error(&stream, &d, p.universe)
}

fn cell_space_saving(a: &AttackSpec, p: &MatrixParams) -> f64 {
    let mut d = SpaceSaving::new(COUNTER_K);
    let stream = duel(&mut d, a, p);
    frequency_count_error(&stream, &d, p.universe)
}

fn cell_count_min(a: &AttackSpec, p: &MatrixParams) -> f64 {
    let mut d = CountMin::for_guarantee(0.005, 0.01, defense_seed(p));
    let stream = duel(&mut d, a, p);
    frequency_count_error(&stream, &d, p.universe)
}

fn cell_sharded_reservoir(a: &AttackSpec, p: &MatrixParams) -> f64 {
    let mut d = ShardedSummary::new(4, defense_seed(p), |_, seed| {
        ReservoirSampler::<u64>::with_seed(SMALL_K / 4, seed)
    });
    let stream = duel(&mut d, a, p);
    let merged = d.merged();
    prefix_discrepancy(&stream, merged.sample()).value
}

/// The sliding-window extension (E12) as a matrix row: a chain sampler
/// sized by the window robustness bound, judged by prefix discrepancy
/// against the **active window** — its actual contract — rather than the
/// whole stream. Window length is `n/4`, so three quarters of every
/// attack's effort has expired by judgment time.
fn cell_chain_window(a: &AttackSpec, p: &MatrixParams) -> f64 {
    let w = (p.n / 4).max(1);
    let k = window_k_robust(ln_universe(p.universe), ROBUST_EPS, ROBUST_DELTA);
    let mut d = ChainSampler::<u64>::with_seed(w, k, defense_seed(p));
    let stream = duel(&mut d, a, p);
    let tail = &stream[stream.len() - w.min(stream.len())..];
    prefix_discrepancy(tail, &d.sample()).value
}

/// One tenant hidden in aggregate traffic (E14 in `EXPERIMENTS.md`): the
/// adversary duels a [`VictimTenantView`] — every attack element lands in
/// the victim's summary, but eight decoy tenants inject traffic each
/// round under an arena budget of **four** resident slots, so the victim
/// is repeatedly evicted and revived mid-duel. The judge is the
/// victim's own prefix discrepancy: exact revival makes the evictions
/// invisible, so the robust sizing must hold exactly as it
/// does for a standalone reservoir, and the static VC sizing must break
/// exactly as `reservoir` at break-scale does.
fn cell_tenant_victim(a: &AttackSpec, p: &MatrixParams, robust: bool) -> f64 {
    let mut config = TenantArenaConfig {
        universe: p.universe,
        eps: ROBUST_EPS,
        delta: ROBUST_DELTA,
        budget_bytes: 0,
        base_seed: defense_seed(p),
        robust,
    };
    config.budget_bytes = 4 * (8 * config.reservoir_k() + SLOT_OVERHEAD_BYTES);
    let mut d = VictimTenantView::new(TenantArena::new(config), 7, 8, 2);
    let stream = duel(&mut d, a, p);
    prefix_discrepancy(&stream, &d.visible()).value
}

fn cell_tenant_victim_robust(a: &AttackSpec, p: &MatrixParams) -> f64 {
    cell_tenant_victim(a, p, true)
}

fn cell_tenant_victim_static(a: &AttackSpec, p: &MatrixParams) -> f64 {
    cell_tenant_victim(a, p, false)
}

/// The defense table, in grid order.
static DEFENSES: &[DefenseRow] = &[
    DefenseRow {
        name: "bernoulli",
        kind: DefenseKind::Sample,
        budget: "p = 32/n (break-scale)",
        cell: cell_bernoulli,
    },
    DefenseRow {
        name: "reservoir",
        kind: DefenseKind::Sample,
        budget: "k = 32 (break-scale)",
        cell: cell_reservoir,
    },
    DefenseRow {
        name: "bottom-k",
        kind: DefenseKind::Sample,
        budget: "k = 32 (break-scale)",
        cell: cell_bottom_k,
    },
    DefenseRow {
        name: "reservoir-robust",
        kind: DefenseKind::Sample,
        budget: "k per Thm 1.2 (eps .15, delta .1)",
        cell: cell_reservoir_robust,
    },
    DefenseRow {
        name: "robust-quantiles",
        kind: DefenseKind::Quantile,
        budget: "Cor 1.5 sizing (eps .15, delta .1)",
        cell: cell_robust_quantiles,
    },
    DefenseRow {
        name: "robust-heavy-hitters",
        kind: DefenseKind::Frequency,
        budget: "Cor 1.6 sizing (alpha .1, eps .06)",
        cell: cell_robust_heavy_hitters,
    },
    DefenseRow {
        name: "gk",
        kind: DefenseKind::Quantile,
        budget: "eps = 0.01",
        cell: cell_gk,
    },
    DefenseRow {
        name: "kll",
        kind: DefenseKind::Quantile,
        budget: "k = 256",
        cell: cell_kll,
    },
    DefenseRow {
        name: "merge-reduce",
        kind: DefenseKind::Quantile,
        budget: "eps = 0.01",
        cell: cell_merge_reduce,
    },
    DefenseRow {
        name: "misra-gries",
        kind: DefenseKind::Frequency,
        budget: "k = 16 counters",
        cell: cell_misra_gries,
    },
    DefenseRow {
        name: "space-saving",
        kind: DefenseKind::Frequency,
        budget: "k = 16 counters",
        cell: cell_space_saving,
    },
    DefenseRow {
        name: "count-min",
        kind: DefenseKind::Frequency,
        budget: "(eps .005, delta .01) geometry",
        cell: cell_count_min,
    },
    DefenseRow {
        name: "sharded-reservoir",
        kind: DefenseKind::Sample,
        budget: "4 shards x k = 8, merged",
        cell: cell_sharded_reservoir,
    },
    DefenseRow {
        name: "chain-window",
        kind: DefenseKind::Sample,
        budget: "w = n/4, k per window bound (eps .15)",
        cell: cell_chain_window,
    },
    DefenseRow {
        name: "tenant-victim-robust",
        kind: DefenseKind::Sample,
        budget: "arena slot per Thm 1.2, 4-slot budget",
        cell: cell_tenant_victim_robust,
    },
    DefenseRow {
        name: "tenant-victim-static",
        kind: DefenseKind::Sample,
        budget: "arena slot per static VC sizing (break-scale)",
        cell: cell_tenant_victim_static,
    },
];

/// All matrix defenses, in grid order.
pub fn defenses() -> &'static [DefenseRow] {
    DEFENSES
}

/// Look a defense row up by name.
pub fn defense(name: &str) -> Option<&'static DefenseRow> {
    DEFENSES.iter().find(|d| d.name == name)
}

/// Evaluate the full grid: one error per (defense, attack) pair, worst
/// case over `trials` attack seeds starting at `base_seed`. Rows follow
/// [`defenses`] order; columns follow the `attacks` argument.
pub fn run_matrix(
    n: usize,
    universe: u64,
    base_seed: u64,
    trials: usize,
    attacks: &[&'static AttackSpec],
) -> Vec<Vec<f64>> {
    assert!(trials > 0, "need at least one trial");
    DEFENSES
        .iter()
        .map(|row| {
            attacks
                .iter()
                .map(|atk| {
                    (0..trials as u64)
                        .map(|t| {
                            row.cell(
                                atk,
                                &MatrixParams {
                                    n,
                                    universe,
                                    seed: base_seed.wrapping_add(t),
                                },
                            )
                        })
                        .fold(0.0f64, f64::max)
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use robust_sampling_core::attack::{attack, registry};

    const P: MatrixParams = MatrixParams {
        n: 1_000,
        universe: 1 << 16,
        seed: 3,
    };

    #[test]
    fn defense_names_are_unique_and_resolvable() {
        for (i, a) in DEFENSES.iter().enumerate() {
            for b in &DEFENSES[i + 1..] {
                assert_ne!(a.name, b.name);
            }
            assert_eq!(defense(a.name).unwrap().name, a.name);
        }
        assert!(defense("no-such-defense").is_none());
    }

    #[test]
    fn every_cell_evaluates_and_is_deterministic() {
        for row in defenses() {
            for spec in registry() {
                let a = row.cell(spec, &P);
                let b = row.cell(spec, &P);
                assert!(a.is_finite() && a >= 0.0, "{}/{}", row.name, spec.name);
                assert_eq!(a, b, "{}/{} not deterministic", row.name, spec.name);
            }
        }
    }

    #[test]
    fn collider_cell_contrast_count_min_vs_robust() {
        let collider = attack("collider").unwrap();
        let cm = defense("count-min").unwrap().cell(collider, &P);
        let robust = defense("robust-heavy-hitters").unwrap().cell(collider, &P);
        assert!(cm >= 0.04, "phantom error only {cm}");
        assert!(robust <= 0.02, "robust pipeline reports {robust}");
    }

    #[test]
    fn theorem_sized_reservoir_holds_against_the_whole_registry() {
        let row = defense("reservoir-robust").unwrap();
        for spec in registry() {
            let err = row.cell(spec, &P);
            assert!(err <= ROBUST_EPS, "{}: {err}", spec.name);
        }
    }

    #[test]
    fn chain_window_row_tracks_the_active_window() {
        // The window-sized chain sampler must ε-approximate the active
        // window against the oblivious control (its Theorem 1.2-style
        // contract, transferred per window position).
        let row = defense("chain-window").unwrap();
        let err = row.cell(attack("replay-uniform").unwrap(), &P);
        assert!(err <= ROBUST_EPS, "window discrepancy {err}");
    }

    #[test]
    fn tenant_victim_robust_row_holds_under_eviction_churn() {
        // The victim is evicted and revived throughout every duel (four
        // resident slots, eight decoy tenants); exact revival must
        // keep the Theorem 1.2 guarantee intact per tenant.
        let row = defense("tenant-victim-robust").unwrap();
        for spec in registry() {
            let err = row.cell(spec, &P);
            assert!(err <= ROBUST_EPS, "{}: victim leaked {err}", spec.name);
        }
    }

    #[test]
    fn tenant_static_sizing_is_dominated_by_robust_sizing() {
        // The honest finite-universe contrast (E11 Part 2 transferred to
        // tenants): the VC-sized victim is strictly worse than the
        // ln|R|-sized one against the strongest registered adversary,
        // even though heuristic u64 attacks cannot annihilate it here
        // (Thm 1.3's admissibility window needs unbounded precision).
        let robust = defense("tenant-victim-robust").unwrap();
        let fixed = defense("tenant-victim-static").unwrap();
        let (mut worst_robust, mut worst_static) = (0.0f64, 0.0f64);
        for spec in registry() {
            worst_robust = worst_robust.max(robust.cell(spec, &P));
            worst_static = worst_static.max(fixed.cell(spec, &P));
        }
        assert!(
            worst_static > worst_robust,
            "static sizing should be dominated: static {worst_static} vs robust {worst_robust}"
        );
    }

    #[test]
    fn run_matrix_shape_matches_inputs() {
        let attacks: Vec<_> = registry().iter().take(2).collect();
        let grid = run_matrix(400, 1 << 14, 0, 1, &attacks);
        assert_eq!(grid.len(), defenses().len());
        assert!(grid.iter().all(|row| row.len() == 2));
    }
}
