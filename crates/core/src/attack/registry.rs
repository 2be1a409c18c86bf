//! The attack registry: every adversary the harness knows, as data.
//!
//! The adversary-side mirror of
//! [`robust_sampling_streamgen::registry`](mod@robust_sampling_streamgen::registry):
//! an [`AttackSpec`] row is the
//! single place a strategy is described — its CLI/report name, the
//! defense class it targets, the theorem it instantiates, and the
//! builder that constructs it for a given duel shape. The experiment
//! binaries resolve `--attack <name>` here ([`attack`]),
//! `--list-attacks` prints the table, and [`descriptor`] resolves a live
//! strategy back to its row so names exist in exactly one table.

use super::strategies::{
    BisectionAttack, ColliderAttack, EvictionPumpAttack, MedianHuntAttack, PrefixMassAttack,
    ReplayAttack,
};
use super::AttackStrategy;

/// One registered attack: a name, the defense family it targets, the
/// paper linkage, default parameters, and the builder that instantiates
/// it for an `n`-round duel over a given universe at a given seed.
pub struct AttackSpec {
    /// Report/CLI name (`--attack <name>`).
    pub name: &'static str,
    /// The defense class this strategy aims to break, with the paper
    /// result it leans on.
    pub target: &'static str,
    /// Human-readable default parameters.
    pub params: &'static str,
    /// Whether the strategy reads the defense's state (`false` for the
    /// oblivious replay controls).
    pub adaptive: bool,
    builder: fn(n: usize, universe: u64, seed: u64) -> Box<dyn AttackStrategy + Send>,
}

impl std::fmt::Debug for AttackSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AttackSpec")
            .field("name", &self.name)
            .field("target", &self.target)
            .field("params", &self.params)
            .field("adaptive", &self.adaptive)
            .finish()
    }
}

impl AttackSpec {
    /// Build the strategy for an `n`-round duel over
    /// `{0, …, universe−1}`, deterministically seeded: the same
    /// `(n, universe, seed)` always yields a strategy that plays the
    /// identical game against the identical defense.
    pub fn build(&self, n: usize, universe: u64, seed: u64) -> Box<dyn AttackStrategy + Send> {
        (self.builder)(n, universe, seed)
    }
}

fn build_bisection(n: usize, universe: u64, _seed: u64) -> Box<dyn AttackStrategy + Send> {
    Box::new(BisectionAttack::for_bernoulli(0.0, n, universe))
}

fn build_collider(_n: usize, _universe: u64, seed: u64) -> Box<dyn AttackStrategy + Send> {
    Box::new(ColliderAttack::new(seed))
}

fn build_prefix_mass(_n: usize, _universe: u64, seed: u64) -> Box<dyn AttackStrategy + Send> {
    Box::new(PrefixMassAttack::new(64, seed))
}

fn build_median_hunt(_n: usize, _universe: u64, seed: u64) -> Box<dyn AttackStrategy + Send> {
    Box::new(MedianHuntAttack::new(seed))
}

fn build_eviction_pump(_n: usize, _universe: u64, _seed: u64) -> Box<dyn AttackStrategy + Send> {
    Box::new(EvictionPumpAttack::new())
}

fn build_replay_uniform(n: usize, universe: u64, seed: u64) -> Box<dyn AttackStrategy + Send> {
    Box::new(ReplayAttack::from_workload(
        "replay-uniform",
        "uniform",
        n,
        universe,
        seed,
    ))
}

fn build_replay_zipf(n: usize, universe: u64, seed: u64) -> Box<dyn AttackStrategy + Send> {
    Box::new(ReplayAttack::from_workload(
        "replay-zipf",
        "zipf",
        n,
        universe,
        seed,
    ))
}

/// The registry table. One row per attack; names are unique.
static REGISTRY: &[AttackSpec] = &[
    AttackSpec {
        name: "bisection",
        target: "samplers via stored/discarded probes (Thm 1.3, Fig. 3)",
        params: "p' = ln n / n; exhausts when ln N < budget (Claim 5.1)",
        adaptive: true,
        builder: build_bisection,
    },
    AttackSpec {
        name: "collider",
        target: "linear sketches via hash-row collisions (HW13 / E13)",
        params: "victim = U + 777777, one decoy per row, 50% duty",
        adaptive: true,
        builder: build_collider,
    },
    AttackSpec {
        name: "prefix-mass",
        target: "prefix systems / continuous game (Thm 1.2/1.4 stress)",
        params: "KS witness recomputed every 64 rounds",
        adaptive: true,
        builder: build_prefix_mass,
    },
    AttackSpec {
        name: "median-hunt",
        target: "quantile summaries via live median queries (Cor 1.5)",
        params: "flood above the defense's current median answer",
        adaptive: true,
        builder: build_median_hunt,
    },
    AttackSpec {
        name: "eviction-pump",
        target: "counter summaries MG/SpaceSaving (saturates det. bounds)",
        params: "victim phase n/5, then distinct-value flood + probes",
        adaptive: true,
        builder: build_eviction_pump,
    },
    AttackSpec {
        name: "replay-uniform",
        target: "none — oblivious control (static setting baseline)",
        params: "registry workload 'uniform'",
        adaptive: false,
        builder: build_replay_uniform,
    },
    AttackSpec {
        name: "replay-zipf",
        target: "none — oblivious control (static setting baseline)",
        params: "registry workload 'zipf' (s = 1.1)",
        adaptive: false,
        builder: build_replay_zipf,
    },
];

/// All registered attacks, in table order.
pub fn registry() -> &'static [AttackSpec] {
    REGISTRY
}

/// Look an attack up by its CLI/report name.
pub fn attack(name: &str) -> Option<&'static AttackSpec> {
    REGISTRY.iter().find(|a| a.name == name)
}

/// The registry row describing a live strategy (resolved by
/// [`AttackStrategy::name`], which every registered strategy reports).
///
/// # Panics
///
/// Panics if the strategy's name is unregistered — a bug, guarded by
/// tests that walk every row.
pub fn descriptor(strategy: &dyn AttackStrategy) -> &'static AttackSpec {
    attack(strategy.name()).expect("every registered strategy reports a registry name")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::Duel;
    use crate::sampler::ReservoirSampler;

    #[test]
    fn names_are_unique() {
        for (i, a) in REGISTRY.iter().enumerate() {
            for b in &REGISTRY[i + 1..] {
                assert_ne!(a.name, b.name);
            }
        }
    }

    #[test]
    fn registry_has_at_least_six_attacks_and_a_control() {
        assert!(REGISTRY.len() >= 6, "only {} attacks", REGISTRY.len());
        assert!(REGISTRY.iter().any(|a| !a.adaptive), "no oblivious control");
        assert!(REGISTRY.iter().any(|a| a.adaptive), "no adaptive attack");
    }

    #[test]
    fn lookup_by_name_round_trips() {
        for a in registry() {
            assert_eq!(attack(a.name).expect("resolves").name, a.name);
        }
        assert!(attack("no-such-attack").is_none());
    }

    #[test]
    fn built_strategies_report_their_registry_name() {
        for spec in registry() {
            let strategy = spec.build(100, 1 << 16, 1);
            assert_eq!(strategy.name(), spec.name);
            assert_eq!(descriptor(&strategy).name, spec.name);
        }
    }

    #[test]
    fn every_registered_attack_is_deterministic_per_seed() {
        let n = 400;
        let universe = 1u64 << 16;
        for spec in registry() {
            let run = || {
                let mut defense = ReservoirSampler::<u64>::with_seed(16, 11);
                let mut atk = spec.build(n, universe, 5);
                Duel::new(n, universe).run(&mut defense, &mut atk).stream
            };
            assert_eq!(run(), run(), "{} is not deterministic", spec.name);
        }
    }
}
