//! Shared utilities for the experiment binaries (E1–E13).
//!
//! Each binary composes a streamgen workload, an adversary/game, a
//! [`StreamSummary`](robust_sampling_core::engine::StreamSummary), and a
//! set-system judgment through the
//! [`ExperimentEngine`](robust_sampling_core::engine::ExperimentEngine),
//! then prints one or more aligned text tables — the "rows/series" the
//! paper's theorems predict — plus a PASS/FAIL verdict line per claim
//! checked.
//!
//! Flags every binary understands (parsed by [`cli`]):
//!
//! * `--quick` — CI-sized sweeps;
//! * `--csv <dir>` — additionally write every table as
//!   `<dir>/<experiment>_<section>.csv` (one reporting path: the same
//!   [`Table`] rows feed both sinks);
//! * `--threads <n>` — fan the independent seeded trials across `n`
//!   worker threads, bit-identical to the sequential run;
//! * `--workload <name>` / `--n <len>` / `--list-workloads` — pull an
//!   extra scenario-registry workload into the distribution-driven
//!   binaries, override stream length, or list the registry;
//! * `--attack <name>` / `--list-attacks` — restrict the `attack_matrix`
//!   grid to one attack-registry adversary, or list that registry.
//!
//! The `perf_trajectory` binary additionally understands
//! `--ab <parent-binary>` (time the parent's build and this one in
//! alternating pairs and fail on a paired regression) — see [`ab`].
//!
//! The attack × defense robustness grid itself lives in [`matrix`] and is
//! driven by the `attack_matrix` binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ab;
pub mod cli;
pub mod matrix;

pub use cli::{
    ab_parent, attack, cluster_nodes, engine, init_cli, is_quick, stream_len, threads, workload,
};
pub use robust_sampling_core::engine::report::Table;
use robust_sampling_sketches::kll::KllSketch;

/// Format a float with 4 significant decimals.
pub fn f(x: f64) -> String {
    format!("{x:.4}")
}

/// Print an experiment banner.
pub fn banner(id: &str, title: &str, claim: &str) {
    println!("================================================================");
    println!("{id}: {title}");
    println!("paper claim: {claim}");
    println!("================================================================");
}

/// The `q`-quantile of a KLL sketch of nanosecond latencies, in µs
/// (0 for an empty sketch).
pub fn micros(lat: &KllSketch, q: f64) -> f64 {
    lat.quantile(q).unwrap_or(0) as f64 / 1_000.0
}

/// Print a PASS/FAIL verdict line.
pub fn verdict(name: &str, pass: bool, detail: &str) {
    let tag = if pass { "PASS" } else { "FAIL" };
    println!("[{tag}] {name}: {detail}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_reexport_prints() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(&["1".into(), "2".into()]);
        t.print();
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(0.123456), "0.1235");
    }
}
