//! The shared command-line surface of the experiment binaries.
//!
//! Flags every binary understands:
//!
//! * `--quick` — CI-sized sweeps ([`is_quick`]);
//! * `--csv <dir>` — additionally write every table as CSV ([`init_cli`]);
//! * `--threads <n>` — fan each experiment's independent seeded trials
//!   across `n` scoped worker threads ([`threads`]). Results are
//!   **bit-identical** to `--threads 1` (see
//!   [`ExperimentEngine::threads`]), so the flag is purely a wall-clock
//!   knob — verdicts and tables never change.
//! * `--workload <name>` — pull an extra workload from the scenario
//!   registry into the binaries that take a distribution ([`workload`]);
//! * `--attack <name>` — pull an adversary from the attack registry into
//!   the binaries that duel one ([`attack`]; the `attack_matrix` binary
//!   uses it to restrict the grid to one attack column);
//! * `--n <len>` — override the stream length ([`stream_len`]);
//! * `--list-workloads` / `--list-attacks` — print the scenario or
//!   attack registry and exit (handled by [`init_cli`]);
//! * `--nodes <n>` — the node-process count of the `cluster` binary
//!   ([`cluster_nodes`]);
//! * `--ab <parent-binary>` — the `perf_trajectory` gate ([`ab_parent`]):
//!   time that binary and this one in alternating pairs and exit 1 when
//!   a row fails the paired verdict rule, re-run (see [`crate::ab`]);
//! * `--help` — print the shared flag reference and exit ([`init_cli`]).
//!
//! Binaries construct engines through [`engine`], which applies the
//! `--threads` setting so the flag reaches every trial loop.

use robust_sampling_core::attack::AttackSpec;
use robust_sampling_core::engine::ExperimentEngine;
use robust_sampling_streamgen::{registry, WorkloadSpec};

/// Whether `--quick` was passed (CI-sized sweeps).
pub fn is_quick() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// The `--nodes <n>` setting (cluster binaries: node-process count);
/// `default` when absent.
///
/// Exits with status 2 on a malformed or zero value.
pub fn cluster_nodes(default: usize) -> usize {
    parsed_flag(
        "--nodes",
        "--nodes needs a positive integer argument",
        |v| v.parse::<usize>().ok().filter(|&n| n > 0),
    )
    .unwrap_or(default)
}

/// The one flag-with-value parser behind every `--flag <value>` option:
/// scans the argument list for `name`, parses the following token with
/// `parse` (which also validates — return `None` to reject), and prints
/// `usage` + exits with status 2 on a missing or rejected value. Returns
/// `None` when the flag is absent, so each wrapper supplies its default.
fn parsed_flag<T>(name: &str, usage: &str, parse: impl Fn(&str) -> Option<T>) -> Option<T> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == name)?;
    match args.get(i + 1).and_then(|v| parse(v)) {
        Some(v) => Some(v),
        None => {
            eprintln!("{usage}");
            std::process::exit(2);
        }
    }
}

/// The `--threads <n>` setting; 1 (sequential) when absent.
///
/// Exits with status 2 on a malformed value.
pub fn threads() -> usize {
    parsed_flag(
        "--threads",
        "--threads needs a positive integer argument",
        |v| v.parse::<usize>().ok().filter(|&t| t > 0),
    )
    .unwrap_or(1)
}

/// The `--workload <name>` registry entry, if the flag was passed.
///
/// Exits with status 2 (after printing the registry) on an unknown name.
pub fn workload() -> Option<&'static WorkloadSpec> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == "--workload")?;
    match args.get(i + 1) {
        Some(name) => match robust_sampling_streamgen::workload(name) {
            Some(w) => Some(w),
            None => {
                eprintln!("unknown workload {name:?}; registered workloads:");
                print_workloads();
                std::process::exit(2);
            }
        },
        None => {
            eprintln!("--workload needs a registry name argument");
            std::process::exit(2);
        }
    }
}

/// The `--attack <name>` attack-registry entry, if the flag was passed.
///
/// Exits with status 2 (after printing the registry) on an unknown name.
pub fn attack() -> Option<&'static AttackSpec> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == "--attack")?;
    match args.get(i + 1) {
        Some(name) => match robust_sampling_core::attack::attack(name) {
            Some(a) => Some(a),
            None => {
                eprintln!("unknown attack {name:?}; registered attacks:");
                print_attacks();
                std::process::exit(2);
            }
        },
        None => {
            eprintln!("--attack needs a registry name argument");
            std::process::exit(2);
        }
    }
}

/// The `--n <len>` stream-length override; `default` when absent.
/// Underscore separators are accepted (`--n 20_000_000`).
///
/// Exits with status 2 on a malformed or zero value.
pub fn stream_len(default: usize) -> usize {
    parsed_flag("--n", "--n needs a positive integer argument", |v| {
        v.replace('_', "").parse::<usize>().ok().filter(|&n| n > 0)
    })
    .unwrap_or(default)
}

/// Parse a `--flag <path>` pair whose value must not itself be a flag
/// (catches `--ab --quick`, where the path was forgotten).
fn path_flag(name: &str, usage: &str) -> Option<std::path::PathBuf> {
    parsed_flag(name, usage, |v| {
        (!v.starts_with("--")).then(|| std::path::PathBuf::from(v))
    })
}

/// The `--ab <parent-binary>` setting (perf_trajectory): time this
/// binary against the parent's `perf_trajectory` in alternating pairs.
/// `None` when absent.
///
/// Exits with status 2 on a missing or flag-like value.
pub fn ab_parent() -> Option<std::path::PathBuf> {
    path_flag(
        "--ab",
        "--ab needs a path argument (the parent's perf_trajectory binary)",
    )
}

/// The `--help` flag reference text.
const HELP_TEXT: &str = "shared experiment flags:\n\
         \x20 --quick              CI-sized sweep\n\
         \x20 --csv <dir>          also write every table as CSV into <dir>\n\
         \x20 --threads <n>        fan seeded trials across n threads (bit-identical)\n\
         \x20 --n <len>            override the stream length\n\
         \x20 --workload <name>    pull a scenario-registry workload (--list-workloads)\n\
         \x20 --attack <name>      pull an attack-registry adversary (--list-attacks)\n\
         \x20 --list-workloads     print the scenario registry and exit\n\
         \x20 --list-attacks       print the attack registry and exit\n\
         cluster flags (cluster):\n\
         \x20 --nodes <n>          cluster node-process count (default: 3)\n\
         perf-trajectory flags (perf_trajectory):\n\
         \x20 --ab <parent>        run <parent> and this binary in 10 alternating pairs;\n\
         \x20                      if a row loses 9+ pairs and >15% in the median, run\n\
         \x20                      10 more; exit 1 when a row loses 17+ of the 20 and >15%\n\
         \x20 --help               this text";

/// Print the shared flag reference (`--help`).
pub fn print_help() {
    println!("{HELP_TEXT}");
}

/// Print the scenario registry as an aligned table.
pub fn print_workloads() {
    println!("{:<17} {:<55} defaults", "name", "shape");
    for w in registry() {
        println!("{:<17} {:<55} {}", w.name, w.shape, w.params);
    }
}

/// Print the attack registry as an aligned table.
pub fn print_attacks() {
    println!(
        "{:<15} {:<9} {:<58} defaults",
        "name", "kind", "target (paper linkage)"
    );
    for a in robust_sampling_core::attack::registry() {
        let kind = if a.adaptive { "adaptive" } else { "control" };
        println!("{:<15} {:<9} {:<58} {}", a.name, kind, a.target, a.params);
    }
}

/// An [`ExperimentEngine`] honouring the `--threads` flag — the one
/// constructor experiment binaries should use.
pub fn engine(n: usize, trials: usize) -> ExperimentEngine {
    ExperimentEngine::new(n, trials).threads(threads())
}

/// Handle the common flags: `--list-workloads` / `--list-attacks` print
/// the scenario or attack registry and exit; `--csv <dir>` routes every
/// subsequent [`Table::emit`](crate::Table::emit) to CSV files in `dir`
/// (by setting the environment variable the report layer reads);
/// `--threads`, `--workload`, `--attack`, and `--n` are validated eagerly
/// so a typo fails before a long run. Call once at the top of `main`.
pub fn init_cli() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--help") {
        print_help();
        std::process::exit(0);
    }
    if args.iter().any(|a| a == "--list-workloads") {
        print_workloads();
        std::process::exit(0);
    }
    if args.iter().any(|a| a == "--list-attacks") {
        print_attacks();
        std::process::exit(0);
    }
    if let Some(i) = args.iter().position(|a| a == "--csv") {
        match args.get(i + 1) {
            Some(dir) => std::env::set_var(robust_sampling_core::engine::report::CSV_DIR_ENV, dir),
            None => {
                eprintln!("--csv needs a directory argument");
                std::process::exit(2);
            }
        }
    }
    let _ = threads();
    let _ = workload();
    let _ = attack();
    let _ = stream_len(1);
    let _ = cluster_nodes(1);
    let _ = ab_parent();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_defaults_to_sequential() {
        // The test harness never passes --threads.
        assert_eq!(threads(), 1);
    }

    #[test]
    fn engine_applies_thread_setting() {
        let e = engine(100, 2);
        assert_eq!(e.num_threads(), threads());
        assert_eq!(e.n(), 100);
        assert_eq!(e.trials(), 2);
    }

    #[test]
    fn workload_and_n_default_when_flags_absent() {
        assert!(workload().is_none());
        assert!(attack().is_none());
        assert_eq!(stream_len(1234), 1234);
    }

    #[test]
    fn nodes_flag_defaults_when_absent() {
        assert_eq!(cluster_nodes(3), 3);
    }

    #[test]
    fn ab_flag_defaults_when_absent() {
        assert!(ab_parent().is_none());
    }

    #[test]
    fn help_text_covers_perf_flags() {
        // `--help` must document the A/B gate flag alongside the rest.
        for flag in ["--ab", "--quick", "--threads", "--workload", "--nodes"] {
            assert!(HELP_TEXT.contains(flag), "help text missing {flag}");
        }
    }
}
