#!/usr/bin/env bash
# Build the benchmark and the `cluster_node` server it spawns from this
# checkout's sources, then run it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload ingest-wire --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the last line of stdout is the JSON result.
# CARGO_TARGET_DIR, when set, chooses the build directory (relative paths
# are taken from the repository root).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-perfbench/target}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml --bins >&2
exec "$target/release/perfbench" "$@"
