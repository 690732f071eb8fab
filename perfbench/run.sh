#!/usr/bin/env bash
# Builds the strudel binary and the benchmark from source, then runs the
# benchmark with the given arguments. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --spread paper-pipeline --runs 10 --seconds 20
#
# Build output goes to stderr, so the last line of stdout is the result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin strudel 1>&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/perfbench" --strudel "$CARGO_TARGET_DIR/release/strudel" "$@"
