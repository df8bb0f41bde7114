#!/usr/bin/env bash
# Runs every workload of the gate benchmark, untraced then traced, and
# writes benchmark/out/results-seed<N>.json.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--smoke]
#
# Compare two result sets with
#   cargo run --release --manifest-path benchmark/Cargo.toml -- agree a.json b.json
set -euo pipefail
cd "$(dirname "$0")/.."
BENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
export BENCH_COMMIT
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- run --all "$@"
