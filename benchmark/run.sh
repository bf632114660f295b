#!/usr/bin/env bash
# Builds the benchmark offline in release mode and runs the default suite
# with the traced pass. Extra arguments go to the harness, e.g.
#   benchmark/run.sh --reps 3 --only guess-query
# Results: benchmark/out/results.json and benchmark/out/trace.json.
set -euo pipefail
cd "$(dirname "$0")"
cargo build --release --offline
exec cargo run --release --offline --quiet -- --trace "$@"
