#!/usr/bin/env bash
# Builds the benchmark (release) and runs it from the repository root.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload in this process; the last line of output is the result
#       as one JSON object (what BENCHMARK.json's "command" runs)
#   benchmark/run.sh [--seed N] [--seconds S] [--scale tiny|full] [--traced] [--selfcheck]
#       the whole suite, one child process per workload, every metric as
#       "workload/metric value unit"; --traced adds the traced runs and the
#       layer-separation report, --selfcheck runs the suite twice and fails
#       if any pair differs by more than its bound
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --bin holix-benchmark
exec "$CARGO_TARGET_DIR/release/holix-benchmark" "$@"
