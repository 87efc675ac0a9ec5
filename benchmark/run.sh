#!/usr/bin/env bash
# The one command: builds the benchmark (offline, from source) and runs it.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--trace] [--selfcheck] [--write-pins]
#       every workload, each in a fresh process; prints one line per metric
#       (workload metric unit value n_samples) and writes benchmark/out/
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; the last line printed is the result object
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
# Cargo's progress goes to stderr; stdout carries only the benchmark's lines.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml
exec "$target/release/asynciter-benchmark" "$@"
