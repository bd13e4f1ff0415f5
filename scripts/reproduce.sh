#!/usr/bin/env bash
# Full reproduction: build, test, regenerate every table/figure, time the
# steps. Total wall time is dominated by Experiment 3 (full routing of
# ispd18s_test5); use `tables -- all --fast` for a CI-sized pass.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build =="
cargo build --workspace --release

echo "== tests =="
cargo test --workspace 2>&1 | tee test_output.txt

echo "== tables and figures (out/) =="
cargo run --release -p pao-bench --bin tables -- all

echo "== figure examples =="
cargo run --release --example coordinate_types
cargo run --release --example routed_def

echo "== step timings (offline, BENCH_pao.json) =="
scripts/bench_steps.sh

echo "Done. See out/, test_output.txt, EXPERIMENTS.md."
