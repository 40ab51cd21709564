#!/bin/bash
# Tier-1 verify with the network ruled out: the workspace must build and
# test from the committed sources alone (in-tree prng/proptest/criterion
# shims, no crates-io access). Used standalone and as the preflight of
# run_experiments.sh.
#
# Usage: scripts/check_offline.sh [--quick]
#   --quick   build only (skip the test suite); used where a full test
#             run already happened in the same CI job.
set -eu
cd "$(dirname "$0")/.."

QUICK=0
[ "${1:-}" = "--quick" ] && QUICK=1

echo "== tier-1 (offline): cargo build --release =="
cargo build --release --workspace --offline

if [ "$QUICK" -eq 0 ]; then
    echo "== tier-1 (offline): cargo test -q =="
    cargo test -q --workspace --offline
    # The benchmark harness is its own package outside the workspace;
    # its self-tests catch public-API changes that would break it.
    echo "== benchmark self-tests (offline): accbench =="
    cargo test --release --offline --manifest-path accbench/Cargo.toml
fi

# Lint the crates the incremental round pipeline touches. Gated on
# clippy being installed so a bare-toolchain checkout still passes
# tier-1.
if cargo clippy --version >/dev/null 2>&1; then
    echo "== lint (offline): cargo clippy -D warnings =="
    cargo clippy --offline -p aig -p bitsim -p errmetrics -p lac \
        -p estimate -p accals -p accals-bench -p fuzzkit \
        -p parkit -p sweep -p benchgen -p circuitio -p baselines \
        -p accals-repro -- -D warnings
else
    echo "== lint: cargo clippy not installed, skipping =="
fi

# The smoke run itself asserts that the production round pipeline
# commits bit-identically to the reference oracle (production vs
# reference, at every pool width).
echo "== bench smoke (offline): bench_flow --smoke =="
cargo run --release --offline -p accals-bench --bin bench_flow -- --smoke

# Estimation smoke: the bound-pruned top-k scorer must reproduce the
# dense score-and-select top set bit-for-bit; warm candidate generation
# must reproduce fresh generation (lists and deviation payloads); and
# repeated warm scoring must draw all scratch from the deviation pool
# (zero fresh allocations, asserted on the pool's counter).
echo "== bench smoke (offline): bench_estimate --smoke =="
cargo run --release --offline -p accals-bench --bin bench_estimate -- --smoke

# Sweep smoke: the batched design-space-exploration engine (shared
# simulation, cohort execution with cache forking, work-stealing
# scheduling) must reproduce every grid point's standalone trajectory
# bit-for-bit at every worker count.
echo "== bench smoke (offline): bench_sweep --smoke =="
cargo run --release --offline -p accals-bench --bin bench_sweep -- --smoke

# Windowed-round smoke: a full-span window must run bit-identically to
# the dense flow, and a strict sub-window flow must be deterministic
# across thread counts, meet its error bound, and actually restrict
# its rounds.
echo "== bench smoke (offline): bench_window --smoke =="
cargo run --release --offline -p accals-bench --bin bench_window -- --smoke

# Fixed-seed smoke fuzz: a short deterministic soak of the differential
# oracles (mask cache, candidate store, trial eval, BDD exact error) —
# any divergence prints a one-line repro and fails the check.
echo "== fuzz smoke (offline): fuzzkit --smoke =="
cargo run --release --offline -p fuzzkit --bin fuzzkit -- --smoke

echo "check_offline: OK"
