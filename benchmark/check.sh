#!/usr/bin/env bash
# Everything that must hold before the benchmark is trusted: format, lints,
# the harness's unit tests, a smoke run and trace whose printed names equal
# the declared ones, the self-test (a wrong output must be caught), and
# BENCHMARK.json against src/spec.rs. Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline --release -q

bench() { cargo run --offline --release --quiet -- "$@"; }

bench check-schema
# `run` and `trace` exit non-zero if an op failed or a printed name is
# missing from, or extra to, the declared set.
bench run --smoke
bench trace --smoke

if out=$(bench run --smoke --self-test); then
    echo "self-test: a flipped expectation went unnoticed" >&2
    exit 1
fi
if ! grep -q "ops failed" <<<"$out" || grep -Eq "failed_ops_share +0\.000000 " <<<"$out"; then
    echo "self-test: some workload still reports failed_ops_share = 0" >&2
    exit 1
fi
echo "check.sh: all good"
