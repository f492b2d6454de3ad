#!/usr/bin/env bash
# The benchmark package's own gate: format, lints, unit tests, then
# `check` — two sets of runs of the same code must agree within the
# benchmark's bounds (about 10 minutes). Extra arguments go to `check`,
# e.g. `./check.sh --seed 2`. The CI workflow file is outside this
# package; this script is the hook a later CI issue calls.
set -euo pipefail
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline
cargo run --release --offline --quiet -- check "$@"
