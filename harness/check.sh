#!/usr/bin/env bash
# Does the benchmark agree with itself on this host? Builds the harness,
# runs the whole suite N times (default 5) on the current tree and
# prints, per workload x end-to-end metric, min/median/max, max/min, the
# quartile spread and the first-half/second-half drift against the
# bounds in BENCHMARK.json. Exits non-zero when any is out of bounds.
#
#   harness/check.sh              # 5 suites, about 5 minutes
#   harness/check.sh --suites 10  # what the driver does
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path harness/Cargo.toml
exec cargo run --release --offline --quiet --manifest-path harness/Cargo.toml -- agree "$@"
