#!/usr/bin/env bash
# Builds the bench_e2e runner and the dbmined daemon into one target
# directory (the runner finds the daemon next to its own executable),
# then runs the runner with the given arguments. Run from the
# repository root:
#
#   bash crates/bench/src/bin/bench_e2e/run.sh --seed 2004
#   bash crates/bench/src/bin/bench_e2e/run.sh --workload analyze_dblp5k --seed 1 --seconds 20 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../../../../.." && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p dbmine --bin dbmined >&2
exec "$CARGO_TARGET_DIR/release/bench_e2e" "$@"
