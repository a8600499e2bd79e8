#!/usr/bin/env bash
# Builds the vgen CLI and the benchmark from source, then runs one
# benchmark run. Run it from the root of a checkout:
#
#   bash e2ebench/run.sh --workload paper_sweep --seed 1 --seconds 20 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); scratch
# files and traced-run outputs go to .bench_out/.
set -euo pipefail
if [ ! -f Cargo.toml ] || [ ! -d crates ] || [ ! -f e2ebench/Cargo.toml ]; then
  echo "e2ebench: run this from the root of a vgen checkout" >&2
  exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline --bin vgen >&2
cargo build --release --quiet --offline --manifest-path e2ebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/e2ebench" --vgen "$CARGO_TARGET_DIR/release/vgen" "$@"
