#!/usr/bin/env bash
# Build the server and the benchmark from source, then run one benchmark pass.
#   bash servebench/run.sh --workload hot_check --seed 1 --seconds 10 --trace 0
# Run from the repository root; the last stdout line is the JSON result.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
target="${CARGO_TARGET_DIR:-$root/.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p xpsat-server --bin xpathsat >&2
cargo build --release --offline --quiet --manifest-path servebench/Cargo.toml >&2
exec "$target/release/servebench" --server "$target/release/xpathsat" "$@"
