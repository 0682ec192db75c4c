#!/usr/bin/env bash
# Builds the vcount daemon and the vbench harness from source (release
# profile), then runs vbench with the given arguments. Run it from the
# repository root:
#
#   bash vbench/run.sh                         # all four workloads
#   bash vbench/run.sh --workload vcountd_tcp --seed 3 --seconds 20 --trace 0
#
# Both builds go to $CARGO_TARGET_DIR (default: target/).
set -euo pipefail
target_dir="${CARGO_TARGET_DIR:-target}"
export CARGO_TARGET_DIR="$target_dir"
cargo build --release --offline -q -p vcount-cli --bin vcount >&2
cargo build --release --offline -q --manifest-path vbench/Cargo.toml >&2
exec "$target_dir/release/vbench" --vcount "$target_dir/release/vcount" "$@"
