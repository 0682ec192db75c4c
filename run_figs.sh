#!/bin/sh
# Regenerates the paper's figures into results/ (see results/README.md and
# EXPERIMENTS.md): Figs. 2-5 on the full 10 x 10 grid with 2 replicates,
# the ablation tables and the sink-cost comparison (observation 6). Run
# it from anywhere; it builds the figure binaries in release first.
set -eu
cd "$(dirname "$0")"
target_dir="${CARGO_TARGET_DIR:-target}"
cargo build --release -q -p vcount-bench
export VCOUNT_GRID=full VCOUNT_REPS=2
for fig in fig2 fig3 fig4 fig5; do
    "$target_dir/release/$fig" > "results/$fig.csv" 2> "results/$fig.log"
done
"$target_dir/release/ablations" > results/ablations.txt 2>&1
"$target_dir/release/obs6" > results/obs6.txt 2>&1
