#!/usr/bin/env bash
# Regenerate the golden-run artifacts in this directory.
#
#   tests/golden/regen.sh [build-dir]     # default build dir: build
#
# Builds the test_golden binary and the paper-claim benches, then reruns
# the golden tests and the bench.paper_tables ctest with DPHO_GOLDEN_REGEN=1,
# which makes them overwrite tests/golden/<mode>/* and tests/golden/paper/*
# in the source tree instead of comparing.  Review the diff before
# committing: every change here is a deliberate behavior change to the
# golden configuration or to a paper table.
set -euo pipefail

repo_root=$(cd "$(dirname "$0")/../.." && pwd)
build_dir=${1:-build}
case "$build_dir" in
  /*) ;;
  *) build_dir="$repo_root/$build_dir" ;;
esac

cmake --build "$build_dir" --target test_golden dpho_hpo dpho_report \
  bench_table1_representation bench_fig1_convergence bench_fig2_pareto_front \
  bench_fig3_parallel_coords bench_table3_selected_solutions \
  bench_ablation_annealing bench_sensitivity bench_nsga2_zdt \
  bench_cluster_speedup
DPHO_GOLDEN_REGEN=1 "$build_dir/tests/test_golden" \
  --gtest_filter='GoldenRun.*MatchesCheckedInArtifacts'
DPHO_GOLDEN_REGEN=1 ctest --test-dir "$build_dir" -R '^bench\.paper_tables$' \
  --output-on-failure
echo "goldens regenerated under $repo_root/tests/golden/"
