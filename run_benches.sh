#!/bin/bash
# Runs every bench with wall-clock-friendly parameters (each bench
# prints the parameters it ran with). Drop the flags for paper-strength
# run counts and larger workloads.
# Fail fast: a bench that crashes or exits nonzero aborts the sweep
# instead of burying the failure in later output.
set -euo pipefail
B=build/bench
run() { echo "========== $*"; "$@"; echo; }
# Like run, but also snapshots the output into a committed results file.
run_tee() { out=$1; shift; echo "========== $* (-> $out)"; "$@" | tee "$out"; echo; }
run $B/bench_table1_config
run $B/bench_table2_metrics
run $B/bench_fig2_l2_trends
run $B/bench_fig3_access_pattern
run $B/bench_fig4_warp_spread
run $B/bench_table3_objects
run $B/bench_fig6_hot_vs_rest --runs=60
run $B/bench_fig7_performance --scale=small
run $B/bench_fig9_reliability --runs=40
run $B/bench_tradeoff_summary --runs=50
run $B/bench_ablation_lazy --scale=small
run $B/bench_ablation_secded --runs=60
run $B/bench_ablation_placement --scale=small
run $B/bench_baseline_rmt --scale=small
run $B/bench_baseline_checkpoint --scale=small
run $B/bench_ext_fault_shapes --runs=50
run $B/bench_ext_online_detection
run $B/bench_ext_writable --runs=50
run $B/bench_ext_recovery --runs=40
# Importance sampling must hit >=5x fewer trials at matched confidence
# (the bench exits nonzero otherwise, failing the sweep).
run_tee results_importance_sampling.txt $B/bench_importance_sampling \
  --runs=400 --jobs=4 --json=BENCH_importance_sampling.json
run_tee results_trace_replay.txt $B/bench_trace_replay --scale=small \
  --runs=200 --json=BENCH_sim_throughput.json
# Kernel-graph DAG workloads: exits nonzero if a shared weight tensor's
# cross-kernel read total fails to rank above its single-kernel view.
run_tee results_kernel_graph.txt $B/bench_kernel_graph --runs=40 \
  --json=BENCH_kernel_graph.json
# Committed results_shard_campaign.txt is this bench at its default
# 10^6 trials (`$B/bench_shard_campaign | tee results_shard_campaign.txt`,
# ~10 min); the sweep runs a wall-clock-friendly count.
run $B/bench_shard_campaign --runs=20000
# Service daemon: repeat-heavy mix over a live socket; exits nonzero
# below a 90% cache hit rate or a <10x repeat-p50 speedup.
run_tee results_service.txt $B/bench_service --json=BENCH_service.json
# Crash-tolerance contract: the atomic writers (trace stores, shard
# results, manifests) must never leave `*.tmp.<pid>` siblings behind,
# even across the injected worker kills above. Fail the sweep if any
# bench orphaned one.
orphans=$(find . -name '*.tmp.*' -not -path './build/*' 2>/dev/null)
if [ -n "$orphans" ]; then
  echo "FAIL: orphaned temp files left by the sweep:" >&2
  echo "$orphans" >&2
  exit 1
fi
echo ALL_BENCH_SWEEP_DONE
