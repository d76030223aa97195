#!/usr/bin/env bash
# The CI bench job's gates, runnable locally one at a time.
#
#   ci/run_benches.sh [-B BUILD_DIR] [STEP...]
#
# With no STEP every gate runs in CI order; `ci/run_benches.sh list` prints
# the step names.  BUILD_DIR defaults to build/bench-ci and must already hold
# a Release build of the bench drivers (micro_gbench, backend_shootout,
# calibration_table, planner_explain, service_replay, streaming_replay), e.g.:
#
#   cmake -B build/bench-ci -S . -DCMAKE_BUILD_TYPE=Release -DGM_BUILD_TESTS=OFF
#   cmake --build build/bench-ci -j
#   ci/run_benches.sh planner-cpu
#
# Every step writes its BENCH_* artifact into the current directory — the
# same files the CI job uploads — and exits non-zero when its gate fails, so
# a local run reproduces exactly what CI would flag.
set -euo pipefail

BUILD_DIR=build/bench-ci
while getopts "B:h" flag; do
  case "$flag" in
    B) BUILD_DIR=$OPTARG ;;
    h) sed -n '2,16p' "$0"; exit 0 ;;
    *) exit 2 ;;
  esac
done
shift $((OPTIND - 1))

BENCH="$BUILD_DIR/bench"
EXAMPLES="$BUILD_DIR/examples"

# Counting hot-path microbench: single scan of the large-alphabet reference
# shape must stay at least 2x the serial oracle and clear an absolute
# events/sec floor set ~10x below the measured rate, so only a real
# regression (not runner noise) trips it.  Because --min-speedup makes the
# run gated, the episode-lane engine must also stay at least 1.5x flat
# single-scan on the paper's dense shape (26 symbols, all 17,576 level-3
# episodes; measured 1.7-2.4x with 16-byte lanes, 3.8-5.3x with the AVX2
# kernel; the BENCH file's lane_isa says which ran).  Every shape is
# cross-checked bit-exact against the serial counts before any timing is
# reported.
step_counting() {
  "$BENCH/micro_gbench" --counting \
    --db 200000 --episodes 256 --level 3 --repeat 3 --seed 2009 \
    --min-speedup 2 --min-events-per-sec 3000000 --out BENCH_counting.json
}

# CPU formulation race on a workload big enough for stable wall-clock;
# --threads 1 keeps the gate about formulation choice rather than whether the
# runner really delivers a core per worker.
step_planner_cpu() {
  "$BENCH/backend_shootout" --validate-planner \
    --db 150000 --alphabet 64 --episodes 150 --level 3 --threads 1 \
    --repeat 3 --max-regret 2.0 --json BENCH_shootout.json
}

step_planner_gpu() {
  "$BENCH/backend_shootout" --validate-planner \
    --db 6000 --alphabet 26 --episodes 80 --level 3 --threads 1 \
    --repeat 2 --gpu --tpb-sweep 32,128 --max-regret 2.0 \
    --json BENCH_shootout_gpu.json
}

# Shared-prefix candidate sets (--prefix-pool): the trie kernel enters the
# measured table and the planner should pick gpusim-algo5-trie at levels
# 2-3, so the 2x regret gate covers the trie-vs-flat decision too.
step_planner_trie() {
  "$BENCH/backend_shootout" --validate-planner \
    --db 20000 --alphabet 64 --episodes 1024 --level 3 --threads 1 \
    --prefix-pool 8 --repeat 2 --gpu --tpb-sweep 32 --max-regret 2.0 \
    --json BENCH_shootout_trie.json
}

# Device-count axis: with --devices 2 the planner must flip to a multi-card
# distrib candidate on this kernel-bound shape, and the 2x regret gate holds
# the flip honest against the measured table.
step_planner_devices() {
  "$BENCH/backend_shootout" --validate-planner \
    --db 20000 --alphabet 26 --episodes 300 --level 3 --threads 1 \
    --repeat 2 --gpu --tpb-sweep 32 --devices 2 --max-regret 2.0 \
    --json BENCH_shootout_devices.json
}

# Host-parallel race, report only: few episodes on a long stream, where
# cpu-parallel's stream-chunk map on 4 workers should be the pick and the
# measured best, without and with expiry.  No --max-regret: CI runners rarely
# give four real cores, so the measured times say more about the runner than
# about the planner.
step_host_parallel() {
  "$BENCH/backend_shootout" --validate-planner \
    --db 2000000 --alphabet 26 --episodes 8 --level 2 --threads 4 \
    --repeat 3 --json BENCH_shootout_parallel.json
  "$BENCH/backend_shootout" --validate-planner \
    --db 2000000 --alphabet 26 --episodes 8 --level 2 --threads 4 \
    --repeat 3 --expiry 24 --json BENCH_shootout_parallel_expiry.json
}

# Distrib scaling sweep gated on the *simulated* efficiency at 4 cards
# (deterministic kernel time); host wall-clock efficiency is reported ungated
# because CI runners have fewer cores than the sweep has shards.
step_scaling() {
  "$BENCH/backend_shootout" \
    --db 200000 --alphabet 26 --episodes 100 --level 2 --repeat 3 \
    --shard-sweep 1..8 --min-efficiency 0.6 --json BENCH_scaling.json
}

# Fit a calibration profile on this machine from the reference shape; the
# fitted re-validation below is report-only (the 2x gate stays on the shipped
# profile in planner-cpu).
step_fit_calibration() {
  "$BENCH/backend_shootout" --fit-calibration BENCH_calibration.json \
    --db 150000 --alphabet 64 --episodes 150 --level 3 --threads 1 \
    --repeat 3 --seed 2009 --json BENCH_shootout_fit.json
}

step_planner_fitted() {
  "$BENCH/backend_shootout" --validate-planner \
    --calibration BENCH_calibration.json \
    --db 150000 --alphabet 64 --episodes 150 --level 3 --threads 1 \
    --repeat 3 --seed 2009 --json BENCH_shootout_fitted.json
}

step_planner_tables() {
  "$EXAMPLES/planner_explain" --json BENCH_planner.json \
    --calibration BENCH_calibration.json
}

step_calibration_table() {
  "$BENCH/calibration_table" | tee BENCH_calibration.txt
}

# Service traffic replay: concurrent clients over a repeated-query mix.  The
# driver fails when any response differs from the uncached oracle or the
# cache served fewer hits than the gate, so the uploaded throughput/p50/p99
# numbers always describe bit-exact answers.
step_service_replay() {
  "$BENCH/service_replay" \
    --db 60000 --alphabet 26 --clients 8 --requests 60 --workers 4 \
    --mine-templates 3 --count-templates 6 --max-level 3 \
    --min-cache-hits 50 --out BENCH_service.json
}

# Streaming replay: live append batches against registered monitors, every
# batch cross-checked bit-for-bit against a full recount, plus the
# out-of-order shard-fold lane.  Gated: the incremental path must beat the
# recount by at least 5x on this shape (the measured margin is far larger).
step_streaming_replay() {
  "$BENCH/streaming_replay" \
    --db 60000 --alphabet 20 --batches 40 --batch-size 1500 \
    --monitors 3 --episodes 16 --max-level 3 --expiry 8 --shard-chunks 12 \
    --min-speedup 5 --out BENCH_streaming.json
}

ALL_STEPS=(counting planner-cpu planner-gpu planner-trie planner-devices
  host-parallel scaling fit-calibration planner-fitted planner-tables
  calibration-table service-replay streaming-replay)

if [[ $# -eq 1 && $1 == list ]]; then
  printf '%s\n' "${ALL_STEPS[@]}"
  exit 0
fi

STEPS=("$@")
[[ ${#STEPS[@]} -eq 0 ]] && STEPS=("${ALL_STEPS[@]}")
for step in "${STEPS[@]}"; do
  fn=step_${step//-/_}
  if ! declare -F "$fn" >/dev/null; then
    echo "unknown step '$step' (try: ci/run_benches.sh list)" >&2
    exit 2
  fi
  echo "== $step =="
  "$fn"
done
