#!/usr/bin/env bash
# Output-identity check between two builds of this repository.
#
#   scripts/compare_outputs.sh OLD_BUILD NEW_BUILD
#
# Runs every deterministic paper harness of both build trees, each in
# a fresh temporary directory (so its replay log starts empty), at the
# smoke intervals SMITE_BENCH_WARMUP=2000 SMITE_BENCH_MEASURE=8000, and
# byte-compares stdout plus exit status. Prints `ok <harness>` or
# `DIFF <harness>` per harness and exits 1 on any difference. A change
# that claims to keep the reproduction's outputs must pass this with
# its parent commit's build as OLD_BUILD.
#
# Every harness run here gave byte-identical stdout over two runs of
# one build, so none is left out; a harness that stops being
# reproducible run to run must be dropped from the list below. The
# other bench binaries (bench_parallel_scaling, bench_predictor_zoo,
# bench_profiling_overhead, bench_sim_micro, bench_scaleout_stress,
# bench_latency_vs_load) print wall-clock timings and have their own
# gates in scripts/tier1.sh.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 OLD_BUILD NEW_BUILD" >&2
    exit 2
fi
OLD="$(cd "$1" && pwd)"
NEW="$(cd "$2" && pwd)"

export SMITE_BENCH_WARMUP=2000 SMITE_BENCH_MEASURE=8000
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# Run one harness binary in a fresh directory; stdout plus a trailing
# exit-status line go to $3.
run_one() {
    local bin="$1" dir="$2" out="$3" rc=0
    mkdir -p "$dir"
    if [ -x "$bin" ]; then
        (cd "$dir" && "$bin" > "$out" 2> /dev/null) || rc=$?
    else
        rc=127
    fi
    echo "exit=$rc" >> "$out"
}

status=0
for bin in "$NEW"/bench/bench_fig* "$NEW"/bench/bench_table1_machines \
    "$NEW"/bench/bench_ablation_* "$NEW"/bench/bench_baseline_selection \
    "$NEW"/bench/bench_ruler_linearity; do
    [ -f "$bin" ] && [ -x "$bin" ] || continue
    name="$(basename "$bin")"
    run_one "$OLD/bench/$name" "$WORK/old.$name" "$WORK/$name.old"
    run_one "$NEW/bench/$name" "$WORK/new.$name" "$WORK/$name.new"
    if cmp -s "$WORK/$name.old" "$WORK/$name.new"; then
        echo "ok   $name"
    else
        echo "DIFF $name"
        status=1
    fi
done
exit "$status"
