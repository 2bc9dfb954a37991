#!/usr/bin/env bash
# Build adbench from source and run it.
#
#   bash bench/adbench/run_benchmark.sh [--workload W] [--seed N]
#        [--seconds S] [--trace 0|1] [other adbench flags]
#
# With --workload, runs that one workload and its last stdout line is
# the JSON result. Without it, runs plan-zoo, plan-batch, serve-colo and
# serve-evict one after another, each in a fresh process, and exits
# non-zero if any of them failed. The build and every file a run writes
# stay under .bench_build/ at the repository root. adbench gets
# --threads min(4, nproc) unless the caller passes --threads.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="$root/.bench_build/adbench"
out="$root/.bench_build/adbench-out"

if [[ ! -f "$root/src/CMakeLists.txt" ]]; then
    echo "run_benchmark: no repository sources under $root/src" >&2
    exit 1
fi

# Compiler and library temporaries stay under .bench_build/ too.
export TMPDIR="$root/.bench_build/tmp"
mkdir -p "$TMPDIR"

cores="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
threads=$((cores < 4 ? cores : 4))

workload=""
has_threads=0
has_out=0
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    case "${args[i]}" in
        --workload) workload="${args[i + 1]:-}" ;;
        --threads) has_threads=1 ;;
        --out) has_out=1 ;;
    esac
done
extra=()
((has_threads)) || extra+=(--threads "$threads")
((has_out)) || extra+=(--out "$out")

mkdir -p "$build"
log="$build/build.log"
if ! { cmake -S "$root/bench/adbench" -B "$build" \
           -DCMAKE_BUILD_TYPE=Release &&
       cmake --build "$build" --target adbench -j "$threads"; } \
       >"$log" 2>&1; then
    tail -n 40 "$log" >&2
    echo "run_benchmark: build failed; full log in $log" >&2
    exit 1
fi

if [[ -n "$workload" ]]; then
    exec "$build/adbench" "${extra[@]}" "$@"
fi

status=0
for w in plan-zoo plan-batch serve-colo serve-evict; do
    "$build/adbench" --workload "$w" "${extra[@]}" "$@" || status=1
done
exit "$status"
