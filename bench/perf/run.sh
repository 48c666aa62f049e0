#!/usr/bin/env bash
# Builds findep-perf from this checkout's src/ and runs it.
#
#   bench/perf/run.sh --workload faults --seed 7 --seconds 10 --trace 0
#   bench/perf/run.sh --seed 1       # every workload in turn
#
# Arguments pass through to findep-perf (see main.cpp). run.sh adds the
# decompressed golden catalog as --golden and, with --trace 1, writes the
# span JSONL to .bench_build/perf/trace/<workload>-<seed>.jsonl. Build
# output goes to stderr, so the last stdout line is the result JSON. The
# first call in a checkout configures and builds (Release).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="$root/.bench_build/perf"

{
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    cmake -S "$root/bench/perf" -B "$build" -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$build" -j 4
} >&2

golden="$build/golden_catalog.json"
if [[ ! -f "$golden" || "$root/ci/golden_catalog.json.gz" -nt "$golden" ]]; then
  gunzip -c "$root/ci/golden_catalog.json.gz" > "$golden.tmp"
  mv "$golden.tmp" "$golden"
fi

workload="" seed=1 trace=0
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
  case "${args[i]}" in
    --list) exec "$build/findep-perf" --list ;;
    --workload) workload="${args[i + 1]:-}" ;;
    --seed) seed="${args[i + 1]:-}" ;;
    --trace) trace="${args[i + 1]:-}" ;;
  esac
done

run_workload() {
  local name="$1"
  shift
  local trace_out=()
  if [[ "$trace" == 1 ]]; then
    mkdir -p "$build/trace"
    trace_out=(--trace-out "$build/trace/$name-$seed.jsonl")
  fi
  "$build/findep-perf" --golden "$golden" ${trace_out[@]+"${trace_out[@]}"} \
    "$@" --workload "$name"
}

if [[ -n "$workload" ]]; then
  run_workload "$workload" "$@"
else
  for name in $("$build/findep-perf" --list | awk -F: '/^[a-z]+: [0-9]+ cells$/ {print $1}'); do
    run_workload "$name" "$@"
  done
fi
