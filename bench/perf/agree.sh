#!/usr/bin/env bash
# Run-to-run agreement of the benchmark on one build: two sets of N runs
# per workload over the same seeds S, S+1, ..., S+N-1, alternating which
# set runs first at each seed. Prints, per (workload, metric), each set's
# median, quartiles and spread (interquartile range over median), and
# flags
#   - a set whose spread exceeds the metric's bound (setup_s is exempt),
#   - set medians that differ by more than the metric's bound,
#   - a count metric that differs between the two runs at one seed,
#   - a run that failed.
# Exits 1 when anything is flagged.
#
#   bench/perf/agree.sh [--runs N] [--seed S] [--seconds T] [--trace 0|1]
#                       [WORKLOAD...]
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
run="$root/bench/perf/run.sh"
runs=10 seed=1 trace=0 seconds=""
workloads=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --runs) runs="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    *) workloads+=("$1"); shift ;;
  esac
done
if [[ -z "$seconds" ]]; then
  seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$root/BENCHMARK.json")
fi
if [[ ${#workloads[@]} -eq 0 ]]; then
  read -r -a workloads <<< "$("$run" --list | awk -F: '/^[a-z]+: [0-9]+ cells$/ {print $1}' | xargs)"
fi
out="$root/.bench_build/perf/agree"
rm -rf "$out"
mkdir -p "$out"

one() {  # SET WORKLOAD SEED
  "$run" --workload "$2" --seed "$3" --seconds "$seconds" --trace "$trace" \
    > "$out/$1-$2-$3.out" 2> "$out/$1-$2-$3.err"
}
for workload in "${workloads[@]}"; do
  for ((i = 0; i < runs; i++)); do
    s=$((seed + i))
    if ((i % 2 == 0)); then
      one a "$workload" "$s"; one b "$workload" "$s"
    else
      one b "$workload" "$s"; one a "$workload" "$s"
    fi
  done
done

python3 - "$root/BENCHMARK.json" "$out" "$trace" "$seed" "$runs" \
  "${workloads[@]}" <<'EOF'
import json, statistics, sys

spec_path, out, trace, seed, runs, *workloads = sys.argv[1:]
spec = json.load(open(spec_path))
metrics = spec["per_layer" if trace == "1" else "end_to_end"]
seeds = range(int(seed), int(seed) + int(runs))
counts = {"count", "bytes", "msgs/request"}
flagged = []

def result(set_name, workload, s):
    with open(f"{out}/{set_name}-{workload}-{s}.out") as f:
        return json.loads(f.read().strip().splitlines()[-1])

for workload in workloads:
    rows = {n: [result(n, workload, s) for s in seeds] for n in "ab"}
    for n, results in rows.items():
        for s, r in zip(seeds, results):
            if r["failed"] or not r["correct"]:
                flagged.append(f"{workload} set {n} seed {s}: "
                               f"{r['failed']} of {r['attempted']} runs failed")
    for metric in metrics:
        name = metric["name"]
        values = {n: [r["metrics"][name]["value"] for r in rows[n]]
                  for n in "ab"}
        line = f"{workload:12s} {name:40s}"
        medians = {}
        for n, v in values.items():
            medians[n] = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            spread = (q3 - q1) / medians[n] if medians[n] else 0.0
            line += (f"  {n}: median {medians[n]:.6g} q1 {q1:.6g} "
                     f"q3 {q3:.6g} spread {spread:.3f}")
            bound = metric.get("bound")
            if bound is not None and name != "setup_s" and spread > bound:
                flagged.append(f"{workload} {name}: set {n} spread "
                               f"{spread:.3f} > bound {bound}")
        print(line)
        bound = metric.get("bound")
        if bound is not None and medians["a"]:
            change = abs(medians["b"] - medians["a"]) / medians["a"]
            if change > bound:
                flagged.append(f"{workload} {name}: set medians differ by "
                               f"{change:.3f} > bound {bound}")
        if metric["unit"] in counts:
            for s, x, y in zip(seeds, values["a"], values["b"]):
                if x != y:
                    flagged.append(f"{workload} {name}: seed {s} gave "
                                   f"{x} and {y}")

for line in flagged:
    print("FLAG " + line)
sys.exit(1 if flagged else 0)
EOF
