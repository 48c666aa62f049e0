#!/usr/bin/env bash
# Self-test of the benchmark. For every workload, at --seed 1 (where the
# golden check covers passes 0 and 1), it checks that
#   - a plain run prints exactly the end_to_end metric names of
#     BENCHMARK.json and a traced run exactly the per_layer names;
#   - no run fails;
# and then that a golden with one value changed makes a run fail, which
# shows the correctness check can fail.
#
#   bench/perf/selftest.sh [SECONDS]      # measuring time per run, default 2
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
run="$root/bench/perf/run.sh"
seconds="${1:-2}"
out="$root/.bench_build/perf/selftest"
mkdir -p "$out"

# check RESULT_FILE SECTION EXPECT ("pass": no failed run; "fail": some)
check() {
  python3 - "$root/BENCHMARK.json" "$@" <<'EOF'
import json, sys
spec_path, result_path, section, expect = sys.argv[1:]
spec = json.load(open(spec_path))
lines = open(result_path).read().strip().splitlines()
result = json.loads(lines[-1])
want = [m["name"] for m in spec[section]]
got = list(result["metrics"])
problems = []
if got != want:
    problems.append(f"metric names {got} != {section} {want}")
for name, metric in result["metrics"].items():
    units = {m["name"]: m["unit"] for m in spec[section]}
    if name in units and metric["unit"] != units[name]:
        problems.append(f"{name}: unit {metric['unit']} != {units[name]}")
failed = result["failed"] > 0 or not result["correct"]
if expect == "pass" and failed:
    problems.append(f"{result['failed']} of {result['attempted']} runs failed")
if expect == "fail" and not failed:
    problems.append("the changed golden was not detected")
status = "FAIL" if problems else "ok"
print(f"{status}: {result_path} ({result['attempted']} runs, "
      f"{result['failed']} failed)")
for problem in problems:
    print("  " + problem)
sys.exit(1 if problems else 0)
EOF
}

status=0
workloads=$("$run" --list | awk -F: '/^[a-z]+: [0-9]+ cells$/ {print $1}')
for workload in $workloads; do
  for trace in 0 1; do
    result="$out/$workload-trace$trace.out"
    section=end_to_end
    [[ "$trace" == 1 ]] && section=per_layer
    "$run" --workload "$workload" --seed 1 --seconds "$seconds" \
      --trace "$trace" > "$result" 2> "$result.err"
    check "$result" "$section" pass || status=1
  done
done

# One value of a seed-free montecarlo cell changed: checked at any seed.
golden="$root/.bench_build/perf/golden_catalog.json"
changed="$out/golden_changed.json"
python3 - "$golden" "$changed" <<'EOF'
import re, sys
text = open(sys.argv[1]).read()
anchor = text.index('"name": "fig1_entropy/x=1"')
run = text.index('"metrics": {', anchor)
match = re.compile(r'(": )(-?[0-9.e+-]+)').search(text, run)
value = float(match.group(2)) + 1
text = text[:match.start(2)] + repr(value) + text[match.end(2):]
open(sys.argv[2], "w").write(text)
EOF
result="$out/montecarlo-changed-golden.out"
"$run" --workload montecarlo --seed 7 --seconds "$seconds" \
  --golden "$changed" > "$result" 2> "$result.err"
check "$result" end_to_end fail || status=1

exit "$status"
