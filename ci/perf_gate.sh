#!/usr/bin/env sh
# Hard wall-clock gate: FAIL when a `micro` row's mean ns_per_op over 3
# seeds, run on one sweep thread so the timing loops do not contend on
# the pool, exceeds 1.5x ci/micro_baseline.csv (noisy shared runners:
# baselines carry headroom), or when a baselined row is missing.
#
# usage: ci/perf_gate.sh [--update-baseline] path/to/findep-bench
# --update-baseline rewrites the baseline from this run; review it before
# committing (README "Regression oracles"). ci/golden.sh pins behaviour.
set -eu

baseline="$(dirname "$0")/micro_baseline.csv"
update=0
if [ "${1:-}" = --update-baseline ]; then update=1; shift; fi
if [ $# -ne 1 ]; then
  echo "usage: $0 [--update-baseline] path/to/findep-bench" >&2
  exit 2
fi
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT
"$1" --family micro --seeds 3 --threads 1 --csv --out "$tmp" > /dev/null

if [ "$update" = 1 ]; then
  awk -F, 'FNR == 1 {print "scenario,metric,kind,baseline"}
           $4 == "ns_per_op" {print $2 "," $4 ",time," $5}' "$tmp" \
    > "$baseline"
  echo "rebaselined $baseline: review the rows for headroom before committing"
  exit 0
fi
awk -F, '
  NR == FNR { if (FNR > 1) base[$1 " " $2] = $4; next }
  (key = $2 " " $4) in base {
    seen[key] = 1
    if ($5 > base[key] * 1.5) {
      printf "FAIL %s: %.0f ns/op is %+.1f%% vs baseline %.0f (1.5x allows" \
             " +50%%)\n", key, $5, ($5 / base[key] - 1) * 100, base[key]
      failed = 1
    }
  }
  END {
    for (key in base) if (!(key in seen)) {
      printf "FAIL %s: baselined row missing from the run\n", key
      failed = 1
    }
    exit failed
  }
' "$baseline" "$tmp"
echo "perf gate OK ($baseline, 1.5x tolerance)"
