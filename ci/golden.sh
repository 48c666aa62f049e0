#!/usr/bin/env sh
# The behaviour oracle: every family `--list` does not mark [measured],
# swept at --seed 1 --seeds 2 --json, must equal ci/golden_catalog.json.gz
# byte for byte when rendered on 8 threads; on 1 thread with
# FINDEP_BFT_TRACE=1 (the trace must go to stderr only); and as
# --emit-tasks split across 3 concurrent --worker processes, --merge'd
# with one shard from stdin. A differing render gets a per-metric diff.
#
# usage: ci/golden.sh [--update] path/to/findep-bench
# --update rewrites the golden once the three renders agree: only for a
# deliberate behaviour change, after reviewing the diff.
set -eu

ci=$(dirname "$0")
update=0
if [ "${1:-}" = --update ]; then update=1; shift; fi
if [ $# -ne 1 ]; then
  echo "usage: $0 [--update] path/to/findep-bench" >&2
  exit 2
fi
bench=$1
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
families=$("$bench" --list |
  awk '/^[^ ]/ && !/\[measured\]/ {printf "%s%s", sep, $1; sep = ","}')
set -- --family "$families" --seed 1 --seeds 2
status=0

# A render that exits nonzero still writes its JSON; the diff judges it.
"$bench" "$@" --threads 8 --json > "$tmp/threaded.json" || :
FINDEP_BFT_TRACE=1 "$bench" "$@" --threads 1 --json \
  > "$tmp/serial.json" 2> "$tmp/trace.log" || :
[ -s "$tmp/trace.log" ] || { echo "FAIL no trace on stderr"; status=1; }
"$bench" "$@" --emit-tasks > "$tmp/tasks.jsonl"
split -n l/3 -d "$tmp/tasks.jsonl" "$tmp/shard."
for s in 00 01 02; do "$bench" --worker < "$tmp/shard.$s" > "$tmp/$s" & done
wait
"$bench" --merge "$tmp/00" "$tmp/01" - --json < "$tmp/02" \
  > "$tmp/sharded.json" || :

ref=golden
[ "$update" = 0 ] || ref=threaded
gunzip -c "$ci/golden_catalog.json.gz" > "$tmp/golden.json"
for render in threaded serial sharded; do
  cmp -s "$tmp/$ref.json" "$tmp/$render.json" && continue
  echo "FAIL the $render render differs from the $ref render:"
  awk -f "$ci/golden_diff.awk" "$tmp/$ref.json" "$tmp/$render.json" || :
  status=1
done
[ "$status" = 0 ] || exit 1
if [ "$update" = 1 ]; then
  gzip -n < "$tmp/threaded.json" > "$ci/golden_catalog.json.gz"
  echo "rewrote $ci/golden_catalog.json.gz from three agreeing renders"
else
  echo "golden OK: threaded, traced serial and sharded renders all match"
fi
