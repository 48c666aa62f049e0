#!/usr/bin/env sh
# Tier-1 test of ci/golden_diff.awk, the per-metric diff ci/golden.sh
# prints on a golden mismatch, against edited copies of the golden.
# usage: tests/golden_diff.sh path/to/ci
set -eu
ci=$1
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
gunzip -c "$ci/golden_catalog.json.gz" > "$tmp/golden.json"

# check FILE STATUS [LINE...]: diffing the golden against FILE exits
# STATUS and prints every LINE, or prints nothing when none is given.
check() {
  status=0
  awk -f "$ci/golden_diff.awk" "$tmp/golden.json" "$1" > "$tmp/out" ||
    status=$?
  [ "$status" = "$2" ] || { echo "FAIL $1: exit $status, want $2"; exit 1; }
  shift 2
  [ $# -gt 0 ] || [ ! -s "$tmp/out" ] || { cat "$tmp/out"; exit 1; }
  for line in "$@"; do
    grep -qxF "$line" "$tmp/out" || { echo "FAIL no line: $line"; exit 1; }
  done
}

check "$tmp/golden.json" 0

# In one cell's first run, flip `recovered` and add a last metric; delete
# one scenario.
cell='campaign/target=lazarus fault=collude rate=1 n=7'
gone='diversity_audit/n=32 zipf=1'
run=$(grep -A1 -F "\"$cell\"" "$tmp/golden.json" | tail -n 1)
seed=$(echo "$run" | sed 's/.*"seed": \([0-9]*\),.*/\1/')
old=$(echo "$run" | sed 's/.*"recovered": \([01]\),.*/\1/')
new=$((1 - old))
sed -e "\\|\"$cell\"|{n;s/\"recovered\": $old,/\"recovered\": $new,/" \
    -e 's/}},/, "zz": 1&/;}' \
    -e "\\|\"$gone\"|,/^    ]},/d" "$tmp/golden.json" > "$tmp/edited.json"
check "$tmp/edited.json" 1 \
  "changed \"$cell\" seed $seed recovered: golden $old, new $new" \
  "changed \"$cell\" seed $seed zz: golden -, new 1" \
  "missing \"$gone\": in the golden, not in the new render"

sed '3a\
not json' "$tmp/golden.json" > "$tmp/stray.json"
check "$tmp/stray.json" 1 "new:4: cannot parse: not json"
