# Per-metric diff of two `findep-bench --json` renders, in POSIX awk:
#   awk -f ci/golden_diff.awk GOLDEN NEW
# Silent with exit 0 when they match. Otherwise exits 1 after printing
# each line outside the --json layout, then, in GOLDEN's catalog order,
# each metric whose text differs (scenario, seed, metric, golden and new
# value; "-" if absent) and each missing scenario, then each extra one;
# failing all those, the first line where the text differs.

function note(msg) { print msg; bad = 1 }

function compare(s, k,    g, n, p) {
  g = (1, s, k) in val ? val[1, s, k] : "-"
  n = (2, s, k) in val ? val[2, s, k] : "-"
  if (g == n) return
  split(k, p, SUBSEP)
  note("changed \"" s "\" seed " p[1] " " p[2] ": golden " g ", new " n)
}

FNR == 1 { side++; file = side == 1 ? "golden" : "new"; s = "" }
{ text[side, FNR] = $0; lines[side] = FNR }

/^    \{"name": ".*", "family": "[^"]*", "runs": \[$/ {
  s = substr($0, 15, index($0, "\", \"family\": \"") - 15)
  at[side, s] = 1
  name[side, ++count[side]] = s
  next
}

# {"seed": N, "metrics": {"m": v, ...}} or {"seed": N, "error": "..."}
s != "" && /^      \{"seed": [0-9]+, ("metrics": \{.*\}|"error": ".*")\},?$/ {
  line = substr($0, 16)
  sub(/\},?$/, "", line)
  seed = substr(line, 1, index(line, ",") - 1)
  line = substr(line, length(seed) + 4)  # m": v, "m": v  or  error": "..."
  if (sub(/^metrics": \{/, "", line)) line = substr(line, 2, length(line) - 2)
  n = split(line, pairs, /, "/)
  for (i = 1; i <= n; i++) {
    j = index(pairs[i], "\": ")
    if (j == 0) { note(file ":" FNR ": cannot parse: " $0); next }
    m = substr(pairs[i], 1, j - 1)
    key[side, s, ++keys[side, s]] = seed SUBSEP m
    val[side, s, seed, m] = substr(pairs[i], j + 3)
  }
  next
}

/^(\{|  "scenarios": \[|    \]\},?|  \]|\})$/ { next }
{ note(file ":" FNR ": cannot parse: " $0) }

END {
  for (i = 1; i <= count[1]; i++) {
    s = name[1, i]
    if (!((2, s) in at)) {
      note("missing \"" s "\": in the golden, not in the new render")
      continue
    }
    for (j = 1; j <= keys[1, s]; j++) compare(s, key[1, s, j])
    for (j = 1; j <= keys[2, s]; j++)
      if (!((1, s, key[2, s, j]) in val)) compare(s, key[2, s, j])
  }
  for (i = 1; i <= count[2]; i++)
    if (!((1, name[2, i]) in at))
      note("extra \"" name[2, i] "\": in the new render, not in the golden")
  for (i = 1; !bad && (i <= lines[1] || i <= lines[2]); i++)
    if (text[1, i] != text[2, i]) note("layout differs from line " i)
  exit bad
}
