#!/usr/bin/env bash
# example_smoke.sh replays the examples/parallelize walkthrough through
# the real CLIs (make example-smoke, the CI example step) and asserts
# its observable promises:
#
#   1. `noelle-load -tools auto -exec-plans` selects a technique per hot
#      loop: DOALL for the data-parallel loops, a pipelining technique
#      (dswp or helix) for the recurrence loop, with a why-report.
#   2. The lowered module's output is byte-identical across the original
#      program, the sequential fallback, and the parallel dispatch run —
#      and matches the committed expected_output.txt.
#   3. A traced run of the lowered module (`noelle-bin -trace`) prints
#      the same output and exports a well-formed Chrome trace
#      (scripts/tracecheck), kept as trace_example.json for CI to upload.
#   4. examples/quickstart, written against the library facade, runs
#      and reports the abstractions it requested.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/bin/" ./cmd/...
PATH="$tmp/bin:$PATH"

echo "== compile + profile =="
noelle-whole-ir -o "$tmp/whole.nir" examples/parallelize/testdata/walkthrough.c
noelle-meta-prof-embed -o "$tmp/prof.nir" "$tmp/whole.nir"

echo "== auto-parallelize (plan-only first, then -exec-plans) =="
noelle-load -tools auto -o /dev/null "$tmp/prof.nir" 2>"$tmp/plan.txt"
grep -q "predicted winners" "$tmp/plan.txt" ||
  { echo "FAIL: plan-only auto run did not report predictions"; cat "$tmp/plan.txt"; exit 1; }

noelle-load -tools auto -exec-plans -o "$tmp/par.nir" "$tmp/prof.nir" 2>"$tmp/report.txt"
cat "$tmp/report.txt"

grep -q "doall lowered" "$tmp/report.txt" ||
  { echo "FAIL: auto did not select DOALL for the data-parallel loops"; exit 1; }
grep -Eq "(dswp|helix) lowered" "$tmp/report.txt" ||
  { echo "FAIL: auto did not select a pipelining technique for the recurrence loop"; exit 1; }
grep -q "doall rejected: sequential SCCs present" "$tmp/report.txt" ||
  { echo "FAIL: the why-report does not explain DOALL's rejection of the recurrence loop"; exit 1; }

echo "== execute: original vs -seq fallback vs parallel dispatch =="
# noelle-bin exits with the program's exit code and prints its
# "exit=... cycles=... steps=..." account to stderr; capture both per
# run. All runs must agree on output bytes and exit code, and every run
# of the *lowered* module must agree on cycles/steps too (the modeled
# totals are mode-independent by construction).
run() { # run <tag> <args...>
  local tag=$1; shift
  set +e
  noelle-bin "$@" >"$tmp/$tag.txt" 2>"$tmp/$tag.err"
  local ec=$?
  set -e
  echo "$ec $(grep -o 'cycles=[0-9]* steps=[0-9]*' "$tmp/$tag.err")"
}
st_orig=$(run orig "$tmp/prof.nir")
st_seq=$(run seq -seq "$tmp/par.nir")
st_par=$(run par -queue-cap 16 "$tmp/par.nir")
st_w2=$(run w2 -workers 2 "$tmp/par.nir")
# Execution tiers: the walker (reference) and compiled (default) engines
# must agree on exit code, cycles, steps, and output bytes too.
st_wk=$(run wk -engine walker "$tmp/par.nir")
st_cp=$(run cp -engine compiled "$tmp/par.nir")
[ "${st_orig%% *}" = "${st_seq%% *}" ] && [ "$st_seq" = "$st_par" ] && [ "$st_par" = "$st_w2" ] ||
  { echo "FAIL: exit/cycles/steps diverged (orig='$st_orig' seq='$st_seq' par='$st_par' w2='$st_w2')"; exit 1; }
[ "$st_wk" = "$st_cp" ] && [ "$st_cp" = "$st_par" ] ||
  { echo "FAIL: execution tiers diverged (walker='$st_wk' compiled='$st_cp' default='$st_par')"; exit 1; }

diff -u examples/parallelize/testdata/expected_output.txt "$tmp/orig.txt"
diff -u "$tmp/orig.txt" "$tmp/seq.txt"
diff -u "$tmp/seq.txt" "$tmp/par.txt"
diff -u "$tmp/par.txt" "$tmp/w2.txt"
diff -u "$tmp/wk.txt" "$tmp/cp.txt"

echo "== traced run: same output, well-formed Chrome trace =="
st_tr=$(run tr -trace "$tmp/trace.json" "$tmp/par.nir")
[ "$st_tr" = "$st_par" ] ||
  { echo "FAIL: tracing changed exit/cycles/steps (traced='$st_tr' untraced='$st_par')"; exit 1; }
diff -u "$tmp/par.txt" "$tmp/tr.txt"
go run ./scripts/tracecheck "$tmp/trace.json"
cp "$tmp/trace.json" trace_example.json

echo "== quickstart: the library facade =="
go run ./examples/quickstart >"$tmp/quickstart.txt"
cat "$tmp/quickstart.txt"
grep -q "^abstractions requested: \[.*PDG" "$tmp/quickstart.txt" ||
  { echo "FAIL: examples/quickstart did not report the PDG among its abstractions"; exit 1; }

echo "example-smoke: OK (auto selected per-loop techniques; output byte-identical; quickstart ran)"
