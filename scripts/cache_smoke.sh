#!/usr/bin/env bash
# cache_smoke.sh — two-process warm-load smoke check for the persistent
# abstraction store (make cache-smoke).
#
# Process 1 runs noelle-load cold with -cache-dir, populating the store.
# Process 2 runs the identical invocation and must load every PDG warm:
# the stats file noelle-cache surfaces must show last.misses=0 and
# last.hits > 0 for the second session.
#
# Then two programs share one @shift body under different callers:
# shift(b, a, n) copies, which DOALL may parallelize, and shift(a, a, n)
# reads each element the previous iteration wrote. noelle-whole-ir names
# both modules "whole", so they share a store namespace. After the first
# has filled a store, the second's DOALL-lowered product must print what
# its storeless product prints.
set -euo pipefail

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
cache="$workdir/cache"

cat > "$workdir/prog.c" <<'EOF'
int table[128];

int fill(int seed) {
  int s = 0;
  for (int i = 0; i < 128; i = i + 1) {
    table[i] = seed + i;
    s = s + table[i];
  }
  return s;
}

int main() {
  int s = fill(3);
  print_i64(s);
  return 0;
}
EOF

go run ./cmd/noelle-whole-ir -o "$workdir/whole.nir" "$workdir/prog.c"

echo "== run 1 (cold) =="
go run ./cmd/noelle-load -tools licm -cache-dir "$cache" -o /dev/null "$workdir/whole.nir"

echo "== run 2 (warm) =="
go run ./cmd/noelle-load -tools licm -cache-dir "$cache" -o /dev/null "$workdir/whole.nir"

echo "== noelle-cache stats =="
stats=$(go run ./cmd/noelle-cache -dir "$cache" stats)
echo "$stats"
go run ./cmd/noelle-cache -dir "$cache" ls

last_misses=$(echo "$stats" | sed -n 's/^last.misses=//p')
last_hits=$(echo "$stats" | sed -n 's/^last.hits=//p')
if [ "$last_misses" != "0" ]; then
  echo "FAIL: warm run missed $last_misses records" >&2
  exit 1
fi
if [ -z "$last_hits" ] || [ "$last_hits" -lt 1 ]; then
  echo "FAIL: warm run reported no store hits" >&2
  exit 1
fi
echo "OK: warm run loaded $last_hits PDGs from the store with zero misses"

# shift_program NAME ARGS writes and compiles the program calling
# shift(ARGS, n), with an embedded profile.
shift_program() {
  cat > "$workdir/shift_$1.c" <<EOF
int a[2001];
int b[2001];

void shift(int *p, int *q, int n) {
  for (int i = 0; i < n; i = i + 1) {
    p[i + 1] = (q[i] + i) % 1000003;
  }
}

int main() {
  int n = 2000;
  for (int i = 0; i < n + 1; i = i + 1) {
    a[i] = i * 7 + 1;
  }
  shift($2, n);
  int s = 0;
  for (int i = 0; i < n + 1; i = i + 1) {
    s = s + a[i] + b[i] * (i + 1);
  }
  print_i64(s);
  return 0;
}
EOF
  go run ./cmd/noelle-whole-ir -o "$workdir/shift_$1.nir" "$workdir/shift_$1.c"
  go run ./cmd/noelle-meta-prof-embed -o "$workdir/shift_$1.prof.nir" "$workdir/shift_$1.nir"
}
shift_program a "b, a"
shift_program b "a, a"

echo "== two programs, one @shift body =="
doall="-tool doall -hot 0 -cores 4"
shift_cache="$workdir/shift_cache"
go run ./cmd/noelle-load $doall -o "$workdir/b.storeless.nir" "$workdir/shift_b.prof.nir" 2>/dev/null
go run ./cmd/noelle-load $doall -cache-dir "$shift_cache" -o /dev/null "$workdir/shift_a.prof.nir" 2>/dev/null
go run ./cmd/noelle-load $doall -cache-dir "$shift_cache" -o "$workdir/b.stored.nir" "$workdir/shift_b.prof.nir"
go run ./cmd/noelle-bin "$workdir/b.storeless.nir" > "$workdir/b.storeless.out" 2>/dev/null
go run ./cmd/noelle-bin "$workdir/b.stored.nir" > "$workdir/b.stored.out" 2>/dev/null
if ! cmp "$workdir/b.storeless.out" "$workdir/b.stored.out"; then
  echo "FAIL: with a store the second program printed $(cat "$workdir/b.stored.out"), without one $(cat "$workdir/b.storeless.out")" >&2
  exit 1
fi
echo "OK: the second program prints $(cat "$workdir/b.stored.out") with and without the first program's store"
