package baseline_test

import (
	"testing"

	"noelle/internal/bench"
	"noelle/internal/eval"
	"noelle/internal/tools/baseline"
)

// provable is the one shape the conservative auto-parallelizer accepts:
// do-while, constant bound, no calls, disjoint global arrays, a scalar
// reduction.
const provable = `
int a[4096];
int b[4096];
int main() {
  int i = 0;
  int s = 0;
  do {
    b[i] = a[i] * 3 + i;
    s = s + (i * i) % 7;
    i = i + 1;
  } while (i < 4096);
  print_i64(s);
  return s % 256;
}
`

// TestConservativeAutoPar: the gcc/icc model says yes to the provable
// loop and no to each single departure from it.
func TestConservativeAutoPar(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		want      int
	}{
		{"provable", provable, 1},
		{"call in body", `
int a[4096];
int main() {
  int i = 0;
  do {
    a[i] = i;
    print_i64(i);
    i = i + 1;
  } while (i < 4096);
  return a[7];
}`, 0},
		{"pointer-parameter kernel", `
int a[4096];
int b[4096];
void kernel(int *src, int *dst) {
  int i = 0;
  do {
    dst[i] = src[i] * 3;
    i = i + 1;
  } while (i < 4096);
}
int main() {
  kernel(a, b);
  return b[7];
}`, 0},
		{"while-shaped source loop", `
int a[4096];
int b[4096];
int main() {
  int i;
  int s = 0;
  for (i = 0; i < 4096; i = i + 1) {
    b[i] = a[i] * 3 + i;
    s = s + (i * i) % 7;
  }
  print_i64(s);
  return s % 256;
}`, 0},
	} {
		m, err := bench.Benchmark{Name: tc.name, Source: tc.src}.Compile()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		res := baseline.ConservativeAutoPar(m)
		if res.Examined != 1 || len(res.Parallelized) != tc.want {
			t.Errorf("%s: proved %d of %d loops, want %d of 1", tc.name, len(res.Parallelized), res.Examined, tc.want)
		}
	}
}

// TestProvableLoopMovesTheGccBar: through the evaluation's planner
// adapter a proven loop is lowered as the DOALL plan, so the gcc/icc cells
// leave 1.00x and equal the DOALL cell of a program with no other loop.
func TestProvableLoopMovesTheGccBar(t *testing.T) {
	row, err := eval.Figure5Row(bench.Benchmark{Name: "provable", Source: provable}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !(row.GccPar > 1) || row.GccPar != row.DOALL || row.IccPar != row.GccPar {
		t.Errorf("gcc %.3fx, icc %.3fx, DOALL %.3fx: want gcc = icc = DOALL > 1", row.GccPar, row.IccPar, row.DOALL)
	}
}
