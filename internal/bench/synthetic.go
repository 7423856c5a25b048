package bench

import (
	"fmt"
	"strings"

	"noelle/internal/ir"
	"noelle/internal/minic"
	"noelle/internal/passes"
)

// Synthetic generates a whole-program module at a chosen scale: nFuncs
// worker functions chained by conditional calls over nGlobals shared
// arrays, plus a main that fans out into the chain. The shape is the
// corpus programs' (array sweeps, accumulators, call chains) but the
// size is configurable, which is what the warm-load study needs: the
// call chain is as deep as the program is large (what a per-level
// points-to pass pays for, BenchmarkPointsToWhole), and this module is
// where a cold build is measured against a persistent-store load
// (BenchmarkFunctionPDGCold/Warm).
func Synthetic(nFuncs, nGlobals int) (*ir.Module, error) {
	var sb strings.Builder
	for g := 0; g < nGlobals; g++ {
		fmt.Fprintf(&sb, "int arr%d[128];\n", g)
	}
	for i := 0; i < nFuncs; i++ {
		fmt.Fprintf(&sb, "\nint work%d(int seed) {\n  int acc = seed;\n", i)
		sb.WriteString("  for (int i = 0; i < 128; i = i + 1) {\n")
		for g := 0; g < 8; g++ {
			a := (i + g) % nGlobals
			b := (i + g + 5) % nGlobals
			fmt.Fprintf(&sb, "    arr%d[i] = arr%d[i] + seed;\n", a, b)
			fmt.Fprintf(&sb, "    acc = acc + arr%d[i];\n", a)
		}
		if i+1 < nFuncs {
			fmt.Fprintf(&sb, "    if (acc > 100000) { acc = acc + work%d(acc / 2); }\n", i+1)
		}
		sb.WriteString("  }\n  return acc;\n}\n")
	}
	sb.WriteString("int main() {\n  int t = 0;\n")
	for i := 0; i < nFuncs; i += 4 {
		fmt.Fprintf(&sb, "  t = t + work%d(%d);\n", i, i)
	}
	sb.WriteString("  print_i64(t);\n  return 0;\n}\n")

	m, err := minic.Compile(fmt.Sprintf("synthetic-%dx%d", nFuncs, nGlobals), sb.String())
	if err != nil {
		return nil, err
	}
	passes.Optimize(m)
	return m, nil
}

// WholeProgram returns the bundled whole-program-scale module (about 12k
// instructions across 120 functions) used by the warm-load benchmarks.
func WholeProgram() (*ir.Module, error) { return Synthetic(120, 48) }

// ParallelProgram generates the bundled whole-program benchmark for the
// parallel interpreter runtime: its execution is dominated by DOALL-able
// loops (independent array maps and privatizable reductions, every store
// indexed directly by the governing IV so disjointness is provable, with
// arithmetic-heavy bodies), so after the doall tool rewrites them into
// dispatched tasks, wall-clock time tracks how well noelle_dispatch uses
// real cores. size is the array length each loop sweeps (0 picks the
// default used by the seq-vs-parallel wall-clock study).
func ParallelProgram(size int) (*ir.Module, error) {
	if size <= 0 {
		size = 65536
	}
	src := fmt.Sprintf(`
int a[%[1]d];
int b[%[1]d];
int c[%[1]d];
int main() {
  int n = %[1]d;
  int i;
  for (i = 0; i < n; i = i + 1) {
    b[i] = (i * 7 + 3) %% 4093 + 1;
  }
  for (i = 0; i < n; i = i + 1) {
    int x = b[i];
    int y = x * 3 + i;
    int z = (x * x + y * y) %% 65521;
    int w = (z * 13 + x * 7) %% 4093;
    a[i] = z + w * 2 + y %% 127;
  }
  int s = 0;
  for (i = 0; i < n; i = i + 1) {
    int u = a[i] * b[i] + i;
    int v = (u %% 8191) * (a[i] %% 31 + 1);
    s = s + u %% 127 + v %% 61;
  }
  int t = 0;
  for (i = 0; i < n; i = i + 1) {
    int p = (a[i] + b[i]) * 5 + i * 11;
    int q = (p * p) %% 32749;
    c[i] = q + p %% 97;
    t = t + q %% 53;
  }
  print_i64(s);
  print_i64(t);
  return (s + t) %% 251;
}
`, size)
	m, err := minic.Compile(fmt.Sprintf("parallel-%d", size), src)
	if err != nil {
		return nil, err
	}
	passes.Optimize(m)
	return m, nil
}

// NestProgram generates a two-level nest: an inner DOALL-able loop of
// 1000 iterations run outer times by an outer loop that carries the
// array from one pass to the next. auto's training run prices the inner
// loop once per outer iteration, so outer scales the invocation count and
// nothing else.
func NestProgram(outer int) (*ir.Module, error) {
	src := fmt.Sprintf(`
int a[1000];
int main() {
  int i;
  int j;
  for (i = 0; i < %d; i = i + 1) {
    for (j = 0; j < 1000; j = j + 1) {
      a[j] = (a[j] + i * 7 + j) %% 4093;
    }
  }
  int s = 0;
  for (j = 0; j < 1000; j = j + 1) {
    s = s + a[j];
  }
  print_i64(s);
  return s %% 251;
}
`, outer)
	m, err := minic.Compile(fmt.Sprintf("nest-%d", outer), src)
	if err != nil {
		return nil, err
	}
	passes.Optimize(m)
	return m, nil
}

// PipelineProgram generates the bundled whole-program benchmark for the
// queue-based communication runtime: its hot loop is NOT DOALL-able — an
// order-sensitive recurrence (acc = acc*3 + f(i) mod M defeats reduction
// recognition) rides behind a long Independent arithmetic chain — so the
// pipelining techniques are the only way to parallelize it. DSWP splits
// the chain into balanced stages connected by internal/queue queues;
// HELIX overlaps the chain across iterations while ticket signals
// serialize the recurrence. The modulus-heavy chain makes the loop
// dominate the profile (rem costs 24 model cycles), keeping the cheap
// init/checksum loops below the hotness threshold the wall-clock study
// uses. size is the iteration count (0 picks the bundled default).
func PipelineProgram(size int) (*ir.Module, error) {
	if size <= 0 {
		size = 65536
	}
	src := fmt.Sprintf(`
int b[%[1]d];
int c[%[1]d];
int main() {
  int n = %[1]d;
  int i;
  for (i = 0; i < n; i = i + 1) {
    b[i] = (i * 7 + 3) %% 4093 + 1;
  }
  int acc = 1;
  for (i = 0; i < n; i = i + 1) {
    int x = b[i];
    int t1 = x * 3 + i;
    int t2 = (t1 * t1 + x) %% 65521;
    int t3 = t2 * 5 + t1;
    int t4 = (t3 * t3 + t2) %% 32749;
    int t5 = t4 * 7 + t3;
    int t6 = (t5 * t5 + t4) %% 16381;
    int t7 = t6 * 11 + t5;
    int t8 = (t7 * t7 + t6) %% 8191;
    int t9 = t8 * 13 + t7;
    int t10 = (t9 * t9 + t8) %% 4093;
    acc = (acc * 3 + t10) %% 65521;
    c[i] = t10 + t8 %% 127;
  }
  print_i64(acc);
  int s = 0;
  for (i = 0; i < n; i = i + 1) {
    s = s + c[i] %% 31;
  }
  print_i64(s);
  return (acc + s) %% 251;
}
`, size)
	m, err := minic.Compile(fmt.Sprintf("pipeline-%d", size), src)
	if err != nil {
		return nil, err
	}
	passes.Optimize(m)
	return m, nil
}
