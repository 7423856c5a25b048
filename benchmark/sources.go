package main

import (
	"fmt"
	"strings"
)

// The benchmark owns the text of its input programs, because a compile op
// starts from text. The two loop groups are the bodies of
// bench.ParallelProgram and bench.PipelineProgram; set-up checks that
// compiling these strings gives modules that print identically to the
// bundled ones, so the ROADMAP's tables and this benchmark stay on the
// same programs.

// parallelLoops is ParallelProgram's body: one initialisation sweep, one
// arithmetic map, and two map-plus-reduction loops, all DOALL-able.
const parallelLoops = `
  for (i = 0; i < n; i = i + 1) {
    b[i] = (i * 7 + 3) % 4093 + 1;
  }
  for (i = 0; i < n; i = i + 1) {
    int x = b[i];
    int y = x * 3 + i;
    int z = (x * x + y * y) % 65521;
    int w = (z * 13 + x * 7) % 4093;
    a[i] = z + w * 2 + y % 127;
  }
  int s = 0;
  for (i = 0; i < n; i = i + 1) {
    int u = a[i] * b[i] + i;
    int v = (u % 8191) * (a[i] % 31 + 1);
    s = s + u % 127 + v % 61;
  }
  int t = 0;
  for (i = 0; i < n; i = i + 1) {
    int p = (a[i] + b[i]) * 5 + i * 11;
    int q = (p * p) % 32749;
    c[i] = q + p % 97;
    t = t + q % 53;
  }
`

// pipelineLoops is PipelineProgram's body over arrays named by the two
// format arguments: an initialisation sweep, the order-sensitive
// recurrence behind a long independent chain, and a checksum loop. %[3]s
// names the checksum accumulator.
const pipelineLoops = `
  for (i = 0; i < n; i = i + 1) {
    %[1]s[i] = (i * 7 + 3) %% 4093 + 1;
  }
  int acc = 1;
  for (i = 0; i < n; i = i + 1) {
    int x = %[1]s[i];
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
    %[2]s[i] = t10 + t8 %% 127;
  }
`

func parallelSource(n int) string {
	return fmt.Sprintf(`
int a[%[1]d];
int b[%[1]d];
int c[%[1]d];
int main() {
  int n = %[1]d;
  int i;%[2]s  print_i64(s);
  print_i64(t);
  return (s + t) %% 251;
}
`, n, parallelLoops)
}

func pipelineSource(n int) string {
	return fmt.Sprintf(`
int b[%[1]d];
int c[%[1]d];
int main() {
  int n = %[1]d;
  int i;%[2]s  print_i64(acc);
  int s = 0;
  for (i = 0; i < n; i = i + 1) {
    s = s + c[i] %% 31;
  }
  print_i64(s);
  return (acc + s) %% 251;
}
`, n, fmt.Sprintf(pipelineLoops, "b", "c"))
}

// autoMixSource is the program a user hands to `auto`: both kinds of loop
// in one main, so the orchestrator has to choose per loop. The pipeline
// half works on its own arrays so the two halves stay independent.
func autoMixSource(n int) string {
	return fmt.Sprintf(`
int a[%[1]d];
int b[%[1]d];
int c[%[1]d];
int d[%[1]d];
int e[%[1]d];
int main() {
  int n = %[1]d;
  int i;%[2]s  print_i64(s);
  print_i64(t);%[3]s  print_i64(acc);
  int r = 0;
  for (i = 0; i < n; i = i + 1) {
    r = r + e[i] %% 31;
  }
  print_i64(r);
  return (s + t + acc + r) %% 251;
}
`, n, parallelLoops, fmt.Sprintf(pipelineLoops, "d", "e"))
}

// wholeSource generates a whole-program-scale module in the shape of
// bench.Synthetic: nFuncs worker functions chained by conditional calls
// inside their loops, sweeping nGlobals shared arrays, and a main that
// fans out into the chain. It differs from bench.Synthetic in three ways,
// all so that the product of a compile op can be run and checked:
//
//   - the chained call fires on the last iteration only and hands on a
//     bounded seed, so execution terminates (bench.WholeProgram calls on
//     every iteration once acc passes a threshold, which does not);
//   - each loop recomputes a loop-invariant k, so licm has work whose
//     effect on run time is measurable;
//   - every eighth worker has an uncalled helper, so dead has work.
//
// salt changes constants only: modules of one (nFuncs, nGlobals) shape
// with different salts have the same size and different fingerprints.
func wholeSource(nFuncs, nGlobals, salt int) string {
	var sb strings.Builder
	for g := 0; g < nGlobals; g++ {
		fmt.Fprintf(&sb, "int arr%d[128];\n", g)
	}
	for i := 0; i < nFuncs; i++ {
		if i%8 == 0 {
			fmt.Fprintf(&sb, "\nint unused%d(int x) { return x * 3 + %d; }\n", i, i+salt)
		}
		fmt.Fprintf(&sb, "\nint work%d(int seed) {\n  int acc = seed;\n", i)
		sb.WriteString("  for (int i = 0; i < 128; i = i + 1) {\n")
		fmt.Fprintf(&sb, "    int k = seed * 7 + %d;\n", i+salt)
		for g := 0; g < 8; g++ {
			a := (i + g) % nGlobals
			b := (i + g + 5) % nGlobals
			fmt.Fprintf(&sb, "    arr%d[i] = (arr%d[i] + k) %% 65521;\n", a, b)
			fmt.Fprintf(&sb, "    acc = acc + arr%d[i];\n", a)
		}
		if i+1 < nFuncs {
			fmt.Fprintf(&sb, "    if (i == 127) { acc = acc + work%d(acc %% 1000); }\n", i+1)
		}
		sb.WriteString("  }\n  return acc % 1000003;\n}\n")
	}
	sb.WriteString("int main() {\n  int t = 0;\n")
	for i := 0; i < nFuncs; i += 16 {
		fmt.Fprintf(&sb, "  t = t + work%d(%d);\n", i, i+salt)
	}
	sb.WriteString("  print_i64(t);\n  return t % 251;\n}\n")
	return sb.String()
}
