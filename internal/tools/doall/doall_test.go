package doall_test

import (
	"context"
	"testing"

	"noelle/internal/core"
	"noelle/internal/interp"
	"noelle/internal/ir"
	"noelle/internal/irtext"
	"noelle/internal/minic"
	"noelle/internal/passes"
	"noelle/internal/tool"
	"noelle/internal/tools/auto"

	// Register the DOALL planner the driver is pinned to.
	_ "noelle/internal/tools/doall"
)

// runDOALL is the loop-parallelization driver pinned to DOALL, lowering
// every plan (what the doall tool does).
func runDOALL(n *core.Noelle) (auto.Result, error) {
	return auto.RunPinned(context.Background(), n, tool.Options{ExecutePlans: true}, "doall")
}

// runBoth compiles src, runs the original, applies DOALL, runs the
// transformed module, and checks observational equivalence.
func runBoth(t *testing.T, src string, wantParallelized int) {
	t.Helper()
	m, err := minic.Compile("t", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	passes.Optimize(m)

	orig := ir.CloneModule(m)
	it0 := interp.New(orig)
	r0, err := it0.Run()
	if err != nil {
		t.Fatalf("original run: %v", err)
	}

	opts := core.DefaultOptions()
	opts.MinHotness = 0 // consider every loop
	n := core.New(m, opts)
	res, err := runDOALL(n)
	if err != nil {
		t.Fatalf("doall: %v", err)
	}
	if res.Lowered() != wantParallelized {
		t.Fatalf("parallelized %d loops, want %d (rejected %d)\n%s",
			res.Lowered(), wantParallelized, len(res.Rejections), ir.Print(m))
	}
	if err := ir.Verify(m); err != nil {
		t.Fatalf("transformed module malformed: %v\n%s", err, ir.Print(m))
	}

	it1 := interp.New(m)
	r1, err := it1.Run()
	if err != nil {
		t.Fatalf("transformed run: %v\n%s", err, ir.Print(m))
	}
	if r0 != r1 {
		t.Errorf("exit code changed: %d -> %d", r0, r1)
	}
	if it0.Output.String() != it1.Output.String() {
		t.Errorf("output changed: %q -> %q", it0.Output.String(), it1.Output.String())
	}
	if it0.MemoryFingerprint() != it1.MemoryFingerprint() {
		t.Errorf("global memory state changed")
	}
}

func TestDOALLSimpleMap(t *testing.T) {
	runBoth(t, `
int a[256];
int b[256];
int main() {
  int i;
  for (i = 0; i < 256; i = i + 1) { b[i] = i * 3 + 1; }
  for (i = 0; i < 256; i = i + 1) { a[i] = b[i] * b[i]; }
  int s = 0;
  for (i = 0; i < 256; i = i + 1) { s = s + a[i]; }
  print_i64(s);
  return s % 1000;
}`, 3)
}

func TestDOALLIntReduction(t *testing.T) {
	runBoth(t, `
int a[100];
int main() {
  int i;
  for (i = 0; i < 100; i = i + 1) { a[i] = i; }
  int s = 0;
  for (i = 0; i < 100; i = i + 1) { s = s + a[i] * 2; }
  return s;
}`, 2)
}

func TestDOALLPointerParams(t *testing.T) {
	runBoth(t, `
int src[64];
int dst[64];
void scale(int *out, int *in, int n, int k) {
  int i;
  for (i = 0; i < n; i = i + 1) { out[i] = in[i] * k; }
}
int main() {
  int i;
  for (i = 0; i < 64; i = i + 1) { src[i] = i + 1; }
  scale(&dst[0], &src[0], 64, 7);
  int s = 0;
  for (i = 0; i < 64; i = i + 1) { s = s + dst[i]; }
  return s % 997;
}`, 3)
}

func TestDOALLFloatReduction(t *testing.T) {
	// Float reduction reassociates; with these values the sum is exact in
	// f64, so bitwise equality holds.
	runBoth(t, `
float v[128];
int main() {
  int i;
  for (i = 0; i < 128; i = i + 1) { v[i] = (float)i * 0.5; }
  float s = 0.0;
  for (i = 0; i < 128; i = i + 1) { s = s + v[i]; }
  return (int)s;
}`, 2)
}

func TestDOALLStridedStep(t *testing.T) {
	runBoth(t, `
int a[200];
int main() {
  int i;
  for (i = 0; i < 200; i = i + 2) { a[i] = i * i; }
  int s = 0;
  for (i = 0; i < 200; i = i + 1) { s = s + a[i]; }
  return s % 1000;
}`, 2)
}

func TestDOALLRejectsRecurrence(t *testing.T) {
	m, err := minic.Compile("t", `
int a[64];
int main() {
  int i;
  for (i = 1; i < 64; i = i + 1) { a[i] = a[i - 1] + 1; }
  return a[63];
}`)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	passes.Optimize(m)
	orig := ir.CloneModule(m)
	opts := core.DefaultOptions()
	opts.MinHotness = 0
	res, err := runDOALL(core.New(m, opts))
	if err != nil {
		t.Fatalf("doall: %v", err)
	}
	if res.Lowered() != 0 {
		t.Fatalf("recurrence must not parallelize")
	}
	// The module must be untouched.
	if ir.Print(m) != ir.Print(orig) {
		t.Error("rejected loop was still modified")
	}
}

// The call in this counted loop goes through a function address that
// passed through integer arithmetic, so no target is resolved for it; it
// bumps @g, which the same iteration then reads. Taken for a call to
// nothing the loop is DOALL (and prints 4914 for 4950 on two workers).
func TestDOALLRefusesUnresolvedIndirectCall(t *testing.T) {
	m, err := irtext.Parse(`module "opaque"

global @g : i64 zeroinit
global @out : [100 x i64] zeroinit

declare @print_i64 : fn(i64) void

func @bump(%x: i64) i64 {
entry:
  %t0 = load i64, @g
  %t1 = add %t0, %x
  store i64 %t1, @g
  ret %t1
}

func @main() i64 {
entry:
  br for.header
for.header:
  %i = phi i64 [ 0, entry ], [ %i.next, for.body ]
  %c = lt %i, 100
  condbr %c, for.body, for.end
for.body:
  %a = p2i @bump
  %b = add %a, 0
  %f = i2p fn(i64) i64, %b
  %r = call i64 %f(%i)
  %v = load i64, @g
  %p = ptradd @out, %i
  store i64 %v, %p
  %i.next = add %i, 1
  br for.header
for.end:
  %q = ptradd @out, 99
  %w = load i64, %q
  call void @print_i64(%w)
  ret 0
}
`)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.MinHotness = 0
	res, err := runDOALL(core.New(m, opts))
	if err != nil {
		t.Fatalf("doall: %v", err)
	}
	if res.Lowered() != 0 {
		t.Fatalf("a loop around a call to an unknown target was parallelized\n%s", ir.Print(m))
	}
}

func TestDOALLWorkerCountSweep(t *testing.T) {
	src := `
int a[97];
int main() {
  int i;
  int s = 0;
  for (i = 0; i < 97; i = i + 1) { a[i] = i * 5 % 13; }
  for (i = 0; i < 97; i = i + 1) { s = s + a[i]; }
  return s;
}`
	// 97 does not divide evenly: exercises the hi-clamp for every core
	// count, including workers with empty ranges.
	for _, cores := range []int{1, 2, 3, 7, 12, 24, 128} {
		m, err := minic.Compile("t", src)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		passes.Optimize(m)
		orig := ir.CloneModule(m)
		it0 := interp.New(orig)
		r0, _ := it0.Run()

		opts := core.DefaultOptions()
		opts.MinHotness = 0
		opts.Cores = cores
		if _, err := runDOALL(core.New(m, opts)); err != nil {
			t.Fatalf("cores=%d: %v", cores, err)
		}
		it1 := interp.New(m)
		r1, err := it1.Run()
		if err != nil {
			t.Fatalf("cores=%d run: %v", cores, err)
		}
		if r0 != r1 {
			t.Errorf("cores=%d: result %d != %d", cores, r1, r0)
		}
	}
}
