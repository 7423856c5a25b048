package minic

import (
	"strings"
	"testing"

	"noelle/internal/interp"
	"noelle/internal/ir"
	"noelle/internal/irtext"
	"noelle/internal/passes"
)

// runSrc compiles, optionally optimizes, runs, and returns (exit, output).
func runSrc(t *testing.T, src string, optimize bool) (int64, string, *ir.Module) {
	t.Helper()
	m, err := Compile("test", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if optimize {
		passes.Optimize(m)
		if err := ir.Verify(m); err != nil {
			t.Fatalf("verify after optimize: %v", err)
		}
	}
	it := interp.New(m)
	r, err := it.Run()
	if err != nil {
		t.Fatalf("run: %v\n%s", err, ir.Print(m))
	}
	return r, it.Output.String(), m
}

func TestArithmetic(t *testing.T) {
	src := `
int main() {
  int a = 6;
  int b = 7;
  int c = a * b + 10 / 2 - 3 % 2;
  float f = 1.5;
  float g = f * 4.0;
  return c + (int)g;
}`
	for _, opt := range []bool{false, true} {
		r, _, _ := runSrc(t, src, opt)
		if r != 52 {
			t.Errorf("opt=%v: got %d, want 52", opt, r)
		}
	}
}

func TestControlFlow(t *testing.T) {
	src := `
int main() {
  int s = 0;
  int i;
  for (i = 0; i < 10; i = i + 1) {
    if (i % 2 == 0) { s = s + i; } else { s = s - 1; }
  }
  int j = 0;
  while (j < 5) { s = s + 100; j = j + 1; }
  do { s = s + 1000; j = j + 1; } while (j < 8);
  return s;
}`
	// evens 0+2+4+6+8=20, minus 5 odds => 15; +500; +3000 => 3515
	for _, opt := range []bool{false, true} {
		r, _, _ := runSrc(t, src, opt)
		if r != 3515 {
			t.Errorf("opt=%v: got %d, want 3515", opt, r)
		}
	}
}

func TestBreakContinue(t *testing.T) {
	src := `
int main() {
  int s = 0;
  int i;
  for (i = 0; i < 100; i = i + 1) {
    if (i == 10) { break; }
    if (i % 2 == 1) { continue; }
    s = s + i;
  }
  return s;
}`
	r, _, _ := runSrc(t, src, true)
	if r != 20 {
		t.Errorf("got %d, want 20", r)
	}
}

func TestArraysAndPointers(t *testing.T) {
	src := `
int tab[8];
int main() {
  int i;
  for (i = 0; i < 8; i = i + 1) { tab[i] = i * i; }
  int *p = &tab[0];
  int s = 0;
  for (i = 0; i < 8; i = i + 1) { s = s + *(p + i); }
  int local[4];
  local[0] = 5; local[1] = 6; local[2] = 7; local[3] = 8;
  for (i = 0; i < 4; i = i + 1) { s = s + local[i]; }
  return s;
}`
	// sum of squares 0..7 = 140; plus 26 => 166
	for _, opt := range []bool{false, true} {
		r, _, _ := runSrc(t, src, opt)
		if r != 166 {
			t.Errorf("opt=%v: got %d, want 166", opt, r)
		}
	}
}

func TestGlobalInitializers(t *testing.T) {
	src := `
int weights[4] = {10, 20, 30, 40};
float scale = 2.5;
int main() {
  int s = 0;
  int i;
  for (i = 0; i < 4; i = i + 1) { s = s + weights[i]; }
  return s + (int)(scale * 4.0);
}`
	r, _, _ := runSrc(t, src, true)
	if r != 110 {
		t.Errorf("got %d, want 110", r)
	}
}

func TestFunctionsAndRecursion(t *testing.T) {
	src := `
int fib(int n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
int main() { return fib(12); }`
	r, _, _ := runSrc(t, src, true)
	if r != 144 {
		t.Errorf("fib(12) = %d, want 144", r)
	}
}

func TestFunctionPointers(t *testing.T) {
	src := `
int dbl(int x) { return x * 2; }
int sqr(int x) { return x * x; }
int apply(func(int) int f, int v) { return f(v); }
int main() {
  func(int) int op = dbl;
  int a = apply(op, 10);
  op = sqr;
  int b = apply(op, 10);
  return a + b;
}`
	for _, opt := range []bool{false, true} {
		r, _, _ := runSrc(t, src, opt)
		if r != 120 {
			t.Errorf("opt=%v: got %d, want 120", opt, r)
		}
	}
}

func TestShortCircuit(t *testing.T) {
	src := `
int g = 0;
int bump() { g = g + 1; return 1; }
int main() {
  int a = 0 && bump();
  int b = 1 || bump();
  int c = 1 && bump();
  int d = 0 || bump();
  return g * 100 + a + b * 10 + c * 100 + d * 1000;
}`
	// bump runs twice (c, d): g=2. a=0,b=1,c=1,d=1 => 200+0+10+100+1000=1310
	for _, opt := range []bool{false, true} {
		r, _, _ := runSrc(t, src, opt)
		if r != 1310 {
			t.Errorf("opt=%v: got %d, want 1310", opt, r)
		}
	}
}

func TestPrintOutput(t *testing.T) {
	src := `
int main() {
  print_i64(42);
  print_f64(2.5);
  return 0;
}`
	_, out, _ := runSrc(t, src, true)
	if out != "42\n2.5\n" {
		t.Errorf("output = %q", out)
	}
}

func TestOptimizePreservesSemantics(t *testing.T) {
	src := `
int data[32];
int hash(int x) { return (x * 31 + 7) % 97; }
int main() {
  int i;
  for (i = 0; i < 32; i = i + 1) { data[i] = hash(i); }
  int best = 0;
  for (i = 0; i < 32; i = i + 1) {
    if (data[i] > best) { best = data[i]; }
  }
  print_i64(best);
  return best;
}`
	r0, o0, _ := runSrc(t, src, false)
	r1, o1, _ := runSrc(t, src, true)
	if r0 != r1 || o0 != o1 {
		t.Errorf("optimization changed semantics: (%d,%q) vs (%d,%q)", r0, o0, r1, o1)
	}
}

func TestMem2RegPromotes(t *testing.T) {
	src := `
int main() {
  int s = 0;
  int i;
  for (i = 0; i < 10; i = i + 1) { s = s + i; }
  return s;
}`
	_, _, m := runSrc(t, src, true)
	main := m.FunctionByName("main")
	allocas, phis := 0, 0
	main.Instrs(func(in *ir.Instr) bool {
		switch in.Opcode {
		case ir.OpAlloca:
			allocas++
		case ir.OpPhi:
			phis++
		}
		return true
	})
	if allocas != 0 {
		t.Errorf("allocas remain after mem2reg: %d\n%s", allocas, ir.Print(m))
	}
	if phis == 0 {
		t.Error("expected phis after mem2reg")
	}
}

func TestCompiledModuleRoundTrips(t *testing.T) {
	src := `
int tab[4] = {1, 2, 3, 4};
int sum(int *p, int n) {
  int s = 0;
  int i;
  for (i = 0; i < n; i = i + 1) { s = s + p[i]; }
  return s;
}
int main() { return sum(&tab[0], 4); }`
	m, err := Compile("rt", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	passes.Optimize(m)
	text := ir.Print(m)
	m2, err := irtext.Parse(text)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	it := interp.New(m2)
	r, err := it.Run()
	if err != nil {
		t.Fatalf("run reparsed: %v", err)
	}
	if r != 10 {
		t.Errorf("reparsed result = %d, want 10", r)
	}
}

func TestTypeErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"mixed arith", `int main() { int a = 1; float b = 2.0; return a + b; }`},
		{"bad call arity", `int f(int x) { return x; } int main() { return f(1, 2); }`},
		{"undefined var", `int main() { return nope; }`},
		{"undefined func", `int main() { return nope(); }`},
		{"void in expr", `int main() { int x = print_i64(3); return x; }`},
		{"assign to array", `int a[3]; int main() { a = 4; return 0; }`},
		{"break outside loop", `int main() { break; return 0; }`},
		{"function defined twice", `int f(int x) { return x; } int f(float y) { return 0; } int main() { return 0; }`},
		{"definition retypes extern", `extern int f(int x); int f(float y) { return 0; } int main() { return 0; }`},
		{"zero-length array", `int main() { int a[0]; return 0; }`},
		{"array size overflows", `int a[99999999999999999999]; int main() { return 0; }`},
	}
	for _, c := range cases {
		if _, err := Compile("bad", c.src); err == nil {
			t.Errorf("%s: expected compile error", c.name)
		}
	}
	// A size int accepts whose byte size int64 does not: 8 bytes times it
	// wraps, so the program would otherwise reach the interpreter.
	for _, src := range []string{
		"int a[2305843009213693953]; int main() { return 0; }",
		"int main() { int a[2000000000000000000]; return 0; }",
	} {
		_, err := Compile("bad", src)
		if err == nil || !strings.Contains(err.Error(), "array a of ") || !strings.Contains(err.Error(), "byte size out of range") {
			t.Errorf("%q: error %v, want one naming array a and its byte size", src, err)
		}
	}
}

func TestParseErrorsHaveLineNumbers(t *testing.T) {
	_, err := Compile("bad", "int main() {\n  int x = ;\n}")
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error = %v, want line 2 mention", err)
	}
}
