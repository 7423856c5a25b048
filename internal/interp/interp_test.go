package interp_test

import (
	"testing"

	"noelle/internal/interp"
	"noelle/internal/ir"
	"noelle/internal/irtext"
)

func parse(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := irtext.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return m
}

func TestDivisionByZeroTraps(t *testing.T) {
	m := parse(t, `module "m"
func @main() i64 {
entry:
  %z = sub 1, 1
  %d = div 4, %z
  ret %d
}`)
	if _, err := interp.New(m).Run(); err == nil {
		t.Error("division by zero did not trap")
	}
}

func TestStepLimit(t *testing.T) {
	m := parse(t, `module "m"
func @main() i64 {
entry:
  br spin
spin:
  br spin
}`)
	it := interp.New(m)
	it.MaxSteps = 1000
	if _, err := it.Run(); err != interp.ErrStepLimit {
		t.Errorf("err = %v, want ErrStepLimit", err)
	}
}

func TestMemoryFingerprintSensitivity(t *testing.T) {
	src := `module "m"
global @g : [4 x i64] zeroinit
func @main() i64 {
entry:
  %p = ptradd @g, 2
  store i64 %v, %p
  ret 0
}`
	run := func(v string) uint64 {
		m := parse(t, `module "m"
global @g : [4 x i64] zeroinit
func @main() i64 {
entry:
  %p = ptradd @g, 2
  store i64 `+v+`, %p
  ret 0
}`)
		it := interp.New(m)
		if _, err := it.Run(); err != nil {
			t.Fatal(err)
		}
		return it.MemoryFingerprint()
	}
	_ = src
	if run("5") == run("6") {
		t.Error("fingerprint insensitive to stored value")
	}
	if run("5") != run("5") {
		t.Error("fingerprint not deterministic")
	}
}

// TestGuardExtern: carat_guard accepts a global, a live alloca of the
// context, and, from a dispatched worker, the environment alloca of the
// context that dispatched it; it rejects an address past them and a
// callee's alloca once the callee has returned. Sequential and parallel
// dispatch count the same failures.
func TestGuardExtern(t *testing.T) {
	m := parse(t, `module "m"
global @g : i64 zeroinit
declare @carat_guard : fn(i64) void
declare @noelle_dispatch : fn(fn(ptr<i64>, i64, i64) void, ptr<i64>, i64) void
func @leak() i64 {
entry:
  %l = alloca i64, 4
  %a = p2i %l
  ret %a
}
func @task(%env: ptr<i64>, %w: i64, %nw: i64) void {
entry:
  %e = p2i %env
  call void @carat_guard(%e)
  %own = alloca i64, 2
  %o = p2i %own
  call void @carat_guard(%o)
  %gone = call i64 @leak()
  call void @carat_guard(%gone)
  ret void
}
func @main() i64 {
entry:
  %addr = p2i @g
  call void @carat_guard(%addr)
  %bogus = add %addr, 65536
  call void @carat_guard(%bogus)
  %live = alloca i64, 8
  %l = p2i %live
  call void @carat_guard(%l)
  %last = ptradd %live, 7
  %la = p2i %last
  call void @carat_guard(%la)
  %gone = call i64 @leak()
  call void @carat_guard(%gone)
  %env = alloca i64, 1
  call void @noelle_dispatch(@task, %env, 2)
  ret 0
}`)
	for _, seq := range []bool{true, false} {
		it := interp.New(m)
		it.SeqDispatch, it.DispatchWorkers = seq, 2
		if _, err := it.Run(); err != nil {
			t.Fatal(err)
		}
		if it.GuardCalls != 11 {
			t.Errorf("seq=%v: guard calls = %d, want 11", seq, it.GuardCalls)
		}
		if it.GuardFailures != 4 {
			t.Errorf("seq=%v: guard failures = %d, want 4 (the address past @g and the three returned callees' allocas)", seq, it.GuardFailures)
		}
	}
}

func TestDispatchExtern(t *testing.T) {
	m := parse(t, `module "m"
declare @noelle_dispatch : fn(fn(ptr<i64>, i64, i64) void, ptr<i64>, i64) void
func @task(%env: ptr<i64>, %w: i64, %nw: i64) void {
entry:
  %cell = ptradd %env, %w
  store i64 %w, %cell
  ret void
}
func @main() i64 {
entry:
  %env = alloca i64, 4
  call void @noelle_dispatch(@task, %env, 4)
  %p3 = ptradd %env, 3
  %v = load i64, %p3
  ret %v
}`)
	it := interp.New(m)
	r, err := it.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r != 3 {
		t.Errorf("dispatch result = %d, want 3 (worker 3 wrote its id)", r)
	}
}

func TestCostModelAccumulates(t *testing.T) {
	m := parse(t, `module "m"
func @main() i64 {
entry:
  %a = mul 3, 4
  %b = add %a, 1
  ret %b
}`)
	it := interp.New(m)
	if _, err := it.Run(); err != nil {
		t.Fatal(err)
	}
	want := interp.CostIntMul + interp.CostIntALU + interp.CostBranch // mul + add + ret
	if it.Cycles != want {
		t.Errorf("cycles = %d, want %d", it.Cycles, want)
	}
}

func TestFloatBitsRoundTrip(t *testing.T) {
	m := parse(t, `module "m"
func @main() i64 {
entry:
  %f = fadd 1.5, 2.25
  %bits = fbits %f
  %back = bitsf %bits
  %ok = feq %back, 3.75
  %r = zext %ok
  ret %r
}`)
	r, err := interp.New(m).Run()
	if err != nil {
		t.Fatal(err)
	}
	if r != 1 {
		t.Error("fbits/bitsf round trip lost the value")
	}
}
