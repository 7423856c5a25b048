package interp

import (
	"fmt"
	"strings"
	"testing"

	"noelle/internal/ir"
)

// The compiled tier executes push, pop, wait and fire as ops of its own
// while the walker calls the generic externs. These tests hold the two to
// the same observables where the paths differ most: concurrent producers,
// a replaced extern, and every error a communication op can return. They
// live in the package so `make tier-diff` also runs them with each engine
// forced process-wide (the engine set on a context still wins).

// tierRun is what one run leaves behind for the tiers to agree on.
type tierRun struct {
	exit                    int64
	err                     string
	output                  string
	steps, cycles           int64
	fingerprint             uint64
	pushes, pops, waits     int64 // the context's own counters
	creates, cPushes, cPops int64 // the runtime's
	cWaits, cFires          int64
	engine                  Engine
}

func runOnTier(t *testing.T, m *ir.Module, eng Engine, configure func(*Interp)) tierRun {
	t.Helper()
	it := New(m)
	it.Eng = eng
	if configure != nil {
		configure(it)
	}
	exit, err := it.Run()
	r := tierRun{
		exit: exit, output: it.Output.String(), steps: it.Steps, cycles: it.Cycles,
		fingerprint: it.MemoryFingerprint(),
		pushes:      it.QueuePushes, pops: it.QueuePops, waits: it.SignalWaits,
		engine: it.Engine(),
	}
	if err != nil {
		r.err = err.Error()
	}
	r.creates, r.cPushes, r.cPops, r.cWaits, r.cFires = it.CommStats()
	return r
}

// assertTiersAgree runs m on both tiers under configure and fails on any
// observable that differs. It returns the walker's run.
func assertTiersAgree(t *testing.T, m *ir.Module, configure func(*Interp)) tierRun {
	t.Helper()
	w := runOnTier(t, m, EngineWalker, configure)
	c := runOnTier(t, m, EngineCompiled, configure)
	if w.engine != EngineWalker || c.engine != EngineCompiled {
		t.Fatalf("runs used engines %s and %s", w.engine, c.engine)
	}
	w.engine, c.engine = "", ""
	if w != c {
		t.Errorf("tiers diverged:\nwalker   %+v\ncompiled %+v", w, c)
	}
	return w
}

func parseModule(t *testing.T, src string) *ir.Module {
	t.Helper()
	return mustParse(t, src).Mod
}

const commDecls = `
declare @print_i64 : fn(i64) void
declare @noelle_dispatch : fn(fn(ptr<i64>, i64, i64) void, ptr<i64>, i64) void
declare @noelle_queue_create : fn(i64) i64
declare @noelle_queue_push : fn(i64, i64) void
declare @noelle_queue_pop : fn(i64) i64
declare @noelle_queue_close : fn(i64) void
declare @noelle_signal_create : fn(i64) i64
declare @noelle_signal_wait : fn(i64, i64) void
declare @noelle_signal_fire : fn(i64, i64) void
`

// TestTwoProducersOneQueueTiersAgree: workers 0 and 1 push the same queue
// (which no lowering generates), worker 2 pops both streams and sums them.
// Sequentially and in parallel, both tiers must agree on everything.
func TestTwoProducersOneQueueTiersAgree(t *testing.T) {
	m := parseModule(t, `module "m"
global @acc : i64 zeroinit`+commDecls+`
func @task(%env: ptr<i64>, %w: i64, %nw: i64) void {
entry:
  %q = load i64, %env
  %iscons = eq %w, 2
  condbr %iscons, consume, produce
produce:
  %i = phi i64 [ 0, entry ], [ %inext, produce ]
  %scaled = mul %i, 2
  %v = add %scaled, %w
  call void @noelle_queue_push(%q, %v)
  %inext = add %i, 1
  %pc = lt %inext, 300
  condbr %pc, produce, pdone
pdone:
  ret void
consume:
  %j = phi i64 [ 0, entry ], [ %jnext, consume ]
  %s = phi i64 [ 0, entry ], [ %snext, consume ]
  %got = call i64 @noelle_queue_pop(%q)
  %snext = add %s, %got
  %jnext = add %j, 1
  %cc = lt %jnext, 600
  condbr %cc, consume, cdone
cdone:
  store i64 %snext, @acc
  ret void
}
func @main() i64 {
entry:
  %env = alloca i64, 1
  %q = call i64 @noelle_queue_create(4)
  store i64 %q, %env
  call void @noelle_dispatch(@task, %env, 3)
  %r = load i64, @acc
  call void @print_i64(%r)
  ret 0
}`)
	for _, mode := range []struct {
		name string
		conf func(*Interp)
	}{
		{"seq", func(it *Interp) { it.SeqDispatch = true }},
		{"par", func(it *Interp) { it.DispatchWorkers = 3 }},
	} {
		t.Run(mode.name, func(t *testing.T) {
			r := assertTiersAgree(t, m, mode.conf)
			// sum over i<300 of (2i) + (2i+1) = sum of 0..599
			if r.err != "" || r.output != "179700\n" {
				t.Errorf("output %q, err %q; want 179700", r.output, r.err)
			}
			if r.cPushes != 600 || r.cPops != 600 || r.pushes != 600 || r.pops != 600 {
				t.Errorf("counted %d/%d pushes and %d/%d pops (runtime/context), want 600 each",
					r.cPushes, r.pushes, r.cPops, r.pops)
			}
		})
	}
}

// TestReplacedCommExternAfterRun: a compiled body binds the runtime's own
// push as a first-class op. Replacing the extern afterwards must reach
// that body too — the registry, not the compiler, decides what a call
// to noelle_queue_push does.
func TestReplacedCommExternAfterRun(t *testing.T) {
	m := parseModule(t, `module "m"`+commDecls+`
func @main() i64 {
entry:
  %q = call i64 @noelle_queue_create(4)
  call void @noelle_queue_push(%q, 5)
  %v = call i64 @noelle_queue_pop(%q)
  call void @print_i64(%v)
  ret 0
}`)
	it := New(m)
	it.Eng = EngineCompiled
	if _, err := it.Run(); err != nil {
		t.Fatal(err)
	}
	if cf := it.img.compiled(m.FunctionByName("main"), it.Cost); cf == nil || countOps(cf, cQueuePush) != 1 || countOps(cf, cQueuePop) != 1 {
		t.Fatal("main did not compile its push and pop to first-class ops")
	}
	custom := 0
	it.RegisterExtern(ExternQueuePush, func(it *Interp, args []uint64) (uint64, error) {
		custom++
		return 0, it.img.comm.Push(int64(args[0]), args[1]+100, false)
	})
	if _, err := it.Run(); err != nil {
		t.Fatal(err)
	}
	if custom != 1 || it.Output.String() != "5\n105\n" {
		t.Errorf("replacement ran %d times, output %q; want once and 5, 105", custom, it.Output.String())
	}
	cf := it.img.compiled(m.FunctionByName("main"), it.Cost)
	if countOps(cf, cQueuePush) != 0 || countOps(cf, cQueuePop) != 1 {
		t.Error("after the replacement, push must be a generic call and pop still first-class")
	}
}

// commErrorCases are small programs whose run ends in an error raised by
// (or on) a communication op.
var commErrorCases = []struct {
	name, body, wantErr string
}{
	{name: "invalid queue handle", wantErr: "queue: invalid queue handle 7", body: `
  call void @noelle_queue_push(7, 1)
  ret 0`},
	{name: "invalid pop handle", wantErr: "queue: invalid queue handle -1", body: `
  %v = call i64 @noelle_queue_pop(-1)
  ret %v`},
	{name: "invalid signal handle on wait", wantErr: "queue: invalid signal handle 3", body: `
  call void @noelle_signal_wait(3, 0)
  ret 0`},
	{name: "invalid signal handle on fire", wantErr: "queue: invalid signal handle 3", body: `
  call void @noelle_signal_fire(3, 1)
  ret 0`},
	{name: "push to closed queue", wantErr: "queue 0: push: queue: closed", body: `
  %q = call i64 @noelle_queue_create(2)
  call void @noelle_queue_close(%q)
  call void @noelle_queue_push(%q, 1)
  ret 0`},
	{name: "pop of drained closed queue", wantErr: "queue 0: pop: queue: closed", body: `
  %q = call i64 @noelle_queue_create(2)
  call void @noelle_queue_push(%q, 9)
  call void @noelle_queue_close(%q)
  %a = call i64 @noelle_queue_pop(%q)
  %b = call i64 @noelle_queue_pop(%q)
  ret %b`},
	{name: "sequential pop of empty queue", wantErr: "queue 0: pop from empty queue in sequential execution", body: `
  %q = call i64 @noelle_queue_create(2)
  %v = call i64 @noelle_queue_pop(%q)
  ret %v`},
	{name: "sequential wait for unfired ticket", wantErr: "queue: signal 0 wait for ticket 4 (counter 1) in sequential execution", body: `
  %s = call i64 @noelle_signal_create(0)
  call void @noelle_signal_fire(%s, 1)
  call void @noelle_signal_wait(%s, 1)
  call void @noelle_signal_wait(%s, 4)
  ret 0`},
}

func TestCommErrorsTiersAgree(t *testing.T) {
	for _, tc := range commErrorCases {
		t.Run(tc.name, func(t *testing.T) {
			m := parseModule(t, `module "m"`+commDecls+"func @main() i64 {\nentry:"+tc.body+"\n}")
			r := assertTiersAgree(t, m, nil)
			if r.err != tc.wantErr {
				t.Errorf("error %q, want %q", r.err, tc.wantErr)
			}
		})
	}
}

// TestAbortEchoTiersAgree: worker 0 traps, worker 1 is (or is about to
// be) blocked in a pop and comes back with the abort echo. The dispatch
// reports the root cause, and both tiers count the same steps and cycles
// for the op that was torn down.
func TestAbortEchoTiersAgree(t *testing.T) {
	m := parseModule(t, `module "m"`+commDecls+`
func @task(%env: ptr<i64>, %w: i64, %nw: i64) void {
entry:
  %isbad = eq %w, 0
  condbr %isbad, bad, wait
bad:
  %boom = div 7, 0
  ret void
wait:
  %q = load i64, %env
  %v = call i64 @noelle_queue_pop(%q)
  ret void
}
func @main() i64 {
entry:
  %env = alloca i64, 1
  %q = call i64 @noelle_queue_create(4)
  store i64 %q, %env
  call void @noelle_dispatch(@task, %env, 2)
  ret 0
}`)
	for i := 0; i < 5; i++ {
		r := assertTiersAgree(t, m, func(it *Interp) { it.DispatchWorkers = 2 })
		if want := "interp: dispatch worker 0: interp: integer division by zero"; r.err != want {
			t.Fatalf("error %q, want %q", r.err, want)
		}
	}
}

// TestStepBudgetOnCommOpsTiersAgree sweeps the step budget over a program
// made of communication ops, so the budget runs out in front of each of
// them in turn: both tiers must stop at the same op with the same Steps
// and Cycles (a first-class op charges the call and the extern in one
// sum; the walker charges them one after the other).
func TestStepBudgetOnCommOpsTiersAgree(t *testing.T) {
	m := parseModule(t, `module "m"`+commDecls+`
func @main() i64 {
entry:
  %q = call i64 @noelle_queue_create(2)
  %s = call i64 @noelle_signal_create(0)
  call void @noelle_queue_push(%q, 3)
  call void @noelle_signal_fire(%s, 1)
  call void @noelle_signal_wait(%s, 1)
  %v = call i64 @noelle_queue_pop(%q)
  call void @noelle_queue_close(%q)
  call void @print_i64(%v)
  ret %v
}`)
	full := assertTiersAgree(t, m, nil)
	if full.err != "" || full.output != "3\n" {
		t.Fatalf("unbounded run: output %q, err %q", full.output, full.err)
	}
	limited := 0
	for budget := int64(1); budget <= full.steps; budget++ {
		r := assertTiersAgree(t, m, func(it *Interp) { it.MaxSteps = budget })
		if strings.Contains(r.err, "step limit") {
			limited++
			if r.steps != budget {
				t.Errorf("budget %d: stopped at %d steps", budget, r.steps)
			}
		}
	}
	if limited != int(full.steps)-1 {
		t.Errorf("%d of %d budgets hit the limit, want every budget below the full run's %d steps",
			limited, full.steps, full.steps)
	}
}

// TestCompiledCallsAllocFree pins the compiled tier's call path: frames
// and argument vectors come off the context's value stack, so a loop that
// calls a registered extern and a defined function allocates nothing per
// iteration — and, once the stack has grown, nothing per run either.
func TestCompiledCallsAllocFree(t *testing.T) {
	m := parseModule(t, `module "m"
declare @probe : fn(i64, i64) i64
func @callee(%a: i64, %b: i64) i64 {
entry:
  %s = add %a, %b
  ret %s
}
func @loop(%n: i64) i64 {
entry:
  br body
body:
  %i = phi i64 [ 0, entry ], [ %next, body ]
  %acc = phi i64 [ 0, entry ], [ %acc2, body ]
  %x = call i64 @probe(%i, 1)
  %y = call i64 @callee(%x, %acc)
  %acc2 = add %y, 0
  %next = add %i, 1
  %c = lt %next, %n
  condbr %c, body, done
done:
  ret %acc2
}
func @main() i64 {
entry:
  ret 0
}`)
	it := New(m)
	it.Eng = EngineCompiled
	it.RegisterExternArity("probe", 2, func(it *Interp, args []uint64) (uint64, error) {
		return args[0] + args[1], nil
	})
	loop := m.FunctionByName("loop")
	const n = 100
	args := []uint64{n}
	want := uint64(n * (n + 1) / 2)
	if r, err := it.Call(loop, args); err != nil || r != want || it.Engine() != EngineCompiled {
		t.Fatalf("loop(%d) = %d, %v on %s; want %d on the compiled tier", n, r, err, it.Engine(), want)
	}
	it.MaxSteps = 1 << 40
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := it.Call(loop, args); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a compiled loop of %d extern calls and %d defined calls allocates %.2f objects per run, want 0",
			n, n, allocs)
	}
}

// TestExternArityMismatchStaysGeneric: a module that declares one of the
// first-class externs with the wrong arity gets the registry's arity
// error on both tiers, not an op reading operands that are not there.
func TestExternArityMismatchStaysGeneric(t *testing.T) {
	m := parseModule(t, `module "m"
declare @noelle_queue_push : fn(i64) void
func @main() i64 {
entry:
  call void @noelle_queue_push(3)
  ret 0
}`)
	r := assertTiersAgree(t, m, nil)
	if want := fmt.Sprintf("interp: extern @%s: 1 args, want 2", ExternQueuePush); r.err != want {
		t.Errorf("error %q, want %q", r.err, want)
	}
}
