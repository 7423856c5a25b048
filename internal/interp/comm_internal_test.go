package interp

import (
	"fmt"
	"strings"
	"testing"

	"noelle/internal/ir"
)

// The compiled tier executes push, pop, push_n, pop_n, wait and fire as ops
// of its own while the walker calls the generic externs. These tests hold the two to
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
declare @noelle_queue_push_n : fn(i64, ptr<i64>, i64) void
declare @noelle_queue_pop_n : fn(i64, ptr<i64>, i64) void
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
	if cf := plainBody(it.img.compiled(m.FunctionByName("main"), probes{})); cf == nil || countOps(cf, cQueuePush) != 1 || countOps(cf, cQueuePop) != 1 {
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
	cf := plainBody(it.img.compiled(m.FunctionByName("main"), probes{}))
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
	{name: "invalid handle on bulk push", wantErr: "queue: invalid queue handle 7", body: `
  %buf = alloca i64, 4
  call void @noelle_queue_push_n(7, %buf, 4)
  ret 0`},
	{name: "empty bulk push skips the handle", wantErr: "", body: `
  %buf = alloca i64, 4
  call void @noelle_queue_push_n(7, %buf, 0)
  ret 0`},
	{name: "negative bulk count", wantErr: "interp: @noelle_queue_push_n: buffer 8, count -1 out of range", body: `
  %q = call i64 @noelle_queue_create(2)
  %buf = alloca i64, 4
  call void @noelle_queue_push_n(%q, %buf, -1)
  ret 0`},
	{name: "unbounded bulk count", wantErr: "interp: @noelle_queue_pop_n: buffer 8, count 1048577 out of range", body: `
  %q = call i64 @noelle_queue_create(2)
  %buf = alloca i64, 4
  call void @noelle_queue_pop_n(%q, %buf, 1048577)
  ret 0`},
	{name: "bulk push to closed queue", wantErr: "queue 0: push: queue: closed", body: `
  %q = call i64 @noelle_queue_create(2)
  %buf = alloca i64, 4
  call void @noelle_queue_close(%q)
  call void @noelle_queue_push_n(%q, %buf, 3)
  ret 0`},
	{name: "bulk pop of drained closed queue", wantErr: "queue 0: pop: queue: closed", body: `
  %q = call i64 @noelle_queue_create(2)
  %buf = alloca i64, 4
  call void @noelle_queue_push_n(%q, %buf, 3)
  call void @noelle_queue_close(%q)
  call void @noelle_queue_pop_n(%q, %buf, 4)
  call void @noelle_queue_pop_n(%q, %buf, 4)
  ret 0`},
	{name: "sequential bulk pop past the values", wantErr: "queue 0: pop from empty queue in sequential execution", body: `
  %q = call i64 @noelle_queue_create(2)
  %buf = alloca i64, 4
  call void @noelle_queue_push_n(%q, %buf, 3)
  call void @noelle_queue_pop_n(%q, %buf, 4)
  ret 0`},
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
  %buf = alloca i64, 3
  call void @noelle_queue_push(%q, 3)
  call void @noelle_signal_fire(%s, 1)
  call void @noelle_signal_wait(%s, 1)
  %one = call i64 @noelle_queue_pop(%q)
  store i64 %one, %buf
  call void @noelle_queue_push_n(%q, %buf, 3)
  call void @noelle_queue_push_n(%q, %buf, 1)
  call void @noelle_queue_pop_n(%q, %buf, 2)
  call void @noelle_queue_close(%q)
  call void @noelle_queue_pop_n(%q, %buf, 3)
  %v = load i64, %buf
  call void @print_i64(%v)
  ret %v
}`)
	full := assertTiersAgree(t, m, nil)
	if full.err != "" || full.output != "0\n" {
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
// and argument vectors come off the context's value stack and a frame's
// alloca addresses off its alloca stack, so a loop that calls a
// registered extern and a defined function with an alloca allocates
// nothing per iteration — and, once the stacks have grown, nothing per
// run either.
func TestCompiledCallsAllocFree(t *testing.T) {
	m := parseModule(t, `module "m"
declare @probe : fn(i64, i64) i64
func @callee(%a: i64, %b: i64) i64 {
entry:
  %tmp = alloca i64, 1
  store i64 %a, %tmp
  %x = load i64, %tmp
  %s = add %x, %b
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
		t.Errorf("a compiled loop of %d extern calls and %d calls of a function with an alloca allocates %.2f objects per run, want 0",
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

// chunkedPipeline is a hand-written two-stage pipeline in the shape the
// DSWP lowering emits: stage 0 stages 3*i at buf[pos] every iteration and
// pushes the buffer every k iterations, then what is left of it; stage 1
// refills its buffer every k iterations and sums what it loads. n
// iterations, chunks of k, a queue of capacity c.
func chunkedPipeline(n, k, c int) string {
	return fmt.Sprintf(`module "m"
global @acc : i64 zeroinit`+commDecls+`
func @task(%%env: ptr<i64>, %%w: i64, %%nw: i64) void {
entry:
  %%q = load i64, %%env
  %%buf = alloca i64, %[2]d
  %%isprod = eq %%w, 0
  condbr %%isprod, phead, chead
phead:
  %%i = phi i64 [ 0, entry ], [ %%inext, pcont ]
  %%pos = phi i64 [ 0, entry ], [ %%wrap, pcont ]
  %%pc = lt %%i, %[1]d
  condbr %%pc, pbody, pdone
pbody:
  %%v = mul %%i, 3
  %%slot = ptradd %%buf, %%pos
  store i64 %%v, %%slot
  %%inext = add %%i, 1
  %%next = add %%pos, 1
  %%full = eq %%next, %[2]d
  condbr %%full, pend, pcont
pend:
  call void @noelle_queue_push_n(%%q, %%buf, %[2]d)
  br pcont
pcont:
  %%wrap = phi i64 [ %%next, pbody ], [ 0, pend ]
  br phead
pdone:
  %%partial = ne %%pos, 0
  condbr %%partial, ptail, pclose
ptail:
  call void @noelle_queue_push_n(%%q, %%buf, %%pos)
  br pclose
pclose:
  call void @noelle_queue_close(%%q)
  ret void
chead:
  %%j = phi i64 [ 0, entry ], [ %%jnext, ccont ]
  %%s = phi i64 [ 0, entry ], [ %%snext, ccont ]
  %%cpos = phi i64 [ 0, entry ], [ %%cwrap, ccont ]
  %%cc = lt %%j, %[1]d
  condbr %%cc, ctop, cdone
ctop:
  %%first = eq %%cpos, 0
  condbr %%first, cbegin, cbody
cbegin:
  call void @noelle_queue_pop_n(%%q, %%buf, %[2]d)
  br cbody
cbody:
  %%cslot = ptradd %%buf, %%cpos
  %%got = load i64, %%cslot
  %%snext = add %%s, %%got
  %%jnext = add %%j, 1
  %%cnext = add %%cpos, 1
  %%cfull = eq %%cnext, %[2]d
  condbr %%cfull, cend, ccont
cend:
  br ccont
ccont:
  %%cwrap = phi i64 [ %%cnext, cbody ], [ 0, cend ]
  br chead
cdone:
  store i64 %%s, @acc
  ret void
}
func @main() i64 {
entry:
  %%env = alloca i64, 1
  %%q = call i64 @noelle_queue_create(%[3]d)
  store i64 %%q, %%env
  call void @noelle_dispatch(@task, %%env, 2)
  %%r = load i64, @acc
  call void @print_i64(%%r)
  ret 0
}`, n, k, c)
}

// TestChunkedPipelineTiersAgree runs the chunked protocol over trip counts
// around the chunk boundaries, with chunks smaller than, equal to and
// larger than the queue (capacity 1 included) and a chunk longer than a
// memory page, so one bulk operation takes its buffer in two runs:
// sequentially and in parallel, on both tiers, same sum, same counters, and
// one queue operation per chunk whatever the chunk holds.
func TestChunkedPipelineTiersAgree(t *testing.T) {
	for _, tc := range []struct{ n, k, c int }{
		{0, 16, 4}, {1, 16, 4}, {15, 16, 4}, {16, 16, 4}, {17, 16, 4}, {55, 16, 4},
		{55, 16, 1}, {55, 16, 16}, {55, 16, 64}, {500, 7, 3}, {2500, pageCells + 100, 300},
	} {
		t.Run(fmt.Sprintf("n%d_k%d_cap%d", tc.n, tc.k, tc.c), func(t *testing.T) {
			m := parseModule(t, chunkedPipeline(tc.n, tc.k, tc.c))
			chunks := int64((tc.n + tc.k - 1) / tc.k)
			want := fmt.Sprintf("%d\n", 3*tc.n*(tc.n-1)/2)
			var seq tierRun
			for _, mode := range []struct {
				name string
				conf func(*Interp)
			}{
				{"seq", func(it *Interp) { it.SeqDispatch = true }},
				{"par", func(it *Interp) { it.DispatchWorkers = 2 }},
			} {
				r := assertTiersAgree(t, m, mode.conf)
				if r.err != "" || r.output != want {
					t.Errorf("%s: output %q, err %q; want %q", mode.name, r.output, r.err, want)
				}
				if r.pushes != chunks || r.pops != chunks || r.cPushes != int64(tc.n) || r.cPops != int64(tc.n) {
					t.Errorf("%s: %d push and %d pop operations moved %d and %d values, want %d operations each and %d values",
						mode.name, r.pushes, r.pops, r.cPushes, r.cPops, chunks, tc.n)
				}
				if mode.name == "seq" {
					seq = r
				} else if r != seq {
					t.Errorf("seq and par diverged:\nseq %+v\npar %+v", seq, r)
				}
			}
		})
	}
}

// TestReplacedBulkExternAfterRun is TestReplacedCommExternAfterRun for
// push_n: the op is bound while the runtime's own extern stands, and a
// replacement reaches bodies compiled before it.
func TestReplacedBulkExternAfterRun(t *testing.T) {
	m := parseModule(t, `module "m"`+commDecls+`
func @main() i64 {
entry:
  %q = call i64 @noelle_queue_create(4)
  %buf = alloca i64, 2
  store i64 5, %buf
  call void @noelle_queue_push_n(%q, %buf, 2)
  call void @noelle_queue_pop_n(%q, %buf, 2)
  %v = load i64, %buf
  call void @print_i64(%v)
  ret 0
}`)
	it := New(m)
	it.Eng = EngineCompiled
	if _, err := it.Run(); err != nil {
		t.Fatal(err)
	}
	if cf := plainBody(it.img.compiled(m.FunctionByName("main"), probes{})); cf == nil || countOps(cf, cQueuePushN) != 1 || countOps(cf, cQueuePopN) != 1 {
		t.Fatal("main did not compile its push_n and pop_n to first-class ops")
	}
	custom := 0
	it.RegisterExtern(ExternQueuePushN, func(it *Interp, args []uint64) (uint64, error) {
		custom++
		return 0, it.img.comm.PushN(int64(args[0]), []uint64{105, 0}, false)
	})
	if _, err := it.Run(); err != nil {
		t.Fatal(err)
	}
	if custom != 1 || it.Output.String() != "5\n105\n" {
		t.Errorf("replacement ran %d times, output %q; want once and 5, 105", custom, it.Output.String())
	}
	cf := plainBody(it.img.compiled(m.FunctionByName("main"), probes{}))
	if countOps(cf, cQueuePushN) != 0 || countOps(cf, cQueuePopN) != 1 {
		t.Error("after the replacement, push_n must be a generic call and pop_n still first-class")
	}
}

// TestBulkAbortEchoTiersAgree: worker 0 traps while worker 1 waits for a
// chunk nobody will push and worker 2 for room its chunk will never get
// (main left the queue one value short of full).
// Over the repetitions the abort reaches them before they wait, while they
// spin and after they parked; the dispatch reports the trap each time and
// the tiers count the torn-down ops alike.
func TestBulkAbortEchoTiersAgree(t *testing.T) {
	m := parseModule(t, `module "m"`+commDecls+`
func @task(%env: ptr<i64>, %w: i64, %nw: i64) void {
entry:
  %buf = alloca i64, 8
  %isbad = eq %w, 0
  condbr %isbad, bad, others
bad:
  %boom = rem 7, 0
  ret void
others:
  %ispop = eq %w, 1
  condbr %ispop, starved, stuffed
starved:
  %empty = load i64, %env
  call void @noelle_queue_pop_n(%empty, %buf, 8)
  ret void
stuffed:
  %slot = ptradd %env, 1
  %full = load i64, %slot
  call void @noelle_queue_push_n(%full, %buf, 2)
  ret void
}
func @main() i64 {
entry:
  %env = alloca i64, 2
  %empty = call i64 @noelle_queue_create(4)
  store i64 %empty, %env
  %full = call i64 @noelle_queue_create(3)
  %slot = ptradd %env, 1
  store i64 %full, %slot
  call void @noelle_queue_push_n(%full, %env, 2)
  call void @noelle_dispatch(@task, %env, 3)
  ret 0
}`)
	for i := 0; i < 20; i++ {
		r := assertTiersAgree(t, m, func(it *Interp) { it.DispatchWorkers = 3 })
		if want := "interp: dispatch worker 0: interp: integer remainder by zero"; r.err != want {
			t.Fatalf("error %q, want %q", r.err, want)
		}
	}
}
