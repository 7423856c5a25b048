package interp_test

import (
	"context"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"noelle/internal/bench"
	"noelle/internal/core"
	"noelle/internal/interp"
	"noelle/internal/ir"
	"noelle/internal/minic"
	"noelle/internal/passes"
	"noelle/internal/tool"
	"noelle/internal/tools/auto"

	// Register the DOALL planner transformDOALL pins the driver to.
	_ "noelle/internal/tools/doall"
)

// dispatchSrc is a hand-written dispatched-task module: each worker fills
// its own slice of a shared global and prints its id through a per-worker
// reduction-free path. It exercises worker-id plumbing, shared-page
// writes, and deterministic output aggregation.
const dispatchSrc = `module "m"
global @out : [64 x i64] zeroinit
declare @print_i64 : fn(i64) void
declare @noelle_dispatch : fn(fn(ptr<i64>, i64, i64) void, ptr<i64>, i64) void
func @task(%env: ptr<i64>, %w: i64, %nw: i64) void {
entry:
  %base = mul %w, 16
  br loop
loop:
  %i = phi i64 [ 0, entry ], [ %inext, loop ]
  %idx = add %base, %i
  %p = ptradd @out, %idx
  %v = mul %idx, 3
  store i64 %v, %p
  %inext = add %i, 1
  %c = lt %inext, 16
  condbr %c, loop, done
done:
  call void @print_i64(%w)
  ret void
}
func @main() i64 {
entry:
  %env = alloca i64, 1
  call void @noelle_dispatch(@task, %env, 4)
  %p = ptradd @out, 63
  %v = load i64, %p
  ret %v
}`

// runModes runs m once sequentially and once in parallel and returns both
// contexts.
func runModes(t *testing.T, m *ir.Module) (seq, par *interp.Interp, rSeq, rPar int64) {
	t.Helper()
	seq = interp.New(m)
	seq.SeqDispatch = true
	rs, err := seq.Run()
	if err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	par = interp.New(m)
	rp, err := par.Run()
	if err != nil {
		t.Fatalf("parallel run: %v", err)
	}
	return seq, par, rs, rp
}

func TestParallelDispatchMatchesSequential(t *testing.T) {
	m := parse(t, dispatchSrc)
	seq, par, rSeq, rPar := runModes(t, m)
	if rSeq != rPar {
		t.Errorf("exit code: seq %d, par %d", rSeq, rPar)
	}
	if seq.Output.String() != par.Output.String() {
		t.Errorf("output diverged: seq %q, par %q", seq.Output.String(), par.Output.String())
	}
	if seq.Output.String() != "0\n1\n2\n3\n" {
		t.Errorf("output = %q, want worker ids in worker order", seq.Output.String())
	}
	if seq.Steps != par.Steps || seq.Cycles != par.Cycles {
		t.Errorf("counters diverged: seq (%d steps, %d cycles), par (%d, %d)",
			seq.Steps, seq.Cycles, par.Steps, par.Cycles)
	}
	if seq.MemoryFingerprint() != par.MemoryFingerprint() {
		t.Error("memory fingerprints diverged")
	}
}

// TestWorkerOrder: a sequential dispatch runs its workers in the order
// the hook gives, on either tier and with the same memory; a parallel one
// never asks, and an order of the wrong length is an error.
func TestWorkerOrder(t *testing.T) {
	run := func(seqMode bool, order []int64) (*interp.Interp, int, error) {
		it := interp.New(parse(t, dispatchSrc))
		it.SeqDispatch, it.DispatchWorkers = seqMode, 2
		asked := 0
		it.WorkerOrder = func(task *ir.Function, n int64) []int64 {
			if asked++; task.Nam != "task" || n != 4 {
				t.Errorf("asked for the order of %d workers of @%s", n, task.Nam)
			}
			return order
		}
		_, err := it.Run()
		return it, asked, err
	}
	in, _, err := run(true, nil)
	if err != nil {
		t.Fatal(err)
	}
	rev, asked, err := run(true, []int64{3, 2, 1, 0})
	if err != nil || asked != 1 {
		t.Fatalf("reversed: %v, asked %d times", err, asked)
	}
	if rev.Output.String() != "3\n2\n1\n0\n" || rev.MemoryFingerprint() != in.MemoryFingerprint() {
		t.Errorf("reversed output %q (fingerprint equal: %v), want worker ids 3 to 0 and the in-order memory",
			rev.Output.String(), rev.MemoryFingerprint() == in.MemoryFingerprint())
	}
	if par, asked, err := run(false, []int64{3, 2, 1, 0}); err != nil || asked != 0 || par.Output.String() != "0\n1\n2\n3\n" {
		t.Errorf("parallel dispatch: %v, asked %d times, output %q", err, asked, par.Output.String())
	}
	if _, _, err := run(true, []int64{0, 1}); err == nil || !strings.Contains(err.Error(), "worker order of 2 for 4 workers") {
		t.Errorf("short order: %v", err)
	}
}

// TestParallelDispatchHookReplay guards the hook-determinism contract: a
// hooked context takes the sequential dispatch path, so the event stream
// of a nominally-parallel run must equal the -seq stream exactly.
func TestParallelDispatchHookReplay(t *testing.T) {
	collect := func(seqMode bool) (instrs []string, blocks, edges int) {
		m := parse(t, dispatchSrc)
		it := interp.New(m)
		it.SeqDispatch = seqMode
		it.InstrHook = func(in *ir.Instr) { instrs = append(instrs, in.Opcode.String()) }
		it.BlockHook = func(b *ir.Block) { blocks++ }
		it.EdgeHook = func(from, to *ir.Block) { edges++ }
		if _, err := it.Run(); err != nil {
			t.Fatalf("run (seq=%v): %v", seqMode, err)
		}
		return
	}
	si, sb, se := collect(true)
	pi, pb, pe := collect(false)
	if len(si) != len(pi) || sb != pb || se != pe {
		t.Fatalf("hook event counts diverged: seq (%d,%d,%d), par (%d,%d,%d)",
			len(si), sb, se, len(pi), pb, pe)
	}
	for i := range si {
		if si[i] != pi[i] {
			t.Fatalf("hook event %d diverged: seq %s, par %s", i, si[i], pi[i])
		}
	}
}

// TestObservedContextDispatchesSequentially: a context serving a
// compiled-tier observation forks no worker either — its counters have
// one writer.
func TestObservedContextDispatchesSequentially(t *testing.T) {
	it := interp.New(parse(t, dispatchSrc))
	it.CountEdges()
	if _, err := it.Run(); err != nil {
		t.Fatal(err)
	}
	if it.Output.String() != "0\n1\n2\n3\n" || len(it.WorkerStats()) != 0 {
		t.Errorf("output %q over %d parallel lanes, want worker order and none", it.Output.String(), len(it.WorkerStats()))
	}
}

func TestParallelDispatchWorkerError(t *testing.T) {
	m := parse(t, `module "m"
declare @noelle_dispatch : fn(fn(ptr<i64>, i64, i64) void, ptr<i64>, i64) void
func @task(%env: ptr<i64>, %w: i64, %nw: i64) void {
entry:
  %bad = div 7, %w
  ret void
}
func @main() i64 {
entry:
  %env = alloca i64, 1
  call void @noelle_dispatch(@task, %env, 4)
  ret 0
}`)
	// Worker 0 divides by zero; the error must be deterministic across
	// repeated parallel runs.
	var msg string
	for i := 0; i < 4; i++ {
		_, err := interp.New(m).Run()
		if err == nil {
			t.Fatal("worker division by zero did not surface")
		}
		if i == 0 {
			msg = err.Error()
		} else if err.Error() != msg {
			t.Fatalf("error not deterministic: %q vs %q", msg, err.Error())
		}
	}
}

func TestDispatchExternArity(t *testing.T) {
	// The module declares (and calls) noelle_dispatch with one argument;
	// the extern must reject the call instead of panicking on args[2].
	m := parse(t, `module "m"
declare @noelle_dispatch : fn(i64) void
func @main() i64 {
entry:
  call void @noelle_dispatch(3)
  ret 0
}`)
	if _, err := interp.New(m).Run(); err == nil {
		t.Fatal("malformed dispatch call did not error")
	}
}

func TestPrintExternArity(t *testing.T) {
	m := parse(t, `module "m"
declare @print_i64 : fn() void
func @main() i64 {
entry:
  call void @print_i64()
  ret 0
}`)
	if _, err := interp.New(m).Run(); err == nil {
		t.Fatal("zero-arg print_i64 call did not error")
	}
}

// nestedSrc is an outer dispatch whose task dispatches again: each outer
// worker hands its inner workers a disjoint slice of the environment.
const nestedSrc = `module "m"
declare @noelle_dispatch : fn(fn(ptr<i64>, i64, i64) void, ptr<i64>, i64) void
func @inner(%env: ptr<i64>, %w: i64, %nw: i64) void {
entry:
  %p = ptradd %env, %w
  %base = load i64, %p
  %v = add %base, 7
  store i64 %v, %p
  ret void
}
func @outer(%env: ptr<i64>, %w: i64, %nw: i64) void {
entry:
  %off = mul %w, 2
  %slice = ptradd %env, %off
  %a = ptradd %slice, 0
  %b = ptradd %slice, 1
  %seed = mul %w, 100
  store i64 %seed, %a
  %seed1 = add %seed, 1
  store i64 %seed1, %b
  call void @noelle_dispatch(@inner, %slice, 2)
  ret void
}
func @main() i64 {
entry:
  %env = alloca i64, 4
  call void @noelle_dispatch(@outer, %env, 2)
  %p3 = ptradd %env, 3
  %v = load i64, %p3
  ret %v
}`

// TestNestedDispatch: a dispatch from a worker runs in order on its lane,
// so the run aggregates as -seq does and only the root's dispatch forks
// lanes: at DispatchWorkers 2 the stats hold its two lanes and nothing
// else.
func TestNestedDispatch(t *testing.T) {
	m := parse(t, nestedSrc)
	seq, par, rSeq, rPar := runModes(t, m)
	if rSeq != rPar {
		t.Errorf("exit code: seq %d, par %d", rSeq, rPar)
	}
	if rSeq != 108 { // worker 1's slice: seed 100, cell 1 = 101 + 7
		t.Errorf("exit = %d, want 108", rSeq)
	}
	if seq.Steps != par.Steps || seq.Cycles != par.Cycles {
		t.Errorf("counters diverged: seq (%d, %d), par (%d, %d)", seq.Steps, seq.Cycles, par.Steps, par.Cycles)
	}
	two := interp.New(m)
	two.DispatchWorkers = 2
	if r, err := two.Run(); err != nil || r != rSeq || two.Steps != seq.Steps || two.Cycles != seq.Cycles {
		t.Errorf("DispatchWorkers 2: exit %d, %d steps, %d cycles, err %v; want %d, %d, %d", r, two.Steps, two.Cycles, err, rSeq, seq.Steps, seq.Cycles)
	}
	// A lane that claims no worker records nothing, so the outer
	// dispatch leaves one or two rows, claiming its two workers.
	stats, claims := two.WorkerStats(), 0
	for _, st := range stats {
		if st.Dispatch != stats[0].Dispatch {
			claims = -1
			break
		}
		claims += st.Claims
	}
	if len(stats) == 0 || len(stats) > 2 || claims != 2 {
		t.Errorf("lanes %+v, want at most two, of the outer dispatch, claiming its two workers", stats)
	}
}

// nestedPipelineSrc runs pipelineSrc's two-stage queue pipeline (capacity
// 8, 500 pushes) inside each worker of a 2-worker dispatch, on a queue and
// a sum of the worker's own, and each worker prints its sum. The inner
// dispatch runs in order on the worker's lane, so its producer pushes all
// 500 values before the consumer pops one: the lane has to leave its
// blocking queue mode for it, or the ninth push waits for ever.
const nestedPipelineSrc = `module "m"
declare @print_i64 : fn(i64) void
declare @noelle_dispatch : fn(fn(ptr<i64>, i64, i64) void, ptr<i64>, i64) void
declare @noelle_queue_create : fn(i64) i64
declare @noelle_queue_push : fn(i64, i64) void
declare @noelle_queue_pop : fn(i64) i64
declare @noelle_queue_close : fn(i64) void
func @stage(%env: ptr<i64>, %w: i64, %nw: i64) void {
entry:
  %q = load i64, %env
  %isprod = eq %w, 0
  condbr %isprod, produce, consume
produce:
  %i = phi i64 [ 0, entry ], [ %inext, produce ]
  %v = mul %i, 3
  call void @noelle_queue_push(%q, %v)
  %inext = add %i, 1
  %pc = lt %inext, 500
  condbr %pc, produce, pdone
pdone:
  call void @noelle_queue_close(%q)
  ret void
consume:
  %j = phi i64 [ 0, entry ], [ %jnext, consume ]
  %s = phi i64 [ 0, entry ], [ %snext, consume ]
  %got = call i64 @noelle_queue_pop(%q)
  %snext = add %s, %got
  %jnext = add %j, 1
  %cc = lt %jnext, 500
  condbr %cc, consume, cdone
cdone:
  %sum = ptradd %env, 1
  store i64 %snext, %sum
  ret void
}
func @lane(%env: ptr<i64>, %w: i64, %nw: i64) void {
entry:
  %off = mul %w, 2
  %slice = ptradd %env, %off
  %q = call i64 @noelle_queue_create(8)
  store i64 %q, %slice
  call void @noelle_dispatch(@stage, %slice, 2)
  %sum = ptradd %slice, 1
  %r = load i64, %sum
  call void @print_i64(%r)
  ret void
}
func @main() i64 {
entry:
  %env = alloca i64, 4
  call void @noelle_dispatch(@lane, %env, 2)
  ret 0
}`

// TestNestedQueuePipeline: each lane of a 2-lane dispatch runs a queue
// pipeline of its own, and prints what -seq prints, on both tiers.
func TestNestedQueuePipeline(t *testing.T) {
	m := parse(t, nestedPipelineSrc)
	for _, eng := range []interp.Engine{interp.EngineWalker, interp.EngineCompiled} {
		for _, seq := range []bool{true, false} {
			it := interp.New(m)
			it.Eng, it.SeqDispatch, it.DispatchWorkers = eng, seq, 2
			if _, err := it.Run(); err != nil {
				t.Fatalf("engine=%s seq=%v: %v", eng, seq, err)
			}
			if got := it.Output.String(); got != "374250\n374250\n" {
				t.Errorf("engine=%s seq=%v: output %q, want 374250 from each lane", eng, seq, got)
			}
		}
	}
}

// TestDispatchLaneStacksBound: lanes that the address range has no stack
// for are refused before any of them starts, so no worker runs.
func TestDispatchLaneStacksBound(t *testing.T) {
	m := parse(t, `module "m"
declare @probe : fn(i64) void
declare @noelle_dispatch : fn(fn(ptr<i64>, i64, i64) void, ptr<i64>, i64) void
func @task(%env: ptr<i64>, %w: i64, %nw: i64) void {
entry:
  call void @probe(%w)
  ret void
}
func @main() i64 {
entry:
  %env = alloca i64, 1
  call void @noelle_dispatch(@task, %env, 20000)
  ret 0
}`)
	for _, eng := range []interp.Engine{interp.EngineWalker, interp.EngineCompiled} {
		it := interp.New(m)
		it.Eng, it.DispatchWorkers = eng, 20000
		var ran atomic.Int64
		it.RegisterExternArity("probe", 1, func(*interp.Interp, []uint64) (uint64, error) {
			ran.Add(1)
			return 0, nil
		})
		_, err := it.Run()
		if want := "for 20000 lane stacks"; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("engine=%s: err %v, want one naming %q", eng, err, want)
		}
		if n := ran.Load(); n != 0 {
			t.Errorf("engine=%s: %d workers ran", eng, n)
		}
	}
}

func TestDispatchFanoutCap(t *testing.T) {
	// A hostile worker count must error out before any per-worker state
	// is allocated, not OOM the process.
	m := parse(t, `module "m"
declare @noelle_dispatch : fn(fn(ptr<i64>, i64, i64) void, ptr<i64>, i64) void
func @task(%env: ptr<i64>, %w: i64, %nw: i64) void {
entry:
  ret void
}
func @main() i64 {
entry:
  %env = alloca i64, 1
  call void @noelle_dispatch(@task, %env, 100000000)
  ret 0
}`)
	if _, err := interp.New(m).Run(); err == nil {
		t.Fatal("100M-worker dispatch did not error")
	}
}

// A finished worker must leave only its counters and output behind: the
// dispatcher used to keep every forked context — value stack, page cache
// and all — until the barrier, so a 2^16-worker dispatch held 2^16 of
// them. The last worker to be claimed measures the heap while the other
// 65,535 are done and waiting.
func TestDispatchRetainsTalliesNotContexts(t *testing.T) {
	const nworkers = 1 << 16
	m := parse(t, `module "m"
declare @probe : fn(i64) void
declare @noelle_dispatch : fn(fn(ptr<i64>, i64, i64) void, ptr<i64>, i64) void
func @task(%env: ptr<i64>, %w: i64, %nw: i64) void {
entry:
  call void @probe(%w)
  ret void
}
func @main() i64 {
entry:
  %env = alloca i64, 1
  call void @noelle_dispatch(@task, %env, 65536)
  ret 0
}`)
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	it := interp.New(m)
	it.DispatchWorkers = 1 // one lane claims the workers in order
	var before, held uint64
	it.RegisterExternArity("probe", 1, func(_ *interp.Interp, args []uint64) (uint64, error) {
		switch args[0] {
		case 0:
			before = heap()
		case nworkers - 1:
			held = heap() - min(before, heap())
		}
		return 0, nil
	})
	if _, err := it.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	// A forked context is ~700 bytes plus a 512-byte first stack segment
	// (75 MB for this dispatch); a tally is under 100.
	if limit := uint64(nworkers * 160); held > limit {
		t.Errorf("heap grew %d bytes across %d finished workers (%d each), want <= %d",
			held, nworkers, held/nworkers, limit)
	}
	if it.Steps != 3+2*nworkers {
		t.Errorf("steps = %d, want %d: aggregation lost workers", it.Steps, 3+2*nworkers)
	}
}

func TestParallelDispatchStepLimit(t *testing.T) {
	m := parse(t, dispatchSrc)
	it := interp.New(m)
	it.MaxSteps = 50 // workers inherit the nearly-exhausted budget
	if _, err := it.Run(); err == nil {
		t.Fatal("step limit not enforced across dispatch workers")
	}
}

// transformDOALL compiles the bundled parallel benchmark and rewrites its
// hot loops into dispatched tasks with the given worker count.
func transformDOALL(t testing.TB, size, cores int) *ir.Module {
	t.Helper()
	m, err := bench.ParallelProgram(size)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	opts := core.DefaultOptions()
	opts.MinHotness = 0
	opts.Cores = cores
	res, err := auto.RunPinned(context.Background(), core.New(m, opts), tool.Options{ExecutePlans: true}, "doall")
	if err != nil {
		t.Fatalf("doall: %v", err)
	}
	if res.Lowered() < 3 {
		t.Fatalf("parallelized %d loops, want >= 3 (rejected %d)", res.Lowered(), len(res.Rejections))
	}
	if err := ir.Verify(m); err != nil {
		t.Fatalf("transformed module malformed: %v", err)
	}
	return m
}

// TestDOALLParallelObservationalEquivalence is the end-to-end acceptance
// check: the DOALL-transformed whole-program benchmark dispatched over 4
// workers must produce byte-identical output, the same exit code, and the
// same memory image as the sequential fallback (and as the original,
// untransformed program). Run under -race this also proves the parallel
// runtime is race-clean.
func TestDOALLParallelObservationalEquivalence(t *testing.T) {
	size := 4096
	orig, err := bench.ParallelProgram(size)
	if err != nil {
		t.Fatal(err)
	}
	it0 := interp.New(orig)
	r0, err := it0.Run()
	if err != nil {
		t.Fatalf("original run: %v", err)
	}

	m := transformDOALL(t, size, 4)
	seq, par, rSeq, rPar := runModes(t, m)
	if rSeq != r0 || rPar != r0 {
		t.Errorf("exit codes: original %d, seq %d, par %d", r0, rSeq, rPar)
	}
	if it0.Output.String() != seq.Output.String() {
		t.Errorf("transform changed output: %q -> %q", it0.Output.String(), seq.Output.String())
	}
	if seq.Output.String() != par.Output.String() {
		t.Errorf("parallel output diverged: seq %q, par %q", seq.Output.String(), par.Output.String())
	}
	if seq.MemoryFingerprint() != par.MemoryFingerprint() {
		t.Error("parallel memory image diverged from sequential")
	}
	if seq.Steps != par.Steps || seq.Cycles != par.Cycles {
		t.Errorf("counters diverged: seq (%d steps, %d cycles), par (%d, %d)",
			seq.Steps, seq.Cycles, par.Steps, par.Cycles)
	}
}

// TestDOALLParallelSpeedup asserts the >= 2x wall-clock bar with 4
// workers. It needs real cores: on machines with fewer than 4 CPUs (or
// under the race detector, which serializes enough to distort timing) the
// test skips.
func TestDOALLParallelSpeedup(t *testing.T) {
	bench.SkipIfNoisy(t, 4)
	prev := runtime.GOMAXPROCS(0)
	if prev < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}

	m := transformDOALL(t, 0, 4) // default size: ~seconds of sequential work

	run := func(seqMode bool) time.Duration {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			it := interp.New(m)
			it.SeqDispatch = seqMode
			start := time.Now()
			if _, err := it.Run(); err != nil {
				t.Fatalf("run (seq=%v): %v", seqMode, err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	seqD := run(true)
	parD := run(false)
	speedup := float64(seqD) / float64(parD)
	t.Logf("sequential %v, parallel %v, speedup %.2fx", seqD, parD, speedup)
	if speedup < 2 {
		t.Errorf("4-worker wall-clock speedup %.2fx, want >= 2x", speedup)
	}
}

// TestDOALLCalleeAllocasPop: the callee of TestCalleeAllocasPop, 800 KB of
// allocas per call, called from a DOALL-lowered loop at 2 cores. Each
// worker's calls pop on its lane's stack, so the lowered program prints
// the original's sum, and the same bytes under parallel and -seq
// dispatch.
func TestDOALLCalleeAllocasPop(t *testing.T) {
	m, err := minic.Compile("pop", `int out[30000];
int f(int x) { int a[100000]; a[x % 100000] = x; return a[x % 100000]; }
int main() {
  int i; int s = 0;
  for (i = 0; i < 30000; i = i + 1) { out[i] = f(i); }
  for (i = 0; i < 30000; i = i + 1) { s = s + out[i]; }
  print_i64(s);
  return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	passes.Optimize(m)
	opts := core.DefaultOptions()
	opts.MinHotness = 0
	opts.Cores = 2
	res, err := auto.RunPinned(context.Background(), core.New(m, opts), tool.Options{ExecutePlans: true}, "doall")
	if err != nil {
		t.Fatalf("doall: %v", err)
	}
	if res.Lowered() < 1 {
		t.Fatalf("parallelized no loop: %+v", res.Rejections)
	}
	seq, par, rSeq, rPar := runModes(t, m)
	if seq.Output.String() != "449985000\n" || par.Output.String() != seq.Output.String() || rSeq != rPar {
		t.Errorf("seq output %q (exit %d), parallel %q (exit %d); want 449985000 from both", seq.Output.String(), rSeq, par.Output.String(), rPar)
	}
	if len(par.WorkerStats()) == 0 {
		t.Error("the parallel run dispatched no workers")
	}
}
