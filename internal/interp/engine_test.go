package interp_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"noelle/internal/bench"
	"noelle/internal/core"
	"noelle/internal/interp"
	"noelle/internal/interp/interptest"
	"noelle/internal/ir"
	"noelle/internal/irtext"
	"noelle/internal/profiler"
	"noelle/internal/tool"
	"noelle/internal/tools/auto"

	// Register the planners lowerWith pins the driver to.
	_ "noelle/internal/tools/dswp"
	_ "noelle/internal/tools/helix"
)

// TestTiersAgreeCorpus pins the compiled tier to the walker on every
// bundled benchmark: same result, output, Steps, Cycles, and memory
// fingerprint, and no silent fallback (the compiled run must actually
// have executed compiled code).
func TestTiersAgreeCorpus(t *testing.T) {
	for _, b := range bench.List() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			m, err := b.Compile()
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			_, compiled := interptest.AssertTiersAgree(t, m, interptest.Config{})
			if compiled.Engine != interp.EngineCompiled {
				t.Errorf("compiled run fell back to %s", compiled.Engine)
			}
		})
	}
}

// TestTiersAgreeWholeProgram covers the large synthetic whole-program
// benchmark (the speedup guard's workload). The program runs past any
// reasonable test budget, so the run is step-capped: both tiers must
// reach the identical budget-exhaustion point — same Steps, Cycles, and
// memory image after millions of instructions.
func TestTiersAgreeWholeProgram(t *testing.T) {
	m, err := bench.WholeProgram()
	if err != nil {
		t.Fatal(err)
	}
	walker, compiled := interptest.AssertTiersAgree(t, m, interptest.Config{MaxSteps: 5_000_000})
	if walker.Err == nil {
		t.Fatal("expected the capped run to exhaust its step budget")
	}
	if compiled.Engine != interp.EngineCompiled {
		t.Errorf("compiled run fell back to %s", compiled.Engine)
	}
}

// TestTiersAgreeDOALLDispatch runs the DOALL-lowered parallel benchmark
// on both tiers, under sequential and parallel dispatch: the tier
// contract must hold across the dispatch runtime too (forked workers
// inherit the engine).
func TestTiersAgreeDOALLDispatch(t *testing.T) {
	m := transformDOALL(t, 2048, 4)
	for _, cfg := range []struct {
		name string
		c    interptest.Config
	}{
		{"seq", interptest.Config{ExecConfig: interp.ExecConfig{SeqDispatch: true}}},
		{"par", interptest.Config{ExecConfig: interp.ExecConfig{DispatchWorkers: 4}}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			interptest.AssertTiersAgree(t, m, cfg.c)
		})
	}
}

// pipelineLower profiles and lowers the bundled pipeline benchmark with
// the given technique, mirroring the eval study's setup.
func pipelineLower(t *testing.T, tech string, size, cores int) *ir.Module {
	t.Helper()
	m, err := bench.PipelineProgram(size)
	if err != nil {
		t.Fatal(err)
	}
	lowerWith(t, m, tech, cores)
	return m
}

// lowerWith profiles m and lowers its hot loops in place with dswp or
// helix; lowering nothing is fatal.
func lowerWith(t *testing.T, m *ir.Module, tech string, cores int) {
	t.Helper()
	prof, err := profiler.Collect(m)
	if err != nil {
		t.Fatal(err)
	}
	prof.Embed()
	opts := core.DefaultOptions()
	opts.Cores = cores
	opts.MinHotness = 0.2
	n := core.New(m, opts)
	res, err := auto.RunPinned(context.Background(), n, tool.Options{ExecutePlans: true}, tech)
	if err != nil || res.Lowered() == 0 {
		t.Fatalf("%s lowered nothing (error %v, rejections %v)", tech, err, res.Rejections)
	}
	if err := ir.Verify(m); err != nil {
		t.Fatalf("lowered module malformed: %v", err)
	}
}

// TestCorpusCompilesFully: Call falls back to the walker per function
// when the compiler rejects one, and a run still reports
// engine=compiled if its entry function compiled (Rejected names the
// others). So every defined function of everything the tier differential
// and the benchmark execute — the bundled corpus, both synthetic
// programs, and their DSWP/HELIX lowerings with the generated task
// functions — must lower, or the tier differential would be holding the
// walker to itself.
func TestCorpusCompilesFully(t *testing.T) {
	check := func(name string, m *ir.Module) {
		t.Helper()
		if err := interp.New(m).Precompile(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for _, b := range bench.List() {
		m, err := b.Compile()
		if err != nil {
			t.Fatalf("%s: compile: %v", b.Name, err)
		}
		check(b.Name, m)
	}
	for name, prog := range map[string]func(int) (*ir.Module, error){
		"ParallelProgram": bench.ParallelProgram,
		"PipelineProgram": bench.PipelineProgram,
	} {
		for _, tech := range []string{"", "dswp", "helix"} {
			m, err := prog(256)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if tech != "" {
				lowerWith(t, m, tech, 3)
			}
			check(name+"/"+tech, m)
		}
	}
}

// TestTiersAgreePipelines runs the DSWP- and HELIX-lowered pipeline
// benchmark on both tiers under sequential and parallel dispatch. These
// modules exercise the queue/signal externs heavily, so the comm-counter
// diff in AssertTiersAgree is load-bearing here. The two dispatch modes
// must also agree with each other on every observable, and real
// communication traffic must have flowed (a lowering that silently
// stopped communicating would otherwise pass every diff).
func TestTiersAgreePipelines(t *testing.T) {
	for _, tech := range []string{"dswp", "helix"} {
		tech := tech
		t.Run(tech, func(t *testing.T) {
			m := pipelineLower(t, tech, 256, 3)
			var seq, par interptest.Result
			seqOK := t.Run("seq", func(t *testing.T) {
				seq, _ = interptest.AssertTiersAgree(t, m, interptest.Config{ExecConfig: interp.ExecConfig{SeqDispatch: true}})
			})
			parOK := t.Run("par", func(t *testing.T) {
				par, _ = interptest.AssertTiersAgree(t, m, interptest.Config{ExecConfig: interp.ExecConfig{DispatchWorkers: 3}})
			})
			if !seqOK || !parOK {
				return // the cross-mode diff below would only repeat the failure
			}
			for _, d := range interptest.Compare("seq", seq, "par", par) {
				t.Errorf("dispatch modes disagree on %s", d)
			}
			// Comm is creates, pushes, pops, waits, fires.
			if par.Comm[1]+par.Comm[3] == 0 {
				t.Errorf("no queue pushes or signal waits recorded: %v", par.Comm)
			}
		})
	}
}

// TestTiersAgreeOnErrors pins error paths: both tiers must fail with the
// same message and identical counter state at the failure point.
func TestTiersAgreeOnErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"div-by-zero", `module "m"
func @main() i64 {
entry:
  %z = sub 5, 5
  %d = div 7, %z
  ret %d
}`},
		{"rem-by-zero", `module "m"
func @main() i64 {
entry:
  %z = sub 5, 5
  %d = rem 7, %z
  ret %d
}`},
		{"undefined-extern", `module "m"
declare @mystery : fn(i64) i64
func @main() i64 {
entry:
  %r = call i64 @mystery(7)
  ret %r
}`},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			m := parse(t, tc.src)
			walker, _ := interptest.AssertTiersAgree(t, m, interptest.Config{})
			if walker.Err == nil {
				t.Fatal("expected the program to fail")
			}
		})
	}
}

// TestTiersAgreeOnStepLimit: exhausting the budget must happen at the
// same step count on both tiers.
func TestTiersAgreeOnStepLimit(t *testing.T) {
	m := parse(t, `module "m"
func @main() i64 {
entry:
  br loop
loop:
  %i = phi i64 [ 0, entry ], [ %n, loop ]
  %n = add %i, 1
  %c = lt %n, 1000000
  condbr %c, loop, done
done:
  ret %n
}`)
	walker, _ := interptest.AssertTiersAgree(t, m, interptest.Config{MaxSteps: 500})
	if walker.Err == nil {
		t.Fatal("expected step-limit failure")
	}
}

// TestHookedContextStaysOnWalker: installing any observation hook must
// force the walker tier even when the context asks for compiled — hooks
// observe the canonical per-instruction event order.
func TestHookedContextStaysOnWalker(t *testing.T) {
	m := parse(t, `module "m"
func @main() i64 {
entry:
  %a = add 2, 3
  ret %a
}`)
	it := interp.New(m)
	it.Eng = interp.EngineCompiled
	seen := 0
	it.InstrHook = func(in *ir.Instr) { seen++ }
	if _, err := it.Run(); err != nil {
		t.Fatal(err)
	}
	if it.Engine() != interp.EngineWalker {
		t.Errorf("hooked context ran on %s, want walker", it.Engine())
	}
	if seen == 0 {
		t.Error("hook never fired")
	}
}

// TestEngineEnvIsValid fails the suite when NOELLE_ENGINE is set to a
// tier that does not exist: every run would otherwise take the compiled
// tier, and a "walker" pass of the suite would check nothing.
func TestEngineEnvIsValid(t *testing.T) {
	if err := interp.EngineEnvErr(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineSelection covers the query surface: ParseEngine validation
// and the Eng-override / default resolution order.
func TestEngineSelection(t *testing.T) {
	if _, err := interp.ParseEngine("jit"); err == nil {
		t.Error("ParseEngine accepted an unknown engine")
	}
	for _, s := range []string{"", "walker", "compiled"} {
		if _, err := interp.ParseEngine(s); err != nil {
			t.Errorf("ParseEngine(%q): %v", s, err)
		}
	}
	m := parse(t, `module "m"
func @main() i64 {
entry:
  ret 7
}`)
	it := interp.New(m)
	it.Eng = interp.EngineWalker
	if _, err := it.Run(); err != nil {
		t.Fatal(err)
	}
	if it.Engine() != interp.EngineWalker {
		t.Errorf("Engine() = %s after a walker run", it.Engine())
	}
	it2 := interp.New(m)
	it2.Eng = interp.EngineCompiled
	if _, err := it2.Run(); err != nil {
		t.Fatal(err)
	}
	if it2.Engine() != interp.EngineCompiled {
		t.Errorf("Engine() = %s after a compiled run", it2.Engine())
	}
}

// TestCompiledTierSpeedup is the performance guard: on the whole-program
// benchmark the compiled tier must beat the walker by at least 2x
// (best-of-3 each). The compiled tier's win is per-instruction dispatch
// cost, so unlike the parallel speedup guards this holds on any machine
// — but wall-clock is still meaningless under the race detector, and
// noisy shared CI runners can opt out via NOELLE_SKIP_SPEEDUP_TEST
// (documented noise margin: the 2x bar sits far below the ~4-6x
// typically measured, absorbing scheduler noise). Both tiers are timed
// in the same process on equal work, so no minimum core count applies.
func TestCompiledTierSpeedup(t *testing.T) {
	bench.SkipIfNoisy(t, 0)
	m, err := bench.WholeProgram()
	if err != nil {
		t.Fatal(err)
	}
	// Both tiers run the identical step-capped prefix of the benchmark,
	// so the wall-clock ratio is a pure per-instruction dispatch-cost
	// comparison over equal work.
	const steps = 20_000_000
	best := func(eng interp.Engine) time.Duration {
		b := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			it := interp.New(m)
			it.Eng = eng
			it.MaxSteps = steps
			start := time.Now()
			if _, err := it.Run(); err != interp.ErrStepLimit {
				t.Fatalf("expected the capped run to exhaust its budget, got %v", err)
			}
			if it.Steps < steps {
				t.Fatalf("ran %d steps, want >= %d", it.Steps, steps)
			}
			if d := time.Since(start); d < b {
				b = d
			}
		}
		return b
	}
	walker := best(interp.EngineWalker)
	compiled := best(interp.EngineCompiled)
	speedup := float64(walker) / float64(compiled)
	t.Logf("walker %v, compiled %v: %.2fx", walker, compiled, speedup)
	if speedup < 2 {
		t.Errorf("compiled tier speedup %.2fx, want >= 2x", speedup)
	}
}

// budgetPrograms are small programs, one per shape of compiled op
// segment: a segment the budget can cut anywhere, and one ending at each
// kind of op a segment ends at or a trap inside it.
var budgetPrograms = []struct{ name, src string }{
	{"call-defined", `module "m"
func @sq(%x: i64) i64 {
entry:
  %buf = alloca i64, 2
  %y = mul %x, %x
  store i64 %y, %buf
  %z = load i64, %buf
  ret %z
}
func @main() i64 {
entry:
  br loop
loop:
  %i = phi i64 [ 0, entry ], [ %n, loop ]
  %acc = phi i64 [ 0, entry ], [ %acc2, loop ]
  %a = add %i, 3
  %s = call i64 @sq(%a)
  %acc2 = add %s, %acc
  %n = add %i, 1
  %c = lt %n, 4
  condbr %c, loop, done
done:
  ret %acc2
}`},
	{"call-extern", `module "m"
declare @print_i64 : fn(i64) void
func @main() i64 {
entry:
  br loop
loop:
  %i = phi i64 [ 0, entry ], [ %n, loop ]
  %a = mul %i, 7
  %b = xor %a, 5
  call void @print_i64(%b)
  %n = add %i, 1
  %c = lt %n, 4
  condbr %c, loop, done
done:
  ret %n
}`},
	{"dispatch", `module "m"
global @arr : [12 x i64] zeroinit
declare @print_i64 : fn(i64) void
declare @noelle_dispatch : fn(fn(ptr<i64>, i64, i64) void, ptr<i64>, i64) void
func @task(%env: ptr<i64>, %w: i64, %nw: i64) void {
entry:
  %base = mul %w, 6
  br loop
loop:
  %i = phi i64 [ 0, entry ], [ %inext, loop ]
  %idx = add %base, %i
  %v = mul %idx, 3
  %p = ptradd @arr, %idx
  store i64 %v, %p
  %inext = add %i, 1
  %c = lt %inext, 6
  condbr %c, loop, done
done:
  ret void
}
func @main() i64 {
entry:
  %env = alloca i64, 1
  store i64 5, %env
  call void @noelle_dispatch(@task, %env, 2)
  br sum
sum:
  %j = phi i64 [ 0, entry ], [ %jnext, sum ]
  %acc = phi i64 [ 0, entry ], [ %acc2, sum ]
  %p = ptradd @arr, %j
  %v = load i64, %p
  %acc2 = add %acc, %v
  %jnext = add %j, 1
  %c = lt %jnext, 12
  condbr %c, sum, done
done:
  call void @print_i64(%acc2)
  ret %acc2
}`},
	{"superinstructions", `module "m"
global @a : [8 x i64] zeroinit
global @b : [8 x i64] zeroinit
func @main() i64 {
entry:
  br loop
loop:
  %i = phi i64 [ 0, entry ], [ %n, loop ]
  %pa = ptradd @a, %i
  %x = load i64, %pa
  %x2 = add %x, 3
  store i64 %x2, %pa
  %q = ptradd @a, %i
  %y = load i64, %q
  %z = mul %y, %i
  %r = ptradd @b, %i
  store i64 %z, %r
  %n = add %i, 1
  %c = lt %n, 8
  condbr %c, loop, done
done:
  %last = ptradd @b, 7
  %v = load i64, %last
  ret %v
}`},
	{"folded", `module "m"
global @g : [8 x i64] zeroinit
declare @print_i64 : fn(i64) void
func @main() i64 {
entry:
  br loop
loop:
  %i = phi i64 [ 0, entry ], [ %n, loop ]
  %base = ptradd @g, 0
  %q = ptradd %base, %i
  %v = load i64, %q
  %p = ptradd @g, %i
  %k = mul 2, 3
  %x = load i64, %p
  %x2 = add %x, %k
  store i64 %x2, %p
  %eight = shl 1, 3
  call void @print_i64(%eight)
  %d = div 8, 2
  %n = add %i, %d
  %lim = add 8, 1
  %c = lt %n, %lim
  condbr %c, loop, done
done:
  %z = sub 4, 4
  %r = rem %v, %z
  ret %r
}`},
	{"folded-out-of-order", `module "m"
func @main() i64 {
entry:
  br start
use:
  %w = add %late, 1
  ret %w
start:
  %late = mul 3, 5
  br use
}`},
	{"phi-swap", `module "m"
func @main() i64 {
entry:
  br loop
loop:
  %i = phi i64 [ 0, entry ], [ %n, loop ]
  %x = phi i64 [ 1, entry ], [ %y, loop ]
  %y = phi i64 [ 2, entry ], [ %x, loop ]
  %s = phi i64 [ 0, entry ], [ %s2, loop ]
  %t = mul %x, 10
  %s2 = add %s, %t
  %n = add %i, 1
  %c = lt %n, 5
  condbr %c, loop, done
done:
  %r = add %s2, %y
  ret %r
}`},
	{"div-by-zero", `module "m"
global @g : [4 x i64] zeroinit
func @main() i64 {
entry:
  %g0 = ptradd @g, 0
  %x = load i64, %g0
  %a = add %x, 7
  %p = ptradd @g, 2
  store i64 %a, %p
  %z = sub %a, 7
  %d = div %a, %z
  %e = add %d, 1
  %f = mul %e, 2
  ret %f
}`},
	{"wild-load", `module "m"
global @g : [4 x i64] zeroinit
func @main() i64 {
entry:
  %g0 = ptradd @g, 0
  %x = load i64, %g0
  %a = add %x, 7
  %big = shl %a, 60
  %p = ptradd @g, %big
  %v = load i64, %p
  %e = add %v, 1
  %f = mul %e, 2
  ret %f
}`},
	{"wild-load-op-store", `module "m"
global @g : [4 x i64] zeroinit
func @main() i64 {
entry:
  %g0 = ptradd @g, 0
  %x = load i64, %g0
  %a = add %x, 7
  %big = shl %a, 60
  %p = ptradd @g, %big
  %k = mul 2, 3
  %v = load i64, %p
  %v2 = add %v, %k
  store i64 %v2, %p
  ret %a
}`},
}

// TestTiersAgreeAtEveryBudget runs each budget program at every step
// budget from 1 to one past its unbounded run's total, so the budget runs
// out in front of, and inside, every op of every segment: the compiled
// tier must stop where the walker stops, with the same error, Steps,
// Cycles, output and memory. The dispatch program runs sequentially and
// on 2 workers. Which worker draws a dispatch's last granted steps is a
// race by design (parallel.go's step pool), so the 2-worker sweep skips
// the budgets that reach the dispatch with steps left but fewer than two
// grant chunks (64 each, more than either worker runs); the sum after
// the dispatch is what it sweeps past it.
func TestTiersAgreeAtEveryBudget(t *testing.T) {
	for _, p := range budgetPrograms {
		m := parse(t, p.src)
		modes := []interp.ExecConfig{{}}
		if p.name == "dispatch" {
			modes = []interp.ExecConfig{{SeqDispatch: true}, {DispatchWorkers: 2}}
		}
		for _, ec := range modes {
			name := p.name
			if ec.DispatchWorkers > 0 {
				name += "/par"
			}
			t.Run(name, func(t *testing.T) {
				full, _ := interptest.AssertTiersAgree(t, m, interptest.Config{ExecConfig: interp.ExecConfig{SeqDispatch: true}})
				atDispatch := int64(-1) // the first budget whose run stops inside the dispatch
				for budget := int64(1); budget <= full.Steps+1; budget++ {
					if ec.DispatchWorkers > 0 && atDispatch >= 0 && budget > atDispatch && budget < atDispatch+128 {
						continue
					}
					walker, compiled := interptest.AssertTiersAgree(t, m, interptest.Config{ExecConfig: ec, MaxSteps: budget})
					if t.Failed() {
						t.Fatalf("first divergence at budget %d", budget)
					}
					if walker.Err != nil && strings.Contains(walker.Err.Error(), "dispatch worker") && atDispatch < 0 {
						atDispatch = budget
					}
					if compiled.Engine != interp.EngineCompiled {
						t.Fatalf("compiled run fell back to %s", compiled.Engine)
					}
					if cut := budget < full.Steps; errors.Is(walker.Err, interp.ErrStepLimit) != cut {
						t.Fatalf("budget %d of %d steps: error %v, step limit %t", budget, full.Steps, walker.Err, cut)
					}
				}
			})
		}
	}
}

// FuzzTiersAgree holds the compiled tier to the walker on arbitrary
// modules at arbitrary step budgets in [1, 5000]: every observable
// interptest.Compare diffs must match, with dispatches sequential so a
// run is deterministic. Text irtext.Parse refuses is skipped. Seeds: the
// budget programs and the FuzzParse inputs that parse.
func FuzzTiersAgree(f *testing.F) {
	for _, p := range budgetPrograms {
		f.Add(p.src, uint16(40))
	}
	files, err := filepath.Glob("../irtext/testdata/fuzz/FuzzParse/*")
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		// A corpus file is "go test fuzz v1" and one string(...) line.
		_, lit, _ := strings.Cut(strings.TrimSpace(string(data)), "\nstring(")
		src, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		if _, err := irtext.Parse(src); err == nil {
			f.Add(src, uint16(4999))
		}
	}
	f.Fuzz(func(t *testing.T, src string, budget uint16) {
		m, err := irtext.Parse(src)
		if err != nil {
			return
		}
		cfg := interptest.Config{ExecConfig: interp.ExecConfig{SeqDispatch: true}, MaxSteps: 1 + int64(budget)%5000}
		_, _, diffs, err := interptest.TiersAgree(m, cfg)
		if err != nil {
			return // no @main
		}
		for _, d := range diffs {
			t.Errorf("budget %d: tiers disagree on %s", cfg.MaxSteps, d)
		}
	})
}

// TestRejectedFunctionRunsOnWalker: a function the compiler rejects runs
// on the walker, and the context names it, so a caller reporting the
// engine can report the fallback too. @pick reads, on a path the run never takes, a value of another
// function: the compiler cannot resolve the operand, the walker never
// meets it.
func TestRejectedFunctionRunsOnWalker(t *testing.T) {
	m := ir.NewModule("m")
	bld := ir.NewBuilder()
	ghost := ir.NewFunction("ghost", ir.FuncOf(ir.I64Type))
	bld.SetInsertionBlock(ghost.NewBlock("entry"))
	foreign := bld.CreateBinOp(ir.OpAdd, ir.ConstInt(1), ir.ConstInt(2), "foreign")

	pick := m.AddFunction(ir.NewFunction("pick", ir.FuncOf(ir.I64Type, ir.I64Type), "x"))
	entry, never, taken := pick.NewBlock("entry"), pick.NewBlock("never"), pick.NewBlock("taken")
	bld.SetInsertionBlock(entry)
	bld.CreateCondBr(bld.CreateCmp(ir.OpNe, pick.Params[0], ir.ConstInt(0), "c"), never, taken)
	bld.SetInsertionBlock(never)
	bld.CreateRet(bld.CreateBinOp(ir.OpAdd, foreign, pick.Params[0], "r"))
	bld.SetInsertionBlock(taken)
	bld.CreateRet(ir.ConstInt(7))

	main := m.AddFunction(ir.NewFunction("main", ir.FuncOf(ir.I64Type)))
	bld.SetInsertionBlock(main.NewBlock("entry"))
	bld.CreateRet(bld.CreateCall(pick, []ir.Value{ir.ConstInt(0)}, "v"))

	for _, eng := range []interp.Engine{interp.EngineWalker, interp.EngineCompiled} {
		it := interp.New(m)
		it.Eng = eng
		if r, err := it.Run(); r != 7 || err != nil {
			t.Fatalf("%s: main = %d, %v; want 7", eng, r, err)
		}
		want := []string(nil)
		if eng == interp.EngineCompiled {
			want = []string{"pick"}
		}
		if got := it.Rejected(); !slices.Equal(got, want) {
			t.Errorf("%s: rejected %v, want %v", eng, got, want)
		}
	}
	if err := interp.New(m).Precompile(); err == nil || !strings.Contains(err.Error(), "unresolvable operand %foreign") {
		t.Errorf("Precompile: %v, want the unresolvable operand", err)
	}
}
