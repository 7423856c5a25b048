package interp_test

import (
	"context"
	"testing"
	"time"

	"noelle/internal/bench"
	"noelle/internal/core"
	"noelle/internal/interp"
	"noelle/internal/interp/interptest"
	"noelle/internal/ir"
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
// engine=compiled if its entry function compiled. So every defined
// function of everything the tier differential and the benchmark
// execute — the bundled corpus, both synthetic programs, and their
// DSWP/HELIX lowerings with the generated task functions — must lower,
// or a silent walker fallback would hide behind the engine name.
func TestCorpusCompilesFully(t *testing.T) {
	check := func(name string, m *ir.Module) {
		t.Helper()
		if err := interp.CompileAll(m); err != nil {
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
