package bench_test

import (
	"context"
	"math"
	"strconv"
	"strings"
	"testing"

	"noelle/internal/bench"
	"noelle/internal/core"
	"noelle/internal/interp"
	"noelle/internal/ir"
	"noelle/internal/profiler"
	"noelle/internal/tool"
	"noelle/internal/tools/auto"
	"noelle/internal/tools/baseline"
	"noelle/internal/tools/doall"
	"noelle/internal/tools/dswp"
	"noelle/internal/tools/helix"
)

// lowerPinned runs the loop-parallelization driver pinned to one
// technique, lowering every plan it can.
func lowerPinned(t *testing.T, n *core.Noelle, technique string) auto.Result {
	t.Helper()
	res, err := auto.RunPinned(context.Background(), n, tool.Options{ExecutePlans: true}, technique)
	if err != nil {
		t.Fatalf("%s: %v", technique, err)
	}
	return res
}

// outputsEquivalent compares program outputs line by line. Float lines may
// differ in the last ulps: parallel reductions reassociate float sums,
// exactly as the paper's parallelizers do.
func outputsEquivalent(a, b string) bool {
	la := strings.Split(strings.TrimRight(a, "\n"), "\n")
	lb := strings.Split(strings.TrimRight(b, "\n"), "\n")
	if len(la) != len(lb) {
		return false
	}
	for i := range la {
		if la[i] == lb[i] {
			continue
		}
		fa, errA := strconv.ParseFloat(la[i], 64)
		fb, errB := strconv.ParseFloat(lb[i], 64)
		if errA != nil || errB != nil {
			return false
		}
		diff := math.Abs(fa - fb)
		scale := math.Max(math.Abs(fa), math.Abs(fb))
		if diff > 1e-9*math.Max(scale, 1) {
			return false
		}
	}
	return true
}

func TestCorpusShape(t *testing.T) {
	all := bench.List()
	if len(all) != 41 {
		t.Fatalf("corpus has %d benchmarks, want 41", len(all))
	}
	counts := map[bench.Suite]int{}
	for _, b := range all {
		counts[b.Suite]++
	}
	if counts[bench.SPEC] != 14 || counts[bench.PARSEC] != 8 || counts[bench.MiBench] != 19 {
		t.Errorf("suite sizes = %v, want SPEC 14 / PARSEC 8 / MiBench 19", counts)
	}
}

func TestCorpusCompilesAndRuns(t *testing.T) {
	for _, b := range bench.List() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			m, err := b.Compile()
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			it := interp.New(m)
			r1, err := it.Run()
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			// Determinism.
			it2 := interp.New(ir.CloneModule(m))
			r2, err := it2.Run()
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			if r1 != r2 || it.Output.String() != it2.Output.String() {
				t.Errorf("nondeterministic: (%d,%q) vs (%d,%q)", r1, it.Output.String(), r2, it2.Output.String())
			}
			if it.Output.Len() == 0 {
				t.Error("benchmark produced no output")
			}
		})
	}
}

// TestDOALLPreservesCorpusSemantics is the repo's most important
// integration test: parallelize every benchmark and check observational
// equivalence (exit code, output, final global memory).
func TestDOALLPreservesCorpusSemantics(t *testing.T) {
	parallelizedSomewhere := 0
	for _, b := range bench.List() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			m, err := b.Compile()
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			orig := ir.CloneModule(m)
			it0 := interp.New(orig)
			r0, err := it0.Run()
			if err != nil {
				t.Fatalf("original run: %v", err)
			}

			opts := core.DefaultOptions()
			opts.MinHotness = 0
			res := lowerPinned(t, core.New(m, opts), "doall")
			if err := ir.Verify(m); err != nil {
				t.Fatalf("transformed module malformed: %v", err)
			}
			it1 := interp.New(m)
			r1, err := it1.Run()
			if err != nil {
				t.Fatalf("transformed run: %v", err)
			}
			if r0 != r1 {
				t.Errorf("exit code %d -> %d", r0, r1)
			}
			if !outputsEquivalent(it0.Output.String(), it1.Output.String()) {
				t.Errorf("output %q -> %q", it0.Output.String(), it1.Output.String())
			}
			// Integer-only programs must also preserve memory bit-exactly;
			// float programs may differ in reduction rounding.
			if it0.Output.String() == it1.Output.String() &&
				it0.MemoryFingerprint() != it1.MemoryFingerprint() {
				t.Errorf("final memory diverged")
			}
			if res.Lowered() > 0 {
				parallelizedSomewhere++
			}
			if b.Parallel && res.Lowered() == 0 {
				t.Errorf("expected DOALL to parallelize something (rejected %d)", len(res.Rejections))
			}
		})
	}
	if parallelizedSomewhere < 25 {
		t.Errorf("DOALL parallelized loops in only %d benchmarks; expected broad coverage", parallelizedSomewhere)
	}
}

// TestConservativeBaselineExtractsLittle reproduces the gcc/icc
// observation: the conservative legality checks fail on while-shaped
// loops and pointer code.
func TestConservativeBaselineExtractsLittle(t *testing.T) {
	totalParallelized := 0
	for _, b := range bench.List() {
		m, err := b.Compile()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		res := baseline.ConservativeAutoPar(m)
		totalParallelized += len(res.Parallelized)
	}
	if totalParallelized > 3 {
		t.Errorf("conservative baseline parallelized %d loops; expected near zero", totalParallelized)
	}
}

// TestPipelineProgramShape checks the queue-runtime benchmark: its hot
// loop must resist DOALL (the recurrence serializes it) while both
// pipelining techniques plan — and lower — it.
func TestPipelineProgramShape(t *testing.T) {
	pipelineModule := func() *ir.Module {
		m, err := bench.PipelineProgram(512)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := profiler.Collect(m)
		if err != nil {
			t.Fatal(err)
		}
		prof.Embed()
		return m
	}
	m := pipelineModule()
	opts := core.DefaultOptions()
	opts.MinHotness = 0.2 // the wall-clock study's threshold: main loop only
	opts.Cores = 4
	n := core.New(m, opts)

	hot := n.HotLoops()
	if len(hot) != 1 {
		t.Fatalf("hot loops at 0.2 threshold = %d, want 1 (the pipeline loop)", len(hot))
	}
	if err := doall.Eligible(n.Loop(hot[0])); err == nil {
		t.Error("pipeline loop is DOALL-able; the benchmark no longer exercises queues")
	}

	dres := lowerPinned(t, n, "dswp")
	if dres.Lowered() != 1 {
		t.Fatalf("dswp lowered %d loops, want 1 (rejections %v)", dres.Lowered(), dres.Rejections)
	}
	if stages := dres.Selections[0].Candidates[0].Plan.(*dswp.Plan).NumStages; stages < 2 {
		t.Errorf("pipeline loop lowered with %d stages", stages)
	}

	m2 := pipelineModule()
	n2 := core.New(m2, opts)
	hres := lowerPinned(t, n2, "helix")
	if hres.Lowered() != 1 {
		t.Fatalf("helix lowered %d loops, want 1 (rejections %v)", hres.Lowered(), hres.Rejections)
	}
	if segs := hres.Selections[0].Candidates[0].Plan.(*helix.Plan).NumSeq; segs < 1 {
		t.Errorf("pipeline loop lowered with %d sequential segments", segs)
	}

	// Both transformed modules still compute the original answer.
	ref := pipelineModule()
	it0 := interp.New(ref)
	if _, err := it0.Run(); err != nil {
		t.Fatal(err)
	}
	for name, tm := range map[string]*ir.Module{"dswp": m, "helix": m2} {
		it := interp.New(tm)
		if _, err := it.Run(); err != nil {
			t.Fatalf("%s-transformed run: %v", name, err)
		}
		if it.Output.String() != it0.Output.String() {
			t.Errorf("%s-transformed output %q != original %q", name, it.Output.String(), it0.Output.String())
		}
		if it.MemoryFingerprint() != it0.MemoryFingerprint() {
			t.Errorf("%s-transformed memory diverged", name)
		}
	}
}
