// Package noelle's root benchmarks measure what nothing else in the
// repository does: Algorithm 1 vs Algorithm 2 on one corpus (E11), the
// cold vs warm abstraction-store load, the unit costs of reading and
// keying a module, of a points-to analysis, of the loop bundle, of
// auto's pricing and of its training run as invocations grow, of an
// interpreted step and of a call whose callee
// allocas, and four design
// ablations (demand-driven construction, alias stacks, HELIX header
// scheduling, DOALL chunk size). Run them with
//
//	go test -bench=. -benchmem
//
// The paper's tables and figures themselves are printed by
// `go run noelle/cmd/noelle-eval`, and only there.
package noelle

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"noelle/internal/alias"
	"noelle/internal/bench"
	"noelle/internal/core"
	"noelle/internal/eval"
	"noelle/internal/interp"
	"noelle/internal/ir"
	"noelle/internal/irtext"
	"noelle/internal/loops"
	"noelle/internal/machine"
	"noelle/internal/pdg"
	"noelle/internal/profiler"
	"noelle/internal/tool"
	"noelle/internal/tools/auto"
	"noelle/internal/tools/helix"
)

// The E11 summary line is printed once per `go test -bench` invocation.
var printOnce sync.Once

// BenchmarkInvariantAlgorithms contrasts Algorithm 1 and Algorithm 2
// directly (E11): same corpus, both detectors, wall-clock included.
func BenchmarkInvariantAlgorithms(b *testing.B) {
	var rows []eval.Fig4Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = eval.Figure4Invariants()
		if err != nil {
			b.Fatal(err)
		}
	}
	totL, totN := 0, 0
	for _, r := range rows {
		totL += r.LLVMAbs
		totN += r.NoelleAbs
	}
	printOnce.Do(func() {
		fmt.Printf("Algorithms 1 vs 2: low-level %d invariants, PDG-powered %d (x%.2f)\n",
			totL, totN, float64(totN)/float64(max(totL, 1)))
	})
}

// ---- ablations ----

// BenchmarkFunctionPDGCold measures the cold path the persistent
// abstraction store (internal/abscache) exists to avoid: every iteration
// pays one whole-module points-to analysis (BenchmarkPointsToWhole, about
// 3 ms) plus a from-scratch PDG build for every defined function.
func BenchmarkFunctionPDGCold(b *testing.B) {
	m := cacheBenchModule(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := core.New(m, core.DefaultOptions())
		buildAllPDGs(b, n, m)
	}
}

// BenchmarkFunctionPDGWarm measures the warm path: a fresh manager per
// iteration (simulating a new process) loads every PDG from a pre-
// populated store by the module's structural fingerprint — one
// fingerprint walk, one segment read, record decode, no alias analysis.
// The ratio to BenchmarkFunctionPDGCold is the store's speedup on
// function PDGs alone: about 0.55x while each record was a file of its
// own and the fingerprint walk fed SHA-256 field by field, about 1.2x
// since a store reads one segment and the walk hashes one buffer per
// body.
func BenchmarkFunctionPDGWarm(b *testing.B) {
	m := cacheBenchModule(b)
	dir := b.TempDir()
	opts := core.DefaultOptions()
	opts.CacheDir = dir
	prewarm := core.New(m, opts)
	if err := prewarm.StoreErr(); err != nil {
		b.Fatal(err)
	}
	buildAllPDGs(b, prewarm, m)
	if err := prewarm.CloseStore(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := core.New(m, opts)
		buildAllPDGs(b, n, m)
		b.StopTimer()
		builds, _, _ := n.CacheStats()
		if builds != 0 {
			b.Fatalf("warm iteration built %d PDGs from scratch", builds)
		}
		if err := n.CloseStore(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkPointsToWhole is the unit cost of the whole-module half of
// internal/alias on the benchmark's module (138 functions): number the
// objects, solve the inclusion constraints, summarize mod/ref bottom-up.
// A cold compile pays it twice (PDG builds, then `dead`'s call graph after
// the module was invalidated).
func BenchmarkPointsToWhole(b *testing.B) {
	m := cacheBenchModule(b)
	b.ReportAllocs()
	for b.Loop() {
		alias.NewPointsTo(m)
	}
}

// BenchmarkAutoPricing is the unit cost of auto's decision on a profiled
// bench.ParallelProgram(16384), plan-only over a warm manager: every hot
// loop planned by every planner and priced, which is one training run of
// the program on the compiled tier's loop-cost probes, whatever the loop
// count.
func BenchmarkAutoPricing(b *testing.B) {
	m, err := bench.ParallelProgram(16384)
	if err != nil {
		b.Fatal(err)
	}
	prof, err := profiler.Collect(m)
	if err != nil {
		b.Fatal(err)
	}
	prof.Embed()
	n := core.New(m, core.DefaultOptions())
	b.ReportAllocs()
	for b.Loop() {
		res, err := auto.Run(context.Background(), n, tool.DefaultOptions())
		if err != nil || res.Selected() == 0 {
			b.Fatalf("auto: %v, %d selected", err, res.Selected())
		}
	}
}

// BenchmarkAutoPrice is the unit cost of auto's training run as the
// invocation count grows: plan-only auto over a warm manager on a
// profiled bench.NestProgram, whose inner loop of 1000 iterations closes
// outer times. Each invocation is priced as it closes, so bytes per op
// stay flat from outer 100 to outer 1000.
func BenchmarkAutoPrice(b *testing.B) {
	for _, outer := range []int{100, 1000} {
		b.Run(fmt.Sprintf("outer=%d", outer), func(b *testing.B) {
			m, err := bench.NestProgram(outer)
			if err != nil {
				b.Fatal(err)
			}
			prof, err := profiler.Collect(m)
			if err != nil {
				b.Fatal(err)
			}
			prof.Embed()
			opts := core.DefaultOptions()
			opts.Cores = 2
			n := core.New(m, opts)
			b.ReportAllocs()
			for b.Loop() {
				res, err := auto.Run(context.Background(), n, tool.DefaultOptions())
				if err != nil || res.TrainingRuns != 1 {
					b.Fatalf("auto: %v, %d training runs", err, res.TrainingRuns)
				}
			}
		})
	}
}

// BenchmarkLoopBundle is the unit cost of the full loop abstraction (L:
// the loop dependence graph, aSCCDAG, IV, INV, RD) for every loop of
// bench.WholeProgram, on a manager whose function PDGs are already built:
// what `core.Noelle.Loop` adds on top of the PDGs.
func BenchmarkLoopBundle(b *testing.B) {
	m := cacheBenchModule(b)
	warm := core.New(m, core.DefaultOptions())
	buildAllPDGs(b, warm, m)
	var lss []*loops.LS
	fpdgs := map[*ir.Function]*pdg.Graph{}
	for _, f := range m.Functions {
		if !f.IsDeclaration() {
			lss = append(lss, warm.LoopStructures(f)...)
			fpdgs[f] = warm.FunctionPDG(f)
		}
	}
	pt := warm.PointsTo()
	impure := func(call *ir.Instr) bool { return !pt.CallIsPure(call) }
	b.ReportAllocs()
	for b.Loop() {
		for _, ls := range lss {
			loops.NewLoop(ls, fpdgs[ls.Fn], impure)
		}
	}
	b.ReportMetric(float64(len(lss)), "loops")
}

// BenchmarkParseWhole is the unit cost of reading a module: irtext.Parse
// (scan, parse and verify) of bench.WholeProgram printed, 356 KB of text
// and 123 functions. Every compile op and every daemon request pays it.
func BenchmarkParseWhole(b *testing.B) {
	text := ir.Print(cacheBenchModule(b))
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := irtext.Parse(text); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFingerprintWhole is the unit cost of keying a module: every
// function body's local hash folded into the module's structural
// fingerprint, on a fresh Fingerprinter over bench.WholeProgram read back
// from its text, which is what a store-backed compile op and a daemon
// session resolve compute.
func BenchmarkFingerprintWhole(b *testing.B) {
	m, err := irtext.Parse(ir.Print(cacheBenchModule(b)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		ir.NewFingerprinter(m).Module()
	}
}

// BenchmarkInterpSteps is the unit cost of an interpreted step: the
// untransformed bench.ParallelProgram(65536) run to completion on the
// compiled tier, whose loops load and store three arrays at the same
// index. It reports ns per executed step; a fresh image per run, so
// first-write page creation is part of the price.
func BenchmarkInterpSteps(b *testing.B) {
	m, err := bench.ParallelProgram(65536)
	if err != nil {
		b.Fatal(err)
	}
	var steps int64
	b.ReportAllocs()
	for b.Loop() {
		it := interp.New(m)
		it.Eng = interp.EngineCompiled
		if _, err := it.Run(); err != nil {
			b.Fatal(err)
		}
		steps += it.Steps
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
}

// allocaCallSrc is a 2-worker dispatch whose workers each call @f 65536
// times; @f allocas 128 cells and stores into and loads one of them.
const allocaCallSrc = `module "alloca_call"
declare @noelle_dispatch : fn(fn(ptr<i64>, i64, i64) void, ptr<i64>, i64) void
func @f(%x: i64) i64 {
entry:
  %a = alloca i64, 128
  %i = and %x, 127
  %p = ptradd %a, %i
  store i64 %x, %p
  %v = load i64, %p
  ret %v
}
func @task(%env: ptr<i64>, %w: i64, %nw: i64) void {
entry:
  br loop
loop:
  %i = phi i64 [ 0, entry ], [ %inext, loop ]
  %s = phi i64 [ 0, entry ], [ %snext, loop ]
  %v = call i64 @f(%i)
  %snext = add %s, %v
  %inext = add %i, 1
  %c = lt %inext, 65536
  condbr %c, loop, done
done:
  %cell = ptradd %env, %w
  store i64 %snext, %cell
  ret void
}
func @main() i64 {
entry:
  %env = alloca i64, 2
  call void @noelle_dispatch(@task, %env, 2)
  %r = load i64, %env
  ret %r
}`

// BenchmarkAllocaCall is the unit cost of a call whose callee allocas: a
// 128-cell local array, from each lane of a 2-lane DOALL-shaped dispatch
// on the compiled tier. It reports ns per call, each run's New included.
func BenchmarkAllocaCall(b *testing.B) {
	m, err := irtext.Parse(allocaCallSrc)
	if err != nil {
		b.Fatal(err)
	}
	calls := 0
	b.ReportAllocs()
	for b.Loop() {
		it := interp.New(m)
		it.Eng, it.DispatchWorkers = interp.EngineCompiled, 2
		if _, err := it.Run(); err != nil {
			b.Fatal(err)
		}
		calls += 2 * 65536
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(calls), "ns/call")
}

// BenchmarkCompileWhole is the unit cost of the compiled tier's compile:
// every defined function of bench.WholeProgram (123 functions, 12,414
// instructions) lowered on a fresh image, which is what every run pays
// for the functions it calls, since each interp.New is a new image. It
// reports ns per compiled instruction and allocations per function; the
// image itself is built with the timer stopped.
func BenchmarkCompileWhole(b *testing.B) {
	m := cacheBenchModule(b)
	instrs, fns := 0, 0
	for _, f := range m.Functions {
		if !f.IsDeclaration() {
			instrs += f.NumInstrs()
			fns++
		}
	}
	var ms runtime.MemStats
	var mallocs uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		it := interp.New(m)
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		b.StartTimer()
		if err := it.Precompile(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*instrs), "ns/instr")
	b.ReportMetric(float64(mallocs)/float64(b.N*fns), "allocs/fn")
}

func cacheBenchModule(b *testing.B) *ir.Module {
	b.Helper()
	m, err := bench.WholeProgram()
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func buildAllPDGs(b *testing.B, n *core.Noelle, m *ir.Module) {
	b.Helper()
	for _, f := range m.Functions {
		if !f.IsDeclaration() {
			n.FunctionPDG(f)
		}
	}
}

// BenchmarkAblationDemandDriven measures what demand-driven construction
// saves: loading the layer and asking for nothing vs eagerly materializing
// every abstraction for every function.
func BenchmarkAblationDemandDriven(b *testing.B) {
	bm, err := bench.ByName("streamcluster")
	if err != nil {
		b.Fatal(err)
	}
	m, err := bm.Compile()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("load-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = core.New(m, core.DefaultOptions())
		}
	})
	b.Run("eager-all", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := core.New(m, core.DefaultOptions())
			n.CallGraph()
			for _, f := range m.Functions {
				if f.IsDeclaration() {
					continue
				}
				n.FunctionPDG(f)
				for _, node := range n.Forest(f).Nodes() {
					n.Loop(node.LS)
				}
			}
		}
	})
}

// BenchmarkAblationAliasStacks measures PDG memory-dependence precision
// and cost per alias stack (type-basic only, Andersen only, combined).
func BenchmarkAblationAliasStacks(b *testing.B) {
	bm, err := bench.ByName("swaptions")
	if err != nil {
		b.Fatal(err)
	}
	m, err := bm.Compile()
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, mk func() *pdg.Builder) {
		disproved, total := 0, 0
		for i := 0; i < b.N; i++ {
			builder := mk()
			disproved, total = 0, 0
			for _, f := range m.Functions {
				if f.IsDeclaration() {
					continue
				}
				t, d := builder.PotentialMemoryPairs(f)
				total += t
				disproved += d
			}
		}
		b.ReportMetric(100*float64(disproved)/float64(max(total, 1)), "%disproved")
	}
	b.Run("type-basic", func(b *testing.B) {
		run(b, func() *pdg.Builder { return pdg.NewBaselineBuilder(m) })
	})
	b.Run("andersen", func(b *testing.B) {
		run(b, func() *pdg.Builder {
			pt := alias.NewPointsTo(m)
			return &pdg.Builder{Mod: m, AA: alias.AndersenAA{PT: pt}, PT: pt}
		})
	})
	b.Run("combined", func(b *testing.B) {
		run(b, func() *pdg.Builder { return pdg.NewBuilder(m) })
	})
}

// BenchmarkAblationHelixSched measures the SCD header-shrinking pass's
// effect on HELIX's simulated time (plans with and without it).
func BenchmarkAblationHelixSched(b *testing.B) {
	bm, err := bench.ByName("rawcaudio")
	if err != nil {
		b.Fatal(err)
	}
	for _, optimized := range []bool{false, true} {
		name := "sched-off"
		if optimized {
			name = "sched-on"
		}
		b.Run(name, func(b *testing.B) {
			var par int64
			for i := 0; i < b.N; i++ {
				m, err := bm.Compile()
				if err != nil {
					b.Fatal(err)
				}
				opts := core.DefaultOptions()
				opts.MinHotness = 0
				n := core.New(m, opts)
				if optimized {
					helix.ShrinkHeaders(n)
				}
				res, err := auto.RunPinned(context.Background(), n, tool.Options{}, "helix")
				if err != nil {
					b.Fatal(err)
				}
				par = 0
				for _, s := range res.Selections {
					if s.Winner == "" {
						continue
					}
					p := s.Candidates[0].Plan.(*helix.Plan)
					invs, err := machine.AttributeLoopCosts(m, p.LS.Nat, p.SegmentOf, p.NumSegments())
					if err != nil {
						b.Fatal(err)
					}
					par += machine.SimulateAll(invs, p.EstimateInvocation)
				}
			}
			b.ReportMetric(float64(par), "sim-cycles")
		})
	}
}

// BenchmarkAblationChunking sweeps DOALL's chunk size (the IVS use case).
func BenchmarkAblationChunking(b *testing.B) {
	bm, err := bench.ByName("bitcnts")
	if err != nil {
		b.Fatal(err)
	}
	m, err := bm.Compile()
	if err != nil {
		b.Fatal(err)
	}
	prof, err := profiler.Collect(m)
	if err != nil {
		b.Fatal(err)
	}
	prof.Embed()
	opts := core.DefaultOptions()
	opts.MinHotness = 0
	n := core.New(m, opts)
	cfg := machine.DefaultConfig(n.Arch(), 12)

	// Hot loop: the popcount reduction in main.
	var invs []*machine.Invocation
	for _, ls := range n.HotLoops() {
		if ls.Fn.Nam != "main" {
			continue
		}
		iv, err := machine.AttributeLoopCosts(n.Mod, ls.Nat, map[*ir.Instr]int{}, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(iv) > 0 && machine.SequentialCycles(iv) > machine.SequentialCycles(invs) {
			invs = iv
		}
	}
	if len(invs) == 0 {
		b.Fatal("no hot loop found")
	}
	for _, chunk := range []int{1, 4, 8, 32, 128} {
		b.Run(fmt.Sprintf("chunk-%d", chunk), func(b *testing.B) {
			var par int64
			for i := 0; i < b.N; i++ {
				par = machine.SimulateAll(invs, func(inv *machine.Invocation) int64 {
					return machine.SimulateDOALL(inv, cfg, chunk)
				})
			}
			b.ReportMetric(float64(par), "sim-cycles")
		})
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
