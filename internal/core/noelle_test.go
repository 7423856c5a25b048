// Package core_test exercises the manager's concurrency guarantees: many
// goroutines requesting the same abstractions must share single-flight
// computations, PrecomputePDGs must materialize every function PDG across
// a worker pool, and invalidation must discard results that raced it.
// Run with -race.
package core_test

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"noelle/internal/core"
	"noelle/internal/ir"
	"noelle/internal/loops"
	"noelle/internal/minic"
	"noelle/internal/passes"
	"noelle/internal/pdg"
)

const fixtureSrc = `
int table[128];
int weights[64];
int scale = 3;

int fill(int n) {
  int i;
  for (i = 0; i < n; i = i + 1) { table[i % 128] = i * scale; }
  return table[0];
}

int reduce(int n) {
  int i;
  int acc = 0;
  for (i = 0; i < n; i = i + 1) { acc = acc + table[i % 128]; }
  return acc;
}

int convolve(int n) {
  int i;
  int j;
  int acc = 0;
  for (i = 0; i < n; i = i + 1) {
    for (j = 0; j < 64; j = j + 1) {
      acc = acc + table[(i + j) % 128] * weights[j];
    }
  }
  return acc;
}

int main() {
  int i;
  for (i = 0; i < 64; i = i + 1) { weights[i] = i % 7; }
  int r = fill(200) + reduce(200) + convolve(32);
  print_i64(r);
  return r % 256;
}`

func compileFixture(t *testing.T) *ir.Module {
	t.Helper()
	m, err := minic.Compile("core_test", fixtureSrc)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	passes.Optimize(m)
	return m
}

func newN(t *testing.T) *core.Noelle {
	opts := core.DefaultOptions()
	opts.MinHotness = 0
	return core.New(compileFixture(t), opts)
}

func definedFunctions(m *ir.Module) []*ir.Function {
	var out []*ir.Function
	for _, f := range m.Functions {
		if !f.IsDeclaration() {
			out = append(out, f)
		}
	}
	return out
}

// TestConcurrentFunctionPDGSingleFlight hammers FunctionPDG from many
// goroutines: every caller must observe the same graph per function.
func TestConcurrentFunctionPDGSingleFlight(t *testing.T) {
	n := newN(t)
	fns := definedFunctions(n.Mod)
	const goroutines = 16

	results := make([]map[*ir.Function]*pdg.Graph, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got := map[*ir.Function]*pdg.Graph{}
			// Interleave orders so goroutines collide on different
			// functions at different times.
			for i := range fns {
				f := fns[(i+g)%len(fns)]
				got[f] = n.FunctionPDG(f)
			}
			results[g] = got
		}(g)
	}
	wg.Wait()

	for _, f := range fns {
		first := results[0][f]
		if first == nil {
			t.Fatalf("no PDG computed for %s", f.Nam)
		}
		for g := 1; g < goroutines; g++ {
			if results[g][f] != first {
				t.Fatalf("goroutine %d saw a different PDG for %s (single-flight broken)", g, f.Nam)
			}
		}
	}
}

// TestConcurrentLoopAndMixedRequests mixes Loop, Forest, Scheduler,
// CallGraph, and PointsTo requests across goroutines.
func TestConcurrentLoopAndMixedRequests(t *testing.T) {
	n := newN(t)
	hot := n.HotLoops()
	if len(hot) == 0 {
		t.Fatal("fixture has no hot loops")
	}
	fns := definedFunctions(n.Mod)

	const goroutines = 12
	loopsSeen := make([]map[*ir.Block]*loops.Loop, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			seen := map[*ir.Block]*loops.Loop{}
			for i, ls := range hot {
				l := n.Loop(ls)
				seen[ls.Header] = l
				f := fns[(i+g)%len(fns)]
				n.Forest(f)
				n.Scheduler(f)
				if g%3 == 0 {
					n.CallGraph()
				}
				if g%4 == 0 {
					n.PointsTo()
				}
			}
			loopsSeen[g] = seen
		}(g)
	}
	wg.Wait()

	for h, first := range loopsSeen[0] {
		for g := 1; g < goroutines; g++ {
			if loopsSeen[g][h] != first {
				t.Fatalf("goroutine %d saw a different Loop for header %s", g, h.Nam)
			}
		}
	}
}

// TestPrecomputePDGs checks the worker pool materializes every defined
// function's PDG, and that later requests hit the cache.
func TestPrecomputePDGs(t *testing.T) {
	n := newN(t)
	if err := n.PrecomputePDGs(context.Background(), 8); err != nil {
		t.Fatalf("PrecomputePDGs: %v", err)
	}
	for _, f := range definedFunctions(n.Mod) {
		g1 := n.FunctionPDG(f)
		g2 := n.FunctionPDG(f)
		if g1 == nil || g1 != g2 {
			t.Fatalf("PDG for %s not cached after precompute", f.Nam)
		}
	}
}

// TestPrecomputePDGsBoundsWorkers: the worker count comes from a flag or
// a daemon request, so a huge one must not start a goroutine per worker.
// The pool is at most one worker per defined function: the goroutine
// stacks the call leaves behind stay within a few MB (200,000 workers
// once took 308 MB of stacks).
func TestPrecomputePDGsBoundsWorkers(t *testing.T) {
	n := newN(t)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := n.PrecomputePDGs(context.Background(), 200_000); err != nil {
		t.Fatalf("PrecomputePDGs: %v", err)
	}
	runtime.ReadMemStats(&after)
	if grew := int64(after.StackSys) - int64(before.StackSys); grew > 4<<20 {
		t.Errorf("200,000 requested workers grew stacks by %d KB, want a pool of at most %d", grew>>10, len(definedFunctions(n.Mod)))
	}
	for _, f := range definedFunctions(n.Mod) {
		if n.FunctionPDG(f) == nil {
			t.Fatalf("PDG for %s not built", f.Nam)
		}
	}
}

// TestPrecomputePDGsConcurrentWithRequests overlaps a precompute with
// demand requests; both must agree on the cached graphs.
func TestPrecomputePDGsConcurrentWithRequests(t *testing.T) {
	n := newN(t)
	fns := definedFunctions(n.Mod)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := n.PrecomputePDGs(context.Background(), 4); err != nil {
			t.Errorf("PrecomputePDGs: %v", err)
		}
	}()
	go func() {
		defer wg.Done()
		for _, f := range fns {
			n.FunctionPDG(f)
		}
	}()
	wg.Wait()
	for _, f := range fns {
		if n.FunctionPDG(f) != n.FunctionPDG(f) {
			t.Fatalf("PDG for %s not stable after concurrent precompute", f.Nam)
		}
	}
}

// TestPrecomputePDGsCancelled checks a cancelled context aborts the pool.
func TestPrecomputePDGsCancelled(t *testing.T) {
	n := newN(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := n.PrecomputePDGs(ctx, 4); err != context.Canceled {
		t.Fatalf("PrecomputePDGs on cancelled ctx = %v, want context.Canceled", err)
	}
}

// TestInvalidationDropsCaches checks invalidation forces recomputation,
// including when it races an in-flight computation (generation check).
func TestInvalidationDropsCaches(t *testing.T) {
	n := newN(t)
	f := n.Mod.FunctionByName("reduce")
	if f == nil {
		t.Fatal("fixture lost reduce")
	}
	g1 := n.FunctionPDG(f)
	s1 := n.Scheduler(f)
	n.InvalidateFunction(f)
	g2 := n.FunctionPDG(f)
	if g1 == g2 {
		t.Fatal("InvalidateFunction did not drop the cached PDG")
	}
	if n.Scheduler(f) == s1 {
		t.Fatal("InvalidateFunction did not drop the cached scheduler")
	}
	n.InvalidateModule()
	g3 := n.FunctionPDG(f)
	if g3 == g2 {
		t.Fatal("InvalidateModule did not drop the cached PDG")
	}
}

// TestLoopRequestLogIgnoresCacheState: the abstractions a Loop request
// records must not depend on whether the bundle was already cached — a
// warm manager (a daemon session) and a cold one (a CLI process) print
// the same "abstractions requested" line.
func TestLoopRequestLogIgnoresCacheState(t *testing.T) {
	n := newN(t)
	ls := n.LoopStructures(n.Mod.FunctionByName("reduce"))[0]
	n.ResetRequests()
	n.Loop(ls)
	cold := n.Requested()
	n.ResetRequests()
	n.Loop(ls)
	warm := n.Requested()
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("request log depends on cache state:\ncold: %v\nwarm: %v", cold, warm)
	}
}

// TestConcurrentRequestTracking checks the request log survives
// concurrent Use/Requested/ResetRequests calls (the Table 4 plumbing).
func TestConcurrentRequestTracking(t *testing.T) {
	n := newN(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				n.Use(core.AbsENV)
				n.Use(core.AbsTask)
				_ = n.Requested()
			}
		}()
	}
	wg.Wait()
	found := false
	for _, a := range n.Requested() {
		if a == core.AbsENV {
			found = true
		}
	}
	if !found {
		t.Fatal("request log lost AbsENV")
	}
}
