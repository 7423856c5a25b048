// order_test is the order oracle: a DOALL lowering claims its workers are
// independent, so running the workers of a doall dispatch n−1 … 0 on the
// sequential path must give the bytes running them 0 … n−1 gives. No
// clock and no second analysis: one run in order, one reversed.
package tools_test

import (
	"context"
	"fmt"
	"testing"

	"noelle/internal/bench"
	"noelle/internal/core"
	"noelle/internal/interp"
	"noelle/internal/ir"
	"noelle/internal/minic"
	"noelle/internal/passes"
	"noelle/internal/profiler"
	"noelle/internal/tool"
	"noelle/internal/verify"
)

// reversedDOALL is the worker order that runs the workers of every
// dispatch whose protocol record says doall in reverse. Every other
// dispatch keeps its order: a HELIX worker waits on a ticket its
// predecessor fires, and DSWP stages on their producers' queues.
func reversedDOALL(m *ir.Module) (order func(task *ir.Function, n int64) []int64, doall int) {
	tasks := map[*ir.Function]bool{}
	for _, l := range verify.Lowerings(m) {
		if l.Err == nil && l.Proto.Technique == verify.DOALL {
			doall++
			for _, f := range l.Tasks {
				tasks[f] = true
			}
		}
	}
	return func(task *ir.Function, n int64) []int64 {
		if !tasks[task] {
			return nil
		}
		order := make([]int64, n)
		for i := range order {
			order[i] = n - 1 - int64(i)
		}
		return order
	}, doall
}

// seqRun is what the order oracle compares: main's exit value or error,
// its output and the fingerprint of the globals after it.
type seqRun struct {
	value       int64
	err         string
	output      string
	fingerprint uint64
}

// runSeq runs m's main with every dispatch sequential, its workers in
// order (nil: 0 … n−1).
func runSeq(m *ir.Module, order func(*ir.Function, int64) []int64) seqRun {
	it := interp.New(m)
	it.SeqDispatch = true
	it.WorkerOrder = order
	v, err := it.Run()
	r := seqRun{value: v, output: it.Output.String(), fingerprint: it.MemoryFingerprint()}
	if err != nil {
		r.err = err.Error()
	}
	return r
}

// lowerProfiled compiles src's module, profiles it and lowers it with the
// named tool at the given cores (hot 0.05).
func lowerProfiled(t *testing.T, m *ir.Module, name string, cores int) *ir.Module {
	t.Helper()
	prof, err := profiler.Collect(m)
	if err != nil {
		t.Fatal(err)
	}
	prof.Embed()
	copts := core.DefaultOptions()
	copts.Cores = cores
	opts := tool.DefaultOptions()
	opts.ExecutePlans = true
	if _, err := tool.Run(context.Background(), lookupTool(t, name), core.New(m, copts), opts); err != nil {
		t.Fatalf("%s at %d cores: %v", name, cores, err)
	}
	return m
}

// TestReversedDOALLWorkersAgree: over the corpus lowered by doall and by
// auto at 2 and 4 cores, reversed -seq gives the output, exit value and
// global fingerprint of in-order -seq.
func TestReversedDOALLWorkersAgree(t *testing.T) {
	cells, reversed := 0, 0
	for _, b := range bench.List() {
		for _, name := range []string{"doall", "auto"} {
			for _, cores := range []int{2, 4} {
				m, err := b.Compile()
				if err != nil {
					t.Fatal(err)
				}
				m = lowerProfiled(t, m, name, cores)
				order, doall := reversedDOALL(m)
				if doall == 0 {
					continue
				}
				in, rev := runSeq(m, nil), runSeq(m, order)
				if in != rev {
					t.Errorf("%s under %s at %d cores: in order %+v, doall workers reversed %+v", b.Name, name, cores, in, rev)
				}
				cells++
				reversed += doall
			}
		}
	}
	t.Logf("%d lowered modules, %d doall dispatches reversed", cells, reversed)
	if cells < 100 {
		t.Errorf("only %d lowered modules carry a doall dispatch", cells)
	}
}

// raceSrc's first loop stores to c[(i*7) % 600] from every iteration, so
// iterations that hit one cell depend on each other, and the PDG misses it
// (an access is never paired with itself): DOALL lowers it.
const raceSrc = `
int c[600];
int main() {
  int i;
  int s = 0;
  for (i = 0; i < 200000; i = i + 1) { c[(i * 7) % 600] = i; }
  for (i = 0; i < 600; i = i + 1) { s = s + c[i] * (i + 1); }
  print_i64(s);
  return 0;
}`

// TestReversedWorkersExposeTheSelfDependenceRace is the oracle's power:
// on raceSrc lowered by pinned doall at 12 cores, the reversed run prints
// another sum than the in-order one, which prints the original's. This
// pins the PDG's self-dependence hole; closing it makes the two agree,
// and then this test's expectation flips.
func TestReversedWorkersExposeTheSelfDependenceRace(t *testing.T) {
	compile := func() *ir.Module {
		m, err := minic.Compile("race", raceSrc)
		if err != nil {
			t.Fatal(err)
		}
		passes.Optimize(m)
		return m
	}
	orig := runSeq(compile(), nil)
	m := lowerProfiled(t, compile(), "doall", 12)
	order, doall := reversedDOALL(m)
	if doall == 0 {
		t.Fatal("pinned doall lowered no loop")
	}
	in, rev := runSeq(m, nil), runSeq(m, order)
	if in != orig {
		t.Fatalf("in order %+v, original %+v", in, orig)
	}
	if want := fmt.Sprintln(36004937200); in.output != want {
		t.Errorf("in order printed %q, want %q", in.output, want)
	}
	if rev.output == in.output {
		t.Errorf("reversed doall workers printed the in-order %q: the race no longer shows", rev.output)
	}
	t.Logf("in order %q, reversed %q", in.output, rev.output)
}
