// driver_test pins what having one loop-parallelization driver
// guarantees: doall, dswp and helix are the auto driver pinned to one
// planner, so all of them honour the context, descend into the children
// of a loop they pass over, lower through the same path, and never pay
// for a training replay — and what they print does not vary run to run.
package tools_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"noelle/internal/bench"
	"noelle/internal/core"
	"noelle/internal/interp"
	"noelle/internal/ir"
	"noelle/internal/profiler"
	"noelle/internal/tool"
	"noelle/internal/tools/auto"
)

func lookupTool(t *testing.T, name string) tool.Tool {
	t.Helper()
	tl, ok := tool.Lookup(name)
	if !ok {
		t.Fatalf("tool %q not registered", name)
	}
	return tl
}

func TestPinnedToolsHonorCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range []string{"doall", "dswp", "helix", "auto"} {
		m := compile(t, registryFixture)
		before := ir.Print(m)
		opts := tool.DefaultOptions()
		opts.ExecutePlans = true
		_, err := tool.Run(ctx, lookupTool(t, name), newN(m), opts)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: error %v, want context.Canceled", name, err)
		}
		if ir.Print(m) != before {
			t.Errorf("%s: a cancelled run rewrote the module", name)
		}
	}
}

// nestedSrc has an outer loop neither pipelining technique can take — its
// exit is data-dependent (no governing IV for HELIX) and it calls
// print_i64 (DSWP lowers no loop with a call) — around an inner loop both
// can: an order-sensitive recurrence behind an independent chain.
const nestedSrc = `
int b[96];
int c[96];
int lim[8];
int main() {
  int i;
  int j;
  for (i = 0; i < 96; i = i + 1) { b[i] = i * 7 + 3; }
  for (j = 0; j < 4; j = j + 1) { lim[j] = 4 - j; }
  int total = 0;
  for (j = 0; lim[j] > 0; j = j + 1) {
    int acc = j + 1;
    for (i = 0; i < 96; i = i + 1) {
      int x = b[i] * 3 + i;
      int y = x * x + 11;
      int z = (y + x) * 5 + 1;
      acc = (acc * 3 + z) % 4093;
      c[i] = z % 101;
    }
    print_i64(acc);
    total = total + acc;
  }
  print_i64(total);
  return total % 251;
}`

func TestPinnedRunDescendsIntoChildren(t *testing.T) {
	for _, tech := range []string{"dswp", "helix"} {
		t.Run(tech, func(t *testing.T) {
			m := compile(t, nestedSrc)
			r0, o0, _ := run(t, ir.CloneModule(m))
			n := newN(m)
			var outer, inner string
			for _, node := range n.Forest(m.FunctionByName("main")).Nodes() {
				if len(node.Children) == 1 {
					outer, inner = node.LS.Header.Nam, node.Children[0].LS.Header.Nam
				}
			}
			if outer == "" {
				t.Fatal("fixture has no nested loop")
			}

			opts := tool.DefaultOptions()
			opts.ExecutePlans = true
			res, err := auto.RunPinned(context.Background(), n, opts, tech)
			if err != nil {
				t.Fatal(err)
			}
			passedOver, reached := false, false
			for _, rej := range res.Rejections {
				if rej.Header == outer && rej.Reason != "" {
					passedOver = true
				}
			}
			for _, s := range res.Selections {
				if s.Header == inner && s.Lowered {
					reached = true
				}
			}
			if !passedOver || !reached {
				t.Fatalf("outer %s passed over: %v, inner %s lowered: %v\nselections: %+v",
					outer, passedOver, inner, reached, res.Selections)
			}
			if err := ir.Verify(m); err != nil {
				t.Fatalf("lowered module malformed: %v", err)
			}
			if r1, o1, _ := run(t, m); r1 != r0 || o1 != o0 {
				t.Errorf("semantics changed: (%d,%q) -> (%d,%q)", r0, o0, r1, o1)
			}
		})
	}
}

// TestEveryPlannerHasAPinnedTool: each registered planner is reachable
// as a same-named tool, and that tool lowers at least one of the two
// run-plane programs to a module that prints what the original prints,
// dispatched sequentially and on real cores.
func TestEveryPlannerHasAPinnedTool(t *testing.T) {
	programs := map[string]func(int) (*ir.Module, error){
		"parallel": bench.ParallelProgram, "pipeline": bench.PipelineProgram,
	}
	for _, p := range tool.Planners() {
		tl := lookupTool(t, p.Technique())
		loweredSomewhere := false
		for name, program := range programs {
			m, err := program(512)
			if err != nil {
				t.Fatal(err)
			}
			orig := interp.New(ir.CloneModule(m))
			r0, err := orig.Run()
			if err != nil {
				t.Fatal(err)
			}
			prof, err := profiler.Collect(m)
			if err != nil {
				t.Fatal(err)
			}
			prof.Embed()
			copts := core.DefaultOptions()
			copts.MinHotness, copts.Cores = 0.2, 3
			opts := tool.DefaultOptions()
			opts.ExecutePlans = true
			rep, err := tool.Run(context.Background(), tl, core.New(m, copts), opts)
			if err != nil {
				t.Fatalf("%s on %s: %v", tl.Name(), name, err)
			}
			if rep.Metrics["lowered"] == 0 {
				continue
			}
			loweredSomewhere = true
			for _, seq := range []bool{true, false} {
				it := interp.New(m)
				it.SeqDispatch = seq
				r, err := it.Run()
				if err != nil {
					t.Fatalf("%s on %s (seq=%v): %v", tl.Name(), name, seq, err)
				}
				if r != r0 || it.Output.String() != orig.Output.String() ||
					it.MemoryFingerprint() != orig.MemoryFingerprint() {
					t.Errorf("%s on %s (seq=%v): exit %d -> %d, output %q -> %q, or memory diverged",
						tl.Name(), name, seq, r0, r, orig.Output.String(), it.Output.String())
				}
			}
		}
		if !loweredSomewhere {
			t.Errorf("%s lowered neither run-plane program", tl.Name())
		}
	}
}

// TestPinnedRunNeverPricesAPlan: scoring is the only thing that replays
// the training input (machine.AttributeLoops), and it is what fills
// Candidate.Seq/Par — so a pinned run makes no training run and leaves
// both at zero on every candidate, where the competing run over the same
// program makes one.
func TestPinnedRunNeverPricesAPlan(t *testing.T) {
	for _, tech := range tool.PlannerNames() {
		res, err := auto.RunPinned(context.Background(), newN(compile(t, nestedSrc)), tool.Options{}, tech)
		if err != nil {
			t.Fatal(err)
		}
		if res.Selected() == 0 || res.TrainingRuns != 0 {
			t.Errorf("%s: %d planned, %d training runs; want some and none", tech, res.Selected(), res.TrainingRuns)
		}
		for _, s := range res.Selections {
			for _, c := range s.Candidates {
				if c.Seq != 0 || c.Par != 0 {
					t.Errorf("%s @%s/%s: pinned run priced a plan (seq %d, par %d)", tech, s.Fn, s.Header, c.Seq, c.Par)
				}
			}
		}
	}
	res, err := auto.Run(context.Background(), newN(compile(t, nestedSrc)), tool.Options{})
	if err != nil {
		t.Fatal(err)
	}
	priced := false
	for _, s := range res.Selections {
		for _, c := range s.Candidates {
			priced = priced || c.Seq > 0
		}
	}
	if !priced || res.TrainingRuns != 1 || res.PriceMisses != 0 {
		t.Errorf("the competing run: priced %v in %d training runs, %d price misses; want priced in 1, none missed",
			priced, res.TrainingRuns, res.PriceMisses)
	}
}

// TestLoweringIsDeterministic: every technique, over the whole corpus with
// every loop hot, lowers two fresh compiles of a program to the same module
// text and renders the same report (which names, per refused loop, the
// instruction that refused it). Report diffs — serve-smoke's daemon vs cold
// CLI — and the abstraction store's function fingerprints rest on it.
func TestLoweringIsDeterministic(t *testing.T) {
	lower := func(b bench.Benchmark, tl tool.Tool) (module, report string) {
		m, err := b.Compile()
		if err != nil {
			t.Fatal(err)
		}
		opts := tool.DefaultOptions()
		opts.ExecutePlans = true
		rep, err := tool.Run(context.Background(), tl, newN(m), opts)
		if err != nil {
			t.Fatalf("%s on %s: %v", tl.Name(), b.Name, err)
		}
		var sb strings.Builder
		rep.Fprint(&sb)
		return ir.Print(m), sb.String()
	}
	for _, p := range tool.Planners() {
		tl := lookupTool(t, p.Technique())
		for _, b := range bench.List() {
			m1, r1 := lower(b, tl)
			m2, r2 := lower(b, tl)
			if m1 != m2 {
				t.Errorf("%s on %s: two lowerings print different modules", tl.Name(), b.Name)
			}
			if r1 != r2 {
				t.Errorf("%s on %s: two runs report differently:\n%s\n--- vs ---\n%s", tl.Name(), b.Name, r1, r2)
			}
		}
	}
}

// TestPlanOnlyMatchesLowered: a plan is a promise. On every corpus
// program, profiled, at 2 and 12 cores, the competing run and each pinned
// run select the same (function, header, technique) set plan-only as they
// do when lowering a clone — so a plan-only report says what the tool
// does, and no plan falls through to a second choice at lowering time.
func TestPlanOnlyMatchesLowered(t *testing.T) {
	selected := func(res auto.Result) []string {
		var out []string
		for _, s := range res.Selections {
			if s.Winner != "" {
				out = append(out, "@"+s.Fn+"/"+s.Header+" "+s.Winner)
			}
		}
		return out
	}
	cells, lowered := 0, 0
	for _, b := range bench.List() {
		m, err := b.Compile()
		if err != nil {
			t.Fatal(err)
		}
		prof, err := profiler.Collect(m)
		if err != nil {
			t.Fatal(err)
		}
		prof.Embed()
		for _, cores := range []int{2, 12} {
			copts := core.DefaultOptions()
			copts.Cores = cores
			for _, tech := range append([]string{""}, tool.PlannerNames()...) {
				runs := [2][]string{}
				for i, execute := range []bool{false, true} {
					opts := tool.DefaultOptions()
					opts.ExecutePlans = execute
					n := core.New(ir.CloneModule(m), copts)
					var res auto.Result
					if tech == "" {
						res, err = auto.Run(context.Background(), n, opts)
					} else {
						res, err = auto.RunPinned(context.Background(), n, opts, tech)
					}
					if err != nil {
						t.Fatalf("%s at %d cores (%q, lowering %v): %v", b.Name, cores, tech, execute, err)
					}
					runs[i] = selected(res)
					if execute {
						lowered += res.Lowered()
					}
				}
				if strings.Join(runs[0], "\n") != strings.Join(runs[1], "\n") {
					t.Errorf("%s at %d cores (%q): plan-only selects %v, lowering selects %v", b.Name, cores, tech, runs[0], runs[1])
				}
				cells++
			}
		}
	}
	if cells != 41*2*4 || lowered == 0 {
		t.Errorf("%d cells, %d loops lowered; want 328 cells and some lowering", cells, lowered)
	}
}
