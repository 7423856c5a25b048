package auto_test

import (
	"context"
	"strings"
	"testing"

	"noelle/internal/bench"
	"noelle/internal/core"
	"noelle/internal/fuzz"
	"noelle/internal/interp"
	"noelle/internal/ir"
	"noelle/internal/loops"
	"noelle/internal/machine"
	"noelle/internal/minic"
	"noelle/internal/passes"
	"noelle/internal/profiler"
	"noelle/internal/tool"
	"noelle/internal/tools/auto"

	// Register every technique planner (doall, dswp, helix).
	_ "noelle/internal/tools"
)

func compile(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := minic.Compile("t", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	passes.Optimize(m)
	return m
}

// runAuto applies the orchestrator with -exec-plans over a fresh manager
// and checks observational equivalence against the original module.
func runAuto(t *testing.T, src string, hot float64) (auto.Result, *ir.Module) {
	t.Helper()
	m := compile(t, src)
	orig := ir.CloneModule(m)
	it0 := interp.New(orig)
	r0, err := it0.Run()
	if err != nil {
		t.Fatalf("original run: %v", err)
	}

	opts := core.DefaultOptions()
	opts.MinHotness = hot
	n := core.New(m, opts)
	res, err := auto.Run(context.Background(), n, tool.Options{ExecutePlans: true})
	if err != nil {
		t.Fatalf("auto: %v", err)
	}
	if err := ir.Verify(m); err != nil {
		t.Fatalf("transformed module malformed: %v\n%s", err, ir.Print(m))
	}

	it1 := interp.New(m)
	r1, err := it1.Run()
	if err != nil {
		t.Fatalf("transformed run: %v\n%s", err, ir.Print(m))
	}
	if r0 != r1 {
		t.Errorf("exit code changed: %d -> %d", r0, r1)
	}
	if it0.Output.String() != it1.Output.String() {
		t.Errorf("output changed: %q -> %q", it0.Output.String(), it1.Output.String())
	}
	if it0.MemoryFingerprint() != it1.MemoryFingerprint() {
		t.Errorf("global memory state changed")
	}
	return res, m
}

const dataParallelSrc = `
int a[512];
int b[512];
int main() {
  int i;
  for (i = 0; i < 512; i = i + 1) { b[i] = (i * 7 + 3) % 4093 + 1; }
  int s = 0;
  for (i = 0; i < 512; i = i + 1) {
    int x = b[i] * b[i] % 65521;
    a[i] = x + b[i] * 3;
    s = s + x % 127;
  }
  print_i64(s);
  return s % 256;
}`

// The recurrence acc = acc*3 + chain(i) is neither an IV nor a
// reduction, so DOALL must reject the loop and the pipelining
// techniques compete for it.
const pipelineSrc = `
int b[512];
int c[512];
int main() {
  int n = 512;
  int i;
  for (i = 0; i < n; i = i + 1) { b[i] = (i * 7 + 3) % 4093 + 1; }
  int acc = 1;
  for (i = 0; i < n; i = i + 1) {
    int x = b[i];
    int t1 = (x * x + i) % 65521;
    int t2 = (t1 * t1 + x) % 32749;
    int t3 = (t2 * t2 + t1) % 16381;
    int t4 = (t3 * t3 + t2) % 8191;
    acc = (acc * 3 + t4) % 65521;
    c[i] = t4 % 127;
  }
  print_i64(acc);
  int s = 0;
  for (i = 0; i < n; i = i + 1) { s = s + c[i]; }
  print_i64(s);
  return (acc + s) % 251;
}`

func selectionFor(res auto.Result, header string) *auto.Selection {
	for i := range res.Selections {
		if strings.Contains(res.Selections[i].Header, header) {
			return &res.Selections[i]
		}
	}
	return nil
}

func TestAutoSelectsDOALLOnDataParallelLoops(t *testing.T) {
	res, m := runAuto(t, dataParallelSrc, 0)
	if got := res.Lowered(); got < 2 {
		t.Fatalf("lowered %d loops, want >= 2; selections: %+v", got, res.Selections)
	}
	for _, s := range res.Selections {
		if s.Winner != "" && s.Winner != "doall" {
			t.Errorf("@%s/%s: winner %q, want doall (why: %s)", s.Fn, s.Header, s.Winner, s.Why)
		}
		if s.Winner != "" && s.Why == "" {
			t.Errorf("@%s/%s: selected without a why-report", s.Fn, s.Header)
		}
	}
	// The lowering really is DOALL's: its generated tasks carry the
	// auto.doall prefix.
	found := false
	for _, f := range m.Functions {
		if strings.HasPrefix(f.Nam, "auto.doall.task") {
			found = true
		}
	}
	if !found {
		t.Error("no auto.doall.task* function generated")
	}
}

func TestAutoSelectsPipelineTechniqueOnRecurrence(t *testing.T) {
	res, _ := runAuto(t, pipelineSrc, 0)
	sel := selectionFor(res, "") // find the recurrence loop by its candidates
	for i := range res.Selections {
		for _, c := range res.Selections[i].Candidates {
			if c.Technique == "doall" && c.Rejection != "" {
				sel = &res.Selections[i]
			}
		}
	}
	if sel == nil {
		t.Fatalf("no selection with a DOALL rejection; selections: %+v", res.Selections)
	}
	if sel.Winner != "dswp" && sel.Winner != "helix" {
		t.Errorf("recurrence loop winner %q, want a pipelining technique (why: %s)", sel.Winner, sel.Why)
	}
	if sel.Winner != "" && !sel.Lowered {
		t.Errorf("winner %q selected but not lowered", sel.Winner)
	}
	// The why-report names every technique's score or rejection.
	for _, tech := range []string{"doall", "dswp", "helix"} {
		if !strings.Contains(sel.Why, tech) {
			t.Errorf("why-report %q does not mention %s", sel.Why, tech)
		}
	}
}

func TestAutoPlanOnlyLeavesModuleUntouched(t *testing.T) {
	m := compile(t, dataParallelSrc)
	before := ir.Print(m)
	n := core.New(m, core.DefaultOptions())
	res, err := auto.Run(context.Background(), n, tool.Options{}) // no ExecutePlans
	if err != nil {
		t.Fatalf("auto: %v", err)
	}
	if res.Selected() == 0 {
		t.Fatalf("predicted no winners; selections: %+v", res.Selections)
	}
	if res.Lowered() != 0 {
		t.Errorf("plan-only run lowered %d loops", res.Lowered())
	}
	if after := ir.Print(m); after != before {
		t.Error("plan-only run mutated the module")
	}
}

func TestAutoHonorsHotnessThreshold(t *testing.T) {
	// One dominant loop, one cheap one: with the profile embedded and a
	// high threshold, only the dominant loop is scored.
	src := `
int a[2048];
int b[16];
int main() {
  int i;
  for (i = 0; i < 16; i = i + 1) { b[i] = i; }
  int s = 0;
  for (i = 0; i < 2048; i = i + 1) {
    s = s + (i * i % 65521) % 127 + (i * 31 % 8191) % 61;
  }
  print_i64(s + b[3]);
  return 0;
}`
	m := compile(t, src)
	prof, err := profiler.Collect(m)
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	prof.Embed()
	opts := core.DefaultOptions()
	opts.MinHotness = 0.5
	n := core.New(m, opts)
	res, err := auto.Run(context.Background(), n, tool.Options{})
	if err != nil {
		t.Fatalf("auto: %v", err)
	}
	if len(res.Selections) != 1 {
		t.Fatalf("scored %d loops, want 1 (the dominant one): %+v", len(res.Selections), res.Selections)
	}
}

// greedyPlanner claims an absurdly fast plan for every loop but can never
// lower it: it breaks the promise a plan makes. The registry is
// process-global, so the planner stays registered after its test;
// greedyEnabled confines its influence to that test.
var greedyEnabled = false

type greedyPlanner struct{}

func (greedyPlanner) Technique() string { return "zz-greedy" }

func (greedyPlanner) PlanLoop(n *core.Noelle, ls *loops.LS, _ tool.Options) (tool.Plan, error) {
	if !greedyEnabled {
		return nil, errDisabled
	}
	return greedyPlan{}, nil
}

var errDisabled = &disabledErr{}

type disabledErr struct{}

func (*disabledErr) Error() string { return "disabled outside its test" }

type greedyPlan struct{}

func (greedyPlan) Technique() string                                { return "zz-greedy" }
func (greedyPlan) Describe() string                                 { return "magic" }
func (greedyPlan) Segments() (map[*ir.Instr]int, int)               { return nil, 1 }
func (greedyPlan) EstimateInvocation(inv *machine.Invocation) int64 { return 1 }
func (greedyPlan) Lower(string) error {
	return errTest
}

var errTest = &lowerErr{}

type lowerErr struct{}

func (*lowerErr) Error() string { return "greedy plans are not realizable" }

// A plan is a promise: when the winning plan's Lower fails anyway, the
// run fails, naming the loop and the planner, instead of searching for a
// second choice the plan-only run would not have made.
func TestAutoFailsWhenAWinningPlanDoesNotLower(t *testing.T) {
	tool.RegisterPlanner(greedyPlanner{})
	greedyEnabled = true
	t.Cleanup(func() { greedyEnabled = false })

	opts := core.DefaultOptions()
	opts.MinHotness = 0
	n := core.New(compile(t, dataParallelSrc), opts)
	first := n.HotLoops()[0]
	_, err := auto.Run(context.Background(), n, tool.Options{ExecutePlans: true})
	if err == nil {
		t.Fatal("auto lowered every loop although the winning plan cannot be lowered")
	}
	for _, want := range []string{"@" + first.Fn.Nam + "/" + first.Header.Nam + ":", "zz-greedy", "not realizable"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

// shiftingPlanner segments a loop differently every time it plans it, so
// no loop's plans match their up-front pricing. Like greedyPlanner it
// stays registered, and answers only inside its test.
var shiftingCalls = 0

type shiftingPlanner struct{}

func (shiftingPlanner) Technique() string { return "zz-shifting" }

func (shiftingPlanner) PlanLoop(*core.Noelle, *loops.LS, tool.Options) (tool.Plan, error) {
	if shiftingCalls == 0 {
		return nil, errDisabled
	}
	shiftingCalls++
	return shiftingPlan(shiftingCalls), nil
}

type shiftingPlan int

func (shiftingPlan) Technique() string                                { return "zz-shifting" }
func (shiftingPlan) Describe() string                                 { return "shifting" }
func (p shiftingPlan) Segments() (map[*ir.Instr]int, int)             { return nil, int(p) }
func (shiftingPlan) EstimateInvocation(inv *machine.Invocation) int64 { return inv.TotalCycles() }
func (shiftingPlan) Lower(string) error                               { return errTest }

// A loop whose plans changed after the up-front pricing is priced alone,
// counted, and its why-line says so.
func TestAutoRepricesLoopsWhosePlansChanged(t *testing.T) {
	tool.RegisterPlanner(shiftingPlanner{})
	shiftingCalls = 1
	t.Cleanup(func() { shiftingCalls = 0 })

	opts := core.DefaultOptions()
	opts.MinHotness = 0
	res, err := auto.Run(context.Background(), core.New(compile(t, dataParallelSrc), opts), tool.Options{})
	if err != nil {
		t.Fatalf("auto: %v", err)
	}
	n := len(res.Selections)
	if n == 0 || res.PriceMisses != n || res.TrainingRuns != n+1 {
		t.Fatalf("%d loops, %d price misses, %d training runs; want every loop missed and one run each after the first", n, res.PriceMisses, res.TrainingRuns)
	}
	for _, s := range res.Selections {
		if !strings.HasSuffix(s.Why, "re-priced alone: its plans changed after the up-front pricing") {
			t.Errorf("@%s/%s: why-line %q does not say it was re-priced", s.Fn, s.Header, s.Why)
		}
	}
	if m := auto.Report(res, tool.Options{}).Metrics; m["price_misses"] != int64(n) || m["training_runs"] != int64(n+1) {
		t.Errorf("report metrics %v", m)
	}
}

// When no planner produces a plan the why-line must still say why: every
// technique's rejection, in the selection and in the rendered report
// (a bare "no technique produced a plan" at the parent).
func TestAutoReportsEveryRejectionWhenNothingPlans(t *testing.T) {
	m := compile(t, `
int a[64];
int main() {
  int i = 0;
  int s = 0;
  for (i = 0; a[i] > 0; i = i + 1) { s = s + a[i]; }
  print_i64(s);
  return 0;
}`)
	opts := core.DefaultOptions()
	opts.MinHotness, opts.Cores = 0, 1 // one core: DSWP has nothing to pipeline onto
	res, err := auto.Run(context.Background(), core.New(m, opts), tool.Options{})
	if err != nil {
		t.Fatalf("auto: %v", err)
	}
	if len(res.Selections) != 1 || res.Selections[0].Winner != "" {
		t.Fatalf("want one unselected loop, got %+v", res.Selections)
	}
	detail := strings.Join(auto.Report(res, tool.Options{}).Detail, "\n")
	for _, c := range res.Selections[0].Candidates {
		if c.Rejection == "" {
			t.Fatalf("%s planned the loop; the fixture no longer defeats every technique", c.Technique)
		}
		want := c.Technique + " rejected: " + c.Rejection
		if !strings.Contains(res.Selections[0].Why, want) {
			t.Errorf("why-line %q drops %q", res.Selections[0].Why, want)
		}
		if !strings.Contains(detail, want) {
			t.Errorf("report drops %q:\n%s", want, detail)
		}
	}
}

// auto -exec-plans lowers through the techniques' mechanisms, so its
// "abstractions requested" line must name them (it named none of ENV, T,
// IVS, LB at the parent, where only the standalone tools' Run declared
// them).
func TestAutoLoweringDeclaresItsMechanisms(t *testing.T) {
	autoTool, ok := tool.Lookup("auto")
	if !ok {
		t.Fatal("auto not registered")
	}
	requested := map[core.Abstraction]bool{}
	for _, src := range []string{dataParallelSrc, pipelineSrc} {
		opts := core.DefaultOptions()
		opts.MinHotness = 0
		rep, err := tool.Run(context.Background(), autoTool, core.New(compile(t, src), opts), tool.Options{ExecutePlans: true})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Metrics["lowered"] == 0 {
			t.Fatalf("nothing lowered: %s", rep.Summary)
		}
		for _, a := range rep.Abstractions {
			requested[a] = true
		}
	}
	for _, a := range []core.Abstraction{core.AbsENV, core.AbsTask, core.AbsLB, core.AbsIVS} {
		if !requested[a] {
			t.Errorf("lowering runs never requested %s", a)
		}
	}
}

// TestPlanningIsReadOnly: a competing run plans every loop under a hot
// root before lowering any, and prices the module those plans saw, so no
// planner may change the module.
func TestPlanningIsReadOnly(t *testing.T) {
	opts := core.DefaultOptions()
	opts.MinHotness = 0
	loopsPlanned := 0
	if err := fuzz.Subjects(150, func(name string, m *ir.Module) {
		before := ir.Print(m)
		n := core.New(m, opts)
		for _, f := range m.Functions {
			for _, ls := range n.LoopStructures(f) {
				for _, p := range tool.Planners() {
					if _, err := p.PlanLoop(n, ls, tool.DefaultOptions()); err == nil {
						loopsPlanned++
					}
				}
			}
		}
		if ir.Print(m) != before {
			t.Errorf("%s: planning its loops changed the module", name)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if loopsPlanned == 0 {
		t.Fatal("no planner planned any loop")
	}
}

// TestCorpusTrainsOnce: on every corpus program, profiled, at 2 and 12
// cores with lowering on, one training run prices every loop auto scores,
// none is priced again, and each candidate's Seq/Par is what pricing that
// loop alone on the untransformed program gives.
func TestCorpusTrainsOnce(t *testing.T) {
	profiled := func(b bench.Benchmark) *ir.Module {
		m, err := b.Compile()
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
	scored := 0
	for _, b := range bench.List() {
		for _, cores := range []int{2, 12} {
			opts := core.DefaultOptions()
			opts.Cores = cores
			topts := tool.DefaultOptions()
			topts.ExecutePlans = true
			res, err := auto.Run(context.Background(), core.New(profiled(b), opts), topts)
			if err != nil {
				t.Fatalf("%s at %d cores: %v", b.Name, cores, err)
			}
			orig := profiled(b)
			n0 := core.New(orig, opts)
			priced := false
			for _, s := range res.Selections {
				var cands []auto.Candidate
				for _, c := range s.Candidates {
					if c.Rejection == "" {
						cands = append(cands, c)
					}
				}
				if len(cands) == 0 {
					continue
				}
				priced = true
				var ls *loops.LS
				for _, l := range n0.LoopStructures(orig.FunctionByName(s.Fn)) {
					if l.Header.Nam == s.Header {
						ls = l
					}
				}
				if ls == nil {
					t.Fatalf("%s: no @%s/%s in the untransformed program", b.Name, s.Fn, s.Header)
				}
				var plans []tool.Plan
				var specs []machine.SegSpec
				for _, c := range cands {
					p, _ := tool.LookupPlanner(c.Technique)
					plan, err := p.PlanLoop(n0, ls, topts)
					if err != nil {
						t.Fatalf("%s @%s/%s: %s planned it in the run but not alone: %v", b.Name, s.Fn, s.Header, c.Technique, err)
					}
					segOf, numSegs := plan.Segments()
					plans, specs = append(plans, plan), append(specs, machine.SegSpec{SegmentOf: segOf, NumSegs: numSegs})
				}
				rows, err := machine.AttributeLoops(orig, []machine.LoopSpecs{{Loop: ls.Nat, Specs: specs}})
				if err != nil {
					t.Fatal(err)
				}
				if len(rows[0][0]) == 0 {
					continue // not executed: nothing was scored
				}
				for i, c := range cands {
					seq, par := machine.SequentialCycles(rows[0][i]), machine.SimulateAll(rows[0][i], plans[i].EstimateInvocation)
					if c.Seq != seq || c.Par != par {
						t.Errorf("%s at %d cores @%s/%s %s: Seq/Par %d/%d, priced alone on the untransformed program %d/%d",
							b.Name, cores, s.Fn, s.Header, c.Technique, c.Seq, c.Par, seq, par)
					}
				}
				scored++
			}
			if want := map[bool]int{true: 1}[priced]; res.TrainingRuns != want || res.PriceMisses != 0 {
				t.Errorf("%s at %d cores: %d training runs, %d price misses; want %d and 0",
					b.Name, cores, res.TrainingRuns, res.PriceMisses, want)
			}
		}
	}
	t.Logf("%d loops scored over the corpus at 2 and 12 cores", scored)
	if scored < 100 {
		t.Errorf("only %d loops scored over the corpus", scored)
	}
}
