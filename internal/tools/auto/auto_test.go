package auto_test

import (
	"context"
	"strings"
	"testing"

	"noelle/internal/core"
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
// lower it: the orchestrator must fall back to the best real technique.
// The registry is process-global, so the planner stays registered after
// its test; greedyEnabled confines its influence to that test.
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

func TestAutoFallsBackWhenWinnerCannotLower(t *testing.T) {
	tool.RegisterPlanner(greedyPlanner{})
	greedyEnabled = true
	t.Cleanup(func() { greedyEnabled = false })

	res, _ := runAuto(t, dataParallelSrc, 0)
	fellBack := false
	for _, s := range res.Selections {
		if s.Winner == "" {
			continue
		}
		if s.Winner == "zz-greedy" {
			t.Errorf("@%s/%s: unlowerable planner won", s.Fn, s.Header)
		}
		for _, fb := range s.Fallbacks {
			if strings.Contains(fb, "zz-greedy") && strings.Contains(fb, "not realizable") {
				fellBack = true
			}
		}
	}
	if !fellBack {
		t.Errorf("no selection recorded a fallback from the greedy planner: %+v", res.Selections)
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
