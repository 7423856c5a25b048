// registry_test exercises the uniform Tool API end to end: every
// registered tool runs over a shared fixture and must produce a
// well-formed Report, and the pipeline runner must invalidate cached
// abstractions between transforming stages.
package tools_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"noelle/internal/core"
	"noelle/internal/ir"
	"noelle/internal/tool"
)

// registryFixture gives every tool real work: loops to hoist from and
// parallelize, PRVGs to swap, float/int compares to canonicalize, and an
// unreachable function to delete.
const registryFixture = `
int table[128];
int st[2];
int scale = 3;
float fs[32];

int prvg_lcg_next(int *s) {
  s[0] = (s[0] * 1103515245 + 12345) % 2147483647;
  if (s[0] < 0) { s[0] = 0 - s[0]; }
  return s[0];
}
int prvg_mt_next(int *s) {
  int x = s[0];
  int k;
  for (k = 0; k < 12; k = k + 1) {
    x = (x * 69069 + 362437) % 2147483647;
    if (x < 0) { x = 0 - x; }
  }
  s[0] = x;
  return x;
}
int never_called(int x) { return x * 2; }
int kernel(int n) {
  int i;
  int acc = 0;
  for (i = 0; i < n; i = i + 1) {
    int k = scale * 7 + 3;
    table[i % 128] = k + i;
    acc = acc + table[i % 128];
  }
  return acc;
}
int classify(int v, float g) {
  int r = 0;
  if (3 < v) { r = 1; }
  if (g * 2.5 > 10.0) { r = r + 1; }
  return r;
}
int main() {
  st[0] = 7;
  int i;
  int acc = kernel(300);
  for (i = 0; i < 64; i = i + 1) {
    fs[i % 32] = (float)i * 0.25;
    acc = acc + prvg_mt_next(&st[0]) % 10 + classify(i, fs[i % 32]);
  }
  print_i64(acc % 1000);
  return acc % 256;
}`

// expectedTools is the full custom-tool inventory (paper Table 3), plus
// the auto orchestrator that composes the parallelizers (Sections 4–5).
var expectedTools = []string{
	"auto", "carat", "coos", "dead", "doall", "dswp",
	"helix", "licm", "perspective", "prvj", "timesq",
}

func TestRegistryHasEveryTool(t *testing.T) {
	names := tool.Names()
	got := map[string]bool{}
	for _, n := range names {
		got[n] = true
	}
	for _, want := range expectedTools {
		if !got[want] {
			t.Errorf("tool %q not registered (have %v)", want, names)
		}
	}
	if len(names) != len(expectedTools) {
		t.Errorf("registered %d tools, want %d: %v", len(names), len(expectedTools), names)
	}
	// Every planner must be able to lower what it plans.
	if got := fmt.Sprint(tool.PlannerNames()); got != "[doall dswp helix]" {
		t.Errorf("registered planners %s, want [doall dswp helix]", got)
	}
}

// TestEveryRegisteredToolReportsWellFormed runs each registered tool over
// the shared fixture and checks the uniform Report contract.
func TestEveryRegisteredToolReportsWellFormed(t *testing.T) {
	for _, tl := range tool.Tools() {
		t.Run(tl.Name(), func(t *testing.T) {
			m := compile(t, registryFixture)
			n := newN(m)
			rep, err := tool.Run(context.Background(), tl, n, tool.DefaultOptions())
			if err != nil {
				t.Fatalf("%s: %v", tl.Name(), err)
			}
			if rep.Tool != tl.Name() {
				t.Errorf("Report.Tool = %q, want %q", rep.Tool, tl.Name())
			}
			if rep.Summary == "" {
				t.Error("Report.Summary is empty")
			}
			if rep.Metrics == nil {
				t.Error("Report.Metrics is nil")
			}
			if len(rep.Abstractions) == 0 {
				t.Error("Report.Abstractions is empty: the tool requested nothing from the manager")
			}
			if tl.Describe() == "" {
				t.Error("Describe() is empty")
			}
			if tl.Transforms() {
				if err := ir.Verify(m); err != nil {
					t.Errorf("transforming tool left a malformed module: %v", err)
				}
			}
		})
	}
}

// TestPipelineInvalidatesBetweenTransformingStages checks the pipeline
// contract: after a transforming stage, previously cached abstractions
// are re-derived rather than served stale.
func TestPipelineInvalidatesBetweenTransformingStages(t *testing.T) {
	m := compile(t, registryFixture)
	n := newN(m)
	mainFn := m.FunctionByName("main")
	if mainFn == nil {
		t.Fatal("fixture has no main")
	}
	before := n.FunctionPDG(mainFn)

	reports, stats, err := tool.RunPipeline(context.Background(), n, []string{"licm", "dead"}, tool.DefaultOptions())
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	if len(reports) != 2 {
		t.Fatalf("got %d reports, want 2", len(reports))
	}
	if reports[0].Tool != "licm" || reports[1].Tool != "dead" {
		t.Fatalf("report order = %s,%s", reports[0].Tool, reports[1].Tool)
	}
	// Both stages transform, so both were re-verified (and found clean).
	if stats.Stages != 2 || stats.Checked == 0 {
		t.Errorf("verifier stats = %q, want 2 stages over a nonzero function count", stats)
	}
	if got := stats.String(); !strings.Contains(got, "findings: quick=0") {
		t.Errorf("verifier stats footer %q does not report zero findings", got)
	}
	// licm transforms, so dead must have seen freshly derived
	// abstractions; and the manager must not serve the pre-pipeline PDG.
	after := n.FunctionPDG(mainFn)
	if after == before {
		t.Error("pipeline did not invalidate the cached PDG after a transforming stage")
	}
	// dead ran after licm: the fixture's unreachable function is gone.
	if m.FunctionByName("never_called") != nil {
		t.Error("pipeline's dead stage did not remove never_called")
	}
	// Per-stage request tracking stays separate: licm never asks for the
	// call graph, dead always does.
	usedCG := func(rep tool.Report) bool {
		for _, a := range rep.Abstractions {
			if a == core.AbsCG {
				return true
			}
		}
		return false
	}
	if usedCG(reports[0]) {
		t.Error("licm's report claims the call graph (request log leaked across stages)")
	}
	if !usedCG(reports[1]) {
		t.Error("dead's report is missing the call graph")
	}
}

// TestPipelinePrecomputeAndEquivalence runs a three-stage pipeline with
// the parallel PDG precompute on and checks observable behavior is
// unchanged.
func TestPipelinePrecomputeAndEquivalence(t *testing.T) {
	m := compile(t, registryFixture)
	r0, o0, _ := run(t, ir.CloneModule(m))
	n := newN(m)
	opts := tool.DefaultOptions()
	opts.PrecomputeWorkers = 8
	if _, _, err := tool.RunPipeline(context.Background(), n, []string{"licm", "dead", "carat"}, opts); err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	if err := ir.Verify(m); err != nil {
		t.Fatalf("pipeline corrupted the module: %v", err)
	}
	r1, o1, _ := run(t, m)
	if r0 != r1 || o0 != o1 {
		t.Fatalf("pipeline changed semantics: (%d,%q) -> (%d,%q)", r0, o0, r1, o1)
	}
}

// TestPipelineVerifyTier: the pipeline accepts every spelled tier, runs
// the deepest one over transformed modules, and rejects unknown tiers
// before any stage runs.
func TestPipelineVerifyTier(t *testing.T) {
	m := compile(t, registryFixture)
	n := newN(m)
	opts := tool.DefaultOptions()
	opts.VerifyTier = "comm"
	_, stats, err := tool.RunPipeline(context.Background(), n, []string{"licm"}, opts)
	if err != nil {
		t.Fatalf("comm-tier pipeline: %v", err)
	}
	if stats.Tier.String() != "comm" || stats.Stages != 1 {
		t.Errorf("verifier stats = %q, want one comm-tier stage", stats)
	}

	opts.VerifyTier = "paranoid"
	if _, _, err := tool.RunPipeline(context.Background(), n, []string{"licm"}, opts); err == nil {
		t.Fatal("pipeline accepted an unknown verification tier")
	}
}

func TestPipelineUnknownToolFails(t *testing.T) {
	m := compile(t, registryFixture)
	n := newN(m)
	if _, _, err := tool.RunPipeline(context.Background(), n, []string{"licm", "nope"}, tool.DefaultOptions()); err == nil {
		t.Fatal("pipeline accepted an unknown tool")
	}
}

// TestPipelineRefusesCoreCounts: a core count outside [1, core.MaxCores]
// is refused before any stage runs: with zero cores DOALL's product
// prints zeros, HELIX's divides by zero and auto panics, and thousands of
// cores take seconds to lower a handful of loops.
func TestPipelineRefusesCoreCounts(t *testing.T) {
	for _, cores := range []int{0, -1, core.MaxCores + 1} {
		m := compile(t, registryFixture)
		before := ir.Print(m)
		opts := core.DefaultOptions()
		opts.Cores = cores
		topts := tool.DefaultOptions()
		topts.ExecutePlans = true
		reps, _, err := tool.RunPipeline(context.Background(), core.New(m, opts), []string{"doall", "helix", "auto"}, topts)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("cores %d outside [1, %d]", cores, core.MaxCores)) {
			t.Errorf("cores %d: error %v, want the core count refused", cores, err)
		}
		if len(reps) != 0 || ir.Print(m) != before {
			t.Errorf("cores %d: %d stages ran before the refusal", cores, len(reps))
		}
	}
}

func TestPipelineCancelledContext(t *testing.T) {
	m := compile(t, registryFixture)
	n := newN(m)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := tool.RunPipeline(ctx, n, []string{"licm"}, tool.DefaultOptions()); err == nil {
		t.Fatal("pipeline ignored a cancelled context")
	}
}
