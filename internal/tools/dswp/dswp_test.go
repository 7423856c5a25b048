package dswp_test

import (
	"context"
	"slices"
	"strings"
	"testing"

	"noelle/internal/bench"
	"noelle/internal/core"
	"noelle/internal/interp"
	"noelle/internal/ir"
	"noelle/internal/minic"
	"noelle/internal/passes"
	"noelle/internal/profiler"
	"noelle/internal/tool"
	"noelle/internal/tools/auto"
	"noelle/internal/tools/dswp"
	"noelle/internal/verify"
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

func newN(t *testing.T, m *ir.Module, cores int) *core.Noelle {
	t.Helper()
	opts := core.DefaultOptions()
	opts.MinHotness = 0 // consider every loop
	opts.Cores = cores
	return core.New(m, opts)
}

// pipelineSrc has one hot loop with a long Independent chain feeding a
// Sequential accumulator (the modulus defeats reduction recognition), so
// DSWP has real stages to balance and a genuinely serial tail.
const pipelineSrc = `
int b[96];
int c[96];
int main() {
  int i;
  for (i = 0; i < 96; i = i + 1) { b[i] = i * 7 + 3; }
  int acc = 0;
  for (i = 0; i < 96; i = i + 1) {
    int x = b[i] * 3 + i;
    int y = x * x + 11;
    int z = (y + x) * 5 + 1;
    int w = z * z + y;
    acc = (acc + w) % 9973;
    c[i] = w % 127;
  }
  int s = 0;
  for (i = 0; i < 96; i = i + 1) { s = s + c[i]; }
  print_i64(acc);
  print_i64(s);
  return (acc + s) % 251;
}`

// runDSWP is the loop-parallelization driver pinned to DSWP: plan-only,
// or lowering every plan it can when lower is set.
func runDSWP(t *testing.T, n *core.Noelle, lower bool) auto.Result {
	t.Helper()
	res, err := auto.RunPinned(context.Background(), n, tool.Options{ExecutePlans: lower}, "dswp")
	if err != nil {
		t.Fatalf("dswp: %v", err)
	}
	return res
}

// plans lists the DSWP plans of a pinned run, in visiting order.
func plans(res auto.Result) []*dswp.Plan {
	var out []*dswp.Plan
	for _, s := range res.Selections {
		if p := s.Candidates[0].Plan; p != nil {
			out = append(out, p.(*dswp.Plan))
		}
	}
	return out
}

// notLowered lists the planner's refusals as "technique: reason", one per
// visited loop it did not plan (a plan it returns is one it can lower).
func notLowered(res auto.Result) []string {
	var out []string
	for _, s := range res.Selections {
		if c := s.Candidates[0]; c.Rejection != "" {
			out = append(out, c.Technique+": "+c.Rejection)
		}
	}
	return out
}

// ---------- planner ----------

func planFirst(t *testing.T, src string, cores int) (*core.Noelle, *dswp.Plan) {
	t.Helper()
	m := compile(t, src)
	n := newN(t, m, cores)
	res := runDSWP(t, n, false)
	if len(plans(res)) == 0 {
		t.Fatalf("planned nothing (rejections: %v)", res.Rejections)
	}
	// The heaviest planned loop is the pipeline loop.
	best := plans(res)[0]
	for _, p := range plans(res) {
		if len(p.SegmentOf) > len(best.SegmentOf) {
			best = p
		}
	}
	return n, best
}

func stageWeights(p *dswp.Plan) []int64 {
	w := make([]int64, p.NumStages)
	for in, s := range p.SegmentOf {
		w[s] += interp.Cost(in)
	}
	return w
}

func TestPlanBalancesSkewedSCCCosts(t *testing.T) {
	// Heavy SCCs up front (division costs 24x an add), light tail: the
	// greedy packer must still spread work across both stages instead of
	// packing everything into stage 0.
	src := `
int a[64];
int b[64];
int main() {
  int i;
  for (i = 0; i < 64; i = i + 1) { a[i] = i + 1; }
  int acc = 0;
  for (i = 0; i < 64; i = i + 1) {
    int h1 = a[i] / 3;
    int h2 = h1 / 5 + a[i];
    int l1 = h2 + 1;
    int l2 = l1 + i;
    acc = (acc + l2) % 1009;
  }
  print_i64(acc);
  return 0;
}`
	_, p := planFirst(t, src, 2)
	if p.NumStages != 2 {
		t.Fatalf("NumStages = %d, want 2", p.NumStages)
	}
	w := stageWeights(p)
	for s, ws := range w {
		if ws == 0 {
			t.Errorf("stage %d is empty", s)
		}
	}
	// Both stages carry a meaningful share: the heavier never exceeds
	// ~4x the lighter (the divisions alone would be 10x+ the tail if the
	// packer ignored cost).
	hi, lo := w[0], w[1]
	if lo > hi {
		hi, lo = lo, hi
	}
	if lo*4 < hi {
		t.Errorf("stages badly unbalanced: weights %v", w)
	}
}

func TestPlanCoresExceedingSCCsClampStages(t *testing.T) {
	_, p := planFirst(t, pipelineSrc, 64)
	// Stages can never exceed the SCC count; with cores > len(order)
	// every SCC gets its own stage, exercising the forced advance when
	// nodesLeft == stagesLeft.
	sccs := map[int]bool{}
	for _, s := range p.SegmentOf {
		sccs[s] = true
	}
	if p.NumStages != len(sccs) {
		t.Errorf("NumStages = %d but %d distinct stages used", p.NumStages, len(sccs))
	}
	w := stageWeights(p)
	for s, ws := range w {
		if ws == 0 {
			t.Errorf("stage %d is empty (forced advance failed)", s)
		}
	}
}

func TestPlanForcedAdvanceKeepsTrailingStagesFed(t *testing.T) {
	// One dominant SCC followed by tiny ones: without the forced advance
	// (nodesLeft == stagesLeft) the big SCC would absorb the target for
	// every stage and the trailing stages would starve.
	src := `
int a[64];
int main() {
  int i;
  int acc = 0;
  for (i = 0; i < 64; i = i + 1) {
    int h = (a[i] / 3) / 5;
    int t1 = h + 1;
    acc = (acc + t1) % 601;
  }
  print_i64(acc);
  return 0;
}`
	_, p := planFirst(t, src, 3)
	w := stageWeights(p)
	if len(w) < 2 {
		t.Fatalf("NumStages = %d, want >= 2", len(w))
	}
	for s, ws := range w {
		if ws == 0 {
			t.Errorf("stage %d starved: weights %v", s, w)
		}
	}
}

func TestPlanRejectionReasons(t *testing.T) {
	m := compile(t, pipelineSrc)
	n := newN(t, m, 1) // one core: nothing can pipeline
	res := runDSWP(t, n, false)
	if len(plans(res)) != 0 {
		t.Fatalf("planned %d loops on one core", len(plans(res)))
	}
	if len(res.Rejections) == 0 {
		t.Fatal("no rejection reasons recorded")
	}
	for _, rej := range res.Rejections {
		if rej.Fn == "" || rej.Header == "" || rej.Reason == "" {
			t.Errorf("incomplete rejection record: %+v", rej)
		}
		if !strings.Contains(rej.Reason, "cores") {
			t.Errorf("reason %q does not explain the core count", rej.Reason)
		}
	}
}

// ---------- executable lowering ----------

// runLowered compiles src, runs the original, lowers DSWP plans to queue
// pipelines, and checks the transformed module is observationally
// identical under both dispatch modes.
func runLowered(t *testing.T, src string, cores, wantLowered int) auto.Result {
	t.Helper()
	m := compile(t, src)
	orig := ir.CloneModule(m)
	it0 := interp.New(orig)
	r0, err := it0.Run()
	if err != nil {
		t.Fatalf("original run: %v", err)
	}

	n := newN(t, m, cores)
	res := runDSWP(t, n, true)
	if res.Lowered() != wantLowered {
		t.Fatalf("lowered %d loops, want %d (not lowered: %v)\n%s",
			res.Lowered(), wantLowered, notLowered(res), ir.Print(m))
	}
	if err := ir.Verify(m); err != nil {
		t.Fatalf("transformed module malformed: %v\n%s", err, ir.Print(m))
	}

	run := func(seq bool) *interp.Interp {
		it := interp.New(m)
		it.SeqDispatch = seq
		r, err := it.Run()
		if err != nil {
			t.Fatalf("transformed run (seq=%v): %v\n%s", seq, err, ir.Print(m))
		}
		if r != r0 {
			t.Errorf("exit code changed (seq=%v): %d -> %d", seq, r0, r)
		}
		return it
	}
	seqIt := run(true)
	parIt := run(false)
	if it0.Output.String() != seqIt.Output.String() {
		t.Errorf("output changed: %q -> %q", it0.Output.String(), seqIt.Output.String())
	}
	if seqIt.Output.String() != parIt.Output.String() {
		t.Errorf("seq/par output diverged: %q vs %q", seqIt.Output.String(), parIt.Output.String())
	}
	if it0.MemoryFingerprint() != seqIt.MemoryFingerprint() {
		t.Error("global memory state changed vs original")
	}
	if seqIt.MemoryFingerprint() != parIt.MemoryFingerprint() {
		t.Error("seq/par memory fingerprints diverged")
	}
	if seqIt.Steps != parIt.Steps || seqIt.Cycles != parIt.Cycles {
		t.Errorf("seq/par counters diverged: (%d steps, %d cycles) vs (%d, %d)",
			seqIt.Steps, seqIt.Cycles, parIt.Steps, parIt.Cycles)
	}
	// The lowered pipeline really communicates through queues.
	if _, pushes, pops, _, _ := parIt.CommStats(); pushes == 0 || pushes != pops {
		t.Errorf("queue traffic unbalanced: %d pushes, %d pops", pushes, pops)
	}
	return res
}

func TestLowerPipelineWithSequentialTail(t *testing.T) {
	res := runLowered(t, pipelineSrc, 3, 3)
	for _, s := range res.Selections {
		if stages := s.Candidates[0].Plan.(*dswp.Plan).NumStages; s.Lowered && stages < 2 {
			t.Errorf("lowered %s with %d stages", s.TaskName, stages)
		}
	}
}

func TestLowerReductionConfinedToOneStage(t *testing.T) {
	// A recognizable reduction (s += expr) stays an SSA cycle inside one
	// stage — no privatization needed, the final value flows out through
	// an environment cell.
	runLowered(t, `
int a[80];
int main() {
  int i;
  for (i = 0; i < 80; i = i + 1) { a[i] = i * 3 + 1; }
  int s = 0;
  for (i = 0; i < 80; i = i + 1) {
    int x = a[i] * a[i] + i;
    int y = x * 7 + 2;
    s = s + y;
  }
  print_i64(s);
  return s % 200;
}`, 2, 2)
}

func TestLowerTwoCrossStageValues(t *testing.T) {
	// Both x and w cross stage boundaries into the serial tail, giving
	// multiple value queues per boundary.
	runLowered(t, `
int b[64];
int c[64];
int main() {
  int i;
  for (i = 0; i < 64; i = i + 1) { b[i] = i + 2; }
  int acc = 0;
  int sum = 0;
  for (i = 0; i < 64; i = i + 1) {
    int x = b[i] * b[i] + 1;
    int w = x * 3 + b[i];
    acc = (acc + x) % 677;
    sum = (sum + w) % 911;
    c[i] = x + w;
  }
  print_i64(acc);
  print_i64(sum);
  int s2 = 0;
  for (i = 0; i < 64; i = i + 1) { s2 = s2 + c[i]; }
  print_i64(s2);
  return 0;
}`, 3, 3)
}

func TestLowerRejectsCallsInLoop(t *testing.T) {
	m := compile(t, `
int a[64];
int helper(int v) { return v * 2 + 1; }
int main() {
  int i;
  int acc = 0;
  for (i = 0; i < 64; i = i + 1) {
    int x = helper(i) + i * 3;
    int y = x * x;
    acc = (acc + y) % 811;
  }
  print_i64(acc);
  return 0;
}`)
	n := newN(t, m, 2)
	res := runDSWP(t, n, true)
	found := false
	for _, reason := range notLowered(res) {
		if strings.Contains(reason, "call") {
			found = true
		}
	}
	if !found || res.Lowered() != 0 {
		t.Errorf("loop with a call was lowered or mis-reported: lowered=%d notLowered=%v",
			res.Lowered(), notLowered(res))
	}
}

// The queue capacity must not change results, only backpressure: one
// lowering, run at capacities from one value to many chunks.
func TestLowerQueueCapacityInvariance(t *testing.T) {
	m := compile(t, pipelineSrc)
	if res := runDSWP(t, newN(t, m, 3), true); res.Lowered() == 0 {
		t.Fatal("nothing lowered")
	}
	var outputs []string
	for _, cap := range []int{1, 4, 4096} {
		it := interp.New(m)
		it.QueueCap = cap
		if _, err := it.Run(); err != nil {
			t.Fatalf("cap=%d: %v", cap, err)
		}
		outputs = append(outputs, it.Output.String())
	}
	for i := 1; i < len(outputs); i++ {
		if outputs[i] != outputs[0] {
			t.Errorf("output varies with queue capacity: %q vs %q", outputs[0], outputs[i])
		}
	}
}

// pipelines returns the protocol records of m's DSWP lowerings.
func pipelines(t *testing.T, m *ir.Module) []*verify.Protocol {
	t.Helper()
	var out []*verify.Protocol
	for _, l := range verify.Lowerings(m) {
		if l.Err != nil {
			t.Fatal(l.Err)
		}
		if l.Proto.Technique == verify.DSWP {
			out = append(out, l.Proto)
		}
	}
	if len(out) == 0 {
		t.Fatal("lowered module has no DSWP pipeline")
	}
	return out
}

// queues counts the token (or value) queues m's pipelines create.
func queues(t *testing.T, m *ir.Module, token bool) int {
	t.Helper()
	n := 0
	for _, p := range pipelines(t, m) {
		for _, q := range p.Queues {
			if q.Token == token {
				n++
			}
		}
	}
	return n
}

// TestNoTokenQueueWithoutMemoryDependence: the bundled pipeline program's
// stages depend on each other through registers only, which the value
// queues order. Its lowering must carry no token queue — a token per
// iteration per stage pair that nothing consumes for ordering was a fifth
// of the program's queue traffic — and still pass the comm tier, whose
// coverage check asks for token links only under a recorded dependence.
func TestNoTokenQueueWithoutMemoryDependence(t *testing.T) {
	m, err := bench.PipelineProgram(256)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := profiler.Collect(m)
	if err != nil {
		t.Fatal(err)
	}
	prof.Embed()
	opts := core.DefaultOptions()
	opts.MinHotness, opts.Cores = 0.2, 3
	res := runDSWP(t, core.New(m, opts), true)
	if res.Lowered() == 0 {
		t.Fatalf("nothing lowered (not lowered: %v, rejections: %v)", notLowered(res), res.Rejections)
	}
	for _, p := range pipelines(t, m) {
		if len(p.MemDeps) != 0 {
			t.Fatalf("pipeline program recorded cross-stage memory dependences %v", p.MemDeps)
		}
	}
	if n := queues(t, m, true); n != 0 {
		t.Errorf("lowering creates %d token queues, want none", n)
	}
	if err := verify.Module(m, verify.TierComm).Err(); err != nil {
		t.Errorf("lowering without token queues is not comm-clean: %v", err)
	}
}

// TestTokenChainKeptForCrossStageStoreLoad: stage 0 stores c[i], stage 1
// loads it back in the same iteration. That dependence has no queue of
// its own, so the lowering must record it and keep the token link across
// the cut; the comm tier accepts it, and the runs (seq and parallel, the
// latter under -race in CI) see every store before its load.
func TestTokenChainKeptForCrossStageStoreLoad(t *testing.T) {
	const src = `
int b[96];
int c[96];
int main() {
  int i;
  for (i = 0; i < 96; i = i + 1) { b[i] = i * 7 + 3; }
  int acc = 0;
  for (i = 0; i < 96; i = i + 1) {
    int x = b[i] * 3 + i;
    x = x * x + 11;
    x = x * x + 12;
    x = x * x + 13;
    c[i] = x;
    acc = (acc + c[i]) % 9973;
  }
  print_i64(acc);
  return acc % 251;
}`
	runLowered(t, src, 2, 2)
	// runLowered keeps its module to itself; lower once more to look at it.
	m := compile(t, src)
	runDSWP(t, newN(t, m, 2), true)
	var chained int
	for _, p := range pipelines(t, m) {
		if slices.Equal(p.MemDeps, [][2]int{{0, 1}}) {
			chained++
		} else if len(p.MemDeps) != 0 {
			t.Errorf("unexpected memdeps %v", p.MemDeps)
		}
	}
	if chained != 1 {
		t.Fatalf("%d pipelines record the store->load dependence 0>1, want the one that has it (the planner no longer cuts between the store and the load?)", chained)
	}
	if n := queues(t, m, true); n != 1 {
		t.Errorf("lowering creates %d token queues, want the one link 0>1", n)
	}
	if err := verify.Module(m, verify.TierComm).Err(); err != nil {
		t.Errorf("lowering is not comm-clean: %v", err)
	}
}
