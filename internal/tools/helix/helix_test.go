package helix_test

import (
	"context"
	"strings"
	"testing"

	"noelle/internal/core"
	"noelle/internal/interp"
	"noelle/internal/ir"
	"noelle/internal/irtext"
	"noelle/internal/minic"
	"noelle/internal/passes"
	"noelle/internal/tool"
	"noelle/internal/tools/auto"
	"noelle/internal/tools/helix"
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

func newN(t *testing.T, m *ir.Module) *core.Noelle {
	t.Helper()
	opts := core.DefaultOptions()
	opts.MinHotness = 0 // consider every loop
	return core.New(m, opts)
}

// carriedSrc has an order-sensitive SSA recurrence (acc = acc*3 + x mod
// M is not reorderable) threaded through a heavy parallel portion — the
// canonical HELIX shape: one sequential segment, lots of overlap.
const carriedSrc = `
int a[72];
int c[72];
int main() {
  int i;
  for (i = 0; i < 72; i = i + 1) { a[i] = i * 5 + 2; }
  int acc = 1;
  for (i = 0; i < 72; i = i + 1) {
    int x = a[i] * a[i] + i;
    int y = x * 3 + 7;
    acc = (acc * 3 + y) % 4093;
    c[i] = y % 101;
  }
  int s = 0;
  for (i = 0; i < 72; i = i + 1) { s = s + c[i]; }
  print_i64(acc);
  print_i64(s);
  return (acc + s) % 251;
}`

// runHELIX is the loop-parallelization driver pinned to HELIX (without
// the helix tool's SCD pre-pass): plan-only, or lowering every plan it
// can when lower is set.
func runHELIX(t *testing.T, n *core.Noelle, lower bool) auto.Result {
	t.Helper()
	res, err := auto.RunPinned(context.Background(), n, tool.Options{ExecutePlans: lower}, "helix")
	if err != nil {
		t.Fatalf("helix: %v", err)
	}
	return res
}

// plans lists the HELIX plans of a pinned run, in visiting order.
func plans(res auto.Result) []*helix.Plan {
	var out []*helix.Plan
	for _, s := range res.Selections {
		if p := s.Candidates[0].Plan; p != nil {
			out = append(out, p.(*helix.Plan))
		}
	}
	return out
}

// notLowered lists the "technique: reason" records of the plans whose
// Lower failed.
func notLowered(res auto.Result) []string {
	var out []string
	for _, s := range res.Selections {
		out = append(out, s.Fallbacks...)
	}
	return out
}

// ---------- planner ----------

func TestPlanSegmentsFollowTopoOrder(t *testing.T) {
	// Two chained sequential recurrences: the second consumes the first,
	// so its segment id must be higher (signals flow forward).
	m := compile(t, `
int a[64];
int main() {
  int i;
  int u = 1;
  int v = 0;
  for (i = 0; i < 64; i = i + 1) {
    u = (u * 5 + a[i]) % 601;
    v = (v * 3 + u) % 701;
  }
  print_i64(u);
  print_i64(v);
  return 0;
}`)
	n := newN(t, m)
	var plan *helix.Plan
	res := runHELIX(t, n, false)
	for _, p := range plans(res) {
		if p.NumSeq >= 2 {
			plan = p
		}
	}
	if plan == nil {
		t.Fatalf("no plan with two sequential segments (plans: %d, rejections: %v)", len(plans(res)), res.Rejections)
	}
	// Find the segment of each recurrence via its header phi and check
	// the producer's id is lower.
	segOfPhi := map[string]int{}
	for _, phi := range plan.LS.HeaderPhis() {
		if s, ok := plan.SegmentOf[phi]; ok {
			segOfPhi[phi.Nam] = s
		}
	}
	if len(segOfPhi) != 2 {
		t.Fatalf("carried phis mapped: %v, want 2", segOfPhi)
	}
	var uSeg, vSeg = -1, -1
	for name, s := range segOfPhi {
		if strings.HasPrefix(name, "u") {
			uSeg = s
		} else {
			vSeg = s
		}
	}
	if uSeg < 0 || vSeg < 0 || uSeg >= vSeg == false {
		// u feeds v, so u's segment must come first.
		if uSeg >= vSeg {
			t.Errorf("segment order violates dependences: u=%d, v=%d", uSeg, vSeg)
		}
	}
}

func TestPlanRejectionReasons(t *testing.T) {
	// Data-dependent exit: no governing IV, so HELIX cannot replicate
	// the loop control per core.
	m := compile(t, `
int a[64];
int main() {
  int i = 0;
  int s = 0;
  for (i = 0; a[i] > 0; i = i + 1) { s = s + a[i]; }
  print_i64(s);
  return 0;
}`)
	n := newN(t, m)
	res := runHELIX(t, n, false)
	found := false
	for _, rej := range res.Rejections {
		if rej.Fn == "" || rej.Header == "" || rej.Reason == "" {
			t.Errorf("incomplete rejection record: %+v", rej)
		}
		if strings.Contains(rej.Reason, "governing IV") {
			found = true
		}
	}
	if !found {
		t.Errorf("no governing-IV rejection recorded: %v", res.Rejections)
	}
}

// The SCD shrink path mutates the module and must invalidate cached
// abstractions; the resulting plan still lowers and runs correctly.
func TestPlanSCDShrinkInvalidationPath(t *testing.T) {
	for _, optimize := range []bool{false, true} {
		m := compile(t, carriedSrc)
		orig := ir.CloneModule(m)
		it0 := interp.New(orig)
		if _, err := it0.Run(); err != nil {
			t.Fatalf("original: %v", err)
		}
		n := newN(t, m)
		if optimize {
			helix.ShrinkHeaders(n)
		}
		res := runHELIX(t, n, false)
		if len(plans(res)) == 0 {
			t.Fatalf("optimize=%v: planned nothing (rejections: %v)", optimize, res.Rejections)
		}
		if err := ir.Verify(m); err != nil {
			t.Fatalf("optimize=%v: module malformed after SCD: %v", optimize, err)
		}
		it1 := interp.New(m)
		if _, err := it1.Run(); err != nil {
			t.Fatalf("optimize=%v: run after SCD: %v", optimize, err)
		}
		if it0.Output.String() != it1.Output.String() {
			t.Errorf("optimize=%v: SCD changed program output: %q -> %q",
				optimize, it0.Output.String(), it1.Output.String())
		}
	}
}

// ---------- executable lowering ----------

func runLowered(t *testing.T, src string, wantMinLowered int) auto.Result {
	t.Helper()
	m := compile(t, src)
	orig := ir.CloneModule(m)
	it0 := interp.New(orig)
	r0, err := it0.Run()
	if err != nil {
		t.Fatalf("original run: %v", err)
	}

	n := newN(t, m)
	res := runHELIX(t, n, true)
	if res.Lowered() < wantMinLowered {
		t.Fatalf("lowered %d loops, want >= %d (not lowered: %v)\n%s",
			res.Lowered(), wantMinLowered, notLowered(res), ir.Print(m))
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
	return res
}

func TestLowerCarriedRecurrence(t *testing.T) {
	res := runLowered(t, carriedSrc, 1)
	foundSeg := false
	for _, s := range res.Selections {
		if s.Lowered && s.Candidates[0].Plan.(*helix.Plan).NumSeq > 0 {
			foundSeg = true
		}
	}
	if !foundSeg {
		t.Error("no lowered loop carries a sequential segment")
	}
}

func TestLowerMemoryCarriedHistogram(t *testing.T) {
	// The histogram update is a memory-carried sequential SCC: the
	// signals order the read-modify-write across iterations while the
	// index computation overlaps.
	runLowered(t, `
int a[64];
int hist[8];
int main() {
  int i;
  for (i = 0; i < 64; i = i + 1) { a[i] = (i * 13 + 5) % 97; }
  for (i = 0; i < 64; i = i + 1) {
    int idx = (a[i] * a[i]) % 8;
    hist[idx] = hist[idx] + 1;
  }
  int s = 0;
  for (i = 0; i < 8; i = i + 1) { s = s + hist[i] * (i + 1); }
  print_i64(s);
  return s % 200;
}`, 1)
}

func TestLowerPublishesParallelLiveOut(t *testing.T) {
	// w is a parallel (non-IV, non-carried) live-out: only the last
	// iteration's value survives, published from worker tc-1.
	runLowered(t, `
int a[48];
int main() {
  int i;
  for (i = 0; i < 48; i = i + 1) { a[i] = i + 3; }
  int w = 0;
  int acc = 0;
  for (i = 0; i < 48; i = i + 1) {
    w = a[i] * 7 + i;
    acc = (acc * 5 + w) % 3001;
  }
  print_i64(w);
  print_i64(acc);
  return 0;
}`, 1)
}

func TestLowerReductionNeedsPrivatization(t *testing.T) {
	// A plain reduction is not segment state; the lowering must refuse
	// it with a reason instead of serializing or mis-compiling.
	m := compile(t, `
int a[64];
int main() {
  int i;
  int s = 0;
  for (i = 0; i < 64; i = i + 1) { s = s + a[i]; }
  print_i64(s);
  return 0;
}`)
	n := newN(t, m)
	res := runHELIX(t, n, true)
	found := false
	for _, reason := range notLowered(res) {
		if strings.Contains(reason, "privatization") || strings.Contains(reason, "reduction") {
			found = true
		}
	}
	if !found {
		t.Errorf("reduction loop not refused with a reason (lowered=%d, notLowered=%v)",
			res.Lowered(), notLowered(res))
	}
	// The refused module must still run correctly.
	if err := ir.Verify(m); err != nil {
		t.Fatalf("module malformed: %v", err)
	}
	if _, err := interp.New(m).Run(); err != nil {
		t.Fatalf("refused module broken: %v", err)
	}
}

// A carried i1 phi that directly conditions a branch cannot be guarded:
// the branch would be the segment's last member, leaving nowhere to
// place the fire. The lowering must refuse (with a reason), not panic.
func TestLowerRefusesCarriedPhiFeedingBranch(t *testing.T) {
	m, err := irtext.Parse(`module "m"
global @a : [64 x i64] zeroinit
global @out : i64 zeroinit
declare @print_i64 : fn(i64) void
func @main() i64 {
entry:
  br header
header:
  %i = phi i64 [ 0, entry ], [ %inext, latch ]
  %flag = phi i1 [ false, entry ], [ %newflag, latch ]
  %c = lt %i, 64
  condbr %c, body, exit
body:
  %p = ptradd @a, %i
  %v = load i64, %p
  %fi = zext %flag
  %x = add %fi, %v
  %newflag = lt %x, 3
  condbr %flag, then, otherwise
then:
  store i64 %x, @out
  br latch
otherwise:
  br latch
latch:
  %inext = add %i, 1
  br header
exit:
  %r = load i64, @out
  call void @print_i64(%r)
  ret 0
}`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	n := newN(t, m)
	res := runHELIX(t, n, true)
	if res.Lowered() != 0 {
		t.Fatalf("unguardable loop was lowered: %+v", res.Selections)
	}
	// A plan that failed to lower is in Rejections too, with its reason.
	found := false
	for _, rej := range res.Rejections {
		if strings.Contains(rej.Reason, "guard") {
			found = true
		}
	}
	if !found {
		t.Errorf("no guarding rejection recorded (rejections %v, not lowered %v)",
			res.Rejections, notLowered(res))
	}
	// The refused module still runs.
	if _, err := interp.New(m).Run(); err != nil {
		t.Fatalf("refused module broken: %v", err)
	}
}

// ---------- the tool: SCD pre-pass + pinned driver ----------

// header_shrunk counts the instructions the SCD pre-pass sank out of
// loop headers — what LoopScheduler.ShrinkHeader returns, not what is
// left in the header afterwards (which the parent reported).
func TestHeaderShrunkCountsMovedInstructions(t *testing.T) {
	// %t is header-resident but only the body consumes it: one sinkable
	// instruction.
	sinkable, err := irtext.Parse(`module "m"
global @g : [16 x i64] zeroinit
func @main() i64 {
entry:
  br header
header:
  %i = phi i64 [ 0, entry ], [ %inext, body ]
  %t = mul %i, 7
  %c = lt %i, 10
  condbr %c, body, exit
body:
  %p = ptradd @g, %i
  %u = add %t, 1
  store i64 %u, %p
  %inext = add %i, 1
  br header
exit:
  ret 0
}`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	helixTool, ok := tool.Lookup("helix")
	if !ok {
		t.Fatal("helix not registered")
	}
	for _, tc := range []struct {
		name string
		m    *ir.Module
		want int64
	}{
		{"nothing sinkable", compile(t, carriedSrc), 0}, // headers hold phis, the exit test and its branch only
		{"one sinkable", sinkable, 1},
	} {
		rep, err := tool.Run(context.Background(), helixTool, newN(t, tc.m), tool.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := rep.Metrics["header_shrunk"]; got != tc.want {
			t.Errorf("%s: header_shrunk=%d, want %d", tc.name, got, tc.want)
		}
		if err := ir.Verify(tc.m); err != nil {
			t.Errorf("%s: module malformed after the pre-pass: %v", tc.name, err)
		}
	}
}
