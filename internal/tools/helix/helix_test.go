package helix_test

import (
	"context"
	"fmt"
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

// bothEngines is the default engine set of the differential checks.
var bothEngines = []interp.Engine{interp.EngineWalker, interp.EngineCompiled}

// checkLowered lowers m's loops with HELIX planned for cores cores and
// holds the result to the contract: original, -seq and parallel agree on
// output, exit code and global memory on every engine in engines, and
// -seq and parallel also agree on Steps and Cycles.
func checkLowered(t *testing.T, m *ir.Module, cores, wantMinLowered int, engines []interp.Engine) auto.Result {
	t.Helper()
	orig := ir.CloneModule(m)
	opts := core.DefaultOptions()
	opts.MinHotness = 0 // consider every loop
	opts.Cores = cores
	res := runHELIX(t, core.New(m, opts), true)
	if res.Lowered() < wantMinLowered {
		t.Fatalf("lowered %d loops, want >= %d (not lowered: %v)\n%s",
			res.Lowered(), wantMinLowered, notLowered(res), ir.Print(m))
	}
	if err := verify.Module(m, verify.TierComm).Err(); err != nil {
		t.Fatalf("transformed module does not verify: %v\n%s", err, ir.Print(m))
	}
	for _, eng := range engines {
		run := func(mod *ir.Module, seq bool) (*interp.Interp, int64) {
			it := interp.New(mod)
			it.Eng, it.SeqDispatch, it.DispatchWorkers = eng, seq, 3
			r, err := it.Run()
			if err != nil {
				t.Fatalf("engine=%s seq=%v: %v\n%s", eng, seq, err, ir.Print(mod))
			}
			return it, r
		}
		it0, r0 := run(orig, true)
		seqIt, rs := run(m, true)
		parIt, rp := run(m, false)
		if rs != r0 || rp != r0 {
			t.Errorf("engine=%s: exit code %d became %d (-seq), %d (parallel)", eng, r0, rs, rp)
		}
		if it0.Output.String() != seqIt.Output.String() {
			t.Errorf("engine=%s: output changed: %q -> %q", eng, it0.Output.String(), seqIt.Output.String())
		}
		if seqIt.Output.String() != parIt.Output.String() {
			t.Errorf("engine=%s: seq/par output diverged: %q vs %q", eng, seqIt.Output.String(), parIt.Output.String())
		}
		if it0.MemoryFingerprint() != seqIt.MemoryFingerprint() {
			t.Errorf("engine=%s: global memory state changed vs original", eng)
		}
		if seqIt.MemoryFingerprint() != parIt.MemoryFingerprint() {
			t.Errorf("engine=%s: seq/par memory fingerprints diverged", eng)
		}
		if seqIt.Steps != parIt.Steps || seqIt.Cycles != parIt.Cycles {
			t.Errorf("engine=%s: seq/par counters diverged: (%d steps, %d cycles) vs (%d, %d)",
				eng, seqIt.Steps, seqIt.Cycles, parIt.Steps, parIt.Cycles)
		}
	}
	return res
}

func runLowered(t *testing.T, src string, wantMinLowered int) auto.Result {
	t.Helper()
	return checkLowered(t, compile(t, src), core.DefaultOptions().Cores, wantMinLowered, bothEngines)
}

// helixTask returns the printed task function of the lowered loop with
// nseq sequential segments.
func helixTask(t *testing.T, m *ir.Module, nseq int) string {
	t.Helper()
	for _, l := range verify.Lowerings(m) {
		if l.Err == nil && l.Proto.Technique == verify.HELIX && len(l.Proto.Signals) == nseq {
			return ir.Print(&ir.Module{Name: "task", Functions: []*ir.Function{l.Tasks[0]}})
		}
	}
	t.Fatalf("no helix task with %d segments\n%s", nseq, ir.Print(m))
	return ""
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

// tripSrc is the carried recurrence over a trip count read from memory
// at run time (so nothing about it is known statically), walking the
// iteration space the way header and update say.
func tripSrc(n int, header, update string) string {
	return fmt.Sprintf(`
int a[%[1]d];
int c[%[1]d];
int lim[2];
int main() {
  int i;
  for (i = 0; i < %[1]d; i = i + 1) { a[i] = i * 5 + 2; }
  lim[0] = %[2]d;
  int n = lim[0];
  int acc = 1;
  for (%[3]s; %[4]s) {
    int x = a[i] * a[i] + i;
    int y = x * 3 + 7;
    acc = (acc * 3 + y) %% 4093;
    c[i] = y %% 101;
  }
  int s = 0;
  for (i = 0; i < %[1]d; i = i + 1) { s = s + c[i]; }
  print_i64(acc);
  print_i64(s);
  print_i64(i);
  return (acc + s) %% 251;
}`, n+8, n, header, update)
}

// Block boundaries: with cores=3 a loop runs in at most 12 blocks of
// ceil(tc/12) iterations until tc exceeds 12*8192, after which blocks are
// 8192 long and there are more of them.
func TestLowerBlockBoundaries(t *testing.T) {
	const cores = 3
	for _, tc := range []int{0, 1, cores - 1, 11, 12, 13, 127, 5*12 - 1, 5 * 12, 5*12 + 1, 521} {
		t.Run(fmt.Sprint("up/", tc), func(t *testing.T) {
			checkLowered(t, compile(t, tripSrc(tc, "i = 0; i < n", "i = i + 1")), cores, 2, bothEngines)
		})
	}
	// Walking down, a != exit test, and both at once.
	for name, src := range map[string]string{
		"down":    tripSrc(131, "i = n; i > 0", "i = i - 1"),
		"down/ge": tripSrc(131, "i = n - 1; i >= 0", "i = i - 1"),
		"ne":      tripSrc(131, "i = 0; i != n", "i = i + 1"),
		"down/ne": tripSrc(131, "i = n; i != 0", "i = i - 1"),
		"stride":  tripSrc(400, "i = 3; i <= n", "i = i + 3"),
	} {
		t.Run(name, func(t *testing.T) {
			checkLowered(t, compile(t, src), cores, 2, bothEngines)
		})
	}
	// More iterations than cores*blocksPerCore*maxBlock: 13 blocks, the
	// last one a single iteration long.
	t.Run("beyond", func(t *testing.T) {
		m := compile(t, tripSrc(12*8192+1, "i = 0; i < n", "i = i + 1"))
		checkLowered(t, m, cores, 2, []interp.Engine{interp.EngineCompiled})
	})
}

// A static trip count above the dispatcher's fan-out cap (2^20) used to
// be refused: there was one worker per iteration.
func TestLowerTripCountAboveFanoutCap(t *testing.T) {
	m := compile(t, `
int main() {
  int i;
  int acc = 1;
  for (i = 0; i < 1048581; i = i + 1) {
    acc = (acc * 3 + i) % 65521;
  }
  print_i64(acc);
  return acc % 251;
}`)
	checkLowered(t, m, 2, 1, []interp.Engine{interp.EngineCompiled})
}

func TestLowerTwoSegmentsWithParallelWorkBetween(t *testing.T) {
	// u feeds heavy parallel work whose result feeds v: the parallel phase
	// between the two segments reads u through a buffer and hands x on
	// through another.
	src := `
int a[200];
int c[200];
int main() {
  int i;
  for (i = 0; i < 200; i = i + 1) { a[i] = (i * 13 + 5) % 97; }
  int u = 1;
  int v = 0;
  for (i = 0; i < 200; i = i + 1) {
    u = (u * 5 + a[i]) % 601;
    int x = (u * u + a[i] * 7) % 1009;
    int y = (x * x + u) % 2003;
    c[i] = y;
    v = (v * 3 + y) % 701;
  }
  print_i64(u);
  print_i64(v);
  int s = 0;
  for (i = 0; i < 200; i = i + 1) { s = s + c[i]; }
  print_i64(s);
  return (u + v + s) % 251;
}`
	m := compile(t, src)
	checkLowered(t, m, 2, 1, bothEngines)
	task := helixTask(t, m, 2)
	if n := strings.Count(task, "alloca"); n < 2 {
		t.Errorf("want a buffer into the parallel phase and one out of it, found %d allocas\n%s", n, task)
	}
	if strings.Count(task, "@noelle_signal_wait") != 2 || strings.Count(task, "@noelle_signal_fire") != 2 {
		t.Errorf("want one wait and one fire per segment\n%s", task)
	}
}

func TestLowerMemoryCarriedHistogram(t *testing.T) {
	// The histogram update is a memory-carried sequential SCC: the
	// signals order the read-modify-write across blocks while the index
	// computation overlaps.
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

func TestLowerPrintInsideSegment(t *testing.T) {
	// I/O is a sequential segment of its own: the lines come out in
	// iteration order across blocks.
	m := compile(t, `
int a[100];
int main() {
  int i;
  for (i = 0; i < 100; i = i + 1) { a[i] = (i * 7 + 1) % 31; }
  int acc = 1;
  for (i = 0; i < 100; i = i + 1) {
    int x = (a[i] * a[i] + i) % 257;
    acc = (acc * 3 + x) % 4093;
    print_i64(acc + x);
  }
  return acc % 251;
}`)
	checkLowered(t, m, 3, 2, bothEngines)
}

func TestLowerPublishesParallelLiveOut(t *testing.T) {
	// w only remembers the latest a[i]*7+i: no segment orders it, the
	// last block publishes it.
	m := compile(t, `
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
}`)
	checkLowered(t, m, 2, 2, bothEngines)
	task := helixTask(t, m, 1)
	if !strings.Contains(task, "islast") || !strings.Contains(task, "publish:") {
		t.Errorf("no last-block publish in the task\n%s", task)
	}
}

func TestLowerInnerLoopAndDataDependentBranch(t *testing.T) {
	// The inner loop runs whole in the parallel phase; the branch on s is
	// cloned by the phase that owns what it decides and skipped by the
	// segment's loop.
	m := compile(t, `
int a[64];
int c[8];
int main() {
  int i; int j;
  for (i = 0; i < 64; i = i + 1) { a[i] = i * 5 + 2; }
  int acc = 1;
  for (i = 0; i < 8; i = i + 1) {
    int s = 0;
    for (j = 0; j < 8; j = j + 1) { s = s + a[i * 8 + j] * 3; }
    if (s % 3 == 0) { s = s + 7; }
    acc = (acc * 3 + s) % 4093;
    c[i] = s % 101;
  }
  print_i64(acc);
  int t = 0;
  for (i = 0; i < 8; i = i + 1) { t = t + c[i]; }
  print_i64(t);
  return (acc + t) % 251;
}`)
	checkLowered(t, m, 2, 2, bothEngines)
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

// A carried i1 phi that directly conditions a branch: the per-iteration
// lowering had nowhere to place the fire after it and refused. A block's
// fire follows the segment's whole loop, so the branch is just control
// the segment's phase clones.
func TestLowerCarriedPhiFeedingBranch(t *testing.T) {
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
  %o = load i64, @out
  %sum = add %o, %x
  store i64 %sum, @out
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
	checkLowered(t, m, 2, 1, bothEngines)
}

// What the phase loops cannot express is refused with a reason, and the
// refused module still runs.
func TestLowerRefusals(t *testing.T) {
	for name, tc := range map[string]struct{ src, want string }{
		// The merge phi is segment state but the PDG does not tie the
		// branch that picks its value to it.
		"branch picks segment state": {`
int main() {
  int k; int x = 7;
  for (k = 0; k < 12; k = k + 1) {
    int x2 = x * x;
    if (x2 == 0) { x2 = 1; }
    x = (2 * x + 1000 / x2) / 3 + 1;
  }
  print_i64(x);
  return 0;
}`, "before its condition is known"},
		"header side effect": {`
int g[4];
int bump() { g[0] = g[0] + 1; return g[0]; }
int main() {
  int i;
  for (i = 0; i < bump() * 0 + 10; i = i + 1) { g[1] = g[1] + i; }
  print_i64(g[1]);
  return 0;
}`, ""},
	} {
		t.Run(name, func(t *testing.T) {
			m := compile(t, tc.src)
			res := runHELIX(t, newN(t, m), true)
			if tc.want != "" && !strings.Contains(strings.Join(notLowered(res), "\n"), tc.want) {
				t.Errorf("no refusal naming %q (lowered %d, not lowered %v)", tc.want, res.Lowered(), notLowered(res))
			}
			if err := ir.Verify(m); err != nil {
				t.Fatalf("module malformed: %v", err)
			}
			if _, err := interp.New(m).Run(); err != nil {
				t.Fatalf("refused module broken: %v", err)
			}
		})
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

// TestLowerTrapsAgree: a remainder by zero in the sequential segment, and
// one in the parallel part, at iteration 75 of 400: at 2 cores the loop
// runs 8 blocks of 50 iterations, so the trap comes halfway through the
// second block. The original, -seq and parallel, walker and compiled all
// end in that trap, after the same output.
func TestLowerTrapsAgree(t *testing.T) {
	for name, body := range map[string]string{
		"segment": `
    int x = b[i] * b[i] + i;
    int y = x * 3 + 7;
    acc = (acc * 3 + y) % (75 - i);
    c[i] = y % 101;`,
		"parallel": `
    int x = (b[i] * b[i] + i) % (75 - i);
    int y = x * 3 + 7;
    acc = (acc * 3 + y) % 4093;
    c[i] = y % 101;`,
	} {
		t.Run(name, func(t *testing.T) {
			m := compile(t, `
int b[400];
int c[400];
int main() {
  int i;
  for (i = 0; i < 400; i = i + 1) { b[i] = i * 7 + 3; }
  print_i64(77);
  int acc = 1;
  for (i = 0; i < 400; i = i + 1) {`+body+`
  }
  print_i64(acc);
  return acc % 251;
}`)
			run := func(mod *ir.Module, seq bool, eng interp.Engine) (string, string) {
				it := interp.New(mod)
				it.SeqDispatch, it.Eng, it.DispatchWorkers = seq, eng, 2
				_, err := it.Run()
				if err == nil {
					return it.Output.String(), ""
				}
				return it.Output.String(), err.Error()
			}
			orig := ir.CloneModule(m)
			wantOut := "77\n"
			for _, eng := range bothEngines {
				if out, err := run(orig, false, eng); !strings.HasSuffix(err, "integer remainder by zero") || out != wantOut {
					t.Fatalf("original, engine=%s: output %q, err %q; want the trap after 77", eng, out, err)
				}
			}
			opts := core.DefaultOptions()
			opts.MinHotness, opts.Cores = 0, 2
			res := runHELIX(t, core.New(m, opts), true)
			if res.Lowered() != 2 {
				t.Fatalf("lowered %d loops, want both: %v", res.Lowered(), notLowered(res))
			}
			helixTask(t, m, 1) // the trapping loop, with its one segment
			for _, seq := range []bool{true, false} {
				for _, eng := range bothEngines {
					out, err := run(m, seq, eng)
					if !strings.HasPrefix(err, "interp: dispatch worker 1: ") || !strings.HasSuffix(err, "integer remainder by zero") || out != wantOut {
						t.Errorf("seq=%v engine=%s: output %q, err %q; want the original's trap in the second block, after %q", seq, eng, out, err, wantOut)
					}
				}
			}
		})
	}
}
