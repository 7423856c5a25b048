// Package tools_test exercises every custom tool end to end: each tool
// runs on real compiled programs, and every transforming tool is checked
// for observational equivalence under the interpreter.
package tools_test

import (
	"context"
	"strings"
	"testing"

	"noelle/internal/bench"
	"noelle/internal/core"
	"noelle/internal/interp"
	"noelle/internal/ir"
	"noelle/internal/irtext"
	"noelle/internal/machine"
	"noelle/internal/minic"
	"noelle/internal/passes"
	"noelle/internal/pdg"
	"noelle/internal/sccdag"
	"noelle/internal/tool"
	"noelle/internal/tools/auto"
	"noelle/internal/tools/baseline"
	"noelle/internal/tools/carat"
	"noelle/internal/tools/coos"
	"noelle/internal/tools/dead"
	"noelle/internal/tools/dswp"
	"noelle/internal/tools/helix"
	"noelle/internal/tools/licm"
	"noelle/internal/tools/perspective"
	"noelle/internal/tools/prvj"
	"noelle/internal/tools/timesq"
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

func newN(m *ir.Module) *core.Noelle {
	opts := core.DefaultOptions()
	opts.MinHotness = 0
	return core.New(m, opts)
}

// run interprets and returns (exit, output, cycles).
func run(t *testing.T, m *ir.Module) (int64, string, int64) {
	t.Helper()
	it := interp.New(m)
	r, err := it.Run()
	if err != nil {
		t.Fatalf("run: %v\n%s", err, ir.Print(m))
	}
	return r, it.Output.String(), it.Cycles
}

// checkEquivalent applies transform to a copy and compares observations.
func checkEquivalent(t *testing.T, m *ir.Module, transform func(*core.Noelle)) *ir.Module {
	t.Helper()
	r0, o0, _ := run(t, ir.CloneModule(m))
	transform(newN(m))
	if err := ir.Verify(m); err != nil {
		t.Fatalf("transformed module malformed: %v", err)
	}
	r1, o1, _ := run(t, ir.CloneModule(m))
	if r0 != r1 || o0 != o1 {
		t.Fatalf("semantics changed: (%d,%q) -> (%d,%q)", r0, o0, r1, o1)
	}
	return m
}

// ---------- LICM ----------

func TestLICMHoistsAndPreserves(t *testing.T) {
	m := compile(t, `
int table[32];
int a = 6;
int b = 7;
int kernel(int *p) {
  int i;
  int acc = 0;
  for (i = 0; i < 500; i = i + 1) {
    int k = a * b + 3;
    p[i % 32] = k;
    acc = acc + k;
  }
  return acc;
}
int main() { int r = kernel(&table[0]); print_i64(r); return r % 256; }`)
	_, _, cyclesBefore := run(t, ir.CloneModule(m))
	var hoisted int
	checkEquivalent(t, m, func(n *core.Noelle) { hoisted = licm.Run(n).Hoisted })
	if hoisted < 3 {
		t.Errorf("hoisted = %d, want >= 3 (loads + mul + add)", hoisted)
	}
	_, _, cyclesAfter := run(t, ir.CloneModule(m))
	if cyclesAfter >= cyclesBefore {
		t.Errorf("LICM did not reduce work: %d -> %d cycles", cyclesBefore, cyclesAfter)
	}
}

func TestLICMBeatsBaselineOnPointerLoops(t *testing.T) {
	src := `
int table[32];
int a = 6;
int kernel(int *p) {
  int i;
  for (i = 0; i < 100; i = i + 1) { p[i % 32] = a * 2; }
  return p[0];
}
int main() { return kernel(&table[0]); }`
	m1 := compile(t, src)
	noelleHoisted := licm.Run(newN(m1)).Hoisted
	m2 := compile(t, src)
	baseHoisted := baseline.LICMLLVM(m2).Hoisted
	if noelleHoisted <= baseHoisted {
		t.Errorf("NOELLE hoisted %d, baseline %d; expected strictly more", noelleHoisted, baseHoisted)
	}
}

// TestLICMInvalidatesOnlyLoopsThatHoisted: a loop with nothing to hoist
// leaves its function's abstractions cached, even after an earlier loop
// of the same function hoisted. @kernel's first loop hoists a*b+3; its
// two later loops have no invariants, so the PDG is built once for the
// first loop and once more after the hoist, and never again.
func TestLICMInvalidatesOnlyLoopsThatHoisted(t *testing.T) {
	m := compile(t, `
int table[32];
int a = 6;
int b = 7;
int kernel(int *p) {
  int acc = 0;
  for (int i = 0; i < 32; i = i + 1) {
    p[i] = a * b + 3;
  }
  for (int i = 0; i < 32; i = i + 1) {
    acc = acc + i;
  }
  for (int i = 0; i < 32; i = i + 1) {
    acc = acc * 3 + i;
  }
  return acc;
}
int main() { int r = kernel(&table[0]); print_i64(r); return r % 256; }`)
	var res licm.Result
	var builds int64
	checkEquivalent(t, m, func(n *core.Noelle) {
		res = licm.Run(n)
		builds, _, _ = n.CacheStats()
	})
	if res.Hoisted == 0 || res.Loops != 3 {
		t.Fatalf("licm hoisted %d instructions across %d loops, want some across 3", res.Hoisted, res.Loops)
	}
	if builds != 2 {
		t.Errorf("licm built %d PDGs of @kernel, want 2: one before the hoist and one after", builds)
	}
}

// ---------- DEAD ----------

func TestDeadRemovesIndirectlyUnreachable(t *testing.T) {
	m := compile(t, `
int used(int x) { return x + 1; }
int stored_never_called(int x) { return x * 2; }
int plain_dead(int x) { return x - 1; }
int main() {
  func(int) int table[2];
  table[0] = stored_never_called;  // address taken, never invoked
  return used(4);
}`)
	r0, o0, _ := run(t, ir.CloneModule(m))
	res := dead.Run(newN(m))
	// plain_dead must go. stored_never_called has its address taken but
	// the complete call graph proves no call can reach it: its body goes
	// too, and its symbol stays as a stub for the stored address to name.
	if m.FunctionByName("plain_dead") != nil {
		t.Error("plain_dead survived")
	}
	if f := m.FunctionByName("stored_never_called"); f == nil || len(f.Blocks) != 1 || len(f.Blocks[0].Instrs) != 1 || res.Stubbed != 1 {
		t.Errorf("stored_never_called not reduced to a stub despite complete call graph (stubbed %d)", res.Stubbed)
	}
	if err := verify.Module(m, verify.TierSSA).Err(); err != nil {
		t.Errorf("module does not verify after dead: %v", err)
	}
	if m.FunctionByName("used") == nil {
		t.Error("used was removed")
	}
	if res.ReductionPercent() <= 0 {
		t.Error("no size reduction reported")
	}
	r1, o1, _ := run(t, m)
	if r0 != r1 || o0 != o1 {
		t.Error("DEAD changed semantics")
	}

	// The syntactic baseline must keep the address-taken function.
	m2 := compile(t, `
int used(int x) { return x + 1; }
int stored_never_called(int x) { return x * 2; }
int plain_dead(int x) { return x - 1; }
int main() {
  func(int) int table[2];
  table[0] = stored_never_called;
  return used(4);
}`)
	baseline.DeadFunctionEliminationLLVM(m2)
	if m2.FunctionByName("stored_never_called") == nil {
		t.Error("baseline removed an address-taken function (unsound for its analysis)")
	}
	if m2.FunctionByName("plain_dead") != nil {
		t.Error("baseline kept plain_dead")
	}
}

// An unreachable function that returns a pointer cannot be stubbed, so
// its body survives whole, and a function whose address only that body
// takes must survive too (as a stub), or the body names nothing.
func TestDeadKeepsWhatSurvivingBodiesName(t *testing.T) {
	m, err := irtext.Parse(`module "m"
func @inner(%x: i64) i64 {
entry:
  %y = mul %x, 2
  ret %y
}
func @outer() ptr<fn(i64) i64> {
entry:
  %p = alloca fn(i64) i64, 1
  store fn(i64) i64 @inner, %p
  ret %p
}
func @main() i64 {
entry:
  %q = alloca fn() ptr<fn(i64) i64>, 1
  store fn() ptr<fn(i64) i64> @outer, %q
  ret 0
}`)
	if err != nil {
		t.Fatal(err)
	}
	res := dead.Run(newN(m))
	if res.Removed != 0 || res.Stubbed != 1 || m.FunctionByName("outer").NumInstrs() != 3 || m.FunctionByName("inner").NumInstrs() != 1 {
		t.Errorf("removed %d, stubbed %d; want @outer whole and @inner stubbed", res.Removed, res.Stubbed)
	}
	if err := verify.Module(m, verify.TierSSA).Err(); err != nil {
		t.Errorf("module does not verify after dead: %v", err)
	}
}

// TestDeadKeepsCorpusValid: on every corpus program, what dead leaves
// verifies at the ssa tier (no surviving instruction names a deleted
// function; omnetpp_r and perlbench_r store the address of a handler no
// call reaches) and prints what the original prints on the walker.
func TestDeadKeepsCorpusValid(t *testing.T) {
	walk := func(m *ir.Module) (int64, string) {
		it := interp.New(m)
		it.Eng = interp.EngineWalker
		r, err := it.Run()
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		return r, it.Output.String()
	}
	stubbed := 0
	for _, b := range bench.List() {
		m, err := b.Compile()
		if err != nil {
			t.Fatal(err)
		}
		r0, o0 := walk(ir.CloneModule(m))
		stubbed += dead.Run(newN(m)).Stubbed
		if err := verify.Module(m, verify.TierSSA).Err(); err != nil {
			t.Errorf("%s: dead left a module that does not verify: %v", b.Name, err)
			continue
		}
		if r1, o1 := walk(m); r1 != r0 || o1 != o0 {
			t.Errorf("%s: dead changed what the program prints: (%d, %q) -> (%d, %q)", b.Name, r0, o0, r1, o1)
		}
	}
	if stubbed == 0 {
		t.Error("no corpus program has an address-taken function no call reaches")
	}
}

// ---------- CARAT ----------

func TestCARATGuardsAndElides(t *testing.T) {
	const caratSrc = `
int buf[64];
int counter;
int kernel(int *p, int n) {
  int i;
  int s = 0;
  for (i = 0; i < n; i = i + 1) {
    int *q = &p[i % 64];
    *q = i;          // guard
    s = s + *q;      // same pointer value: elided
    counter = counter + 1;  // direct global: statically proven
  }
  return s;
}
int main() { int r = kernel(&buf[0], 200); print_i64(r + counter); return r % 256; }`
	m := compile(t, caratSrc)
	var res carat.Result
	checkEquivalent(t, m, func(n *core.Noelle) { res = carat.Run(n) })
	if res.Guards == 0 {
		t.Fatal("no guards inserted")
	}
	// Run and confirm zero violations on a valid program.
	it := interp.New(m)
	if _, err := it.Run(); err != nil {
		t.Fatal(err)
	}
	if it.GuardCalls == 0 {
		t.Error("guards never executed")
	}
	if it.GuardFailures != 0 {
		t.Errorf("valid program reported %d guard failures", it.GuardFailures)
	}

	if res.Proven == 0 {
		t.Error("direct global accesses were not statically proven")
	}
	if res.Elided == 0 {
		t.Error("same-pointer reuse was not elided")
	}

	// The baseline guards strictly more (every access, no proofs).
	m2 := compile(t, caratSrc)
	base := baseline.CARATGuardAll(m2)
	if base.Guards <= res.Guards {
		t.Errorf("baseline guards %d should exceed NOELLE's %d", base.Guards, res.Guards)
	}
}

func TestCARATProvesDirectGlobalAccesses(t *testing.T) {
	m := compile(t, `
int g;
int main() { g = 5; return g; }`)
	res := carat.Run(newN(m))
	if res.Proven != res.Accesses {
		t.Errorf("direct global accesses: proven %d of %d", res.Proven, res.Accesses)
	}
	if res.Guards != 0 {
		t.Errorf("guards = %d, want 0", res.Guards)
	}
}

// ---------- COOS ----------

func TestCOOSBoundsCallbackGaps(t *testing.T) {
	m := compile(t, `
int work[256];
int spin(int rounds) {
  int i;
  int acc = 0;
  for (i = 0; i < rounds; i = i + 1) {
    acc = acc + work[i % 256] * 3 + i;
  }
  return acc;
}
int main() {
  int i;
  for (i = 0; i < 256; i = i + 1) { work[i] = i; }
  int r = spin(3000);
  print_i64(r);
  return r % 256;
}`)
	const budget = 2000
	var res coos.Result
	checkEquivalent(t, m, func(n *core.Noelle) { res = coos.Run(n, budget) })
	if res.Inserted == 0 {
		t.Fatal("no callbacks inserted")
	}
	maxGap, callbacks, err := coos.MeasureMaxGap(m)
	if err != nil {
		t.Fatal(err)
	}
	if callbacks == 0 {
		t.Fatal("callbacks never fired")
	}
	// The observed gap may exceed the static budget by one instruction's
	// cost plus call overhead, but not by much.
	slack := int64(200)
	if maxGap > budget+slack {
		t.Errorf("max observed gap %d exceeds budget %d (+%d slack)", maxGap, budget, slack)
	}
}

// ---------- PRVJ ----------

func TestPRVJSwapsHotGenerators(t *testing.T) {
	m := compile(t, `
int st[2];
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
int main() {
  st[0] = 7;
  int acc = 0;
  int i;
  for (i = 0; i < 400; i = i + 1) {
    acc = acc + prvg_mt_next(&st[0]) % 10;
  }
  print_i64(acc % 1000);
  return acc % 256;
}`)
	_, _, cyclesBefore := run(t, ir.CloneModule(m))
	res := prvj.Run(newN(m))
	if len(res.Generators) != 2 {
		t.Fatalf("generators = %d, want 2", len(res.Generators))
	}
	if res.Swapped == 0 {
		t.Fatal("hot mt call site not swapped")
	}
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	_, _, cyclesAfter := run(t, m)
	if cyclesAfter >= cyclesBefore {
		t.Errorf("PRVG swap did not speed up: %d -> %d", cyclesBefore, cyclesAfter)
	}
}

// ---------- TIME (Time-Squeezer) ----------

func TestTimeSqueezer(t *testing.T) {
	m := compile(t, `
float fs[64];
int classify(int v, float g) {
  int cheap = 0;
  if (3 < v) { cheap = 1; }        // constant-first compare: swap target
  float scaled = g * 2.5;
  int heavy = 0;
  if (scaled > 10.0) { heavy = 1; }
  int mixed = v * 3;
  float fval = (float)mixed * 0.5;
  int r = cheap + heavy + (int)fval;
  return r;
}
int main() {
  int i;
  int acc = 0;
  for (i = 0; i < 64; i = i + 1) {
    fs[i] = (float)i * 0.25;
    acc = acc + classify(i, fs[i]);
  }
  print_i64(acc);
  return acc % 256;
}`)
	var res timesq.Result
	checkEquivalent(t, m, func(n *core.Noelle) { res = timesq.Run(n) })
	if res.SwappedCompares == 0 {
		t.Error("constant-first compare not canonicalized")
	}
	if res.ClockSets == 0 {
		t.Error("no clock_set instructions injected")
	}
	// Scheduling must not need more switches than the naive placement.
	if res.ClockSets > res.ClockSetsUnscheduled && res.ClockSetsUnscheduled > 0 {
		t.Errorf("scheduled placement (%d) worse than naive (%d)", res.ClockSets, res.ClockSetsUnscheduled)
	}
	// No compare should remain with a constant first operand and a
	// non-constant second.
	for _, f := range m.Functions {
		f.Instrs(func(in *ir.Instr) bool {
			if in.Opcode.IsCompare() {
				_, c0 := in.Ops[0].(*ir.Const)
				_, c1 := in.Ops[1].(*ir.Const)
				if c0 && !c1 {
					t.Errorf("constant-first compare survived: %s", in)
				}
			}
			return true
		})
	}
}

// ---------- HELIX / DSWP ----------

func TestHELIXPlansSequentialSegments(t *testing.T) {
	m, err := bench.PipelineProgram(256)
	if err != nil {
		t.Fatal(err)
	}
	n := newN(m)
	helix.ShrinkHeaders(n)
	res, err := auto.RunPinned(context.Background(), n, tool.Options{}, "helix")
	if err != nil {
		t.Fatal(err)
	}
	if res.Selected() == 0 {
		t.Fatal("HELIX planned nothing")
	}
	foundSeq := false
	for _, s := range res.Selections {
		if s.Winner == "" {
			continue
		}
		if p := s.Candidates[0].Plan.(*helix.Plan); p.NumSeq > 0 {
			foundSeq = true
			// Priced as auto and the benchmark price a plan.
			invs, err := machine.AttributeLoopCosts(n.Mod, p.LS.Nat, p.SegmentOf, p.NumSegments())
			if err != nil {
				t.Fatal(err)
			}
			seq, par := machine.SequentialCycles(invs), machine.SimulateAll(invs, p.EstimateInvocation)
			if par <= 0 || seq <= 0 {
				t.Errorf("degenerate simulation: seq=%d par=%d", seq, par)
			}
		}
	}
	if !foundSeq {
		t.Error("the pipeline program's recurrence produced no sequential segment")
	}
}

func TestDSWPStagesRespectDependences(t *testing.T) {
	b, err := bench.ByName("crc")
	if err != nil {
		t.Fatal(err)
	}
	m, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	n := newN(m)
	res, err := auto.RunPinned(context.Background(), n, tool.Options{}, "dswp")
	if err != nil {
		t.Fatal(err)
	}
	if res.Selected() == 0 {
		t.Fatal("DSWP planned nothing")
	}
	for _, s := range res.Selections {
		if s.Winner == "" {
			continue
		}
		p := s.Candidates[0].Plan.(*dswp.Plan)
		if p.NumStages < 2 {
			t.Errorf("plan with %d stages", p.NumStages)
		}
		// The pipeline must be unidirectional: every intra-iteration
		// dependence flows to the same or a later stage.
		p.Loop.DG.Edges(func(e *pdg.Edge) bool {
			if e.LoopCarried {
				return true
			}
			sFrom, okF := p.SegmentOf[e.From]
			sTo, okT := p.SegmentOf[e.To]
			if okF && okT && sFrom > sTo {
				t.Errorf("backward pipeline dependence: %s (stage %d -> %d)", e, sFrom, sTo)
			}
			return true
		})
	}
}

// ---------- Perspective ----------

func TestPerspectivePlansSpeculation(t *testing.T) {
	// nab-style scatter: carried deps are may-deps => speculable.
	m := compile(t, `
int fx[64];
int idx_a[256];
int idx_b[256];
int main() {
  int i;
  for (i = 0; i < 256; i = i + 1) {
    idx_a[i] = (i * 7) % 64;
    idx_b[i] = (i * 11 + 3) % 64;
  }
  for (i = 0; i < 256; i = i + 1) {
    fx[idx_a[i]] = fx[idx_a[i]] + 1;
    fx[idx_b[i]] = fx[idx_b[i]] - 1;
  }
  int s = 0;
  for (i = 0; i < 64; i = i + 1) { s = s + fx[i]; }
  print_i64(s);
  return s % 256;
}`)
	n := newN(m)
	res := perspective.Run(n)
	if len(res.Plans) == 0 {
		t.Fatal("no plans")
	}
	foundSpec := false
	for _, p := range res.Plans {
		for _, sp := range p.SCCs {
			if sp.Strategy == perspective.Speculate {
				foundSpec = true
				if sp.OverheadPerIter <= 0 {
					t.Error("speculation plan without overhead")
				}
			}
		}
	}
	if !foundSpec {
		t.Error("scatter loop produced no speculation plan")
	}
}

func TestPerspectiveRefusesMustDeps(t *testing.T) {
	// crc-style must-dependence: not speculable, not privatizable.
	b, err := bench.ByName("crc")
	if err != nil {
		t.Fatal(err)
	}
	m, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	n := newN(m)
	res := perspective.Run(n)
	foundSequential := false
	for _, p := range res.Plans {
		if !p.Parallelizable {
			foundSequential = true
		}
	}
	if !foundSequential {
		t.Error("crc's chained recurrence should defeat the planner")
	}
}

// ---------- cross-checks ----------

// TestToolsComposability runs LICM then DOALL-style analysis then CARAT on
// one module: tools must compose without corrupting the IR.
func TestToolsComposability(t *testing.T) {
	m := compile(t, `
int a[128];
int factor = 5;
int main() {
  int i;
  int s = 0;
  for (i = 0; i < 128; i = i + 1) {
    a[i] = i * factor;
    s = s + a[i];
  }
  print_i64(s);
  return s % 256;
}`)
	r0, o0, _ := run(t, ir.CloneModule(m))
	n := newN(m)
	licm.Run(n)
	carat.Run(n)
	coos.Run(n, 5000)
	if err := ir.Verify(m); err != nil {
		t.Fatalf("composed tools corrupted the module: %v", err)
	}
	r1, o1, _ := run(t, m)
	if r0 != r1 || o0 != o1 {
		t.Errorf("composition changed semantics: (%d,%q) -> (%d,%q)", r0, o0, r1, o1)
	}
}

// TestSCCDAGKindsOnKnownLoop pins the aSCCDAG classification of a loop
// with one of each kind.
func TestSCCDAGKindsOnKnownLoop(t *testing.T) {
	m := compile(t, `
int a[64];
int b[64];
int main() {
  int i;
  int s = 0;
  int chain = 0;
  for (i = 0; i < 64; i = i + 1) {
    b[i] = a[i] * 2;             // independent
    s = s + a[i];                // reducible
    chain = (chain * 3 + a[i]) % 97;  // sequential (non-associative fold)
  }
  print_i64(s + chain + b[5]);
  return 0;
}`)
	n := newN(m)
	f := m.FunctionByName("main")
	for _, node := range n.Forest(f).Roots {
		l := n.Loop(node.LS)
		if !strings.Contains(node.LS.Header.Nam, "for") {
			continue
		}
		ind, seq, red := l.SCCDAG.Counts()
		if red != 1 {
			t.Errorf("reducible = %d, want 1 (s)", red)
		}
		// chain's SCC is sequential and not an IV.
		realSeq := 0
		for _, sn := range l.SCCDAG.Nodes {
			if sn.Kind == sccdag.Sequential && !sn.IsIV {
				realSeq++
			}
		}
		if realSeq != 1 {
			t.Errorf("non-IV sequential SCCs = %d, want 1 (chain)", realSeq)
		}
		if ind == 0 {
			t.Error("no independent SCCs found")
		}
		_ = seq
	}
}
