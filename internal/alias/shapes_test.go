package alias_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"noelle/internal/alias"
	"noelle/internal/ir"
	"noelle/internal/irtext"
)

// The shapes the bottom-up summaries and the worklist solver have to get
// right: call-graph cycles, late-discovered call edges, and depth. Every
// module is also held to the round-robin reference.

func parse(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := irtext.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return m
}

func has(set []ir.Value, v ir.Value) bool { return slices.Contains(set, v) }

// writesOf returns f's summarized write set.
func writesOf(pt *alias.PointsTo, f *ir.Function) []ir.Value {
	_, writes, _, _ := pt.Summary(f)
	return writes
}

func TestMutualRecursionSharesSummaries(t *testing.T) {
	m := compile(t, `
int ga;
int gb;
int a(int n) { ga = n; if (n > 0) { return b(n - 1); } return 0; }
int b(int n) { gb = n; if (n > 0) { return a(n - 1); } return 1; }
int main() { return a(5); }`)
	checkAgainstReference(t, "mutual", m)
	pt := alias.NewPointsTo(m)
	for _, fn := range []string{"a", "b", "main"} {
		writes := writesOf(pt, m.FunctionByName(fn))
		if !has(writes, m.GlobalByName("ga")) || !has(writes, m.GlobalByName("gb")) {
			t.Errorf("@%s writes %d objects, want both @ga and @gb", fn, len(writes))
		}
	}
}

// A buffer private to one member of a cycle, handed to the other member:
// the callee's summary names it (it is not the callee's own), the owner's
// does not, and neither does anything above the cycle.
func TestPrivateAllocaInsideCycle(t *testing.T) {
	m := compile(t, `
int fill(int *p, int n) { p[0] = n; if (n > 0) { return owner(n - 1); } return p[0]; }
int owner(int n) { int buf[2]; buf[1] = n; return fill(&buf[0], n) + buf[1]; }
int main() { return owner(3); }`)
	checkAgainstReference(t, "cycle-private", m)
	pt := alias.NewPointsTo(m)
	if w := writesOf(pt, m.FunctionByName("fill")); len(w) != 1 {
		t.Errorf("@fill writes %d objects, want exactly owner's buffer", len(w))
	}
	for _, fn := range []string{"owner", "main"} {
		if pt.FuncAccessesMemory(m.FunctionByName(fn)) {
			t.Errorf("@%s: activation-private buffer leaked out of the cycle", fn)
		}
	}
}

func TestSelfRecursionKeepsPrivateBufferPrivate(t *testing.T) {
	m := compile(t, `
int down(int n) { int st[2]; st[0] = n; if (n > 0) { st[1] = down(n - 1); } return st[0] + st[1]; }
int main() { return down(4) + down(2); }`)
	checkAgainstReference(t, "self-recursion", m)
	if alias.NewPointsTo(m).FuncAccessesMemory(m.FunctionByName("down")) {
		t.Error("self-recursive @down exports its own activation's buffer")
	}
}

// The indirect call %h has no target until the solver has resolved %sel
// (a function address round-tripped through an integer cell) to @pick and
// bound @w through it; the call-graph edge caller -> w found that late
// must still carry w's write of @g up to main.
const lateTargetIR = `module "late"

global @g : i64 zeroinit

func @w(%x: i64) i64 {
entry:
  store i64 %x, @g
  ret %x
}

func @pick(%f: fn(i64) i64) fn(i64) i64 {
entry:
  ret %f
}

func @caller() i64 {
entry:
  %cell = alloca i64, 1
  %pa = p2i @pick
  store i64 %pa, %cell
  %pb = load i64, %cell
  %sel = i2p fn(fn(i64) i64) fn(i64) i64, %pb
  %h = call fn(i64) i64 %sel(@w)
  %r = call i64 %h(7)
  ret %r
}

func @main() i64 {
entry:
  %r = call i64 @caller()
  ret %r
}
`

func TestLateIndirectTargetReachesCallerSummary(t *testing.T) {
	m := parse(t, lateTargetIR)
	checkAgainstReference(t, "late-target", m)
	pt := alias.NewPointsTo(m)
	var last *ir.Instr
	m.FunctionByName("caller").Instrs(func(in *ir.Instr) bool {
		if in.Opcode == ir.OpCall {
			last = in
		}
		return true
	})
	if c := pt.Callees(last); len(c) != 1 || c[0] != m.FunctionByName("w") {
		t.Fatalf("callees of %%h = %v, want @w", c)
	}
	for _, fn := range []string{"caller", "main"} {
		if !has(writesOf(pt, m.FunctionByName(fn)), m.GlobalByName("g")) {
			t.Errorf("@%s does not write @g", fn)
		}
	}
}

// An indirect call no target resolves for taints every caller above it:
// main never names @g, but what it calls may do anything.
const opaqueIR = `module "opaque"

global @g : i64 zeroinit

func @bump(%x: i64) i64 {
entry:
  %t0 = load i64, @g
  %t1 = add %t0, %x
  store i64 %t1, @g
  ret %t1
}

func @quiet(%x: i64) i64 {
entry:
  %y = mul %x, %x
  ret %y
}

func @through(%x: i64) i64 {
entry:
  %a = p2i @bump
  %b = add %a, 0
  %f = i2p fn(i64) i64, %b
  %r = call i64 %f(%x)
  ret %r
}

func @main() i64 {
entry:
  %q = call i64 @quiet(3)
  %r = call i64 @through(%q)
  %v = load i64, @g
  ret %v
}
`

func TestOpaqueCallIsNotInvisible(t *testing.T) {
	m := parse(t, opaqueIR)
	checkAgainstReference(t, "opaque", m)
	pt := alias.NewPointsTo(m)
	var calls []*ir.Instr
	for _, fn := range []string{"through", "main"} {
		m.FunctionByName(fn).Instrs(func(in *ir.Instr) bool {
			if in.Opcode == ir.OpCall {
				calls = append(calls, in)
			}
			return true
		})
	}
	opaque, quiet, through := calls[0], calls[1], calls[2]
	if len(pt.Callees(opaque)) != 0 {
		t.Fatal("provenance survived integer arithmetic: the fixture no longer has an opaque call")
	}
	g := m.GlobalByName("g")
	for _, call := range []*ir.Instr{opaque, through} {
		if pt.CallIsPure(call) || pt.CallModRefPtr(call, g) != alias.ModAndRef {
			t.Errorf("%s: pure=%v modref(@g)=%v, want impure and ModAndRef", call.Ident(), pt.CallIsPure(call), pt.CallModRefPtr(call, g))
		}
		if !pt.CallsAccessMemory(call, through) {
			t.Errorf("%s is not ordered against the call to @through", call.Ident())
		}
	}
	for _, fn := range []string{"through", "main"} {
		f := m.FunctionByName(fn)
		if !pt.FuncHasSideEffects(f) || !pt.FuncAccessesMemory(f) {
			t.Errorf("@%s: io=%v mem=%v, want both", fn, pt.FuncHasSideEffects(f), pt.FuncAccessesMemory(f))
		}
	}
	if !pt.CallIsPure(quiet) || pt.CallModRefPtr(quiet, g) != alias.NoModRef {
		t.Error("the resolved, pure call to @quiet got caught up in it")
	}
}

// chainIR is two call chains under main, c0 -> c1 -> ... -> c<n-1> for c
// in {f, r}, about 20 instructions a function, every level handing the
// pointer it was given to the next; the last level stores through it and to
// each of 64 globals. The f chain is laid out callers first, which is the
// order that costs a round-robin summary a pass per level, and the r chain
// callees first, which does the same to a round-robin solve.
func chainIR(n int) string {
	var b strings.Builder
	b.WriteString("module \"chain\"\n\nglobal @cell : i64 zeroinit\n")
	for g := 0; g < 64; g++ {
		fmt.Fprintf(&b, "global @sink%d : i64 zeroinit\n", g)
	}
	level := func(c string, k int) {
		fmt.Fprintf(&b, "\nfunc @%s%d(%%p: ptr<i64>, %%x: i64) i64 {\nentry:\n  %%t0 = add %%x, %d\n", c, k, k)
		for i := 1; i < 18; i++ {
			fmt.Fprintf(&b, "  %%t%d = xor %%t%d, %d\n", i, i-1, i)
		}
		if k+1 < n {
			fmt.Fprintf(&b, "  %%r = call i64 @%s%d(%%p, %%t17)\n  ret %%r\n}\n", c, k+1)
			return
		}
		for g := 0; g < 64; g++ {
			fmt.Fprintf(&b, "  store i64 %%t17, @sink%d\n", g)
		}
		b.WriteString("  store i64 %t17, %p\n  ret %t17\n}\n")
	}
	for k := 0; k < n; k++ {
		level("f", k)
	}
	for k := n - 1; k >= 0; k-- {
		level("r", k)
	}
	b.WriteString("\nfunc @main() i64 {\nentry:\n  %a = call i64 @f0(@cell, 1)\n  %b = call i64 @r0(@cell, %a)\n  ret %b\n}\n")
	return b.String()
}

// TestDeepChainsAreLinear is a scaling guard, not a timing. On 2,000-level
// chains the analysis takes about 15 ms when a summary climbs the call
// graph once and a pointer descends it along its edges; the round-robin
// reference takes most of a minute (2,000 passes over 80,000
// instructions, copying a 65-object summary at every call site in each).
// The bound sits an order of magnitude from the second and two from the
// first.
func TestDeepChainsAreLinear(t *testing.T) {
	const depth = 2000
	m := parse(t, chainIR(depth))
	start := time.Now()
	pt := alias.NewPointsTo(m)
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("NewPointsTo on %d-deep chains took %v", depth, d)
	}
	cell := m.GlobalByName("cell")
	for _, f := range m.Functions {
		w := writesOf(pt, f)
		if len(w) != 65 || !has(w, cell) || !has(w, m.GlobalByName("sink63")) {
			t.Fatalf("@%s writes %d objects, want @cell and the 64 sinks", f.Nam, len(w))
		}
	}
	for _, c := range []string{"f", "r"} {
		last := m.FunctionByName(fmt.Sprintf("%s%d", c, depth-1))
		if p := pt.PointsToSet(last.Params[0]); len(p) != 1 || p[0] != cell {
			t.Errorf("the pointer arrives at @%s as %v, want @cell", last.Nam, p)
		}
	}
}
