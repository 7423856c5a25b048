package machine_test

import (
	"fmt"
	"reflect"
	"testing"

	"noelle/internal/analysis"
	"noelle/internal/core"
	"noelle/internal/fuzz"
	"noelle/internal/interp"
	"noelle/internal/ir"
	"noelle/internal/irtext"
	"noelle/internal/machine"
	"noelle/internal/minic"
	"noelle/internal/passes"
	"noelle/internal/tool"
	_ "noelle/internal/tools"
)

// attributeOnWalker is machine.AttributeLoops for one loop as it was before the
// compiled tier served loop costs: block and instruction hooks on the
// walker. It stays as the executable reference the compiled probes are
// checked against, with the one fix the product got too: only a defined
// callee's frame deepens the call depth (an extern executes no ret to
// lower it again), and what an in-loop call ran — externs included — is
// the change in Cycles across it, settled at the loop's next instruction.
func attributeOnWalker(m *ir.Module, nat *analysis.NaturalLoop, specs []machine.SegSpec) ([][]*machine.Invocation, error) {
	it := interp.New(m)

	inLoop := map[*ir.Block]bool{}
	for b := range nat.Blocks {
		inLoop[b] = true
	}
	header := nat.Header

	k := len(specs)
	invocations := make([][]*machine.Invocation, k)
	cur := make([]*machine.Invocation, k)
	curIter := make([][]int64, k)
	// callDepth > 0 while executing code called from inside the loop; the
	// segment of the call instruction (per spec) accumulates those cycles.
	callDepth := 0
	callSeg := make([]int, k)
	// pending: an in-loop call was issued at callStart cycles and what it
	// ran has not been charged yet.
	pending := false
	var callStart int64
	loopFn := header.Parent
	// active tracks whether a top-level invocation is being profiled; a
	// recursive re-entry of the loop's own function is not re-profiled.
	active := false

	flushIter := func() {
		for i := range specs {
			if curIter[i] != nil {
				cur[i].IterSegCosts = append(cur[i].IterSegCosts, curIter[i])
				curIter[i] = nil
			}
		}
	}
	endInvocation := func() {
		if active {
			flushIter()
			for i := range specs {
				invocations[i] = append(invocations[i], cur[i])
				cur[i] = nil
			}
		}
		active = false
		callDepth = 0
	}

	it.BlockHook = func(b *ir.Block) {
		if active && b == b.Parent.Entry() {
			callDepth++ // a callee's frame opens
		}
		if callDepth > 0 {
			return
		}
		if b == header {
			if !active {
				for i := range specs {
					cur[i] = &machine.Invocation{}
				}
				active = true
			} else {
				flushIter()
			}
			for i, sp := range specs {
				curIter[i] = make([]int64, sp.NumSegs)
			}
			return
		}
		if active && b.Parent == loopFn && !inLoop[b] {
			endInvocation()
		}
	}
	it.InstrHook = func(in *ir.Instr) {
		if !active {
			return
		}
		if callDepth > 0 {
			// Inside a callee: its cycles are charged when the call is back.
			if in.Opcode == ir.OpRet {
				callDepth--
			}
			return
		}
		if pending {
			ran := it.Cycles - interp.Cost(in) - callStart
			for i := range specs {
				curIter[i][callSeg[i]] += ran
			}
			pending = false
		}
		if in.Parent == nil || !inLoop[in.Parent] {
			if in.Opcode == ir.OpRet && in.Parent != nil && in.Parent.Parent == loopFn {
				endInvocation()
			}
			return
		}
		c := interp.Cost(in)
		for i, sp := range specs {
			seg, ok := sp.SegmentOf[in]
			if !ok {
				seg = sp.NumSegs - 1
			}
			if curIter[i] != nil {
				curIter[i][seg] += c
			}
			callSeg[i] = seg
		}
		if in.Opcode == ir.OpCall {
			pending, callStart = true, it.Cycles
		}
	}

	if _, err := it.Run(); err != nil {
		return nil, fmt.Errorf("machine: attribution run failed: %w", err)
	}
	endInvocation()
	return invocations, nil
}

// checkAgainstWalker attributes every loop of m under the empty
// one-segment spec, a striped one and every registered planner's
// segmentation of it, on the compiled tier and on the walker reference:
// once per loop, and then every loop of m in one run.
func checkAgainstWalker(t *testing.T, name string, m *ir.Module) (loops int) {
	t.Helper()
	opts := core.DefaultOptions()
	opts.MinHotness = 0
	n := core.New(m, opts)
	var batch []machine.LoopSpecs
	var wants [][][]*machine.Invocation
	for _, f := range m.Functions {
		for _, ls := range n.LoopStructures(f) {
			specs := []machine.SegSpec{{NumSegs: 1}, striped(ls.Nat, 3)}
			for _, p := range tool.Planners() {
				if plan, err := p.PlanLoop(n, ls, tool.DefaultOptions()); err == nil {
					segOf, numSegs := plan.Segments()
					specs = append(specs, machine.SegSpec{SegmentOf: segOf, NumSegs: numSegs})
				}
			}
			want, err := attributeOnWalker(m, ls.Nat, specs)
			if err != nil {
				t.Fatalf("%s @%s/%s: reference: %v", name, f.Nam, ls.Header.Nam, err)
			}
			one := []machine.LoopSpecs{{Loop: ls.Nat, Specs: specs}}
			got, err := machine.AttributeLoops(m, one)
			if err != nil {
				t.Fatalf("%s @%s/%s: %v", name, f.Nam, ls.Header.Nam, err)
			}
			if !reflect.DeepEqual(got[0], want) {
				t.Errorf("%s @%s/%s: %d specs: compiled rows differ from the walker's (invocations %d/%d, cycles %d/%d)",
					name, f.Nam, ls.Header.Nam, len(specs), len(got[0][0]), len(want[0]),
					machine.SequentialCycles(got[0][0]), machine.SequentialCycles(want[0]))
			}
			batch, wants = append(batch, one[0]), append(wants, want)
			loops++
		}
	}
	if len(batch) == 0 {
		return 0
	}
	got, err := machine.AttributeLoops(m, batch)
	if err != nil {
		t.Fatalf("%s, %d loops in one run: %v", name, len(batch), err)
	}
	for i, l := range batch {
		if !reflect.DeepEqual(got[i], wants[i]) {
			t.Errorf("%s @%s/%s in a run observing all %d loops: rows differ from the walker's (invocations %d/%d)",
				name, l.Loop.Header.Parent.Nam, l.Loop.Header.Nam, len(batch), len(got[i][0]), len(wants[i][0]))
		}
	}
	return loops
}

// TestAttributionMatchesWalkerReference: row for row, on every loop of
// every subject.
func TestAttributionMatchesWalkerReference(t *testing.T) {
	loops := 0
	if err := fuzz.Subjects(150, func(name string, m *ir.Module) {
		loops += checkAgainstWalker(t, name, m)
	}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d loops attributed on both tiers", loops)
	if loops < 196 {
		t.Errorf("only %d loops", loops)
	}
}

// both attributes one loop under specs on the compiled tier and on the
// walker reference, fails on any difference, and returns the rows.
func both(t *testing.T, m *ir.Module, fn, header string, specs []machine.SegSpec) (*analysis.NaturalLoop, [][]*machine.Invocation) {
	t.Helper()
	nats, got := batched(t, m, [][2]string{{fn, header}}, specs)
	return nats[0], got[0]
}

// batched attributes the loops named {fn, header} in one compiled run,
// each under specs (nil: a one-segment and two striped specs), and fails
// unless each loop's rows are the walker reference's for it alone.
func batched(t *testing.T, m *ir.Module, names [][2]string, specs []machine.SegSpec) ([]*analysis.NaturalLoop, [][][]*machine.Invocation) {
	t.Helper()
	opts := core.DefaultOptions()
	opts.MinHotness = 0
	n := core.New(m, opts)
	var nats []*analysis.NaturalLoop
	var batch []machine.LoopSpecs
	for _, name := range names {
		var nat *analysis.NaturalLoop
		for _, ls := range n.LoopStructures(m.FunctionByName(name[0])) {
			if ls.Header.Nam == name[1] {
				nat = ls.Nat
			}
		}
		if nat == nil {
			t.Fatalf("@%s has no loop headed by %s", name[0], name[1])
		}
		sp := specs
		if sp == nil {
			sp = []machine.SegSpec{{NumSegs: 1}, striped(nat, 2), striped(nat, 3)}
		}
		nats, batch = append(nats, nat), append(batch, machine.LoopSpecs{Loop: nat, Specs: sp})
	}
	got, err := machine.AttributeLoops(m, batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range batch {
		want, err := attributeOnWalker(m, l.Loop, l.Specs)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("@%s/%s among %d observed loops: compiled rows differ from the walker's:\n got %v\nwant %v",
				names[i][0], names[i][1], len(batch), rowsOf(got[i]), rowsOf(want))
		}
	}
	return nats, got
}

func rowsOf(all [][]*machine.Invocation) (out [][][][]int64) {
	for _, invs := range all {
		var rows [][][]int64
		for _, inv := range invs {
			rows = append(rows, inv.IterSegCosts)
		}
		out = append(out, rows)
	}
	return out
}

// striped deals the loop's instructions round-robin over k segments, so
// every pair of neighbours — the halves of a fused compare-and-branch,
// the thirds of a fused load-op-store, two calls of one block — sits on a
// segment boundary.
func striped(nat *analysis.NaturalLoop, k int) machine.SegSpec {
	sp := machine.SegSpec{SegmentOf: map[*ir.Instr]int{}, NumSegs: k}
	j := 0
	for _, b := range nat.BlockList() {
		for _, in := range b.Instrs {
			sp.SegmentOf[in] = j % k
			j++
		}
	}
	return sp
}

func parseIR(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := irtext.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestAttributionShapes holds the compiled probes to the walker on the
// shapes the corpus has few of, and pins what each must come back as.
func TestAttributionShapes(t *testing.T) {
	t.Run("data-dependent branch", func(t *testing.T) {
		m := parseIR(t, `module "m"
global @a : [16 x i64] zeroinit
func @main() i64 {
entry:
  br head
head:
  %i = phi i64 [ 0, entry ], [ %next, latch ]
  %s = phi i64 [ 0, entry ], [ %s2, latch ]
  %c = lt %i, 16
  condbr %c, body, done
body:
  %r = rem %i, 3
  %z = eq %r, 0
  condbr %z, heavy, light
heavy:
  %p = ptradd @a, 0
  %q = ptradd %p, %i
  %v = load i64, %q
  %w = mul %v, 7
  %h = add %s, %w
  br latch
light:
  %l = add %s, 1
  br latch
latch:
  %s2 = phi i64 [ %h, heavy ], [ %l, light ]
  %p2 = ptradd @a, 0
  %q2 = ptradd %p2, %i
  store i64 %s2, %q2
  %next = add %i, 1
  br head
done:
  ret %s
}`)
		_, got := both(t, m, "main", "head", nil)
		rows := got[0][0].IterSegCosts
		if len(got[0]) != 1 || len(rows) != 17 {
			t.Fatalf("%d invocations, %d rows; want 1 and 17", len(got[0]), len(rows))
		}
		if rows[0][0] <= rows[1][0] || rows[1][0] != rows[2][0] || rows[16][0] >= rows[1][0] {
			t.Errorf("rows %v: the heavy arm, the light arm and the exit check must price differently", rows)
		}
	})

	t.Run("zero-trip invocation and an inner header", func(t *testing.T) {
		m := parseIR(t, `module "m"
global @a : [16 x i64] zeroinit
func @sweep(%n: i64) i64 {
entry:
  br outer
outer:
  %i = phi i64 [ 0, entry ], [ %inext, outer.latch ]
  %ci = lt %i, %n
  condbr %ci, inner, done
inner:
  %j = phi i64 [ 0, outer ], [ %jnext, inner.body ]
  %cj = lt %j, %i
  condbr %cj, inner.body, outer.latch
inner.body:
  %p = ptradd @a, 0
  %q = ptradd %p, %j
  %v = load i64, %q
  %v2 = add %v, %i
  store i64 %v2, %q
  %jnext = add %j, 1
  br inner
outer.latch:
  %inext = add %i, 1
  br outer
done:
  ret %i
}
func @main() i64 {
entry:
  %a = call i64 @sweep(0)
  %b = call i64 @sweep(3)
  ret %b
}`)
		_, got := both(t, m, "sweep", "outer", nil)
		if len(got[0]) != 2 || len(got[0][0].IterSegCosts) != 1 || len(got[0][1].IterSegCosts) != 4 {
			t.Errorf("outer loop: %v; want a one-row invocation (the exit check) and a four-row one", rowsOf(got)[0])
		}
		// The inner loop is entered once per outer iteration, the first
		// time for zero trips.
		_, got = both(t, m, "sweep", "inner", nil)
		var trips []int
		for _, inv := range got[0] {
			trips = append(trips, len(inv.IterSegCosts))
		}
		if !reflect.DeepEqual(trips, []int{1, 2, 3}) {
			t.Errorf("inner loop rows per invocation %v, want [1 2 3]", trips)
		}
		// Both in one run: every inner block opens with two probes.
		batched(t, m, [][2]string{{"sweep", "outer"}, {"sweep", "inner"}}, nil)
	})

	t.Run("one loop's exit is the next loop's header", func(t *testing.T) {
		m := parseIR(t, `module "m"
func @main() i64 {
entry:
  br first
first:
  %i = phi i64 [ 0, entry ], [ %in, first ]
  %in = add %i, 1
  %c = lt %in, 4
  condbr %c, first, second
second:
  %j = phi i64 [ 0, first ], [ %jn, second ]
  %jn = add %j, 1
  %d = lt %jn, 3
  condbr %d, second, done
done:
  ret %jn
}`)
		_, got := batched(t, m, [][2]string{{"main", "first"}, {"main", "second"}}, nil)
		if len(got[0][0]) != 1 || len(got[0][0][0].IterSegCosts) != 4 || len(got[1][0]) != 1 || len(got[1][0][0].IterSegCosts) != 3 {
			t.Errorf("rows %v and %v; want one invocation of 4 rows, then one of 3", rowsOf(got[0]), rowsOf(got[1]))
		}
	})

	t.Run("a loop calling a function whose loop recurses into itself", func(t *testing.T) {
		m := parseIR(t, `module "m"
declare @print_i64 : fn(i64) void
func @rec(%d: i64) i64 {
entry:
  br head
head:
  %i = phi i64 [ 0, entry ], [ %next, latch ]
  %acc = phi i64 [ 0, entry ], [ %acc2, latch ]
  %c = lt %i, 2
  condbr %c, body, out
body:
  %pos = gt %d, 0
  condbr %pos, recurse, latch
recurse:
  %dm = sub %d, 1
  %r = call i64 @rec(%dm)
  call void @print_i64(%r)
  br latch
latch:
  %v = phi i64 [ %r, recurse ], [ 1, body ]
  %acc2 = add %acc, %v
  %next = add %i, 1
  br head
out:
  ret %acc
}
func @main() i64 {
entry:
  br loop
loop:
  %k = phi i64 [ 0, entry ], [ %kn, loop ]
  %s = phi i64 [ 0, entry ], [ %s2, loop ]
  %r = call i64 @rec(%k)
  %s2 = add %s, %r
  %kn = add %k, 1
  %c = lt %kn, 3
  condbr %c, loop, done
done:
  ret %s2
}`)
		// The caller's loop stands down while @rec runs, and @rec's loop
		// while it recurses: one invocation per call from @main.
		_, got := batched(t, m, [][2]string{{"main", "loop"}, {"rec", "head"}}, nil)
		if len(got[0][0]) != 1 || len(got[0][0][0].IterSegCosts) != 3 || len(got[1][0]) != 3 {
			t.Errorf("@main's loop %v, @rec's %d invocations; want 3 rows in one, and 3", rowsOf(got[0])[0], len(got[1][0]))
		}
		batched(t, m, [][2]string{{"rec", "head"}, {"main", "loop"}, {"rec", "head"}}, nil)
	})

	t.Run("exit by ret, recursion, two calls in one block", func(t *testing.T) {
		m := parseIR(t, `module "m"
declare @print_i64 : fn(i64) void
func @leaf(%x: i64) i64 {
entry:
  %y = mul %x, %x
  ret %y
}
func @walk(%d: i64) i64 {
entry:
  br head
head:
  %i = phi i64 [ 0, entry ], [ %next, body ]
  %acc = phi i64 [ 0, entry ], [ %acc2, body ]
  %c = lt %i, 3
  condbr %c, check, out
check:
  %big = gt %acc, 1000
  condbr %big, bail, body
body:
  %down = sub %d, 1
  %pos = gt %d, 0
  %arg = select %pos, %down, 0
  %l = call i64 @leaf(%i)
  %r = call i64 @maybe(%d, %arg)
  %t = add %l, %r
  %acc2 = add %acc, %t
  %next = add %i, 1
  br head
bail:
  ret %acc
out:
  call void @print_i64(%acc)
  ret %acc
}
func @maybe(%go: i64, %d: i64) i64 {
entry:
  %c = ne %go, 0
  condbr %c, rec, stop
rec:
  %r = call i64 @walk(%d)
  ret %r
stop:
  ret 100
}
func @main() i64 {
entry:
  %a = call i64 @walk(2)
  %b = call i64 @walk(0)
  %s = add %a, %b
  ret %s
}`)
		loop := func(nat *analysis.NaturalLoop, name string) *ir.Instr {
			var found *ir.Instr
			nat.Instrs(func(in *ir.Instr) bool {
				if in.Nam == name {
					found = in
				}
				return true
			})
			if found == nil {
				t.Fatalf("no %%%s in the loop", name)
			}
			return found
		}
		nat, _ := both(t, m, "walk", "head", nil)
		// The two calls of body in segments of their own, the rest in the
		// default one.
		spec := machine.SegSpec{SegmentOf: map[*ir.Instr]int{loop(nat, "l"): 0, loop(nat, "r"): 1}, NumSegs: 3}
		_, got := both(t, m, "walk", "head", []machine.SegSpec{spec})
		// walk(2) from main is one invocation: every deeper walk runs
		// under its call to @maybe and is that call's cost. It leaves by
		// bail's ret; walk(0) leaves by out.
		if len(got[0]) != 2 {
			t.Fatalf("%d invocations, want 2 (recursive entries are not invocations)", len(got[0]))
		}
		first, second := got[0][0].IterSegCosts, got[0][1].IterSegCosts
		if len(first) != 3 || len(second) != 4 {
			t.Errorf("rows %d and %d, want 3 (left through bail) and 4", len(first), len(second))
		}
		leaf := interp.CostCallOver + interp.CostIntMul + interp.CostBranch // the call, then @leaf's mul and ret
		if first[0][0] != leaf || second[0][0] != leaf {
			t.Errorf("@leaf's segment: %d and %d cycles, want %d", first[0][0], second[0][0], leaf)
		}
		if first[0][1] <= second[0][1] {
			t.Errorf("@maybe's segment: %d cycles with the recursion under it, %d without", first[0][1], second[0][1])
		}
	})

	t.Run("superinstructions across segments", func(t *testing.T) {
		m := parseIR(t, `module "m"
global @a : [8 x i64] zeroinit
func @main() i64 {
entry:
  br body
body:
  %i = phi i64 [ 0, entry ], [ %next, body ]
  %p = ptradd @a, 0
  %q = ptradd %p, %i
  %v = load i64, %q
  %v2 = add %v, %i
  store i64 %v2, %q
  %next = add %i, 1
  %c = lt %next, 8
  condbr %c, body, done
done:
  ret 0
}`)
		nat, _ := both(t, m, "main", "body", nil)
		seg := map[*ir.Instr]int{}
		for _, in := range nat.Header.Instrs {
			switch in.Opcode {
			case ir.OpLoad, ir.OpLt:
				seg[in] = 0
			case ir.OpAdd, ir.OpCondBr:
				seg[in] = 1
			case ir.OpStore:
				seg[in] = 2
			}
		}
		_, got := both(t, m, "main", "body", []machine.SegSpec{{SegmentOf: seg, NumSegs: 4}})
		want := []int64{interp.CostLoad + interp.CostIntALU, 2*interp.CostIntALU + interp.CostBranch, interp.CostStore, 2 * interp.CostIntALU}
		if row := got[0][0].IterSegCosts[3]; !reflect.DeepEqual(row, want) {
			t.Errorf("row %v, want %v (load+lt, add+add+condbr, store, the two ptradds)", row, want)
		}
	})
}

// TestExternCallInsideAttributedLoop: a call to a declaration used to set
// the call depth with no ret to lower it, so the rest of the run — the
// code after the loop included — landed in one row, and the extern's own
// cost in none.
func TestExternCallInsideAttributedLoop(t *testing.T) {
	compile := func(body string) *ir.Module {
		m, err := minic.Compile("m", `int a[16];
int main() {
  int i; int s = 0;
  for (i = 0; i < 10; i = i + 1) { s = s + i; `+body+` a[i] = s; }
  print_i64(s);
  return 0;
}`)
		if err != nil {
			t.Fatal(err)
		}
		passes.Optimize(m)
		return m
	}
	header := func(m *ir.Module) string {
		opts := core.DefaultOptions()
		opts.MinHotness = 0
		return core.New(m, opts).LoopStructures(m.FunctionByName("main"))[0].Header.Nam
	}
	quiet, loud := compile(""), compile("print_i64(i);")
	_, without := both(t, quiet, "main", header(quiet), nil)
	_, with := both(t, loud, "main", header(loud), nil)
	a, b := without[0][0].IterSegCosts, with[0][0].IterSegCosts
	if len(with[0]) != 1 || len(a) != 11 || len(b) != 11 {
		t.Fatalf("%d rows without the print, %d with, in %d invocations; want 11 and 11 in one", len(a), len(b), len(with[0]))
	}
	for i := range a {
		extra := interp.CostCallOver + interp.CostExternFix
		if i == 10 {
			extra = 0 // the exit check prints nothing
		}
		if b[i][0] != a[i][0]+extra {
			t.Errorf("iteration %d: %d cycles with the print, %d without: want %d more", i, b[i][0], a[i][0], extra)
		}
	}
	// The rows add up to what the run spent across the loop: everything
	// but the code around it, which the quiet program shares.
	cycles := func(m *ir.Module) int64 {
		it := interp.New(m)
		if _, err := it.Run(); err != nil {
			t.Fatal(err)
		}
		return it.Cycles
	}
	if around := cycles(quiet) - machine.SequentialCycles(without[0]); cycles(loud)-machine.SequentialCycles(with[0]) != around {
		t.Errorf("loop rows do not add up to the executed cycles across it: %d around the quiet loop, %d around the printing one",
			around, cycles(loud)-machine.SequentialCycles(with[0]))
	}
}
