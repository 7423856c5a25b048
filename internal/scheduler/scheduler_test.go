package scheduler_test

import (
	"testing"

	"noelle/internal/core"
	"noelle/internal/ir"
	"noelle/internal/irtext"
	"noelle/internal/pdg"
	"noelle/internal/scheduler"
)

func parse(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := irtext.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return m
}

// straightLine is four instructions with deps a -> b -> d and c -> d.
const straightLine = `module "m"
func @main() i64 {
entry:
  %a = add 1, 2
  %b = mul %a, 3
  %c = add 4, 5
  %d = add %b, %c
  ret %d
}`

func schedFor(t *testing.T, m *ir.Module) (*scheduler.Scheduler, *ir.Function) {
	t.Helper()
	f := m.FunctionByName("main")
	g := pdg.NewBuilder(m).FunctionPDG(f)
	return scheduler.New(f, g), f
}

func instrByName(t *testing.T, f *ir.Function, name string) *ir.Instr {
	t.Helper()
	var found *ir.Instr
	f.Instrs(func(in *ir.Instr) bool {
		if in.Nam == name {
			found = in
			return false
		}
		return true
	})
	if found == nil {
		t.Fatalf("no instruction %%%s", name)
	}
	return found
}

func TestCanMoveBeforeLegality(t *testing.T) {
	m := parse(t, straightLine)
	s, f := schedFor(t, m)
	a := instrByName(t, f, "a")
	b := instrByName(t, f, "b")
	c := instrByName(t, f, "c")
	d := instrByName(t, f, "d")

	// Moving %c up before %b is legal: %c depends on nothing in between.
	if !s.CanMoveBefore(c, b) {
		t.Error("independent up-motion rejected")
	}
	// Moving %a down past %b is illegal: %b consumes %a.
	if s.CanMoveBefore(a, c) || s.CanMoveBefore(a, d) {
		t.Error("down-motion past a dependent was allowed")
	}
	// Moving %b up before %a is illegal: %b depends on %a.
	if s.CanMoveBefore(b, a) {
		t.Error("up-motion past a producer was allowed")
	}
	// Terminators and self-motion are never movable.
	if s.CanMoveBefore(f.Entry().Terminator(), a) {
		t.Error("terminator motion was allowed")
	}
	if s.CanMoveBefore(a, a) {
		t.Error("self-motion was allowed")
	}
	if s.Mutated() {
		t.Error("legality queries must not mark the scheduler mutated")
	}
}

func TestMoveBeforePerformsMotion(t *testing.T) {
	m := parse(t, straightLine)
	s, f := schedFor(t, m)
	b := instrByName(t, f, "b")
	c := instrByName(t, f, "c")

	if !s.MoveBefore(c, b) {
		t.Fatal("legal motion refused")
	}
	entry := f.Entry()
	if entry.IndexOf(c) != 1 || entry.IndexOf(b) != 2 {
		t.Errorf("order after motion: c at %d, b at %d", entry.IndexOf(c), entry.IndexOf(b))
	}
	if c.Parent != entry {
		t.Error("moved instruction lost its parent")
	}
	if !s.Mutated() {
		t.Error("motion did not mark the scheduler mutated")
	}
	if err := ir.Verify(m); err != nil {
		t.Errorf("module malformed after motion: %v", err)
	}
}

func TestReorderBlockByPriority(t *testing.T) {
	m := parse(t, `module "m"
func @main() i64 {
entry:
  %a = add 1, 2
  %b = add 3, 4
  ret %a
}`)
	s, f := schedFor(t, m)
	a := instrByName(t, f, "a")
	b := instrByName(t, f, "b")
	// Prefer %b first: independent instructions reorder freely.
	changed := s.ReorderBlock(f.Entry(), func(in *ir.Instr) int {
		if in == b {
			return 0
		}
		return 1
	})
	if !changed {
		t.Fatal("independent reorder did not happen")
	}
	entry := f.Entry()
	if entry.IndexOf(b) != 0 || entry.IndexOf(a) != 1 {
		t.Errorf("order after reorder: b at %d, a at %d", entry.IndexOf(b), entry.IndexOf(a))
	}
	if !s.Mutated() {
		t.Error("reorder did not mark the scheduler mutated")
	}
}

func TestReorderBlockCycleBailout(t *testing.T) {
	m := parse(t, `module "m"
func @main() i64 {
entry:
  %a = add 1, 2
  %b = add 3, 4
  ret %a
}`)
	f := m.FunctionByName("main")
	a := instrByName(t, f, "a")
	b := instrByName(t, f, "b")
	// Hand-build a dependence cycle a <-> b (as stale or pessimistic
	// analyses can produce): the reorderer must bail out and keep the
	// original order.
	var instrs []*ir.Instr
	f.Instrs(func(in *ir.Instr) bool { instrs = append(instrs, in); return true })
	g := pdg.NewGraph(instrs, []pdg.Edge{{From: a, To: b}, {From: b, To: a}}, nil, nil)
	s := scheduler.New(f, g)

	changed := s.ReorderBlock(f.Entry(), func(in *ir.Instr) int {
		if in == b {
			return 0
		}
		return 1
	})
	if changed {
		t.Error("cyclic block was reordered")
	}
	entry := f.Entry()
	if entry.IndexOf(a) != 0 || entry.IndexOf(b) != 1 {
		t.Error("cycle bail-out did not preserve the original order")
	}
	if s.Mutated() {
		t.Error("bail-out must not mark the scheduler mutated")
	}
}

// loopSrc has a header computation %t that only the body consumes: the
// loop scheduler can sink it out of the sequential header segment.
const loopSrc = `module "m"
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
}`

func loopSchedFor(t *testing.T, m *ir.Module, headerName string) (*scheduler.LoopScheduler, *ir.Function) {
	t.Helper()
	f := m.FunctionByName("main")
	n := core.New(m, core.DefaultOptions())
	for _, ls := range n.LoopStructures(f) {
		if ls.Header.Nam == headerName {
			return scheduler.NewLoopScheduler(n.Scheduler(f), ls), f
		}
	}
	t.Fatalf("no loop with header %s", headerName)
	return nil, nil
}

func TestShrinkHeaderSinglePredBody(t *testing.T) {
	m := parse(t, loopSrc)
	lsched, f := loopSchedFor(t, m, "header")
	moved := lsched.ShrinkHeader()
	if moved != 1 {
		t.Fatalf("moved %d instructions, want 1 (%%t)", moved)
	}
	tIn := instrByName(t, f, "t")
	body := f.BlockByName("body")
	if tIn.Parent != body {
		t.Errorf("%%t now in %s, want body", tIn.Parent.Nam)
	}
	if body.IndexOf(tIn) != body.FirstNonPhi()-1 && body.IndexOf(tIn) != 0 {
		t.Errorf("%%t at index %d, want at the top of the body", body.IndexOf(tIn))
	}
	header := f.BlockByName("header")
	if header.IndexOf(tIn) != -1 {
		t.Error("sunk instruction still present in the header")
	}
	if !lsched.Mutated() {
		t.Error("sinking did not mark the scheduler mutated")
	}
	if err := ir.Verify(m); err != nil {
		t.Errorf("module malformed after ShrinkHeader: %v", err)
	}
}

func TestShrinkHeaderMultiPredBodyRefuses(t *testing.T) {
	// The body has two predecessors (header and latch): sinking into it
	// would execute the computation on a path that skipped the header
	// copy, so ShrinkHeader must refuse.
	m := parse(t, `module "m"
func @main() i64 {
entry:
  br header
header:
  %i = phi i64 [ 0, entry ], [ %inext, latch ]
  %t = mul %i, 7
  %c = lt %i, 10
  condbr %c, body, exit
body:
  %u = add %t, 1
  br latch
latch:
  %inext = add %i, 1
  %z = eq %inext, 5
  condbr %z, body, header
exit:
  ret 0
}`)
	lsched, f := loopSchedFor(t, m, "header")
	if moved := lsched.ShrinkHeader(); moved != 0 {
		t.Fatalf("moved %d instructions out of a multi-pred-body loop, want 0", moved)
	}
	if instrByName(t, f, "t").Parent != f.BlockByName("header") {
		t.Error("header instruction was sunk despite the refusal")
	}
	if lsched.Mutated() {
		t.Error("refusal must not mark the scheduler mutated")
	}
}
