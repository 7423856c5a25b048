package loopbuilder_test

import (
	"strings"
	"testing"

	"noelle/internal/alias"
	"noelle/internal/interp"
	"noelle/internal/ir"
	"noelle/internal/irtext"
	"noelle/internal/loopbuilder"
	"noelle/internal/loops"
)

// hoistSrc has an invariant %k in the body of a loop the entry reaches
// along two edges, so the header has no pre-header until Hoist makes one.
const hoistSrc = `module "hoist"

global @out : i64 zeroinit

declare @print_i64 : fn(i64) void

func @main() i64 {
entry:
  %s = add 2, 3
  %z = lt %s, 4
  condbr %z, side, header
side:
  br header
header:
  %i = phi i64 [ 0, entry ], [ 10, side ], [ %i.next, body ]
  %acc = phi i64 [ 0, entry ], [ 1, side ], [ %acc.next, body ]
  %c = lt %i, 20
  condbr %c, body, exit
body:
  %k = mul %s, 7
  %acc.next = add %acc, %k
  store i64 %acc.next, @out
  %i.next = add %i, 1
  br header
exit:
  call void @print_i64(%acc)
  ret %acc
}
`

// promoteSrc accumulates into the global @total through memory on every
// iteration; CALL marks where the refusal case puts a call.
const promoteSrc = `module "promote"

global @total : i64 = { 3 }
global @a : [16 x i64] zeroinit

declare @print_i64 : fn(i64) void

func @main() i64 {
entry:
  br header
header:
  %i = phi i64 [ 0, entry ], [ %i.next, body ]
  %c = lt %i, 16
  condbr %c, body, exit
body:
  %p = ptradd @a, %i
  store i64 %i, %p
  %t = load i64, @total
  %t.next = add %t, %i
  store i64 %t.next, @total
  CALL
  %i.next = add %i, 1
  br header
exit:
  %r = load i64, @total
  call void @print_i64(%r)
  ret %r
}
`

// onlyLoop parses src and returns its module and the LS of its one loop.
func onlyLoop(t *testing.T, src string) (*ir.Module, *loops.LS) {
	t.Helper()
	m, err := irtext.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	fr := loops.NewForest(m.FunctionByName("main"))
	if nodes := fr.Nodes(); len(nodes) == 1 {
		return m, nodes[0].LS
	}
	t.Fatal("fixture must have exactly one loop")
	return nil, nil
}

// onWalker runs m on the walker: what a transformation must preserve.
func onWalker(t *testing.T, m *ir.Module) observed {
	t.Helper()
	it := interp.New(m)
	it.Eng = interp.EngineWalker
	r, err := it.Run()
	if err != nil {
		t.Fatalf("run: %v\n%s", err, ir.Print(m))
	}
	return observed{r, it.Output.String(), it.MemoryFingerprint()}
}

// checkTransformed holds a transformed module to the untransformed run.
func checkTransformed(t *testing.T, m *ir.Module, want observed) {
	t.Helper()
	if err := ir.Verify(m); err != nil {
		t.Fatalf("transformed module does not verify: %v\n%s", err, ir.Print(m))
	}
	if got := onWalker(t, m); got != want {
		t.Errorf("transformed module observed %+v, original %+v", got, want)
	}
}

func loopInstr(t *testing.T, ls *loops.LS, name string) *ir.Instr {
	t.Helper()
	var found *ir.Instr
	ls.Instrs(func(in *ir.Instr) bool {
		if in.Nam == name {
			found = in
		}
		return found == nil
	})
	if found == nil {
		t.Fatalf("no loop instruction %%%s", name)
	}
	return found
}

// TestHoistBuildsPreheaderAndMovesInvariant: the header has two outside
// predecessors, so Hoist first builds a pre-header (merging the entry
// incomings of the header phis), then moves %k there.
func TestHoistBuildsPreheaderAndMovesInvariant(t *testing.T) {
	m, ls := onlyLoop(t, hoistSrc)
	want := onWalker(t, m)
	k := loopInstr(t, ls, "k")
	if ls.Preheader != nil {
		t.Fatal("fixture already has a pre-header")
	}
	if !loopbuilder.Hoist(ls, k) {
		t.Fatal("Hoist refused an invariant multiply")
	}
	if ls.Preheader == nil || k.Parent != ls.Preheader || ls.ContainsInstr(k) {
		t.Fatalf("%%k is in %s, want the new pre-header", k.Parent.Nam)
	}
	checkTransformed(t, m, want)
}

// TestHoistRefusesWhatCannotMove: phis, stores and terminators stay put
// and the module is left as it was.
func TestHoistRefusesWhatCannotMove(t *testing.T) {
	m, ls := onlyLoop(t, hoistSrc)
	before := ir.Print(m)
	var store *ir.Instr
	ls.Instrs(func(in *ir.Instr) bool {
		if in.Opcode == ir.OpStore {
			store = in
		}
		return true
	})
	for _, in := range []*ir.Instr{loopInstr(t, ls, "i"), store, ls.Header.Terminator()} {
		if loopbuilder.Hoist(ls, in) {
			t.Errorf("Hoist moved %s", in.Opcode)
		}
	}
	if ir.Print(m) != before {
		t.Error("a refused Hoist changed the module")
	}
}

// promotable parses promoteSrc with call (possibly empty) in the body.
func promotable(t *testing.T, call string) (*ir.Module, *loops.LS, alias.Analysis) {
	t.Helper()
	m, ls := onlyLoop(t, strings.Replace(promoteSrc, "  CALL\n", call, 1))
	return m, ls, alias.NewCombined(alias.TypeBasicAA{}, alias.AndersenAA{PT: alias.NewPointsTo(m)})
}

// TestPromoteAccumulatorsLiftsCellIntoRegister: @total's load and store
// leave the loop; a header phi carries the value and one store writes it
// back at the exit.
func TestPromoteAccumulatorsLiftsCellIntoRegister(t *testing.T) {
	m, ls, aa := promotable(t, "")
	want := onWalker(t, m)
	if n := loopbuilder.PromoteAccumulators(ls, aa); n != 1 {
		t.Fatalf("promoted %d cells, want 1 (@total)", n)
	}
	total := m.GlobalByName("total")
	ls.Instrs(func(in *ir.Instr) bool {
		if (in.Opcode == ir.OpLoad && in.Ops[0] == total) || (in.Opcode == ir.OpStore && in.Ops[1] == total) {
			t.Errorf("%s of @total left in the loop", in.Opcode)
		}
		return true
	})
	checkTransformed(t, m, want)
}

// TestPromoteAccumulatorsRefusesLoopsWithCalls: a call may read or write
// the cell, so nothing is promoted and the module is left as it was.
func TestPromoteAccumulatorsRefusesLoopsWithCalls(t *testing.T) {
	m, ls, aa := promotable(t, "  call void @print_i64(%i)\n")
	before := ir.Print(m)
	if n := loopbuilder.PromoteAccumulators(ls, aa); n != 0 {
		t.Fatalf("promoted %d cells across a call", n)
	}
	if ir.Print(m) != before {
		t.Error("a refused promotion changed the module")
	}
}
